# Developer entry points for the PahlevanVA16 reproduction.
#
#   make test        - tier-1 test suite (fast; what CI gates on)
#   make bench-smoke - tiny-scale benchmark suite: orchestrator fan-out,
#                      result-store warm hits, store-backend write/read/
#                      scan (per-file vs segment), the
#                      experiment-service warm wire throughput (8
#                      concurrent clients vs one daemon: batched +
#                      gzip + headline-projected submit_many vs one
#                      one-entry batch POST per artifact ->
#                      BENCH_service.json), a four-policy lockstep
#                      group against four solo engines
#                      (bench_lockstep: byte-identical, time ratio
#                      recorded, no bar -> BENCH_lockstep.json),
#                      the slot kernel's per-slot IT-power and
#                      response-latency hot paths, cold-population
#                      slot volumes and the paper-width repulsion and
#                      local phase (bench_scaling; times only), the
#                      request-sampling (--engine event) throughput +
#                      byte-identity gate (bench_events ->
#                      BENCH_events.json) and the
#                      campaign-ledger overhead gate (bench_suite:
#                      1k-run warm sweep, suite <= 1.10x raw
#                      submit_many -> BENCH_suite.json) and the
#                      8-slot paper-scale smoke (bench_paper_smoke:
#                      four audited policies, each lockstep sub-group
#                      computing each demand row once, wall time and
#                      peak memory -> BENCH_paper_smoke.json)
#   make service-drill - one daemon, two fresh campaigns of the mini
#                      suite: the cold one executes 4 runs, the warm
#                      one 0, and their outputs diff clean
#   make bench       - full benchmark harness (slow: one-week comparison)

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test bench-smoke bench store-compact-nightly service-drill

test:
	$(PYTEST) -x -q

# NOTE: -k matches whole node ids (module names included), so keywords
# must not appear in every bench_* filename or the filter is a no-op.
bench-smoke:
	$(PYTEST) -q benchmarks/bench_orchestrator.py \
		benchmarks/bench_scaling.py benchmarks/bench_store.py \
		benchmarks/bench_service.py benchmarks/bench_lockstep.py \
		benchmarks/bench_events.py benchmarks/bench_suite.py \
		benchmarks/bench_paper_smoke.py \
		-k "orchestrator or it_power or response_latencies or volumes or paper_width or store or service or lockstep or event_core or suite or paper_smoke" \
		--benchmark-min-rounds=3

# Nightly follow-up to bench-smoke: compact the segment store the
# service benchmark leaves behind so tombstoned/duplicated records
# never accumulate between runs (the scheduled-compaction path).
store-compact-nightly:
	PYTHONPATH=src python -m repro store compact \
		--store benchmarks/reports/service_store

# Nightly service drill: `repro serve` behind two fresh campaigns of
# the mini suite, which between them drive every client read (the warm
# poll, the batch, the stream and the output stage's lookup).  The
# daemon is stopped however the drill ends.
DRILL := benchmarks/reports/drill
DRILL_URL := http://127.0.0.1:8123
REPRO := PYTHONPATH=src python -m repro

service-drill:
	rm -rf $(DRILL) $(DRILL)-store
	mkdir -p $(DRILL)
	$(REPRO) serve --port 8123 --store $(DRILL)-store & daemon=$$!; \
	trap 'kill $$daemon' EXIT; set -e; \
	for attempt in $$(seq 50); do \
		PYTHONPATH=src python -c "from repro.service import ServiceClient; \
			ServiceClient('$(DRILL_URL)').ping()" 2>/dev/null && break; \
		sleep 0.2; \
	done; \
	$(REPRO) suite run examples/suites/mini.toml --service $(DRILL_URL) \
		--ledger $(DRILL)/L1 --out $(DRILL)/O1 > $(DRILL)/cold.txt; \
	cat $(DRILL)/cold.txt; grep -q ", 4 executed," $(DRILL)/cold.txt; \
	$(REPRO) suite run examples/suites/mini.toml --service $(DRILL_URL) \
		--ledger $(DRILL)/L2 --out $(DRILL)/O2 > $(DRILL)/warm.txt; \
	cat $(DRILL)/warm.txt; grep -q ", 0 executed," $(DRILL)/warm.txt; \
	diff -r $(DRILL)/O1 $(DRILL)/O2

bench:
	$(PYTEST) -q benchmarks
