# Developer entry points for the PahlevanVA16 reproduction.
#
#   make test        - tier-1 test suite (fast; what CI gates on)
#   make bench-smoke - tiny-scale benchmark suite: orchestrator fan-out,
#                      result-store warm hits, store-backend write/read/
#                      scan (per-file vs segment), the
#                      experiment-service warm wire throughput (8
#                      concurrent clients vs one daemon: batched,
#                      headline-projected submit_many vs one
#                      one-entry batch POST per artifact ->
#                      BENCH_service.json), a four-policy lockstep
#                      group against four solo engines
#                      (bench_lockstep: byte-identical, time ratio
#                      recorded, no bar -> BENCH_lockstep.json),
#                      the slot kernel's per-slot IT-power and
#                      response-latency hot paths, slot volumes on a
#                      cold population and on the next slot's (the
#                      survivor gather), the repulsion at compare_small's
#                      width (test_repulsion_small_width), the
#                      paper-width repulsion and local phase
#                      (bench_scaling; times only), the
#                      request-sampling throughput + byte-identity
#                      gate of the event run kind, a suite-only axis
#                      (bench_events -> BENCH_events.json) and the
#                      campaign-ledger overhead gate (bench_suite:
#                      1k-run warm sweep, suite <= 1.10x raw
#                      submit_many -> BENCH_suite.json) and the
#                      8-slot paper-scale smoke (bench_paper_smoke:
#                      four audited policies, each lockstep sub-group
#                      computing each demand row once, wall time and
#                      peak memory -> BENCH_paper_smoke.json)
#   make leak-check  - the service and store tests under -X dev, with
#                      every ResourceWarning (an unclosed file or
#                      socket) an error
#   make service-drill - one daemon, two fresh campaigns of the mini
#                      suite: the cold one executes 4 runs, the warm
#                      one 0, and their outputs diff clean against
#                      each other and against an in-process run
#   make examples    - every examples/*.py run as a script with its
#                      defaults (about 8 s, half of it full_week.py)
#   make bench       - full benchmark harness (slow: one-week comparison)

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test bench-smoke bench store-compact-nightly service-drill leak-check \
	examples

test:
	$(PYTEST) -x -q

# Nightly: a file or socket left open past its owner's life fails the
# test that leaked it (its warning surfaces in a destructor, hence the
# second filter).
leak-check:
	PYTHONPATH=src python -X dev -m pytest -q tests/service tests/store \
		-W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning

# NOTE: -k matches whole node ids (module names included), so keywords
# must not appear in every bench_* filename or the filter is a no-op.
bench-smoke:
	$(PYTEST) -q benchmarks/bench_orchestrator.py \
		benchmarks/bench_scaling.py benchmarks/bench_store.py \
		benchmarks/bench_service.py benchmarks/bench_lockstep.py \
		benchmarks/bench_events.py benchmarks/bench_suite.py \
		benchmarks/bench_paper_smoke.py \
		-k "orchestrator or it_power or response_latencies or volumes or small_width or paper_width or store or service or lockstep or event_core or suite or paper_smoke" \
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
# daemon is stopped however the drill ends.  The same suite run
# in-process must write the same outputs as the cold campaign did
# over the wire.
DRILL := benchmarks/reports/drill
DRILL_URL := http://127.0.0.1:8123
REPRO := PYTHONPATH=src python -m repro

service-drill:
	rm -rf $(DRILL) $(DRILL)-store $(DRILL)-local-store
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
	diff -r $(DRILL)/O1 $(DRILL)/O2; \
	$(REPRO) suite run examples/suites/mini.toml \
		--store $(DRILL)-local-store --out $(DRILL)/local > /dev/null; \
	diff -r $(DRILL)/O1 $(DRILL)/local

# Nightly: every example as a script; tier-1 runs only the three whose
# main() reads no arguments.
examples:
	set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python $$script > /dev/null; \
	done

bench:
	$(PYTEST) -q benchmarks
