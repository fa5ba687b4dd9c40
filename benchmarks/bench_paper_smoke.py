"""Paper-scale smoke: the literal Table I fleet as lockstep groups.

Runs the four-policy comparison on ``paper_config(0)`` (~1,200 live
VMs, 720 steps per slot) for 8 slots through a 2-worker orchestrator
and checks that

* every policy's ledger passes :func:`~repro.sim.audit.audit_run`;
* each lockstep sub-group computes each (vm, slot) demand row once.
  With one workload and two workers the orchestrator splits the group
  in two, and each sub-group builds its own materialization: its
  ``slot_demand_many`` rows must equal the distinct (vm, slot) pairs
  its engines read -- slot ``s`` over the VMs alive at ``s`` or
  ``s + 1`` -- so no row is computed twice at full width.

Rows are counted in the pool workers by a wrapper installed before the
pool forks; each call appends ``pid trace-library-id rows`` to a file,
and a sub-group is one (pid, library) pair.

Wall time and peak memory (the main process and the largest pool worker)
land in ``BENCH_paper_smoke.json`` under ``benchmarks/reports/``.
About 30 s on 2 CPUs.  Run via ``make bench-smoke``.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import resource
import time

from repro.experiments.orchestrator import Orchestrator
from repro.experiments.runner import run_comparison
from repro.sim.audit import audit_run
from repro.sim.config import paper_config
from repro.workload.arrivals import VMPopulation
from repro.workload.traces import TraceLibrary

REPORT_DIR = pathlib.Path(__file__).parent / "reports"

#: Slots simulated.
HORIZON = 8

#: Worker processes.
JOBS = 2


def distinct_rows(config) -> int:
    """The (vm, slot) demand rows one group's engines read."""
    population = VMPopulation.generate(
        config.arrival_model, config.horizon_slots, seed=config.seed
    )
    alive = [
        {vm.vm_id for vm in population.alive(slot)}
        for slot in range(config.horizon_slots)
    ] + [set()]
    return sum(
        len(alive[slot] | alive[slot + 1])
        for slot in range(config.horizon_slots)
    )


def test_paper_smoke_audits_and_computes_rows_once(tmp_path, monkeypatch):
    config = paper_config(0).with_horizon(HORIZON)
    log = tmp_path / "rows.txt"
    demand_many = TraceLibrary.slot_demand_many

    def logged(library, vms, slot):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {id(library)} {len(vms)}\n")
        return demand_many(library, vms, slot)

    monkeypatch.setattr(TraceLibrary, "slot_demand_many", logged)
    start = time.perf_counter()
    with Orchestrator(jobs=JOBS) as orchestrator:
        results = run_comparison(config, orchestrator=orchestrator)
        cache = orchestrator.workload_cache_stats()
    wall_s = time.perf_counter() - start
    audits = {
        result.policy_name: audit_run(result, config) for result in results
    }
    rows: collections.Counter = collections.Counter()
    for line in log.read_text().splitlines():
        pid, library, count = line.split()
        rows[(pid, library)] += int(count)
    expected = distinct_rows(config)

    REPORT_DIR.mkdir(exist_ok=True)
    report = {
        "benchmark": "paper_smoke",
        "horizon_slots": HORIZON,
        "jobs": JOBS,
        "wall_s": round(wall_s, 2),
        "peak_rss_mb": {
            "main_process": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
            ),
            "largest_worker": round(
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024,
                1,
            ),
        },
        "audit_violations": {
            name: len(audit.violations) for name, audit in audits.items()
        },
        "sub_groups": len(rows),
        "demand_rows_per_sub_group": sorted(rows.values()),
        "distinct_rows": expected,
        "workload_cache": cache,
    }
    (REPORT_DIR / "BENCH_paper_smoke.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(json.dumps(report, indent=2))

    assert len(results) == 4
    for audit in audits.values():
        audit.raise_if_failed()
    assert cache["misses"] == len(rows) == JOBS
    assert all(count == expected for count in rows.values())
