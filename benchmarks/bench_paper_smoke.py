"""Paper-scale smoke: the literal Table I fleet, past the slot budget.

Runs the four-policy comparison on ``paper_config(0)`` (~1,200 live
VMs, 720 steps per slot) for 8 slots through a 2-worker orchestrator
and checks that

* every policy's ledger passes :func:`~repro.sim.audit.audit_run`;
* the run crossed the workload materialization's slot budget
  (``slot_declined > 0``).  Each paper slot realizes two demand and
  two volume matrices (~36 MB), so the 192 MiB budget is full after
  about 5 slots; 8 slots guarantee that matrices past it are served
  unkept -- the only path no tier-1 test reaches at full width.

About 40 s on 2 CPUs.  ``BENCH_paper_smoke.json`` lands in
``benchmarks/reports/``.  Run via ``make bench-smoke``.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.experiments.orchestrator import Orchestrator
from repro.experiments.runner import run_comparison
from repro.sim.audit import audit_run
from repro.sim.config import paper_config

REPORT_DIR = pathlib.Path(__file__).parent / "reports"

#: Slots simulated: enough to cross the default slot budget.
HORIZON = 8

#: Worker processes.
JOBS = 2


def test_paper_smoke_audits_and_crosses_budget():
    config = paper_config(0).with_horizon(HORIZON)
    start = time.perf_counter()
    with Orchestrator(jobs=JOBS) as orchestrator:
        results = run_comparison(config, orchestrator=orchestrator)
        cache = orchestrator.workload_cache_stats()
    wall_s = time.perf_counter() - start
    audits = {
        result.policy_name: audit_run(result, config) for result in results
    }

    REPORT_DIR.mkdir(exist_ok=True)
    report = {
        "benchmark": "paper_smoke",
        "horizon_slots": HORIZON,
        "jobs": JOBS,
        "wall_s": round(wall_s, 2),
        "audit_violations": {
            name: len(audit.violations) for name, audit in audits.items()
        },
        "workload_cache": {
            key: cache[key]
            for key in ("slot_hits", "slot_misses", "slot_declined", "bytes")
        },
    }
    (REPORT_DIR / "BENCH_paper_smoke.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(json.dumps(report, indent=2))

    assert len(results) == 4
    for audit in audits.values():
        audit.raise_if_failed()
    assert cache["slot_declined"] > 0
