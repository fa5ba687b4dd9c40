"""Lockstep groups against solo engines: identity and time.

The paper compares its four policies on one workload realization.  The
orchestrator runs them as one lockstep group: the four engines advance
slot by slot on one
:class:`~repro.workload.materialize.WorkloadMaterialization`, whose
two-slot window computes each slot's demand and volume matrices once.
Solo engines each realize the whole workload themselves.

This benchmark runs the four-policy comparison at small scale both
ways, in this process, :data:`PAIRS` times alternately:

``group``
    ``Orchestrator(jobs=1).run_many`` of the four requests: one group.
``solo``
    Four ``SimulationEngine(...).run()`` calls, one per policy, each
    building its own workload.

It asserts that every group artifact is byte-identical to its solo run
(canonical ``RunResult.to_dict()`` JSON) and records the median time
ratio solo/group in ``BENCH_lockstep.json`` under
``benchmarks/reports/``.  The ratio has no bar: a bar needs at least
ten interleaved pairs that justify it on the hosts that run this
(DESIGN.md, "Workload materialization & lockstep groups").  Run via
``make bench-smoke``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.experiments.orchestrator import Orchestrator, RunRequest
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine

#: Slots per run: long enough that the workload is a visible share.
HORIZON = 12

#: Alternating group/solo rounds.
PAIRS = 3


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _group(config) -> tuple[float, list[str]]:
    requests = [RunRequest(config, policy) for policy in default_policies()]
    start = time.perf_counter()
    artifacts = Orchestrator(jobs=1).run_many(requests)
    elapsed = time.perf_counter() - start
    return elapsed, [_canonical(artifact.result) for artifact in artifacts]


def _solo(config) -> tuple[float, list[str]]:
    start = time.perf_counter()
    results = [
        SimulationEngine(config, policy).run() for policy in default_policies()
    ]
    elapsed = time.perf_counter() - start
    return elapsed, [_canonical(result) for result in results]


def test_lockstep_group_vs_solo(report_dir):
    config = scaled_config("small", seed=0).with_horizon(HORIZON)
    group_s, solo_s = [], []
    for _ in range(PAIRS):
        elapsed, group = _group(config)
        group_s.append(elapsed)
        elapsed, solo = _solo(config)
        solo_s.append(elapsed)
        assert group == solo

    ratio = statistics.median(s / g for s, g in zip(solo_s, group_s))
    report = {
        "benchmark": "lockstep_group_vs_solo",
        "scale": "small",
        "horizon": HORIZON,
        "policies": len(default_policies()),
        "pairs": PAIRS,
        "cpu_count": os.cpu_count(),
        "group_s": [round(value, 3) for value in group_s],
        "solo_s": [round(value, 3) for value in solo_s],
        "median_ratio_solo_over_group": round(ratio, 2),
        "byte_identical": True,
    }
    (report_dir / "BENCH_lockstep.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print()
    print(
        f"lockstep group vs solo ({len(default_policies())} policies, "
        f"small scale, {HORIZON} slots, {PAIRS} pairs): group "
        f"{statistics.median(group_s):.2f}s, solo "
        f"{statistics.median(solo_s):.2f}s, ratio {ratio:.2f}x"
    )
