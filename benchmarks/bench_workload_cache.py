"""Workload-cache benchmark: one materialization, many policies.

The paper's deliverables are sweeps -- several policies (and engine
option variants) judged over the *same* workload realization.  An
engine left to itself regenerates that realization for every run: the
VM population, the trace library and every realized per-slot demand
and volume matrix.  The orchestrator's per-process materialization
cache builds each workload once per worker, and every same-key run
after the first reuses it.

This benchmark executes the canonical sweep shape cold, twice:

``cached``
    ``Orchestrator(jobs=2)`` -- a plain pool whose workers each keep a
    materialization LRU, plus the shared-memory pack fan-out where it
    applies.
``recompute``
    The same requests on a plain 2-worker ``ProcessPoolExecutor``,
    each worker building ``SimulationEngine(...)`` around the request
    (:func:`_recompute`): every run generates its own workload and
    every task pickles its full pack.

Gates (asserted, and recorded in ``benchmarks/reports/``):

* cached sweep >= :data:`SPEEDUP_BAR` x the recompute sweep;
* results are byte-identical between the two sides -- fingerprints
  equal the requests' and canonical result documents are equal (the
  cache is an execution detail, invisible in every output byte);
* a large recorded pack engages the shared-memory fan-out (exactly
  one published segment) and stays byte-identical too.

A machine-readable ``BENCH_workload.json`` lands in
``benchmarks/reports/`` for the nightly trajectory.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.experiments.orchestrator import (
    EngineOptions,
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.results import RunResult
from repro.workload.packs import RecordedTraceSource, TracePack

#: Minimum cold-sweep speedup of the cached sweep over recompute.
SPEEDUP_BAR = 2.0

#: Worker processes on both sides of the comparison.
JOBS = 2

#: Sweep horizon: long enough that workload generation dominates.
HORIZON = 8

def _sweep_requests() -> list[RunRequest]:
    """The canonical sweep: 3 baselines x (validate x clairvoyant).

    Twelve runs, one materialization key -- fresh policy instances per
    request (policies carry cross-slot state).
    """
    config = scaled_config("tiny").with_horizon(HORIZON)
    return [
        RunRequest(
            config=config,
            policy=policy,
            options=EngineOptions(
                validate=validate, clairvoyant=clairvoyant
            ),
        )
        for validate in (False, True)
        for clairvoyant in (False, True)
        for policy in default_policies()[1:4]
    ]


def _recorded_requests(pack: TracePack) -> list[RunRequest]:
    config = scaled_config("tiny").with_horizon(4)
    return [
        RunRequest(config=config, policy=policy, pack=pack)
        for policy in default_policies()[1:3]
    ]


def _big_recorded_pack() -> TracePack:
    """A recorded day big enough to cross the shared-memory floor."""
    rng = np.random.default_rng(23)
    matrix = rng.uniform(0.05, 0.95, size=(200, 24 * 30))
    assert matrix.nbytes >= 1 << 20
    return TracePack(
        name="bench-recorded",
        source=RecordedTraceSource(utilization=matrix, steps_per_slot=30),
    )


def _canonical(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _recompute(request: RunRequest) -> RunResult:
    """The recompute reference: an engine building its own workload."""
    return SimulationEngine(
        request.resolved_config(),
        request.policy,
        validate=request.options.validate,
        clairvoyant=request.options.clairvoyant,
        workload=request.pack,
        engine=request.options.engine,
    ).run()


def _timed_cached_sweep(requests):
    """Elapsed seconds + artifacts + cache stats for one cold sweep."""
    with Orchestrator(store=ResultStore(), jobs=JOBS) as orchestrator:
        start = time.perf_counter()
        artifacts = orchestrator.run_many(requests)
        elapsed = time.perf_counter() - start
        stats = orchestrator.workload_cache_stats()
    return elapsed, artifacts, stats


def _timed_recompute_sweep(requests):
    """Elapsed seconds + results of the same sweep, recomputed."""
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        start = time.perf_counter()
        results = list(pool.map(_recompute, requests))
        elapsed = time.perf_counter() - start
    return elapsed, results


def _assert_identical(requests, cached_artifacts, recomputed):
    assert len(cached_artifacts) == len(recomputed) == len(requests)
    for request, ours, theirs in zip(requests, cached_artifacts, recomputed):
        assert ours.fingerprint == request.fingerprint()
        assert _canonical(ours.result) == _canonical(theirs)


def test_workload_cache_cold_sweep(report_dir):
    """Gate: the cached sweep >= 2x recompute on a same-workload sweep.

    The gate does not depend on the CPU count: the win is *eliminated
    recomputation* (one workload materialization per worker instead of
    one per run), not parallel overlap, so there is no skip.
    """
    requests = _sweep_requests()
    cached_elapsed, cached_artifacts, cache_stats = _timed_cached_sweep(
        requests
    )
    recompute_elapsed, recomputed = _timed_recompute_sweep(
        _sweep_requests()
    )
    assert len(cached_artifacts) == 12
    _assert_identical(requests, cached_artifacts, recomputed)
    # Every worker materialized the sweep's one workload at most once.
    assert cache_stats["misses"] <= JOBS
    assert cache_stats["hits"] >= len(cached_artifacts) - JOBS

    # -- shared-memory fan-out variant: a real recorded pack ---------------
    pack = _big_recorded_pack()
    shm_requests = _recorded_requests(pack)
    _, shm_artifacts, shm_stats = _timed_cached_sweep(shm_requests)
    _, shm_recomputed = _timed_recompute_sweep(_recorded_requests(pack))
    _assert_identical(shm_requests, shm_artifacts, shm_recomputed)
    shared = shm_stats["shared"]
    assert shared["segments"] == 1
    assert shared["bytes"] == pack.source.utilization.nbytes

    speedup = recompute_elapsed / cached_elapsed
    report = {
        "benchmark": "workload_cache_cold_sweep",
        "jobs": JOBS,
        "runs": len(cached_artifacts),
        "horizon": HORIZON,
        "cpu_count": os.cpu_count(),
        "cached": {
            "elapsed_s": round(cached_elapsed, 3),
            "materialization_misses": cache_stats["misses"],
            "materialization_hits": cache_stats["hits"],
            "slot_hits": cache_stats["slot_hits"],
            "slot_misses": cache_stats["slot_misses"],
        },
        "recompute": {"elapsed_s": round(recompute_elapsed, 3)},
        "shared_memory": {
            "segments": shared["segments"],
            "bytes": shared["bytes"],
        },
        "speedup_cached_vs_recompute": round(speedup, 2),
        "bars": {"speedup_min": SPEEDUP_BAR},
    }
    (report_dir / "BENCH_workload.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    lines = [
        f"workload-cache cold sweep ({len(cached_artifacts)} runs, "
        f"one workload, jobs={JOBS}, horizon {HORIZON})",
        f"  recompute   : {recompute_elapsed:7.2f}s",
        f"  cached      : {cached_elapsed:7.2f}s "
        f"(hits {cache_stats['hits']}, misses {cache_stats['misses']})",
        f"  shm fan-out : {shared['segments']} segment, "
        f"{shared['bytes'] / (1 << 20):.2f} MiB shared once",
        f"  speedup     : {speedup:7.2f}x (bar: >= {SPEEDUP_BAR}x)",
    ]
    (report_dir / "workload_cache.txt").write_text("\n".join(lines) + "\n")
    print()
    for line in lines:
        print(line)

    assert speedup >= SPEEDUP_BAR, (
        f"workload cache speedup regressed: {speedup:.2f}x < "
        f"{SPEEDUP_BAR}x (cached {cached_elapsed:.2f}s vs "
        f"recompute {recompute_elapsed:.2f}s)"
    )
