"""Request sampling (the event run kind): throughput gate plus byte-identity.

An event-kind run is a slot-kind run's ledger plus one request draw
(:func:`~repro.sim.engine.with_requests`): each slot's user requests
land in a per-request latency ledger that a slot-kind run never
builds.  The kind is reachable through a suite's ``engines`` axis and
``RunRequest.options``; perfbench's ``campaign_service`` workload runs
it.  Two properties keep it honest:

* **byte-identity** -- the event run's slot-boundary ledgers must
  serialize byte for byte equal to the slot run's over a multi-day
  run (same config, same policy, same seed);
* **throughput** -- the event run must sustain a floor of simulated
  requests per wall-clock second over the whole run (ledger rows are
  per-(slot, DC) batches, so the floor bounds the cost of request
  sampling on top of the slot loop, not Python-per-request work).

A machine-readable ``BENCH_events.json`` (run times, request count
and throughput) lands in ``benchmarks/reports/`` (uploaded by the
nightly workflow) so the event run's perf trajectory is recorded run
over run.  Run via ``make bench-smoke`` (or directly with pytest).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.baselines import EnerAwarePolicy
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import SimulationEngine, with_requests

#: Simulated horizon: two days, so tariff edges, PV cycles and battery
#: regime changes all occur.
HORIZON_SLOTS = 48

#: Timed event-kind runs; the best repeat is scored.
REPEATS = 2

#: Required simulated requests sampled per wall-clock second.
REQUIRED_REQUESTS_PER_S = 50_000.0


def _slot_bytes(result) -> bytes:
    """Canonical serialized form of the slot-boundary ledgers."""
    return json.dumps(
        [record.to_dict() for record in result.slots], sort_keys=True
    ).encode()


@pytest.fixture(scope="module")
def drivers():
    """Slot- and event-kind runs of the same two-day experiment; an
    event run is timed over its slot loop and its request draw."""
    config = scaled_config("small").with_horizon(HORIZON_SLOTS)
    start = time.perf_counter()
    slot_result = SimulationEngine(config, EnerAwarePolicy()).run()
    slot_s = time.perf_counter() - start
    event_s = float("inf")
    event_result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        candidate = with_requests(
            SimulationEngine(config, EnerAwarePolicy()).run(),
            config.seed,
            EngineCoreConfig(kind="event"),
        )
        elapsed = time.perf_counter() - start
        if elapsed < event_s:
            event_s, event_result = elapsed, candidate
    return config, slot_result, slot_s, event_result, event_s


def test_event_core_slot_ledgers_byte_identical(drivers):
    """Slot-boundary snapshots match the slot-kind run byte for byte."""
    _, slot_result, _, event_result, _ = drivers
    assert _slot_bytes(event_result) == _slot_bytes(slot_result)
    # An event run's extra product is the request ledger; a slot run
    # must keep degrading to None rather than faking one.
    assert event_result.total_requests() > 0
    assert slot_result.total_requests() is None


def test_event_core_request_throughput(drivers, report_dir):
    """An event-kind run sustains the simulated-requests/s floor."""
    config, _, slot_s, event_result, event_s = drivers
    total_requests = event_result.total_requests()
    requests_per_s = total_requests / event_s
    lines = [
        "bench_events: event-kind run (request sampling) vs slot-kind run",
        f"  small scale, {HORIZON_SLOTS} slots, "
        f"{len(config.specs)} DCs, best of {REPEATS}",
        f"  slot run  {slot_s:6.2f} s/run",
        f"  event run {event_s:6.2f} s/run "
        f"({total_requests} simulated requests)",
        f"  throughput {requests_per_s:10.0f} requests/s "
        f"(required >= {REQUIRED_REQUESTS_PER_S:.0f})",
    ]
    from conftest import write_report

    write_report(report_dir, "bench_events.txt", lines)
    payload = {
        "benchmark": "bench_events",
        "config": "small",
        "horizon_slots": HORIZON_SLOTS,
        "repeats": REPEATS,
        "slot_driver_s": slot_s,
        "event_driver_s": event_s,
        "total_requests": total_requests,
        "requests_per_s": requests_per_s,
        "required_requests_per_s": REQUIRED_REQUESTS_PER_S,
    }
    (report_dir / "BENCH_events.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert requests_per_s >= REQUIRED_REQUESTS_PER_S, (
        f"event run sampled only {requests_per_s:.0f} simulated "
        f"requests/s (need >= {REQUIRED_REQUESTS_PER_S:.0f})"
    )
