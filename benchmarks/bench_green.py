"""Fleet-batched slot physics: one kernel pass vs the reference loops.

The engine's per-slot physics -- every DC's IT power, PUE scaling and
green-controller pass -- historically ran DC by DC: a fresh CSR
membership matrix per DC (or the per-server/per-VM reference loops)
and one scalar ``GreenController.run_slot`` per DC.  The fleet-batched
kernel evaluates the whole placement at once: one CSR product with
block rows per DC (``SimulationEngine._fleet_it_power``), one batched
PUE broadcast, and one ``GreenController.run_slot_fleet`` pass.

This benchmark drives both paths over a synthetic paper-scale slot --
Table I's 1500/1000/500-server fleet, 5 s control steps (720 per
slot), ~6000 concurrent VMs -- swept across a full simulated day so
night (grid-charge), midday (PV surplus) and evening-peak (discharge)
regimes all contribute:

* **bit-identity** -- the fleet kernel's ledgers must equal the
  reference's exactly at every slot of the day, through both the
  scalar-replay and the struct-of-arrays battery paths;
* **per-slot speedup** -- the fleet kernel's day-mean advantage over
  the reference loops, best of repeats, is measured and reported but
  not gated: slot physics is about 1% of a run, and the ratio sits
  near 3x with host noise on either side of any fixed threshold.

A machine-readable ``BENCH_green.json`` lands in
``benchmarks/reports/`` (uploaded by the nightly workflow) so the
engine-level perf trajectory is recorded run over run.  Run via
``make bench-smoke`` (or directly with pytest).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.baselines import EnerAwarePolicy
from repro.core.local import allocate_correlation_aware
from repro.datacenter.pue import fleet_pue
from repro.datacenter.server import XEON_E5410
from repro.sim.config import build_datacenters, paper_config
from repro.sim.engine import SimulationEngine
from repro.units import SECONDS_PER_HOUR

#: Concurrent VMs, split 3:2:1 over the fleet like the servers (the
#: paper's arrival process sustains thousands of VMs at steady state).
N_VMS = 6000

#: Slots timed by the speedup sweep: every third hour of one day, so
#: all tariff/PV regimes (night, sunrise, midday, evening peak) count.
TIMED_SLOTS = tuple(range(0, 24, 3))

#: Measurement repeats per path; the best repeat is scored.
REPEATS = 3


@pytest.fixture(scope="module")
def physics():
    """Engine, fleet and a paper-scale placement for one slot."""
    config = paper_config().with_horizon(1)
    engine = SimulationEngine(config, EnerAwarePolicy())
    dcs = build_datacenters(config)
    rng = np.random.default_rng(0)
    demand = rng.uniform(0.05, 0.8, size=(N_VMS, config.steps_per_slot))
    vm_rows = {vm_id: vm_id for vm_id in range(N_VMS)}
    allocations = []
    start = 0
    for spec, share in zip(config.specs, (3, 2, 1)):
        count = N_VMS * share // 6
        allocations.append(
            allocate_correlation_aware(
                list(range(start, start + count)),
                demand[start : start + count],
                XEON_E5410,
                spec.n_servers,
            )
        )
        start += count

    class PlacementStub:
        """Bare allocations holder (the physics never reads more)."""

    placement = PlacementStub()
    placement.allocations = allocations
    base_times = (np.arange(config.steps_per_slot) + 0.5) * (
        SECONDS_PER_HOUR / config.steps_per_slot
    )
    # Warm the per-day weather caches so timings compare kernels, not
    # first-touch RNG draws.
    for dc in dcs:
        dc.pv.power_watts(base_times)
        dc.pv.power_watts(base_times + 24 * SECONDS_PER_HOUR)
    return engine, dcs, placement, vm_rows, demand, base_times


def reference_slot(physics_tuple, slot):
    """One slot of per-DC loop physics (the ``vectorized=False`` path)."""
    engine, dcs, placement, vm_rows, demand, base_times = physics_tuple
    times = base_times + slot * SECONDS_PER_HOUR
    ledgers = []
    for dc in dcs:
        it_power, _ = engine._dc_it_power_loop(
            placement, dc.index, vm_rows, demand
        )
        facility = it_power * dc.spec.pue_model.pue(times)
        ledgers.append(engine.green.run_slot(dc, slot, facility))
    return ledgers


def fleet_slot(physics_tuple, slot):
    """One slot of fleet-batched physics (the ``vectorized=True`` path)."""
    engine, dcs, placement, vm_rows, demand, base_times = physics_tuple
    times = base_times + slot * SECONDS_PER_HOUR
    it_matrix, _ = engine._fleet_it_power(placement, vm_rows, demand)
    facility = it_matrix * fleet_pue(
        [dc.spec.pue_model for dc in dcs], times
    )
    return engine.green.run_slot_fleet(dcs, slot, facility)


def reset_batteries(dcs):
    """Full banks, as at the start of a run."""
    for dc in dcs:
        dc.battery.soc_joules = dc.battery.capacity_joules


def day_sweep(physics_tuple, slot_fn, slots=TIMED_SLOTS):
    """Ledgers of ``slot_fn`` over a day, batteries evolving across slots."""
    reset_batteries(physics_tuple[1])
    return [slot_fn(physics_tuple, slot) for slot in slots]


def test_green_fleet_bit_identical_over_a_day(physics):
    """Fleet kernel ledgers equal the loops' exactly, both battery paths."""
    slots = range(24)
    reference = day_sweep(physics, reference_slot, slots)
    fleet = day_sweep(physics, fleet_slot, slots)
    assert fleet == reference
    green = physics[0].green
    green.scalar_replay_max_dcs = 0  # force the struct-of-arrays loop
    try:
        fleet_soa = day_sweep(physics, fleet_slot, slots)
    finally:
        green.scalar_replay_max_dcs = 8
    assert fleet_soa == reference


def best_day_mean(physics_tuple, slot_fn) -> float:
    """Best-of-repeats mean seconds per slot over the timed day sweep."""
    best = float("inf")
    for _ in range(REPEATS):
        reset_batteries(physics_tuple[1])
        start = time.perf_counter()
        for slot in TIMED_SLOTS:
            slot_fn(physics_tuple, slot)
        best = min(best, (time.perf_counter() - start) / len(TIMED_SLOTS))
    return best


def test_green_fleet_speedup(physics, report_dir):
    """Report the fleet kernel's per-slot speedup over the reference loops."""
    reference_s = best_day_mean(physics, reference_slot)
    fleet_s = best_day_mean(physics, fleet_slot)
    speedup = reference_s / fleet_s
    active = [a.active_servers for a in physics[2].allocations]
    lines = [
        "bench_green: per-slot fleet physics kernel vs reference loops",
        f"  paper-scale fleet (1500/1000/500 servers, {sum(active)} active), "
        f"{N_VMS} VMs, 720 steps/slot",
        f"  (day-mean per-slot time over slots {TIMED_SLOTS}, "
        f"best of {REPEATS})",
        f"  reference loops {reference_s * 1e3:8.2f} ms/slot",
        f"  fleet kernel    {fleet_s * 1e3:8.2f} ms/slot",
        f"  speedup {speedup:5.2f}x  (reported, not gated)",
    ]
    from conftest import write_report

    write_report(report_dir, "bench_green.txt", lines)
    payload = {
        "benchmark": "bench_green",
        "config": "paper",
        "n_vms": N_VMS,
        "active_servers": active,
        "steps_per_slot": 720,
        "timed_slots": list(TIMED_SLOTS),
        "repeats": REPEATS,
        "reference_ms_per_slot": reference_s * 1e3,
        "fleet_ms_per_slot": fleet_s * 1e3,
        "speedup": speedup,
    }
    (report_dir / "BENCH_green.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
