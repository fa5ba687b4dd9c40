"""Property tests: slot/event run equivalence.

An event-kind run's contract is *byte-identical* slot-boundary ledgers
against a slot-kind run -- for any seed, any of the four policies and
any workload pack kind (synthetic generator, recorded matrix).
Hypothesis sweeps that product at tiny scale; each
example simulates twice, once per kind, and compares the serialized
ledgers, which covers battery state, cost ledgers and migration counts
in one equality.  Each run must also pass the physics audit
(:func:`~repro.sim.audit.audit_run`: energy balance, SoC bounds,
server capacity), so the invariants hold on both kinds, not just agree
between them.  The request ledger that
:func:`~repro.sim.engine.with_requests` draws must equal the one
rebuilt from the slot ledgers by the documented sampling rule
(:func:`expected_requests`), row for row.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy
from repro.core.controller import ProposedPolicy
from repro.sim.audit import audit_run
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import SimulationEngine, with_requests
from repro.workload.materialize import build_materialization
from repro.workload.packs import RecordedTraceSource, TracePack

#: Slots per example; long enough for arrivals, departures, tariff
#: edges and migrations to all occur, short enough for ~10 examples.
HORIZON = 6

PACK_KINDS = ("synthetic", "recorded")

POLICIES = (ProposedPolicy, EnerAwarePolicy, PriAwarePolicy, NetAwarePolicy)


#: Third word of the request stream's seed sequence, as documented in
#: DESIGN.md ("Request sampling"); restated so the oracle below does
#: not share the engine's constant.
REQUEST_SALT = 0xE7


def expected_requests(run, seed: int, rate: float) -> list[list]:
    """The request ledger rebuilt from ``run.slots`` alone.

    Per slot, DCs in order: skip DCs without receiving VMs, draw
    ``Poisson(receiving_vms * rate)`` from ``default_rng([seed, slot,
    REQUEST_SALT])``, and keep nonzero counts as ``[slot, dc,
    latency_s, count]`` rows.
    """
    rows = []
    for record in run.slots:
        rng = np.random.default_rng([seed, record.slot, REQUEST_SALT])
        for dc_index, dc_record in enumerate(record.dc_records):
            if dc_record.receiving_vms == 0:
                continue
            count = int(rng.poisson(dc_record.receiving_vms * rate))
            if count:
                rows.append([
                    record.slot,
                    dc_index,
                    dc_record.response_latency_s,
                    count,
                ])
    return rows


def _recorded_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0xAB])
    return rng.uniform(0.1, 0.8, size=(3, 60))


def _pack(kind: str, seed: int) -> TracePack | None:
    if kind == "synthetic":
        return None
    return TracePack(
        name="prop-recorded",
        source=RecordedTraceSource(
            utilization=_recorded_matrix(seed), steps_per_slot=30
        ),
    )


class TestEventDriverEquivalence:
    @given(
        seed=st.integers(0, 4),
        pack_kind=st.sampled_from(PACK_KINDS),
        make_policy=st.sampled_from(POLICIES),
    )
    @settings(max_examples=12, deadline=None)
    def test_slot_ledgers_byte_identical(self, seed, pack_kind, make_policy):
        config = scaled_config("tiny", seed=seed).with_horizon(HORIZON)
        pack = _pack(pack_kind, seed)
        slot_engine = SimulationEngine(
            config,
            make_policy(),
            materialization=build_materialization(config, pack),
        )
        slot_run = slot_engine.run()
        event_engine = SimulationEngine(
            config,
            make_policy(),
            materialization=build_materialization(config, pack),
        )
        event = EngineCoreConfig(kind="event")
        event_run = with_requests(event_engine.run(), config.seed, event)
        for engine, run in (
            (slot_engine, slot_run), (event_engine, event_run)
        ):
            report = audit_run(run, engine.config)
            assert report.passed, report.violations[:5]
        slot_bytes = json.dumps(
            [record.to_dict() for record in slot_run.slots], sort_keys=True
        )
        event_bytes = json.dumps(
            [record.to_dict() for record in event_run.slots], sort_keys=True
        )
        assert event_bytes == slot_bytes
        # The ledgers' equality pins the derived aggregates too; spot
        # checks keep the failure message close to the physics.
        assert event_run.total_grid_cost_eur() == (
            slot_run.total_grid_cost_eur()
        )
        assert event_run.total_migrations() == slot_run.total_migrations()
        assert slot_run.requests is None
        assert event_run.requests == expected_requests(
            event_run, config.seed, event.requests_per_vm_hour
        )
