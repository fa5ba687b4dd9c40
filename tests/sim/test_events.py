"""Event-kind runs: engine config, slot-ledger identity, request ledger.

An event run is its slot ledger plus one request draw
(:func:`~repro.sim.engine.with_requests`).
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import EnerAwarePolicy
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import SimulationEngine, with_requests

EVENT = EngineCoreConfig(kind="event")


@pytest.fixture(scope="module")
def config():
    return scaled_config("tiny").with_horizon(8)


@pytest.fixture(scope="module")
def slot_result(config):
    return SimulationEngine(config, EnerAwarePolicy()).run()


def event_run(config):
    """An event run over its own simulation."""
    result = SimulationEngine(config, EnerAwarePolicy()).run()
    return with_requests(result, config.seed, EVENT)


@pytest.fixture(scope="module")
def event_result(config):
    return event_run(config)


def slot_dicts(result) -> list[dict]:
    return [record.to_dict() for record in result.slots]


class TestEngineCoreConfig:
    def test_defaults(self):
        core = EngineCoreConfig()
        assert core.kind == "slot"
        assert core.requests_per_vm_hour > 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            EngineCoreConfig(kind="warp")

    def test_rejects_non_positive_request_rate(self):
        # NaN passes a plain ``<= 0`` check and inf overflows the
        # Poisson draw mid-run; both must fail at construction.
        for rate in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="requests_per_vm_hour"):
                EngineCoreConfig(requests_per_vm_hour=rate)


class TestSlotBoundaryEquivalence:
    def test_all_four_policies_byte_identical(self):
        """Event runs from event-only requests (no slot twin to share
        a simulation with) match the slot runs byte for byte."""
        from repro.experiments.orchestrator import (
            EngineOptions,
            Orchestrator,
            RunRequest,
        )
        from repro.experiments.runner import default_policies
        from repro.sim.engine import run_policies

        config = scaled_config("tiny").with_horizon(4)
        slot_runs = run_policies(config, default_policies())
        with Orchestrator(jobs=1) as orchestrator:
            event_runs = [
                artifact.result
                for artifact in orchestrator.run_many(
                    [
                        RunRequest(
                            config=config,
                            policy=policy,
                            options=EngineOptions(engine=EVENT),
                        )
                        for policy in default_policies()
                    ]
                )
            ]
        for slot_run, event_run in zip(slot_runs, event_runs):
            assert event_run.requests is not None
            assert json.dumps(slot_dicts(event_run)) == json.dumps(
                slot_dicts(slot_run)
            ), slot_run.policy_name

    def test_slot_ledgers_byte_identical(self, slot_result, event_result):
        slot_bytes = json.dumps(slot_dicts(slot_result), sort_keys=True)
        event_bytes = json.dumps(slot_dicts(event_result), sort_keys=True)
        assert slot_bytes == event_bytes

    def test_request_ledger_is_deterministic(self, config, event_result):
        assert event_run(config).requests == event_result.requests

    def test_request_rows_reference_the_run(self, config, event_result):
        assert event_result.requests
        for slot, dc_index, latency_s, count in event_result.requests:
            assert 0 <= slot < config.horizon_slots
            assert 0 <= dc_index < config.n_dcs
            assert latency_s >= 0.0
            assert count > 0


class TestWithRequests:
    def test_slot_kind_returns_the_run_itself(self, config, slot_result):
        assert with_requests(slot_result, config.seed, EngineCoreConfig()) is (
            slot_result
        )
        slot_rate = EngineCoreConfig(requests_per_vm_hour=7.0)
        assert with_requests(slot_result, config.seed, slot_rate) is (
            slot_result
        )

    def test_event_kind_shares_the_slot_records(self, config, slot_result):
        event = with_requests(slot_result, config.seed, EVENT)
        assert event is not slot_result
        assert event.slots is slot_result.slots
        assert slot_result.requests is None
        assert (event.policy_name, event.config_name) == (
            slot_result.policy_name, slot_result.config_name
        )

    def test_rate_and_seed_pick_the_draw(self, config, slot_result):
        base = with_requests(slot_result, config.seed, EVENT).requests
        faster = with_requests(
            slot_result,
            config.seed,
            EngineCoreConfig(kind="event", requests_per_vm_hour=240.0),
        ).requests
        other_seed = with_requests(slot_result, config.seed + 1, EVENT)
        assert base != faster and base != other_seed.requests
        assert [row[:3] for row in base] == [row[:3] for row in faster]


class TestPercentileAccessors:
    """The request ledger's one reading, ``total_requests()``, and the
    ledger's round trip."""

    def test_slot_engine_degrades_to_none(self, slot_result):
        assert slot_result.requests is None
        assert slot_result.total_requests() is None

    def test_round_trip_preserves_the_ledger(self, event_result):
        from repro.sim.results import RunResult

        back = RunResult.from_dict(
            json.loads(json.dumps(event_result.to_dict()))
        )
        assert back.requests == event_result.requests
        assert back.total_requests() == event_result.total_requests()

    def test_slot_engine_dump_has_no_requests_key(self, slot_result):
        assert "requests" not in slot_result.to_dict()
