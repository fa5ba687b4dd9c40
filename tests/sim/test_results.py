"""Result ledgers: aggregations from hand-built records, headlines."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.green import GreenSlotResult
from repro.sim.results import (
    HEADLINE_IDENTITY,
    HEADLINE_MEASURES,
    HEADLINE_PERCENTILES,
    OBJECTIVES,
    DCSlotRecord,
    HeadlineResult,
    RunResult,
    SlotRecord,
)


def green(facility=1000.0, grid_load=600.0, grid_batt=100.0, cost=0.05,
          pv_gen=500.0, pv_used=300.0, pv_stored=100.0):
    return GreenSlotResult(
        facility_energy=facility,
        pv_generated=pv_gen,
        pv_used=pv_used,
        pv_stored=pv_stored,
        pv_curtailed=pv_gen - pv_used - pv_stored,
        battery_discharged=facility - pv_used - grid_load,
        grid_to_load=grid_load,
        grid_to_battery=grid_batt,
        grid_energy=grid_load + grid_batt,
        grid_cost_eur=cost,
        soc_start=0.0,
        soc_end=0.0,
    )


def record(slot, latencies=(0.5, 1.0), receiving=(3, 2), migrations=1):
    dc_records = [
        DCSlotRecord(
            green=green(),
            it_energy_joules=800.0,
            active_servers=2,
            response_latency_s=latency,
            receiving_vms=count,
        )
        for latency, count in zip(latencies, receiving)
    ]
    return SlotRecord(
        slot=slot,
        n_vms=5,
        migrations=migrations,
        migration_volume_mb=2000.0,
        dc_records=dc_records,
    )


@pytest.fixture
def run() -> RunResult:
    return RunResult(
        policy_name="Test",
        config_name="unit",
        slots=[record(0), record(1, latencies=(2.0, 0.1), receiving=(1, 4))],
    )


class TestSlotRecord:
    def test_grid_cost_sums_dcs(self):
        slot = record(0)
        assert slot.grid_cost_eur == pytest.approx(0.10)

    def test_facility_energy_sums_dcs(self):
        slot = record(0)
        assert slot.facility_energy_joules == pytest.approx(2000.0)

    def test_grid_energy_sums_dcs(self):
        slot = record(0)
        assert slot.grid_energy_joules == pytest.approx(1400.0)

    def test_response_samples_weighted_by_receivers(self):
        samples = record(0).response_samples()
        assert samples.shape == (5,)
        assert np.sum(samples == 0.5) == 3
        assert np.sum(samples == 1.0) == 2

    def test_no_receivers_no_samples(self):
        slot = record(0, receiving=(0, 0))
        assert slot.response_samples().size == 0


class TestRunResult:
    def test_total_cost(self, run):
        assert run.total_grid_cost_eur() == pytest.approx(0.20)

    def test_hourly_cost_series(self, run):
        assert np.allclose(run.hourly_cost_eur(), [0.10, 0.10])

    def test_total_energy(self, run):
        assert run.total_facility_energy_joules() == pytest.approx(4000.0)
        assert run.total_energy_gj() == pytest.approx(4000.0 / 1e9)

    def test_hourly_energy_series(self, run):
        assert np.allclose(run.hourly_energy_joules(), [2000.0, 2000.0])

    def test_grid_energy_total(self, run):
        assert run.total_grid_energy_joules() == pytest.approx(2800.0)

    def test_renewable_utilization(self, run):
        # (pv_used + pv_stored) / generated per the fixture's green ledger.
        assert run.renewable_utilization() == pytest.approx(400.0 / 500.0)

    def test_response_samples_concatenated(self, run):
        assert run.response_samples().shape == (10,)

    def test_mean_and_worst_response(self, run):
        samples = run.response_samples()
        assert run.mean_response_s() == pytest.approx(float(samples.mean()))
        assert run.worst_response_s() == pytest.approx(2.0)

    def test_percentile_response(self, run):
        assert run.percentile_response_s(50.0) <= run.percentile_response_s(99.0)

    def test_migration_totals(self, run):
        assert run.total_migrations() == 2
        assert run.total_migration_volume_mb() == pytest.approx(4000.0)

    def test_mean_active_servers(self, run):
        assert run.mean_active_servers() == pytest.approx(4.0)

    def test_headline_keys(self, run):
        headline = run.headline()
        assert list(headline) == [*HEADLINE_IDENTITY, *HEADLINE_MEASURES]
        assert headline["policy_name"] == "Test"
        assert headline["total_grid_cost_eur"] == run.total_grid_cost_eur()
        assert headline["p99_response_s"] == run.percentile_response_s(99.0)
        # A slot-kind run has no request ledger: its request count is null.
        assert headline["total_requests"] is None

    def test_empty_run_safe(self):
        empty = RunResult(policy_name="Empty", config_name="unit")
        assert empty.total_grid_cost_eur() == 0.0
        assert empty.mean_response_s() == 0.0
        assert empty.worst_response_s() == 0.0
        assert empty.mean_active_servers() == 0.0
        assert empty.renewable_utilization() == 0.0


class TestSerialization:
    def test_roundtrip_identity(self):
        run = RunResult(
            policy_name="Proposed",
            config_name="unit",
            slots=[record(0), record(1, latencies=(0.25, 2.0), migrations=3)],
        )
        clone = RunResult.from_dict(run.to_dict())
        assert clone.policy_name == run.policy_name
        assert clone.config_name == run.config_name
        assert clone.slots == run.slots

    def test_roundtrip_through_json_is_bit_exact(self):
        import json

        run = RunResult(
            policy_name="Net-aware",
            config_name="unit",
            slots=[record(0, latencies=(1 / 3, 0.1 + 0.2))],
        )
        clone = RunResult.from_dict(json.loads(json.dumps(run.to_dict())))
        assert clone.slots == run.slots
        assert clone.headline() == run.headline()

    def test_dc_record_roundtrip(self):
        original = record(0).dc_records[0]
        clone = DCSlotRecord.from_dict(original.to_dict())
        assert clone == original
        assert isinstance(clone.green, GreenSlotResult)

    def test_empty_run_roundtrip(self):
        empty = RunResult(policy_name="Empty", config_name="unit")
        assert RunResult.from_dict(empty.to_dict()) == empty

    def test_dc_record_dict_matches_asdict_oracle(self, tiny_runs):
        """Key order included: the dumps are compared unsorted."""
        from tests.oracles import dc_record_dict

        records = [
            dc_record
            for run in tiny_runs.values()
            for slot in run.slots
            for dc_record in slot.dc_records
        ] + record(0, latencies=(1 / 3, 0.1 + 0.2)).dc_records
        for dc_record in records:
            assert json.dumps(dc_record.to_dict()) == json.dumps(
                dc_record_dict(dc_record)
            )


@pytest.fixture(scope="module")
def tiny_runs():
    """Each kind's four-policy tiny comparison, by (kind, policy): the
    event runs are the slot runs plus their request draw."""
    from repro.experiments.runner import default_policies
    from repro.sim.config import EngineCoreConfig, scaled_config
    from repro.sim.engine import run_policies, with_requests

    config = scaled_config("tiny").with_horizon(4)
    event = EngineCoreConfig(kind="event")
    runs = {}
    for run in run_policies(config, default_policies()):
        runs["slot", run.policy_name] = run
        runs["event", run.policy_name] = with_requests(run, config.seed, event)
    return runs


POLICIES = ("Proposed", "Ener-aware", "Pri-aware", "Net-aware")


class TestHeadlineParity:
    """A headline answers like its run, and never reaches past itself."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind", ("slot", "event"))
    def test_headline_reads_like_the_run(self, tiny_runs, kind, policy):
        run = tiny_runs[kind, policy]
        # The wire form, with no way back to the full ledger.
        head = HeadlineResult(json.loads(json.dumps(run.headline())))
        for name in HEADLINE_IDENTITY:
            assert getattr(head, name) == getattr(run, name)
        for key, (accessor, *args) in HEADLINE_MEASURES.items():
            assert getattr(head, accessor)(*args) == (
                getattr(run, accessor)(*args)
            ), key
        for percentile in HEADLINE_PERCENTILES:
            assert head.percentile_response_s(int(percentile)) == (
                run.percentile_response_s(percentile)
            )
        assert (run.total_requests() is None) == (kind == "slot")
        for name, read in OBJECTIVES.items():
            assert read(head) == read(run), name
        assert head.headline() == run.headline()
        # Anything else needs the full ledger, which this view lacks;
        # the error names what was asked for.
        for name, reach in (
            ("slots", lambda: head.slots),
            ("hourly_cost_eur", lambda: head.hourly_cost_eur()),
            ("to_dict", lambda: head.to_dict()),
            ("percentile_response_s(50.0,)",
             lambda: head.percentile_response_s(50.0)),
        ):
            with pytest.raises(
                ValueError, match=f"^{re.escape(repr(name))} .*detail='full'"
            ):
                reach()

    def test_missing_key_raises_naming_full(self, tiny_runs):
        run = tiny_runs["slot", "Proposed"]
        headline = run.headline()
        del headline["total_grid_cost_eur"]
        head = HeadlineResult(headline)
        assert head.total_energy_gj() == run.total_energy_gj()
        with pytest.raises(ValueError, match="detail='full'"):
            head.total_grid_cost_eur()

    def test_headline_consumers_never_upgrade(self, tiny_runs):
        """Pareto, sensitivity and scenario rows read headlines alone."""
        from repro.analysis.pareto import alpha_sweep
        from repro.analysis.sensitivity import sweep_qos
        from repro.experiments.scenarios import run_scenarios
        from repro.sim.config import scaled_config

        class HeadlineOnly:
            """Answers each request with its policy's bare headline."""

            def run_many(self, requests, detail=None):
                assert detail == "headline"
                return [
                    SimpleNamespace(
                        result=HeadlineResult(
                            tiny_runs["slot", request.policy.name].headline()
                        )
                    )
                    for request in requests
                ]

        config = scaled_config("tiny").with_horizon(4)
        proposed = tiny_runs["slot", "Proposed"]
        (point,) = alpha_sweep(config, (0.5,), orchestrator=HeadlineOnly())
        assert point.cost_eur == proposed.total_grid_cost_eur()
        assert point.response_p99_s == proposed.percentile_response_s(99.0)
        (row,) = sweep_qos(config, (0.98,), orchestrator=HeadlineOnly())
        assert row.energy_gj == proposed.total_energy_gj()
        (outcome,) = run_scenarios(
            config, ("mixed",), orchestrator=HeadlineOnly()
        )
        assert outcome.proposed_p99_rt_s == point.response_p99_s
