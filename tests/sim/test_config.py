"""Experiment configurations: Table I fidelity and scaled variants."""

import pytest

from repro.sim.config import (
    ExperimentConfig,
    build_datacenters,
    build_latency_model,
    paper_config,
    scaled_config,
)
from repro.sim.kernel import SiteConditions


class TestPaperConfig:
    def test_table1_servers(self):
        config = paper_config()
        assert [spec.n_servers for spec in config.specs] == [1500, 1000, 500]

    def test_table1_pv(self):
        config = paper_config()
        assert [spec.pv_kwp for spec in config.specs] == [150.0, 100.0, 50.0]

    def test_table1_battery(self):
        config = paper_config()
        assert [spec.battery_kwh for spec in config.specs] == [960.0, 720.0, 480.0]

    def test_sites(self):
        config = paper_config()
        assert [spec.name for spec in config.specs] == [
            "Lisbon",
            "Zurich",
            "Helsinki",
        ]

    def test_five_second_sampling(self):
        assert paper_config().steps_per_slot == 720

    def test_one_week_horizon(self):
        assert paper_config().horizon_slots == 168

    def test_qos_window_is_72s(self):
        assert paper_config().latency_constraint_s == pytest.approx(72.0)

    def test_time_zones_increase_eastward(self):
        config = paper_config()
        offsets = [spec.tz_offset_hours for spec in config.specs]
        assert offsets == sorted(offsets)


class TestScaledConfig:
    def test_small_keeps_server_ratio(self):
        config = scaled_config("small")
        servers = [spec.n_servers for spec in config.specs]
        assert servers[0] == 3 * servers[2]
        assert servers[1] == 2 * servers[2]

    def test_energy_densities_preserved(self):
        config = scaled_config("small")
        paper = paper_config()
        for spec, paper_spec in zip(config.specs, paper.specs):
            assert spec.pv_kwp == pytest.approx(0.1 * spec.n_servers)
            density = paper_spec.battery_kwh / paper_spec.n_servers
            assert spec.battery_kwh == pytest.approx(density * spec.n_servers)

    def test_tiny_is_smaller(self):
        small = scaled_config("small")
        tiny = scaled_config("tiny")
        assert tiny.specs[0].n_servers < small.specs[0].n_servers
        assert tiny.horizon_slots < small.horizon_slots

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            scaled_config("enormous")

    def test_seed_propagates(self):
        assert scaled_config("tiny", seed=9).seed == 9


class TestConfigValidation:
    def test_with_horizon(self):
        config = scaled_config("tiny").with_horizon(5)
        assert config.horizon_slots == 5

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="bad", specs=())

    def test_bad_horizon_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            ExperimentConfig(name="bad", specs=tiny_config.specs, horizon_slots=0)

    def test_bad_qos_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            ExperimentConfig(name="bad", specs=tiny_config.specs, qos=1.0)


class TestBuilders:
    def test_build_datacenters_indexes(self, tiny_config):
        dcs = build_datacenters(SiteConditions(tiny_config))
        assert [dc.index for dc in dcs] == [0, 1, 2]
        assert all(
            dc.battery.soc_joules == dc.battery.capacity_joules for dc in dcs
        )

    def test_build_latency_model(self, tiny_config):
        model = build_latency_model(tiny_config)
        assert model.topology.n_dcs == 3
        assert model.topology.distance_m(0, 2) > 3.0e6  # Lisbon-Helsinki
