"""Datacenter spec + live aggregate."""

import pytest

from tests.conftest import make_site, make_specs
from repro.datacenter.datacenter import Datacenter, DatacenterSpec


@pytest.fixture
def spec():
    return make_specs()[0]


@pytest.fixture
def live(spec) -> Datacenter:
    return Datacenter(make_site([spec], seed=1), index=0)


class TestSpec:
    def test_capacity_cores(self, spec):
        assert spec.total_capacity_cores == spec.n_servers * 8

    def test_max_it_power(self, spec):
        per_server = spec.server_model.levels[-1].peak_watts
        assert spec.max_it_power_watts() == spec.n_servers * per_server

    def test_max_slot_energy_above_it(self, spec):
        assert spec.max_slot_energy_joules() > spec.max_it_power_watts() * 3600.0

    def test_servers_required(self, spec):
        with pytest.raises(ValueError):
            DatacenterSpec(name="x", latitude=0.0, longitude=0.0, n_servers=0)

    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            DatacenterSpec(name="x", latitude=99.0, longitude=0.0, n_servers=1)

    def test_bandwidth_positive(self):
        with pytest.raises(ValueError):
            DatacenterSpec(
                name="x",
                latitude=0.0,
                longitude=0.0,
                n_servers=1,
                local_bandwidth_bps=0.0,
            )


class TestLive:
    def test_battery_sized_from_spec(self, live, spec):
        assert live.battery.capacity_joules == pytest.approx(
            spec.battery_kwh * 3.6e6
        )

    def test_pv_sized_from_spec(self, live, spec):
        assert live.pv.kwp == spec.pv_kwp

    def test_name_passthrough(self, live, spec):
        assert live.name == spec.name

    def test_grid_price_tracks_tariff(self, live, spec):
        assert live.grid_price_at(12) == spec.tariff.price_at_slot(12)

    def test_record_slot_updates_predictor(self, live):
        live.record_slot(3, facility_energy_joules=5.0e6, pv_energy_joules=1.0e6)
        assert live.last_slot_energy_joules == 5.0e6

    def test_record_slot_feeds_forecaster(self, live):
        before = live.renewable_forecast_joules(36)
        for day in range(4):
            live.record_slot(12 + 24 * day, 1.0, before * 0.05)
        assert live.renewable_forecast_joules(12 + 24 * 4) < max(before, 1.0)

    def test_record_negative_rejected(self, live):
        with pytest.raises(ValueError):
            live.record_slot(0, -1.0, 0.0)

    def test_zero_battery_dc(self):
        bare = DatacenterSpec(
            name="bare",
            latitude=0.0,
            longitude=0.0,
            n_servers=2,
            battery_kwh=0.0,
        )
        dc = Datacenter(make_site([bare]), index=0)
        assert dc.battery.usable_joules == 0.0
