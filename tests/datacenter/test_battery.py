"""Battery bank: DoD floor, efficiency, C-rate, conservation."""

import pytest

from repro.datacenter.battery import Battery
from repro.units import kwh_to_joules


@pytest.fixture
def bank() -> Battery:
    return Battery(capacity_joules=1.0e6, dod=0.5, max_c_rate=0.5)


class TestConstruction:
    def test_defaults_full(self, bank):
        assert bank.soc_joules == bank.capacity_joules

    def test_from_kwh(self):
        bank = Battery.from_kwh(2.0)
        assert bank.capacity_joules == kwh_to_joules(2.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Battery(capacity_joules=-1.0)

    def test_bad_dod_rejected(self):
        with pytest.raises(ValueError):
            Battery(capacity_joules=1.0, dod=0.0)
        with pytest.raises(ValueError):
            Battery(capacity_joules=1.0, dod=1.5)

    def test_soc_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            Battery(capacity_joules=1.0, soc_joules=2.0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            Battery(capacity_joules=1.0, charge_efficiency=0.0)
        with pytest.raises(ValueError):
            Battery(capacity_joules=1.0, discharge_efficiency=1.5)


class TestDoD:
    def test_floor_respects_dod(self, bank):
        assert bank.floor_joules == pytest.approx(0.5e6)

    def test_usable_excludes_floor(self, bank):
        expected = (1.0e6 - 0.5e6) * bank.discharge_efficiency
        assert bank.usable_joules == pytest.approx(expected)

    def test_discharge_never_crosses_floor(self, bank):
        bank.discharge(1.0e9, duration_s=3600.0 * 100)
        assert bank.soc_joules >= bank.floor_joules - 1e-9

    def test_empty_battery_zero_usable(self):
        bank = Battery(capacity_joules=1.0e6, dod=0.5, soc_joules=0.5e6)
        assert bank.usable_joules == 0.0


class TestDischarge:
    def test_delivers_requested_when_available(self, bank):
        delivered = bank.discharge(1000.0)
        assert delivered == pytest.approx(1000.0)

    def test_soc_drops_by_more_than_delivered(self, bank):
        start = bank.soc_joules
        delivered = bank.discharge(1000.0)
        assert start - bank.soc_joules == pytest.approx(
            delivered / bank.discharge_efficiency
        )

    def test_c_rate_limits_burst(self, bank):
        # 0.5 C over one second: at most capacity * 0.5 / 3600 deliverable.
        delivered = bank.discharge(1.0e9, duration_s=1.0)
        limit = 0.5 * bank.capacity_joules / 3600.0 * bank.discharge_efficiency
        assert delivered == pytest.approx(limit)

    def test_negative_request_rejected(self, bank):
        with pytest.raises(ValueError):
            bank.discharge(-1.0)


class TestCharge:
    def test_accepts_offer_with_headroom(self):
        bank = Battery(capacity_joules=1.0e6, soc_joules=0.5e6)
        accepted = bank.charge(1000.0)
        assert accepted == pytest.approx(1000.0)

    def test_full_bank_accepts_nothing(self, bank):
        assert bank.charge(1000.0) == 0.0

    def test_soc_rises_by_efficiency_scaled(self):
        bank = Battery(capacity_joules=1.0e6, soc_joules=0.5e6)
        start = bank.soc_joules
        accepted = bank.charge(1000.0)
        assert bank.soc_joules - start == pytest.approx(
            accepted * bank.charge_efficiency
        )

    def test_c_rate_limits_charge(self):
        bank = Battery(capacity_joules=1.0e6, soc_joules=0.0, max_c_rate=0.5)
        accepted = bank.charge(1.0e9, duration_s=1.0)
        assert accepted == pytest.approx(0.5 * bank.capacity_joules / 3600.0)

    def test_negative_offer_rejected(self, bank):
        with pytest.raises(ValueError):
            bank.charge(-1.0)


class TestRoundTrip:
    def test_round_trip_loses_energy(self):
        bank = Battery(capacity_joules=1.0e6, soc_joules=0.5e6)
        accepted = bank.charge(10_000.0)
        delivered = bank.discharge(10_000.0)
        assert delivered < accepted

