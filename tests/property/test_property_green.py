"""Property-based tests on the green controller and tariffs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_site, make_specs
from tests.oracles import green_run_slot
from repro.core.green import GreenController
from repro.datacenter.datacenter import Datacenter
from repro.datacenter.price import TwoLevelTariff
from repro.sim.config import build_datacenters
from repro.units import SECONDS_PER_HOUR


def fresh_dc():
    """A one-DC fleet (Lisbon) at 30 steps per slot: its site
    conditions and a fresh live DC."""
    site = make_site(make_specs()[:1], seed=1, steps_per_slot=30)
    return site, Datacenter(site, index=0)


def source(controller, site, dc, slot, power):
    """One DC's slot through the fleet controller."""
    return controller.run_slot_fleet([dc], site.at(slot), power[None, :])[0]


class TestGreenControllerProperties:
    @given(
        watts=st.floats(0.0, 5000.0, allow_nan=False),
        slot=st.integers(0, 72),
        soc_fraction=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_conserves_for_any_state(self, watts, slot, soc_fraction):
        site, dc = fresh_dc()
        # Start anywhere in the *valid* SoC range [floor, capacity].
        floor = dc.battery.floor_joules
        dc.battery.soc_joules = floor + (
            dc.battery.capacity_joules - floor
        ) * soc_fraction
        controller = GreenController()
        ledger = source(controller, site, dc, slot, np.full(30, watts))
        ledger.sanity_check()
        assert ledger.grid_cost_eur >= 0.0
        assert dc.battery.floor_joules - 1e-6 <= dc.battery.soc_joules
        assert dc.battery.soc_joules <= dc.battery.capacity_joules + 1e-6

    @given(
        watts=st.floats(10.0, 5000.0, allow_nan=False),
        slot=st.integers(0, 48),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_load_never_cheaper(self, watts, slot):
        def cost_for(power_watts: float) -> float:
            site, dc = fresh_dc()
            controller = GreenController()
            return source(
                controller, site, dc, slot, np.full(30, power_watts)
            ).grid_cost_eur

        assert cost_for(watts * 2.0) >= cost_for(watts) - 1e-9

    @given(slot=st.integers(0, 48))
    @settings(max_examples=30, deadline=None)
    def test_zero_load_never_discharges(self, slot):
        site, dc = fresh_dc()
        controller = GreenController()
        ledger = source(controller, site, dc, slot, np.zeros(30))
        assert ledger.battery_discharged == 0.0
        assert ledger.grid_to_load == 0.0


class TestFleetKernelProperties:
    """GreenSlotResult invariants hold through the fleet kernel.

    The fleet slots sweep peak/off-peak tariff boundaries (slots cover
    three days across three time zones) and battery saturation (SoC
    from the DoD floor to full, loads from idle to far beyond PV), and
    every ledger must match the scalar per-DC oracle bit for bit.
    """

    @given(
        watts=st.lists(
            st.floats(0.0, 50000.0, allow_nan=False), min_size=3, max_size=3
        ),
        slot=st.integers(0, 72),
        soc_fractions=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fleet_ledgers_match_reference_and_conserve(
        self, watts, slot, soc_fractions
    ):
        site = make_site(make_specs(), seed=1, steps_per_slot=30)

        def fleet(soc_fractions):
            dcs = build_datacenters(site)
            for dc, fraction in zip(dcs, soc_fractions):
                floor = dc.battery.floor_joules
                dc.battery.soc_joules = floor + (
                    dc.battery.capacity_joules - floor
                ) * fraction
            return dcs

        power = np.stack([np.full(30, value) for value in watts])
        controller = GreenController()
        reference_dcs = fleet(soc_fractions)
        reference = [
            green_run_slot(controller, dc, slot, power[dc.index])
            for dc in reference_dcs
        ]
        fleet_dcs = fleet(soc_fractions)
        ledgers = controller.run_slot_fleet(fleet_dcs, site.at(slot), power)

        assert ledgers == reference
        for ledger, dc, ref_dc in zip(ledgers, fleet_dcs, reference_dcs):
            ledger.sanity_check()
            # Energy conservation and the PV split, spelled out.
            supplied = (
                ledger.pv_used + ledger.battery_discharged + ledger.grid_to_load
            )
            assert supplied == pytest.approx(ledger.facility_energy)
            split = ledger.pv_used + ledger.pv_stored + ledger.pv_curtailed
            assert split == pytest.approx(ledger.pv_generated)
            assert ledger.grid_energy == pytest.approx(
                ledger.grid_to_load + ledger.grid_to_battery
            )
            assert ledger.grid_cost_eur >= 0.0
            assert dc.battery.soc_joules == ref_dc.battery.soc_joules
            assert (
                dc.battery.floor_joules - 1e-6
                <= dc.battery.soc_joules
                <= dc.battery.capacity_joules + 1e-6
            )


class TestTariffProperties:
    @given(
        time_s=st.floats(0.0, 1e7, allow_nan=False),
        peak=st.floats(0.01, 1.0, allow_nan=False),
        ratio=st.floats(0.1, 1.0, allow_nan=False),
        tz=st.floats(-12.0, 12.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_price_is_one_of_two_levels(self, time_s, peak, ratio, tz):
        tariff = TwoLevelTariff(
            peak_price=peak, offpeak_price=peak * ratio, tz_offset_hours=tz
        )
        price = tariff.price_per_kwh(time_s)
        assert price in (tariff.peak_price, tariff.offpeak_price)

    @given(time_s=st.floats(0.0, 1e7, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_24h_periodicity(self, time_s):
        tariff = TwoLevelTariff()
        day = 24.0 * SECONDS_PER_HOUR
        assert tariff.is_peak(time_s) == tariff.is_peak(time_s + day)

    @given(
        joules=st.floats(0.0, 1e9, allow_nan=False),
        time_s=st.floats(0.0, 1e6, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_cost_linear_in_energy(self, joules, time_s):
        tariff = TwoLevelTariff()
        assert tariff.cost_of(2 * joules, time_s) == pytest.approx(
            2 * tariff.cost_of(joules, time_s)
        )
