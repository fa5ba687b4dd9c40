"""Green controller: source selection rules, conservation, cost."""

import numpy as np
import pytest

from tests.conftest import make_site
from tests.oracles import green_run_slot
from repro.core.green import GreenController, GreenSlotResult
from repro.datacenter.datacenter import Datacenter
from repro.sim.config import build_datacenters
from repro.units import SECONDS_PER_HOUR


@pytest.fixture
def site(specs):
    """Site conditions of a one-DC fleet (Lisbon), 60 steps per slot."""
    return make_site(specs[:1], seed=1)


@pytest.fixture
def dc(site) -> Datacenter:
    return Datacenter(site, index=0)


@pytest.fixture
def controller() -> GreenController:
    return GreenController()


def flat_power(watts: float, steps: int = 60) -> np.ndarray:
    return np.full(steps, watts)


def source(controller, site, dc, slot, power) -> GreenSlotResult:
    """One DC's slot through the fleet controller."""
    return controller.run_slot_fleet([dc], site.at(slot), power[None, :])[0]


def peak_slot(dc) -> int:
    """A slot inside the site's local-time peak window with no sun."""
    for slot in range(24):
        mid = (slot + 0.5) * SECONDS_PER_HOUR
        if dc.spec.tariff.is_peak(mid) and float(dc.pv.power_watts(mid)) == 0.0:
            return slot
    raise AssertionError("no dark peak slot found")


def offpeak_slot(dc) -> int:
    for slot in range(24):
        mid = (slot + 0.5) * SECONDS_PER_HOUR
        if not dc.spec.tariff.is_peak(mid) and float(dc.pv.power_watts(mid)) == 0.0:
            return slot
    raise AssertionError("no dark off-peak slot found")


class TestRules:
    def test_peak_discharges_battery(self, site, dc, controller):
        slot = peak_slot(dc)
        soc_before = dc.battery.soc_joules
        result = source(controller, site, dc, slot, flat_power(500.0))
        assert result.battery_discharged > 0.0
        assert dc.battery.soc_joules < soc_before

    def test_offpeak_charges_from_grid(self, site, dc, controller):
        dc.battery.soc_joules = dc.battery.floor_joules  # empty usable
        slot = offpeak_slot(dc)
        result = source(controller, site, dc, slot, flat_power(500.0))
        assert result.grid_to_battery > 0.0
        assert result.battery_discharged == 0.0
        assert dc.battery.soc_joules > dc.battery.floor_joules

    def test_pv_surplus_charges_battery(self, site, dc, controller):
        dc.battery.soc_joules = dc.battery.floor_joules
        result = source(controller, site, dc, 12, flat_power(1.0))  # noon, tiny load
        assert result.pv_stored > 0.0

    def test_pv_covers_load_before_grid(self, site, dc, controller):
        result = source(controller, site, dc, 12, flat_power(10.0))
        assert result.pv_used > 0.0
        assert result.grid_to_load < result.facility_energy

    def test_battery_never_below_floor(self, site, dc, controller):
        slot = peak_slot(dc)
        for offset in range(8):
            source(controller, site, dc, slot + 24 * offset, flat_power(5000.0))
        assert dc.battery.soc_joules >= dc.battery.floor_joules - 1e-6

    def test_zero_load_zero_cost(self, site, dc, controller):
        slot = peak_slot(dc)
        dc.battery.soc_joules = dc.battery.capacity_joules
        result = source(controller, site, dc, slot, flat_power(0.0))
        assert result.grid_cost_eur == 0.0
        assert result.grid_to_load == 0.0


class TestAccounting:
    def test_energy_conservation(self, site, dc, controller):
        for slot in (2, 12, 20):
            result = source(controller, site, dc, slot, flat_power(800.0))
            result.sanity_check()

    def test_facility_energy_matches_input(self, site, dc, controller):
        result = source(controller, site, dc, 3, flat_power(700.0))
        assert result.facility_energy == pytest.approx(700.0 * SECONDS_PER_HOUR)

    def test_grid_energy_is_load_plus_charging(self, site, dc, controller):
        dc.battery.soc_joules = dc.battery.floor_joules
        slot = offpeak_slot(dc)
        result = source(controller, site, dc, slot, flat_power(500.0))
        assert result.grid_energy == pytest.approx(
            result.grid_to_load + result.grid_to_battery
        )

    def test_cost_matches_tariff(self, site, dc, controller):
        """With a full battery unavailable, peak grid cost is price*energy."""
        dc.battery.soc_joules = dc.battery.floor_joules
        slot = peak_slot(dc)
        result = source(controller, site, dc, slot, flat_power(1000.0))
        expected = dc.spec.tariff.cost_of(
            result.grid_energy, (slot + 0.5) * SECONDS_PER_HOUR
        )
        assert result.grid_cost_eur == pytest.approx(expected, rel=1e-6)

    def test_soc_bookkeeping(self, site, dc, controller):
        start = dc.battery.soc_joules
        result = source(controller, site, dc, peak_slot(dc), flat_power(500.0))
        assert result.soc_start == start
        assert result.soc_end == dc.battery.soc_joules

    def test_sanity_check_catches_corruption(self):
        result = GreenSlotResult(
            facility_energy=100.0,
            pv_generated=0.0,
            pv_used=0.0,
            pv_stored=0.0,
            pv_curtailed=0.0,
            battery_discharged=0.0,
            grid_to_load=50.0,  # should be 100
            grid_to_battery=0.0,
            grid_energy=50.0,
            grid_cost_eur=0.0,
            soc_start=0.0,
            soc_end=0.0,
        )
        with pytest.raises(AssertionError):
            result.sanity_check()


class TestValidation:
    def test_charge_fraction_bounds(self):
        with pytest.raises(ValueError):
            GreenController(grid_charge_fraction=1.5)

    def test_power_must_be_1d(self, site, dc, controller):
        """Each DC's power row is a 1-D per-step series."""
        with pytest.raises(ValueError):
            controller.run_slot_fleet([dc], site.at(0), np.zeros((1, 2, 2)))

    def test_power_nonnegative(self, site, dc, controller):
        with pytest.raises(ValueError):
            controller.run_slot_fleet([dc], site.at(0), np.array([[-1.0]]))

    def test_empty_power_rejected(self, site, dc, controller):
        with pytest.raises(ValueError):
            controller.run_slot_fleet([dc], site.at(0), np.zeros((1, 0)))

    def test_power_must_match_the_conditions(self, site, dc, controller):
        """A step count other than the site's is refused."""
        with pytest.raises(ValueError, match="conditions"):
            controller.run_slot_fleet([dc], site.at(0), np.zeros((1, 30)))


def fresh_fleet(specs, soc_fraction: float | None = None):
    """A fleet's site conditions and fresh live DCs on them."""
    site = make_site(specs, seed=1)
    dcs = build_datacenters(site)
    if soc_fraction is not None:
        for dc in dcs:
            dc.battery.soc_joules = dc.battery.capacity_joules * soc_fraction
    return site, dcs


class TestFleetKernel:
    """run_slot_fleet: bit-identity with the scalar per-DC oracle."""

    def fleet_power(self, n_dcs: int = 3, steps: int = 60) -> np.ndarray:
        rng = np.random.default_rng(5)
        return rng.uniform(0.0, 2000.0, size=(n_dcs, steps))

    @pytest.mark.parametrize("slot", [2, 7, 12, 20])
    @pytest.mark.parametrize("soc_fraction", [0.55, 1.0])
    def test_matches_per_dc_reference(self, specs, controller, slot, soc_fraction):
        power = self.fleet_power()
        _, reference_dcs = fresh_fleet(specs, soc_fraction)
        site, fleet_dcs = fresh_fleet(specs, soc_fraction)
        reference = [
            green_run_slot(controller, dc, slot, power[dc.index])
            for dc in reference_dcs
        ]
        fleet = controller.run_slot_fleet(fleet_dcs, site.at(slot), power)
        assert fleet == reference
        for ref_dc, fleet_dc in zip(reference_dcs, fleet_dcs):
            assert fleet_dc.battery.soc_joules == ref_dc.battery.soc_joules

    @pytest.mark.parametrize("slot", [2, 12, 20])
    def test_wide_fleet_matches_per_dc_reference(self, specs, controller, slot):
        """Fleets wider than the paper's three DCs, over several slots."""
        wide = [specs[index % len(specs)] for index in range(10)]
        power = self.fleet_power(n_dcs=10)
        (_, reference_dcs), (site, fleet_dcs) = fresh_fleet(wide), fresh_fleet(wide)
        for offset in range(3):
            reference = [
                green_run_slot(controller, dc, slot + offset, power[dc.index])
                for dc in reference_dcs
            ]
            fleet = controller.run_slot_fleet(
                fleet_dcs, site.at(slot + offset), power
            )
            assert fleet == reference
        for ref_dc, fleet_dc in zip(reference_dcs, fleet_dcs):
            assert fleet_dc.battery.soc_joules == ref_dc.battery.soc_joules

    def test_mutates_every_battery(self, specs, controller):
        site, dcs = fresh_fleet(specs, 1.0)
        slot = peak_slot(dcs[0])
        controller.run_slot_fleet(
            dcs, site.at(slot), np.full((3, 60), 5000.0)
        )
        assert dcs[0].battery.soc_joules < dcs[0].battery.capacity_joules

    def test_empty_fleet_returns_empty(self, controller):
        assert controller.run_slot_fleet([], None, np.zeros((0, 4))) == []

    def test_rejects_row_mismatch(self, specs, controller):
        site, dcs = fresh_fleet(specs)
        with pytest.raises(ValueError):
            controller.run_slot_fleet(dcs, site.at(0), np.zeros((2, 60)))

    def test_rejects_1d_power(self, specs, controller):
        site, dcs = fresh_fleet(specs)
        with pytest.raises(ValueError):
            controller.run_slot_fleet(dcs, site.at(0), np.zeros(60))

    def test_rejects_negative_power(self, specs, controller):
        site, dcs = fresh_fleet(specs)
        with pytest.raises(ValueError):
            controller.run_slot_fleet(dcs, site.at(0), np.full((3, 60), -1.0))
