"""Capacity caps: free energy, waterfilling, conversions."""

import numpy as np
import pytest

from tests.conftest import make_datacenters, make_specs
from repro.core.capacity import (
    compute_capacity_caps,
    joules_to_core_capacity,
)


@pytest.fixture
def fleet(specs):
    return make_datacenters(specs, seed=1)


def warm_up(fleet, energy_per_dc=2.0e7):
    """Give every DC a demand history so the predictor has signal."""
    for dc in fleet:
        dc.record_slot(0, energy_per_dc, 0.0)


class TestCaps:
    def test_one_cap_per_dc(self, fleet):
        caps = compute_capacity_caps(fleet, slot=1)
        assert [cap.dc_index for cap in caps] == [0, 1, 2]

    def test_caps_nonnegative(self, fleet):
        warm_up(fleet)
        for cap in compute_capacity_caps(fleet, slot=1):
            assert cap.cap_joules >= 0.0
            assert cap.free_joules >= 0.0
            assert cap.grid_joules >= 0.0
            assert cap.cap_cores >= 0.0

    def test_cap_splits_into_free_and_grid(self, fleet):
        warm_up(fleet)
        for cap in compute_capacity_caps(fleet, slot=1):
            assert cap.cap_joules == pytest.approx(
                cap.free_joules + cap.grid_joules
            )

    def test_total_caps_cover_predicted_demand(self, fleet):
        demand = 2.0e6  # within the tiny fleet's physical ceilings
        warm_up(fleet, demand)
        caps = compute_capacity_caps(fleet, slot=1)
        assert sum(cap.cap_joules for cap in caps) >= 3 * demand * 0.99

    def test_ceiling_clips(self, fleet):
        warm_up(fleet, 1.0e12)  # absurd demand
        caps = compute_capacity_caps(fleet, slot=1)
        for cap, dc in zip(caps, fleet):
            assert cap.cap_joules <= dc.spec.max_slot_energy_joules() * (1 + 1e-9)

    def test_waterfill_prefers_cheapest_grid(self, fleet):
        """Grid share fills the cheapest DC to its ceiling first."""
        warm_up(fleet, 2.0e7)
        slot = 12  # daytime: all sites on peak tariff
        caps = compute_capacity_caps(fleet, slot=slot)
        prices = [dc.grid_price_at(slot) for dc in fleet]
        cheapest = int(np.argmin(prices))
        assert sum(cap.grid_joules for cap in caps) > 0.0
        # The cheapest DC's grid share is bounded only by its ceiling.
        headroom = (
            fleet[cheapest].spec.max_slot_energy_joules()
            - caps[cheapest].free_joules
        )
        assert caps[cheapest].grid_joules == pytest.approx(headroom, rel=1e-6)
        # No cheaper DC left idle while pricier ones burn grid energy:
        # every DC priced above an unfilled one must have zero share.
        order = np.argsort(prices)
        for earlier, later in zip(order[:-1], order[1:]):
            earlier_headroom = (
                fleet[earlier].spec.max_slot_energy_joules()
                - caps[earlier].free_joules
            )
            if caps[later].grid_joules > 0.0:
                assert caps[earlier].grid_joules == pytest.approx(
                    earlier_headroom, rel=1e-6
                )

    def test_free_energy_counted_before_grid(self, fleet):
        warm_up(fleet, 1.0e6)  # demand below the fleet's battery energy
        caps = compute_capacity_caps(fleet, slot=1)
        assert sum(cap.grid_joules for cap in caps) == pytest.approx(0.0)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            compute_capacity_caps([], slot=0)

    def test_first_slot_uses_idle_estimate(self, fleet):
        # No history at all: the idle-fleet estimate drives demand.
        caps = compute_capacity_caps(fleet, slot=0)
        assert sum(cap.cap_joules for cap in caps) > 0.0


class TestConversion:
    def test_zero_joules_zero_cores(self, fleet):
        assert joules_to_core_capacity(fleet[0], 0.0) == 0.0

    def test_monotone(self, fleet):
        small = joules_to_core_capacity(fleet[0], 1.0e6)
        large = joules_to_core_capacity(fleet[0], 5.0e6)
        assert large > small

    def test_clipped_to_fleet_cores(self, fleet):
        cores = joules_to_core_capacity(fleet[0], 1.0e15)
        assert cores == fleet[0].spec.total_capacity_cores
