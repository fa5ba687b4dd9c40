"""Slot-kernel internals: power aggregation, response-latency wiring
and the site conditions a kernel reads."""

import numpy as np
import pytest

from tests.conftest import make_vm
from repro.baselines.pri_aware import PriAwarePolicy
from repro.core.local import ServerAllocation
from repro.datacenter.server import XEON_E5410
from repro.sim.config import scaled_config
from repro.units import SECONDS_PER_HOUR
from repro.sim.engine import SimulationEngine
from repro.sim.state import FleetPlacement


@pytest.fixture
def kernel():
    return SimulationEngine(
        scaled_config("tiny").with_horizon(4), PriAwarePolicy()
    ).kernel


def manual_placement(vms, dc_of: dict[int, int], n_dcs=3):
    """A hand-built placement: one server per DC, top frequency."""
    allocations = []
    for dc in range(n_dcs):
        members = [vm.vm_id for vm in vms if dc_of[vm.vm_id] == dc]
        allocations.append(
            ServerAllocation(
                model=XEON_E5410,
                n_servers=8,
                server_vms=[members] if members else [],
                frequencies=[1] if members else [],
                saturated=[False] if members else [],
            )
        )
    return FleetPlacement(assignment=dict(dc_of), allocations=allocations)


class TestITPower:
    def test_matches_hand_computation(self, kernel):
        vms = [make_vm(vm_id=0, seed=1), make_vm(vm_id=1, seed=2)]
        placement = manual_placement(vms, {0: 0, 1: 0})
        vm_rows = {0: 0, 1: 1}
        demand = kernel._demand(vms, 0)
        power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
        expected = XEON_E5410.power_trace(1, demand[0] + demand[1])
        assert actives[0] == 1
        assert np.allclose(power[0], expected)

    def test_empty_dc_zero_power(self, kernel):
        vms = [make_vm(vm_id=0, seed=1)]
        placement = manual_placement(vms, {0: 0})
        demand = kernel._demand(vms, 0)
        power, actives = kernel._fleet_it_power(placement, {0: 0}, demand)
        assert actives[2] == 0
        assert np.all(power[2] == 0.0)

    def test_two_servers_sum(self, kernel):
        vms = [make_vm(vm_id=0, seed=1), make_vm(vm_id=1, seed=2)]
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=8,
            server_vms=[[0], [1]],
            frequencies=[0, 1],
            saturated=[False, False],
        )
        placement = FleetPlacement(
            assignment={0: 0, 1: 0},
            allocations=[
                allocation,
                ServerAllocation(model=XEON_E5410, n_servers=8),
                ServerAllocation(model=XEON_E5410, n_servers=8),
            ],
        )
        demand = kernel._demand(vms, 0)
        power, actives = kernel._fleet_it_power(
            placement, {0: 0, 1: 1}, demand
        )
        expected = XEON_E5410.power_trace(0, demand[0]) + XEON_E5410.power_trace(
            1, demand[1]
        )
        assert actives[0] == 2
        assert np.allclose(power[0], expected)


class TestResponseLatencies:
    def test_matches_latency_model(self, kernel):
        vms = [
            make_vm(vm_id=0, service_id=0, seed=1),
            make_vm(vm_id=1, service_id=0, seed=2),
            make_vm(vm_id=2, service_id=0, seed=3),
        ]
        placement = manual_placement(vms, {0: 0, 1: 1, 2: 1})
        volumes = kernel.materialization.volumes.volumes(vms, 2).volumes
        latencies = kernel._response_latencies(placement, vms, volumes, 2)

        # DC1 receives from vm0 (DC0) and internally from vm2<->vm1.
        expected_sources = {
            0: float(volumes[0, 1] + volumes[0, 2]),
            1: float(volumes[1, 2] + volumes[2, 1]),
        }
        expected = kernel.site.latency_model.destination_latency(
            1, expected_sources, 2
        )
        assert latencies[1][0] == pytest.approx(expected)

    def test_receiving_vm_counts(self, kernel):
        vms = [
            make_vm(vm_id=0, service_id=0, seed=1),
            make_vm(vm_id=1, service_id=0, seed=2),
        ]
        placement = manual_placement(vms, {0: 0, 1: 0})
        volumes = kernel.materialization.volumes.volumes(vms, 1).volumes
        latencies = kernel._response_latencies(placement, vms, volumes, 1)
        receiving = [count for _, count in latencies]
        # Both VMs exchange intra-service data, both sit in DC0.
        assert receiving[0] == 2
        assert receiving[1] == 0
        assert receiving[2] == 0

    def test_empty_dc_zero_latency(self, kernel):
        vms = [make_vm(vm_id=0, seed=1)]
        placement = manual_placement(vms, {0: 0})
        volumes = np.zeros((1, 1))
        latencies = kernel._response_latencies(placement, vms, volumes, 0)
        assert latencies[1] == (0.0, 0)
        assert latencies[2] == (0.0, 0)


class TestDemandCache:
    def test_rows_cached(self, kernel):
        vm = make_vm(vm_id=0, seed=1)
        first = kernel._demand([vm], 2)
        second = kernel._demand([vm], 2)
        assert second is first
        assert not first.flags.writeable
        traces = kernel.materialization.traces
        assert np.array_equal(first[0], traces.slot_demand(vm, 2))

    def test_eviction_keeps_recent(self, kernel):
        vm = make_vm(vm_id=0, seed=1)
        old = kernel._demand([vm], 0)
        previous = kernel._demand([vm], 5)
        recent = kernel._demand([vm], 6)
        assert kernel._demand([vm], 5) is previous
        assert kernel._demand([vm], 6) is recent
        again = kernel._demand([vm], 0)
        assert again is not old
        assert np.array_equal(again, old)


class TestSiteConditions:
    """Each served array has the bits of its per-site form, is
    read-only, and is kept only while its slot is the last asked."""

    @pytest.mark.parametrize("slot", [0, 7, 13, 30])
    def test_arrays_equal_per_site_forms(self, kernel, slot):
        site = kernel.site
        conditions = site.at(slot)
        times = conditions.times
        steps = kernel.config.steps_per_slot
        assert times.shape == (steps,)
        assert times[0] == slot * SECONDS_PER_HOUR + 0.5 * SECONDS_PER_HOUR / steps
        for index, (spec, array) in enumerate(zip(site.specs, site.arrays)):
            assert np.array_equal(
                conditions.pv_power_w[index], array.power_watts(times)
            )
            assert np.array_equal(
                conditions.pue[index], spec.pue_model.pue(times)
            )
            assert np.array_equal(
                conditions.peak[:, index], spec.tariff.is_peak(times)
            )
            assert np.array_equal(
                conditions.price[:, index], spec.tariff.price_per_kwh(times)
            )
            hourly = slot * SECONDS_PER_HOUR + np.linspace(
                0.0, SECONDS_PER_HOUR, 13
            )
            watts = array.kwp * 1000.0 * array.clear_sky_fraction(hourly)
            assert site.clear_sky_prior(slot)[index] == float(
                np.trapezoid(watts, hourly)
            )

    def test_last_slot_kept_read_only(self, kernel):
        site = kernel.site
        conditions = site.at(3)
        prior = site.clear_sky_prior(3)
        assert site.at(3) is conditions
        assert site.clear_sky_prior(3) is prior
        for array in (*vars(conditions).values(), prior):
            with pytest.raises(ValueError):
                array[0] = 0.0
        site.at(4)
        again = site.at(3)
        assert again is not conditions
        assert np.array_equal(again.pv_power_w, conditions.pv_power_w)

    def test_engine_refuses_another_fleets_site(self, kernel):
        other = scaled_config("tiny", seed=1).with_horizon(4)
        with pytest.raises(ValueError, match="another fleet"):
            SimulationEngine(other, PriAwarePolicy(), site=kernel.site)
