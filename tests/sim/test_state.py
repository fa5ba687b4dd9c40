"""Observation helpers and placement validation."""

import numpy as np
import pytest

from tests.conftest import make_observation, make_vm
from repro.core.local import ServerAllocation, allocate_first_fit
from repro.datacenter.server import XEON_E5410
from repro.sim.state import FleetPlacement


class TestObservation:
    def test_previous_array_marks_new(
        self, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        observation = make_observation(
            six_vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            previous_assignment={six_vms[0].vm_id: 2},
        )
        previous = observation.previous_array()
        assert previous[0] == 2
        assert np.all(previous[1:] == -1)

    def test_loads_are_trace_means(self, observation):
        assert np.allclose(
            observation.loads(), observation.demand_traces.mean(axis=1)
        )

    def test_n_dcs(self, observation):
        assert observation.n_dcs == 3


def valid_placement(observation):
    assignment = {vm.vm_id: 0 for vm in observation.vms}
    allocations = []
    for dc in observation.dcs:
        rows = [
            row
            for row, vm in enumerate(observation.vms)
            if assignment[vm.vm_id] == dc.index
        ]
        allocations.append(
            allocate_first_fit(
                [observation.vms[row].vm_id for row in rows],
                observation.demand_traces[rows],
                dc.spec.server_model,
                dc.spec.n_servers,
            )
        )
    return FleetPlacement(assignment=assignment, allocations=allocations)


class TestPlacementValidation:
    def test_valid_passes(self, observation):
        valid_placement(observation).validate(observation)

    def test_missing_vm_fails(self, observation):
        placement = valid_placement(observation)
        del placement.assignment[observation.vms[0].vm_id]
        with pytest.raises(ValueError, match="missing"):
            placement.validate(observation)

    def test_extra_vm_fails(self, observation):
        placement = valid_placement(observation)
        placement.assignment[12345] = 0
        with pytest.raises(ValueError, match="extra"):
            placement.validate(observation)

    def test_wrong_allocation_count_fails(self, observation):
        placement = valid_placement(observation)
        placement.allocations.pop()
        with pytest.raises(ValueError, match="per DC"):
            placement.validate(observation)

    def test_vm_on_wrong_dc_fails(self, observation):
        placement = valid_placement(observation)
        moved = observation.vms[0].vm_id
        placement.assignment[moved] = 1  # still allocated on DC0's servers
        with pytest.raises(ValueError, match="assigned"):
            placement.validate(observation)

    def test_unallocated_vm_fails(self, observation):
        placement = valid_placement(observation)
        victim = placement.allocations[0].server_vms[0].pop(0)
        if not placement.allocations[0].server_vms[0]:
            placement.allocations[0].server_vms.pop(0)
            placement.allocations[0].frequencies.pop(0)
            placement.allocations[0].saturated.pop(0)
        with pytest.raises(ValueError):
            placement.validate(observation)
