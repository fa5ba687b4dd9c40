"""Shared baseline machinery."""

import numpy as np
import pytest

from tests.conftest import make_observation, make_vm
from repro.baselines.base import (
    HEADROOM,
    build_allocations,
    dc_capacities_cores,
    enforce_migration_constraint,
    finish_placement,
)
from repro.core.local import allocate_first_fit


class TestEnforceMigrationConstraint:
    def test_new_vms_take_desired(self, observation):
        desired = np.array([2, 2, 2, 0, 0, 0])
        assignment, moves = enforce_migration_constraint(observation, desired)
        # No previous assignment -> everything is new, no WAN moves.
        assert not moves
        assert [assignment[vm.vm_id] for vm in observation.vms] == [2, 2, 2, 0, 0, 0]

    def test_existing_vms_migrate_when_feasible(
        self, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        observation = make_observation(
            six_vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            previous_assignment={vm.vm_id: 0 for vm in six_vms},
        )
        desired = np.array([1] * 6)
        assignment, moves = enforce_migration_constraint(observation, desired)
        assert moves
        moved = {move.vm_id for move in moves}
        for vm in six_vms:
            # A rejected move leaves the VM in its previous DC.
            assert assignment[vm.vm_id] == (1 if vm.vm_id in moved else 0)

    def test_zero_window_blocks_everything(
        self, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        observation = make_observation(
            six_vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            previous_assignment={vm.vm_id: 0 for vm in six_vms},
        )
        observation.latency_constraint_s = 1e-9
        desired = np.array([1] * 6)
        assignment, moves = enforce_migration_constraint(observation, desired)
        assert not moves
        assert len(assignment) == 6
        assert all(dc == 0 for dc in assignment.values())

    def test_small_images_move_first(
        self, datacenters, latency_model, trace_library, volume_process
    ):
        vms = [
            make_vm(vm_id=0, image_gb=8.0, seed=1),
            make_vm(vm_id=1, image_gb=2.0, seed=2),
        ]
        observation = make_observation(
            vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            previous_assignment={0: 0, 1: 0},
        )
        # Window fits roughly one 2 GB image end to end.
        observation.latency_constraint_s = 5.0
        assignment, moves = enforce_migration_constraint(
            observation, np.array([1, 1])
        )
        assert [move.vm_id for move in moves] == [1]
        assert assignment == {0: 0, 1: 1}

    def test_desired_shape_validated(self, observation):
        with pytest.raises(ValueError):
            enforce_migration_constraint(observation, np.array([0, 1]))

    def test_desired_range_validated(self, observation):
        with pytest.raises(ValueError):
            enforce_migration_constraint(observation, np.array([0, 1, 2, 3, 0, 0]))


class TestBuildAllocations:
    def test_alignment_with_assignment(self, observation):
        assignment = {vm.vm_id: vm.vm_id % 3 for vm in observation.vms}
        allocations = build_allocations(observation, assignment, allocate_first_fit)
        assert len(allocations) == 3
        for dc_index, allocation in enumerate(allocations):
            for vms in allocation.server_vms:
                for vm_id in vms:
                    assert assignment[vm_id] == dc_index

    def test_finish_placement_valid(self, observation):
        desired = np.array([vm.vm_id % 3 for vm in observation.vms])
        placement = finish_placement(observation, desired, allocate_first_fit)
        placement.validate(observation)


class TestCapacities:
    def test_headroom_scales(self, observation):
        full = [dc.spec.total_capacity_cores for dc in observation.dcs]
        assert HEADROOM == 0.9
        assert dc_capacities_cores(observation).tolist() == [
            capacity * HEADROOM for capacity in full
        ]
