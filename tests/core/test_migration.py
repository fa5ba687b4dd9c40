"""Migration revision (paper Algorithm 2)."""

import numpy as np
import pytest

from tests.conftest import make_vm
from repro.core.migration import (
    destination_within_constraint,
    revise_migrations,
)


@pytest.fixture
def centroids():
    return np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 3.0]])


def run_revision(
    latency_model,
    vms,
    target,
    previous,
    caps=(100.0, 100.0, 100.0),
    constraint_s=72.0,
    centroids=None,
):
    n = len(vms)
    if centroids is None:
        centroids = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    positions = np.array(
        [centroids[t] + [0.1 * i, 0.0] for i, t in enumerate(target)]
    )
    return revise_migrations(
        vms=vms,
        target=np.array(target),
        previous=np.array(previous),
        positions=positions,
        centroids=centroids,
        loads=np.ones(n),
        caps_cores=np.array(caps, dtype=float),
        latency_model=latency_model,
        slot=0,
        latency_constraint_s=constraint_s,
    )


class TestBasicMoves:
    def test_feasible_migration_executes(self, latency_model):
        vms = [make_vm(vm_id=0, image_gb=2.0)]
        plan = run_revision(latency_model, vms, target=[1], previous=[0])
        assert plan.assignment[0] == 1
        assert len(plan.moves) == 1
        assert plan.moves[0].src_dc == 0
        assert plan.moves[0].dst_dc == 1

    def test_stay_put_no_moves(self, latency_model):
        vms = [make_vm(vm_id=0)]
        plan = run_revision(latency_model, vms, target=[0], previous=[0])
        assert plan.assignment[0] == 0
        assert not plan.moves

    def test_new_vm_takes_target_without_check(self, latency_model):
        vms = [make_vm(vm_id=0, image_gb=8.0)]
        plan = run_revision(
            latency_model, vms, target=[2], previous=[-1], constraint_s=1e-9
        )
        assert plan.assignment[0] == 2
        assert not plan.moves  # no WAN copy for new VMs

    def test_every_vm_assigned(self, latency_model):
        vms = [make_vm(vm_id=i) for i in range(6)]
        plan = run_revision(
            latency_model,
            vms,
            target=[0, 1, 2, 0, 1, 2],
            previous=[2, 0, 1, -1, -1, 2],
        )
        assert set(plan.assignment) == {vm.vm_id for vm in vms}
        assert all(0 <= dc <= 2 for dc in plan.assignment.values())


class TestLatencyConstraint:
    def test_tight_constraint_blocks_all(self, latency_model):
        vms = [make_vm(vm_id=i, image_gb=8.0) for i in range(3)]
        plan = run_revision(
            latency_model,
            vms,
            target=[1, 1, 1],
            previous=[0, 0, 0],
            constraint_s=1e-6,
        )
        assert not plan.moves
        assert set(plan.rejected_vm_ids) == {0, 1, 2}
        assert all(plan.assignment[vm.vm_id] == 0 for vm in vms)

    def test_window_limits_migration_count(self, latency_model):
        """Accumulated volume per destination saturates the window."""
        vms = [make_vm(vm_id=i, image_gb=8.0) for i in range(20)]
        plan = run_revision(
            latency_model,
            vms,
            target=[1] * 20,
            previous=[0] * 20,
            constraint_s=72.0,
        )
        assert plan.moves  # some migrations run...
        assert plan.rejected_vm_ids  # ...but not all
        latency = latency_model.destination_latency(
            1, {0: float(plan.volumes_mb[0, 1])}, 0
        )
        assert 0.0 < latency < 72.0

    def test_destination_within_constraint_helper(self, latency_model):
        volumes = np.zeros((3, 3))
        volumes[0, 1] = 2000.0
        latency = latency_model.destination_latency(1, {0: 2000.0}, 0)
        assert 0.0 < latency < 72.0
        assert destination_within_constraint(
            latency_model, volumes, dst=1, slot=0, constraint_s=72.0
        )
        assert not destination_within_constraint(
            latency_model, volumes, dst=1, slot=0, constraint_s=latency
        )

    def test_rejected_vms_stay_home(self, latency_model):
        vms = [make_vm(vm_id=i, image_gb=8.0) for i in range(20)]
        plan = run_revision(
            latency_model, vms, target=[1] * 20, previous=[0] * 20
        )
        for vm_id in plan.rejected_vm_ids:
            assert plan.assignment[vm_id] == 0


class TestQueues:
    def test_closest_to_destination_centroid_pulled_first(
        self, latency_model, centroids
    ):
        """Qin is sorted ascending by distance to the destination."""
        vms = [make_vm(vm_id=0, image_gb=8.0), make_vm(vm_id=1, image_gb=8.0)]
        positions = np.array([[1.9, 0.0], [4.0, 0.0]])  # vm0 nearer to DC1
        plan = revise_migrations(
            vms=vms,
            target=np.array([1, 1]),
            previous=np.array([0, 0]),
            positions=positions,
            centroids=centroids,
            loads=np.ones(2),
            caps_cores=np.array([100.0, 1.5, 100.0]),  # DC1 fits one VM
            latency_model=latency_model,
            slot=0,
            latency_constraint_s=20.0,  # one 8 GB image only
        )
        moved = [move.vm_id for move in plan.moves]
        assert moved == [0]

    def test_load_updates_follow_moves(self, latency_model):
        vms = [make_vm(vm_id=i) for i in range(4)]
        plan = run_revision(
            latency_model, vms, target=[1, 1, 0, 0], previous=[0, 0, 1, 1]
        )
        counts = {0: 0, 1: 0, 2: 0}
        for dc in plan.assignment.values():
            counts[dc] += 1
        assert counts[0] == 2
        assert counts[1] == 2

    def test_volumes_matrix_tracks_moves(self, latency_model):
        vms = [make_vm(vm_id=0, image_gb=4.0)]
        plan = run_revision(latency_model, vms, target=[2], previous=[0])
        assert plan.volumes_mb[0, 2] == pytest.approx(4000.0)


class TestValidation:
    def test_shape_mismatch_rejected(self, latency_model, centroids):
        with pytest.raises(ValueError):
            revise_migrations(
                vms=[make_vm(vm_id=0)],
                target=np.array([0, 1]),
                previous=np.array([0]),
                positions=np.zeros((1, 2)),
                centroids=centroids,
                loads=np.ones(1),
                caps_cores=np.ones(3),
                latency_model=latency_model,
                slot=0,
                latency_constraint_s=72.0,
            )

    def test_target_out_of_range_rejected(self, latency_model, centroids):
        with pytest.raises(ValueError):
            revise_migrations(
                vms=[make_vm(vm_id=0)],
                target=np.array([7]),
                previous=np.array([0]),
                positions=np.zeros((1, 2)),
                centroids=centroids,
                loads=np.ones(1),
                caps_cores=np.ones(3),
                latency_model=latency_model,
                slot=0,
                latency_constraint_s=72.0,
            )

    def test_terminates_on_adversarial_input(self, latency_model):
        """Full cross-migration with tiny caps must not loop forever."""
        vms = [make_vm(vm_id=i, image_gb=2.0) for i in range(12)]
        plan = run_revision(
            latency_model,
            vms,
            target=[(i + 1) % 3 for i in range(12)],
            previous=[i % 3 for i in range(12)],
            caps=(0.5, 0.5, 0.5),
        )
        assert set(plan.assignment) == set(range(12))
