"""ProposedPolicy: structure and state."""

import numpy as np
import pytest

from tests.conftest import make_observation, make_vm
from repro.core.controller import ProposedPolicy, normalized_plane
from repro.core.forces import ForceParameters, pairwise_distances


@pytest.fixture
def policy() -> ProposedPolicy:
    return ProposedPolicy()


class TestPlacementStructure:
    def test_valid_placement(self, policy, observation):
        placement = policy.place(observation)
        placement.validate(observation)

    def test_all_vms_assigned(self, policy, observation):
        placement = policy.place(observation)
        assert set(placement.assignment) == {vm.vm_id for vm in observation.vms}

    def test_one_allocation_per_dc(self, policy, observation):
        placement = policy.place(observation)
        assert len(placement.allocations) == observation.n_dcs

    def test_empty_observation(
        self, policy, datacenters, latency_model, trace_library, volume_process
    ):
        observation = make_observation(
            [], datacenters, latency_model, trace_library, volume_process
        )
        placement = policy.place(observation)
        assert placement.assignment == {}
        assert len(placement.allocations) == 3


class TestStatefulness:
    def test_positions_persist_across_slots(
        self, policy, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        first = make_observation(
            six_vms, datacenters, latency_model, trace_library, volume_process, slot=1
        )
        placement = policy.place(first)
        positions_after_first = dict(policy._positions)
        second = make_observation(
            six_vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            slot=2,
            previous_assignment=placement.assignment,
        )
        policy.place(second)
        assert set(positions_after_first) == {vm.vm_id for vm in six_vms}
        # The plane evolves but starts from the previous state.
        assert set(policy._positions) == set(positions_after_first)

    def test_reset_clears_plane(self, policy, observation):
        policy.place(observation)
        assert policy._positions
        policy.reset()
        assert not policy._positions

    def test_new_vm_spawns_near_service_peers(
        self, policy, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        first = make_observation(
            six_vms, datacenters, latency_model, trace_library, volume_process
        )
        placement = policy.place(first)
        newcomer = make_vm(vm_id=99, service_id=0, arrival_slot=2, seed=77)
        extended = six_vms + [newcomer]
        second = make_observation(
            extended,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            slot=2,
            previous_assignment=placement.assignment,
        )
        start = policy._initial_positions(second)
        peers = [
            policy._positions[vm.vm_id] for vm in six_vms if vm.service_id == 0
        ]
        center = np.mean(peers, axis=0)
        assert np.linalg.norm(start[-1] - center) < 2.0

    def test_migrations_respect_constraint(
        self, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        policy = ProposedPolicy()
        first = make_observation(
            six_vms, datacenters, latency_model, trace_library, volume_process
        )
        placement = policy.place(first)
        tight = make_observation(
            six_vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            slot=2,
            previous_assignment=placement.assignment,
        )
        tight.latency_constraint_s = 1e-9
        second = policy.place(tight)
        assert not second.moves  # nothing can migrate under a zero window
        for vm_id, dc in second.assignment.items():
            assert dc == placement.assignment[vm_id]


class TestNormalizedPlane:
    def test_similarity_transform_to_unit_rms_radius(self):
        points = np.random.default_rng(0).normal(5.0, 40.0, size=(30, 2))
        plane = normalized_plane(points)
        assert np.allclose(plane.mean(axis=0), 0.0, atol=1e-12)
        assert np.sqrt((plane**2).sum(axis=1).mean()) == pytest.approx(1.0)
        before, after = pairwise_distances(points), pairwise_distances(plane)
        scale = before[0, 1] / after[0, 1]
        assert np.allclose(after * scale, before)

    def test_coincident_points_are_only_recentred(self):
        plane = normalized_plane(np.array([[3.0, -1.0]] * 3))
        assert np.array_equal(plane, np.zeros((3, 2)))


class TestConfiguration:
    def test_alpha_passthrough(self):
        policy = ProposedPolicy(force_params=ForceParameters(alpha=0.9))
        assert policy.force_params.alpha == 0.9

    def test_deterministic_given_seed(
        self, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        results = []
        for _ in range(2):
            policy = ProposedPolicy()
            observation = make_observation(
                six_vms, datacenters, latency_model, trace_library, volume_process
            )
            placement = policy.place(observation)
            results.append(dict(placement.assignment))
        assert results[0] == results[1]
