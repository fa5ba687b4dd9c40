"""Force-directed embedding: Eqs. 5-7 behavior."""

import numpy as np
import pytest

from repro.core.controller import ProposedPolicy
from repro.core.forces import (
    EmbeddingResult,
    ForceDirectedEmbedding,
    ForceParameters,
    pairwise_distances,
    plateaued,
)
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine


def two_point_setup(force_value: float):
    """Positions and a uniform mutual force between two points."""
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    forces = np.array([[0.0, force_value], [force_value, 0.0]])
    return positions, forces


class TestParameters:
    def test_defaults_valid(self):
        ForceParameters()

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            ForceParameters(alpha=-0.1)

    def test_time_step_positive(self):
        with pytest.raises(ValueError):
            ForceParameters(time_step=0.0)

    def test_max_iterations_positive(self):
        with pytest.raises(ValueError):
            ForceParameters(max_iterations=0)

    @pytest.mark.parametrize("min_distance", [0.0, -1e-9])
    def test_min_distance_positive(self, min_distance):
        with pytest.raises(ValueError):
            ForceParameters(min_distance=min_distance)


class TestPairwiseDistances:
    def test_known_values(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_distances(positions)
        assert distances[0, 1] == pytest.approx(5.0)
        assert distances[0, 0] == 0.0


class TestDynamics:
    def test_attraction_pulls_together(self):
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=1))
        positions, forces = two_point_setup(-0.5)
        zero = np.zeros_like(forces)
        # alpha=0.5 mixes attraction and repulsion; feed attraction only.
        result = embedding.run(positions, forces / 0.5, zero)
        assert pairwise_distances(result.positions)[0, 1] < 1.0

    def test_repulsion_pushes_apart(self):
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=1))
        positions, forces = two_point_setup(0.5)
        zero = np.zeros_like(forces)
        result = embedding.run(positions, zero, forces / 0.5)
        assert pairwise_distances(result.positions)[0, 1] > 1.0

    def test_coincident_points_jittered_apart(self):
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=3))
        positions = np.zeros((2, 2))
        repulsion = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = embedding.run(positions, np.zeros((2, 2)), repulsion)
        assert pairwise_distances(result.positions)[0, 1] > 0.0

    def test_single_point_noop(self):
        embedding = ForceDirectedEmbedding()
        result = embedding.run(
            np.array([[1.0, 2.0]]), np.zeros((1, 1)), np.zeros((1, 1))
        )
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.positions, [[1.0, 2.0]])

    def test_progress_cost_positive_when_following_forces(self):
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=2))
        positions, forces = two_point_setup(0.5)
        result = embedding.run(positions, np.zeros((2, 2)), forces / 0.5)
        assert result.cost_history[0] > 0.0

    def test_iteration_cap_respected(self):
        embedding = ForceDirectedEmbedding(
            ForceParameters(max_iterations=4, time_step=0.1)
        )
        rng = np.random.default_rng(0)
        positions = rng.normal(size=(6, 2))
        attraction = -rng.uniform(0.0, 1.0, size=(6, 6))
        repulsion = rng.uniform(0.0, 1.0, size=(6, 6))
        np.fill_diagonal(attraction, 0.0)
        np.fill_diagonal(repulsion, 0.0)
        result = embedding.run(positions, attraction, repulsion)
        assert result.iterations <= 4

    def test_converged_flag_on_progress_decay(self):
        # A pure-attraction pair overshoots and decays quickly.
        embedding = ForceDirectedEmbedding(
            ForceParameters(max_iterations=50, time_step=1.0)
        )
        positions, forces = two_point_setup(-1.0)
        result = embedding.run(positions, forces, np.zeros((2, 2)))
        assert result.converged
        assert result.iterations < 50

    def test_input_not_mutated(self):
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=2))
        positions, forces = two_point_setup(0.5)
        original = positions.copy()
        embedding.run(positions, np.zeros((2, 2)), forces / 0.5)
        assert np.array_equal(positions, original)

    def test_deterministic(self):
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=10))
        rng = np.random.default_rng(1)
        positions = rng.normal(size=(5, 2))
        attraction = -rng.uniform(size=(5, 5))
        repulsion = rng.uniform(size=(5, 5))
        a = embedding.run(positions, attraction, repulsion)
        b = embedding.run(positions, attraction, repulsion)
        assert np.array_equal(a.positions, b.positions)


class TestStopRule:
    @pytest.mark.parametrize(
        "previous, current, fires",
        [
            (100.0, 100.05, True),  # growth within 1e-3 of |previous|
            (100.0, 100.2, False),
            (100.0, 99.0, True),  # the paper's decay
            (0.0, 0.0, True),  # no progress at all is a plateau
            (0.0, -1e-12, True),  # a decay from zero
            (0.0, 1e-12, False),  # any growth from zero is progress
            (-2.0, -2.0, True),
            (-2.0, -2.001, True),  # a decay
            (-2.0, -1.9995, True),  # growth within 1e-3 of |previous|
            (-2.0, -1.99, False),
            (-2.0, 0.0, False),
        ],
    )
    def test_predicate(self, previous, current, fires):
        assert plateaued(previous, current) is fires

    def test_fires_in_every_call_and_the_plane_stays_bounded(self, monkeypatch):
        """A 168-slot tiny run: every embedding stops early, and the
        plane carried between slots keeps unit RMS radius instead of
        expanding by a near-constant step per iteration."""
        results = []
        run = ForceDirectedEmbedding.run

        def recorded(self, positions, attraction, repulsion):
            results.append(run(self, positions, attraction, repulsion))
            return results[-1]

        monkeypatch.setattr(ForceDirectedEmbedding, "run", recorded)
        policy = ProposedPolicy()
        config = scaled_config("tiny").with_horizon(168)
        SimulationEngine(config, policy).run()
        assert len(results) == 168
        assert all(result.converged for result in results)
        assert max(result.iterations for result in results) < 50
        carried = np.array(list(policy._positions.values()))
        assert np.abs(carried.mean(axis=0)).max() < 1e-12
        assert np.sqrt((carried**2).sum(axis=1).mean()) == pytest.approx(1.0)
        assert np.abs(carried).max() < 5.0


class TestValidation:
    def test_bad_position_shape(self):
        embedding = ForceDirectedEmbedding()
        with pytest.raises(ValueError):
            embedding.run(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))

    def test_force_shape_mismatch(self):
        embedding = ForceDirectedEmbedding()
        with pytest.raises(ValueError):
            embedding.run(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


class TestNormalization:
    def test_normalized_forces_bound_displacement(self):
        """Displacement per iteration must not scale with fleet size."""
        for n in (4, 40):
            embedding = ForceDirectedEmbedding(
                ForceParameters(max_iterations=1, normalize_forces=True)
            )
            positions = np.zeros((n, 2))
            positions[:, 0] = np.arange(n, dtype=float)
            repulsion = np.full((n, n), 1.0)
            np.fill_diagonal(repulsion, 0.0)
            result = embedding.run(positions, np.zeros((n, n)), repulsion)
            drift = np.abs(result.positions - positions).max()
            assert drift <= 1.0


# Reference kernel: the (n, n, 2) offset/unit-vector form of Eqs. 6-7,
# kept as an oracle for the per-coordinate kernel's bit-identity.


def reference_distances(positions):
    deltas = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((deltas**2).sum(axis=2))


def reference_resultant(params, positions, forces):
    n = positions.shape[0]
    deltas = positions[:, None, :] - positions[None, :, :]  # i <- j
    dists = np.sqrt((deltas**2).sum(axis=2))
    tiny = dists < params.min_distance
    np.fill_diagonal(tiny, False)
    if tiny.any():
        ii, jj = np.nonzero(tiny)
        angle = 2.0 * np.pi * ((ii * 31 + jj * 17) % 101) / 101.0
        deltas[ii, jj, 0] = np.cos(angle) * params.min_distance
        deltas[ii, jj, 1] = np.sin(angle) * params.min_distance
        dists[ii, jj] = params.min_distance
    np.fill_diagonal(dists, 1.0)
    units = deltas / dists[:, :, None]
    resultant = np.einsum("ji,ijk->ik", forces, units)
    if params.normalize_forces and n > 1:
        resultant /= n - 1
    return resultant


def reference_run(embedding, positions, attraction, repulsion):
    """``ForceDirectedEmbedding.run`` over the reference kernel."""
    params = embedding.params
    positions = np.array(positions, dtype=float, copy=True)
    forces = embedding.total_forces(attraction, repulsion)
    if positions.shape[0] < 2:
        return EmbeddingResult(positions=positions, iterations=0, converged=True)
    gain = 0.5 * params.time_step**2
    previous_distances = reference_distances(positions)
    cost_history = []
    converged = False
    iterations = 0
    for _ in range(params.max_iterations):
        positions += gain * reference_resultant(params, positions, forces)
        iterations += 1
        distances = reference_distances(positions)
        cost = float((forces * (distances - previous_distances)).sum())
        previous_distances = distances
        cost_history.append(cost)
        if len(cost_history) >= 2 and plateaued(cost_history[-2], cost):
            converged = True
            break
    return EmbeddingResult(
        positions=positions,
        iterations=iterations,
        cost_history=cost_history,
        converged=converged,
    )


def oracle_inputs(n, duplicated):
    """Start points and symmetric Eq. 5 components for ``n`` VMs.

    With ``duplicated`` the last ``n // 2`` rows repeat the first ones,
    so the first iteration takes the coincident-point jitter branch.
    """
    rng = np.random.default_rng(n)
    positions = rng.uniform(-2.0, 2.0, size=(n, 2))
    if duplicated:
        positions[n - n // 2 :] = positions[: n // 2]
    attraction = -rng.uniform(0.0, 1.0, size=(n, n))
    repulsion = rng.uniform(0.0, 1.0, size=(n, n))
    attraction = (attraction + attraction.T) / 2.0
    repulsion = (repulsion + repulsion.T) / 2.0
    np.fill_diagonal(attraction, 0.0)
    np.fill_diagonal(repulsion, 0.0)
    return positions, attraction, repulsion


class TestReferenceKernel:
    """The per-coordinate kernel equals the (n, n, 2) form bit for bit.

    Exact equality also pins the order in which einsum sums over j, so
    a NumPy release that changes it fails here rather than shifting
    placements silently.
    """

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 17, 150])
    def test_run_bit_identical(self, n, alpha, normalize, duplicated):
        positions, attraction, repulsion = oracle_inputs(n, duplicated)
        embedding = ForceDirectedEmbedding(
            ForceParameters(alpha=alpha, normalize_forces=normalize)
        )
        result = embedding.run(positions, attraction, repulsion)
        expected = reference_run(embedding, positions, attraction, repulsion)
        assert np.array_equal(result.positions, expected.positions)
        assert result.cost_history == expected.cost_history
        assert result.iterations == expected.iterations
        assert result.converged == expected.converged

    def test_fortran_order_forces_bit_identical(self):
        rng = np.random.default_rng(5)
        positions = rng.normal(size=(150, 2))
        attraction = np.asfortranarray(-rng.uniform(size=(150, 150)))
        repulsion = np.asfortranarray(rng.uniform(size=(150, 150)))
        embedding = ForceDirectedEmbedding()
        result = embedding.run(positions, attraction, repulsion)
        expected = reference_run(embedding, positions, attraction, repulsion)
        assert np.array_equal(result.positions, expected.positions)
        assert result.cost_history == expected.cost_history

    def test_distances_bit_identical(self):
        positions, _, _ = oracle_inputs(17, duplicated=True)
        assert np.array_equal(
            pairwise_distances(positions), reference_distances(positions)
        )

    def test_tiny_proposed_run_identical(self, monkeypatch):
        config = scaled_config("tiny")
        kernel = SimulationEngine(config, ProposedPolicy()).run().to_dict()
        calls = []

        def patched_run(self, positions, attraction, repulsion):
            calls.append(len(positions))
            return reference_run(self, positions, attraction, repulsion)

        monkeypatch.setattr(ForceDirectedEmbedding, "run", patched_run)
        reference = SimulationEngine(config, ProposedPolicy()).run().to_dict()
        assert len(calls) == config.horizon_slots
        assert kernel == reference
