"""Capacity-constrained modified k-means."""

import numpy as np
import pytest

from repro.core.kmeans import (
    constrained_kmeans,
    warm_start_centroids,
)


def blob(center, n, rng, spread=0.1):
    return rng.normal(loc=center, scale=spread, size=(n, 2))


@pytest.fixture
def two_blobs(rng):
    left = blob([-2.0, 0.0], 5, rng)
    right = blob([2.0, 0.0], 5, rng)
    return np.vstack([left, right])


class TestWarmStart:
    def test_surviving_members_define_centroid(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
        previous = np.array([0, 0, 1])
        centroids = warm_start_centroids(positions, previous, k=2)
        assert np.allclose(centroids[0], [1.0, 0.0])
        assert np.allclose(centroids[1], [10.0, 10.0])

    def test_empty_cluster_gets_circle_position(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0]])
        previous = np.array([0, 0])
        centroids = warm_start_centroids(positions, previous, k=3)
        assert np.all(np.isfinite(centroids))
        assert not np.allclose(centroids[1], centroids[2])

    def test_no_previous_assignment(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0]])
        centroids = warm_start_centroids(positions, None, k=2)
        assert centroids.shape == (2, 2)

    def test_new_points_marked_minus_one_ignored(self):
        positions = np.array([[0.0, 0.0], [5.0, 5.0]])
        previous = np.array([0, -1])
        centroids = warm_start_centroids(positions, previous, k=1)
        assert np.allclose(centroids[0], [0.0, 0.0])

    def test_k_validated(self):
        with pytest.raises(ValueError):
            warm_start_centroids(np.zeros((1, 2)), None, k=0)


class TestClustering:
    def test_separates_blobs(self, two_blobs):
        loads = np.ones(10)
        capacities = np.array([10.0, 10.0])
        initial = np.array([[-2.0, 0.0], [2.0, 0.0]])
        result = constrained_kmeans(two_blobs, loads, capacities, initial)
        assert set(result.assignment[:5]) == {0}
        assert set(result.assignment[5:]) == {1}

    def test_respects_capacity_when_feasible(self, two_blobs):
        loads = np.ones(10)
        capacities = np.array([5.0, 5.0])
        initial = np.array([[-2.0, 0.0], [2.0, 0.0]])
        result = constrained_kmeans(two_blobs, loads, capacities, initial)
        assert np.all(result.loads <= capacities + 1e-9)
        assert np.all(result.overflow == 0.0)

    def test_capacity_forces_split(self, rng):
        """One blob, two clusters: half must spill to the far cluster."""
        points = blob([0.0, 0.0], 8, rng)
        loads = np.ones(8)
        capacities = np.array([4.0, 4.0])
        initial = np.array([[0.0, 0.0], [5.0, 0.0]])
        result = constrained_kmeans(points, loads, capacities, initial)
        assert (result.assignment == 0).sum() == 4
        assert (result.assignment == 1).sum() == 4

    def test_overflow_recorded_when_infeasible(self, rng):
        points = blob([0.0, 0.0], 6, rng)
        loads = np.ones(6)
        capacities = np.array([2.0, 2.0])
        initial = np.array([[-0.1, 0.0], [0.1, 0.0]])
        result = constrained_kmeans(points, loads, capacities, initial)
        assert result.overflow.sum() == pytest.approx(2.0)

    def test_loads_accounted(self, two_blobs):
        loads = np.linspace(0.5, 1.4, 10)
        capacities = np.array([20.0, 20.0])
        initial = np.array([[-2.0, 0.0], [2.0, 0.0]])
        result = constrained_kmeans(two_blobs, loads, capacities, initial)
        assert result.loads.sum() == pytest.approx(loads.sum())

    def test_empty_input(self):
        result = constrained_kmeans(
            np.zeros((0, 2)), np.zeros(0), np.array([5.0]), np.zeros((1, 2))
        )
        assert result.assignment.size == 0
        assert result.iterations == 0

    def test_deterministic(self, two_blobs):
        loads = np.ones(10)
        capacities = np.array([10.0, 10.0])
        initial = np.array([[-2.0, 0.0], [2.0, 0.0]])
        a = constrained_kmeans(two_blobs, loads, capacities, initial)
        b = constrained_kmeans(two_blobs, loads, capacities, initial)
        assert np.array_equal(a.assignment, b.assignment)

    def test_validation(self, two_blobs):
        with pytest.raises(ValueError):
            constrained_kmeans(
                two_blobs, np.ones(3), np.array([5.0]), np.zeros((1, 2))
            )
        with pytest.raises(ValueError):
            constrained_kmeans(
                two_blobs, -np.ones(10), np.array([5.0]), np.zeros((1, 2))
            )
        with pytest.raises(ValueError):
            constrained_kmeans(
                two_blobs, np.ones(10), np.array([[5.0]]), np.zeros((1, 2))
            )
