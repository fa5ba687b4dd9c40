"""Correlation metrics feeding Eq. 5."""

import numpy as np
import pytest

from repro.core.correlation import (
    attraction_matrix,
    peak_coincidence,
    repulsion_matrix,
    total_force_matrix,
)


def square_wave(period: int, phase: int, length: int, high: float = 1.0) -> np.ndarray:
    steps = (np.arange(length) + phase) % period
    return np.where(steps < period // 2, high, 0.1)


class TestPeakCoincidence:
    def test_identical_traces_give_one(self):
        trace = square_wave(20, 0, 100)
        matrix = peak_coincidence(np.stack([trace, trace]))
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_coincident_peaks_give_one(self):
        a = square_wave(20, 0, 100, high=1.0)
        b = square_wave(20, 0, 100, high=0.5)
        matrix = peak_coincidence(np.stack([a, b]))
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_interleaved_peaks_below_one(self):
        a = square_wave(20, 0, 100)
        b = square_wave(20, 10, 100)  # anti-phase
        matrix = peak_coincidence(np.stack([a, b]))
        assert matrix[0, 1] < 1.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        traces = rng.uniform(0.05, 1.0, size=(6, 50))
        matrix = peak_coincidence(traces)
        assert np.all(matrix > 0.0)
        assert np.all(matrix <= 1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        traces = rng.uniform(0.0, 1.0, size=(5, 40))
        matrix = peak_coincidence(traces)
        assert np.allclose(matrix, matrix.T)

    def test_empty_input(self):
        assert peak_coincidence(np.zeros((0, 10))).shape == (0, 0)

    def test_zero_traces_defined(self):
        matrix = peak_coincidence(np.zeros((2, 10)))
        assert np.all(np.isfinite(matrix))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            peak_coincidence(np.zeros(10))


class TestRepulsion:
    def test_zero_diagonal(self):
        rng = np.random.default_rng(4)
        matrix = repulsion_matrix(rng.uniform(0.1, 1.0, size=(5, 30)))
        assert np.all(np.diag(matrix) == 0.0)

    def test_off_diagonal_in_unit_interval(self):
        rng = np.random.default_rng(5)
        matrix = repulsion_matrix(rng.uniform(0.1, 1.0, size=(5, 30)))
        off = matrix[~np.eye(5, dtype=bool)]
        assert np.all(off > 0.0)
        assert np.all(off <= 1.0)


class TestAttraction:
    def test_range(self):
        volumes = np.array([[0.0, 5.0, 0.0], [3.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        matrix = attraction_matrix(volumes)
        assert np.all(matrix <= 0.0)
        assert np.all(matrix >= -1.0)

    def test_strongest_pair_is_minus_one(self):
        volumes = np.array([[0.0, 5.0], [3.0, 0.0]])
        matrix = attraction_matrix(volumes)
        assert matrix[0, 1] == pytest.approx(-1.0)
        assert matrix[1, 0] == pytest.approx(-1.0)

    def test_silent_pairs_zero(self):
        volumes = np.array([[0.0, 5.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        matrix = attraction_matrix(volumes)
        assert matrix[0, 2] == 0.0
        assert matrix[2, 1] == 0.0

    def test_all_silent_all_zero(self):
        matrix = attraction_matrix(np.zeros((4, 4)))
        assert np.all(matrix == 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        volumes = rng.uniform(0.0, 10.0, size=(5, 5))
        np.fill_diagonal(volumes, 0.0)
        matrix = attraction_matrix(volumes)
        assert np.allclose(matrix, matrix.T)

    def test_log_scale_boosts_midrange(self):
        """The midrange pair gets log1p(10) / log1p(1000) of the top
        pair's force, far above the 10 / 1000 of a linear scale."""
        volumes = np.array([[0.0, 1000.0, 0.0], [0.0, 0.0, 10.0], [0.0, 0.0, 0.0]])
        logged = attraction_matrix(volumes)
        assert logged[1, 2] == pytest.approx(-np.log1p(10.0) / np.log1p(1000.0))
        assert abs(logged[1, 2]) > 10.0 / 1000.0

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            attraction_matrix(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            attraction_matrix(np.zeros((2, 3)))


class TestTotalForce:
    def test_alpha_zero_pure_repulsion(self):
        attraction = -np.ones((2, 2))
        repulsion = np.full((2, 2), 0.5)
        total = total_force_matrix(attraction, repulsion, alpha=0.0)
        assert np.allclose(total, repulsion)

    def test_alpha_one_pure_attraction(self):
        attraction = -np.ones((2, 2))
        repulsion = np.full((2, 2), 0.5)
        total = total_force_matrix(attraction, repulsion, alpha=1.0)
        assert np.allclose(total, attraction)

    def test_midpoint_mix(self):
        attraction = np.array([[-0.8]])
        repulsion = np.array([[0.4]])
        total = total_force_matrix(attraction, repulsion, alpha=0.5)
        assert total[0, 0] == pytest.approx(-0.2)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            total_force_matrix(np.zeros((1, 1)), np.zeros((1, 1)), alpha=1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_force_matrix(np.zeros((2, 2)), np.zeros((3, 3)), alpha=0.5)
