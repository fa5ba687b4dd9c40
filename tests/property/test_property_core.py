"""Property-based tests (hypothesis) on the core algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.correlation import (
    attraction_matrix,
    peak_coincidence,
    total_force_matrix,
)
from repro.core.forces import ForceDirectedEmbedding, ForceParameters
from repro.core.kmeans import constrained_kmeans
from repro.datacenter.battery import Battery

finite_traces = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 6), st.integers(2, 20)),
    elements=st.floats(0.0, 8.0, allow_nan=False),
)

volume_matrices = st.integers(1, 6).flatmap(
    lambda n: arrays(
        dtype=float,
        shape=(n, n),
        elements=st.floats(0.0, 1e4, allow_nan=False),
    )
)


class TestCorrelationProperties:
    @given(traces=finite_traces)
    @settings(max_examples=60, deadline=None)
    def test_peak_coincidence_bounded(self, traces):
        matrix = peak_coincidence(traces)
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 1.0 + 1e-12)
        assert np.allclose(matrix, matrix.T)

    @given(volumes=volume_matrices)
    @settings(max_examples=60, deadline=None)
    def test_attraction_range(self, volumes):
        np.fill_diagonal(volumes, 0.0)
        matrix = attraction_matrix(volumes)
        assert np.all(matrix <= 0.0)
        assert np.all(matrix >= -1.0 - 1e-12)
        assert np.allclose(matrix, matrix.T)

    @given(
        volumes=volume_matrices,
        alpha=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_force_bounded_by_components(self, volumes, alpha):
        np.fill_diagonal(volumes, 0.0)
        attraction = attraction_matrix(volumes)
        repulsion = -attraction  # any matrix in [0, 1] works
        total = total_force_matrix(attraction, repulsion, alpha)
        assert np.all(total >= attraction - 1e-12)
        assert np.all(total <= repulsion + 1e-12)


class TestEmbeddingProperties:
    @given(
        positions=arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 8), st.just(2)),
            elements=st.floats(-5.0, 5.0, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_embedding_output_finite(self, positions):
        n = positions.shape[0]
        rng = np.random.default_rng(0)
        attraction = -rng.uniform(0.0, 1.0, (n, n))
        repulsion = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(attraction, 0.0)
        np.fill_diagonal(repulsion, 0.0)
        embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=5))
        result = embedding.run(positions, attraction, repulsion)
        assert np.all(np.isfinite(result.positions))
        assert result.iterations <= 5


class TestKMeansProperties:
    @given(
        n=st.integers(1, 20),
        k=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignment_complete_and_in_range(self, n, k, seed):
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(n, 2))
        loads = rng.uniform(0.1, 2.0, n)
        capacities = rng.uniform(0.5, 10.0, k)
        initial = rng.normal(size=(k, 2))
        result = constrained_kmeans(positions, loads, capacities, initial)
        assert result.assignment.shape == (n,)
        assert np.all(result.assignment >= 0)
        assert np.all(result.assignment < k)
        assert result.loads.sum() == pytest.approx(loads.sum())

    @given(
        n=st.integers(1, 15),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_overflow_only_when_capacity_short(self, n, seed):
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(n, 2))
        loads = rng.uniform(0.1, 1.0, n)
        capacities = np.array([loads.sum() + 1.0, loads.sum() + 1.0])
        initial = rng.normal(size=(2, 2))
        result = constrained_kmeans(positions, loads, capacities, initial)
        assert np.all(result.overflow == 0.0)


class TestBatteryProperties:
    @given(
        capacity=st.floats(1.0, 1e9, allow_nan=False),
        dod=st.floats(0.05, 1.0, allow_nan=False),
        request=st.floats(0.0, 1e9, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_discharge_invariants(self, capacity, dod, request):
        bank = Battery(capacity_joules=capacity, dod=dod)
        delivered = bank.discharge(request, duration_s=3600.0)
        assert 0.0 <= delivered <= request + 1e-9
        assert bank.soc_joules >= bank.floor_joules - 1e-6 * capacity
        assert bank.soc_joules <= capacity + 1e-9

    @given(
        capacity=st.floats(1.0, 1e9, allow_nan=False),
        soc_fraction=st.floats(0.0, 1.0, allow_nan=False),
        offer=st.floats(0.0, 1e9, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_charge_invariants(self, capacity, soc_fraction, offer):
        bank = Battery(
            capacity_joules=capacity, soc_joules=capacity * soc_fraction
        )
        accepted = bank.charge(offer, duration_s=3600.0)
        assert 0.0 <= accepted <= offer + 1e-9
        assert bank.soc_joules <= capacity * (1.0 + 1e-12) + 1e-9

    @given(
        capacity=st.floats(10.0, 1e6, allow_nan=False),
        cycles=st.lists(st.floats(0.0, 1e5, allow_nan=False), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_never_gains(self, capacity, cycles):
        bank = Battery(capacity_joules=capacity, soc_joules=capacity / 2.0)
        total_in = total_out = 0.0
        for amount in cycles:
            total_in += bank.charge(amount)
            total_out += bank.discharge(amount)
        # Energy out can never exceed energy in plus the initial store.
        initial_store = capacity / 2.0
        assert total_out <= total_in + initial_store + 1e-6
