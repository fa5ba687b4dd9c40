"""The placement policies' per-slot kernels against their oracles.

Each production kernel skips or reuses work its oracle in
``tests/oracles.py`` does in full; the results must be equal bit for
bit (``==`` / ``np.array_equal``, never a tolerance), including on the
edge cases the skipped work would decide: traces that sum exactly to
a server's capacity, zero and NaN rows, an exhausted fleet, distance
ties in k-means, coincident points in the plane and BER windows read
out of slot order or by several engines at once.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tests import oracles
from tests.conftest import make_specs
from repro.baselines import EnerAwarePolicy
from repro.core.controller import ProposedPolicy
from repro.core.correlation import peak_coincidence, repulsion_matrix
from repro.core.forces import ForceDirectedEmbedding, ForceParameters
from repro.core.kmeans import constrained_kmeans
from repro.core.local import allocate_correlation_aware, allocate_first_fit
from repro.datacenter.server import XEON_E5410
from repro.experiments.runner import default_policies
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.sim.config import build_datacenters, scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.results import RunResult

CAPACITY = XEON_E5410.max_capacity

#: Demand values whose sums are exact in binary, so combined traces hit
#: the capacity exactly, plus zeros and arbitrary reals.
demand_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 5.5, 6.0, CAPACITY]),
    st.floats(0.0, CAPACITY, allow_nan=False),
)


def demand_matrices(max_rows=14, max_steps=6):
    return st.integers(1, max_steps).flatmap(
        lambda steps: st.lists(
            st.one_of(
                st.lists(demand_values, min_size=steps, max_size=steps),
                st.just([0.0] * steps),
            ),
            max_size=max_rows,
        ).map(lambda rows: np.array(rows, dtype=float).reshape(-1, steps))
    )


def allocation_of(allocation):
    return (allocation.server_vms, allocation.frequencies, allocation.saturated)


class TestLocalPhase:
    @given(demand=demand_matrices(), n_servers=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_correlation_aware_equals_oracle(self, demand, n_servers):
        vm_ids = list(range(100, 100 + demand.shape[0]))
        assert allocation_of(
            allocate_correlation_aware(vm_ids, demand, XEON_E5410, n_servers)
        ) == allocation_of(
            oracles.allocate_correlation_aware(
                vm_ids, demand, XEON_E5410, n_servers
            )
        )

    @given(demand=demand_matrices(), n_servers=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_first_fit_equals_oracle(self, demand, n_servers):
        vm_ids = list(range(demand.shape[0]))
        assert allocation_of(
            allocate_first_fit(vm_ids, demand, XEON_E5410, n_servers)
        ) == allocation_of(
            oracles.allocate_first_fit(vm_ids, demand, XEON_E5410, n_servers)
        )

    @pytest.mark.parametrize(
        "rows, n_servers",
        [
            # Interleaved peaks that sum to exactly the capacity fit.
            ([[2.0, 6.0, 4.0], [6.0, 2.0, 4.0], [4.0, 4.0, 4.0]], 3),
            # Zero rows fit anywhere, including on a full server.
            ([[CAPACITY] * 3, [0.0] * 3, [0.0] * 3], 2),
            # One server for traces that cannot share it: exhausted.
            ([[5.0, 1.0], [1.0, 5.0], [6.0, 6.0], [7.0, 0.5]], 1),
            # A NaN trace never fits an open server.
            ([[1.0, 1.0], [np.nan, 1.0], [1.0, 2.0]], 2),
        ],
        ids=["exact-capacity", "zero-rows", "exhausted", "nan-row"],
    )
    def test_edge_cases_equal_oracle(self, rows, n_servers):
        demand = np.array(rows)
        vm_ids = list(range(len(rows)))
        for allocator, oracle in (
            (allocate_correlation_aware, oracles.allocate_correlation_aware),
            (allocate_first_fit, oracles.allocate_first_fit),
        ):
            assert allocation_of(
                allocator(vm_ids, demand, XEON_E5410, n_servers)
            ) == allocation_of(oracle(vm_ids, demand, XEON_E5410, n_servers))

    def test_exact_capacity_shares_one_server(self):
        demand = np.array([[2.0, 6.0], [6.0, 2.0]])
        allocation = allocate_correlation_aware(
            [0, 1], demand, XEON_E5410, 2
        )
        assert allocation.server_vms == [[0, 1]]


class TestKMeans:
    @given(
        data=st.data(),
        n=st.integers(1, 20),
        k=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_oracle(self, data, n, k):
        coordinate = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])
        positions = data.draw(arrays(float, (n, 2), elements=coordinate))
        # Coincident centroids tie every distance to them.
        centroids = data.draw(arrays(float, (k, 2), elements=coordinate))
        loads = data.draw(
            arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        )
        capacities = data.draw(
            arrays(float, k, elements=st.sampled_from([0.0, 1.0, 3.0, 50.0]))
        )
        result = constrained_kmeans(
            positions, loads, capacities, centroids, max_iterations=6
        )
        expected = oracles.constrained_kmeans(
            positions, loads, capacities, centroids, max_iterations=6
        )
        assert np.array_equal(result.assignment, expected.assignment)
        assert np.array_equal(result.centroids, expected.centroids)
        assert np.array_equal(result.loads, expected.loads)
        assert np.array_equal(result.overflow, expected.overflow)
        assert result.iterations == expected.iterations

    def test_coincident_centroids_rank_by_index(self):
        positions = np.array([[1.0, 1.0], [2.0, 2.0]])
        centroids = np.zeros((3, 2))
        result = constrained_kmeans(
            positions, np.ones(2), np.array([1.0, 1.0, 1.0]), centroids,
            max_iterations=1,
        )
        assert result.assignment.tolist() == [0, 1]


#: Step counts on both sides of the pruning depth k = min(T, 24, max(8,
#: T // 5)): up to 8 steps every step is kept; 9 and 30 keep 8, 60
#: keeps 12 and 97 keeps 19.
PRUNING_STEPS = [1, 7, 8, 9, 30, 60, 97]

#: Row counts across the 64-row block.
PRUNING_ROWS = [0, 1, 2, 63, 64, 65, 130]


class TestRepulsion:
    @given(
        traces=st.integers(0, 12).flatmap(
            lambda n: arrays(
                float,
                (n, 5),
                elements=st.one_of(
                    st.sampled_from([0.0, 1.0, 2.5]),
                    st.floats(0.0, 10.0, allow_nan=False),
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_oracle_and_is_symmetric(self, traces):
        result = peak_coincidence(traces)
        assert np.array_equal(result, oracles.peak_coincidence(traces))
        assert np.array_equal(result, result.T)

    @given(
        data=st.data(),
        n=st.sampled_from(PRUNING_ROWS),
        steps=st.sampled_from(PRUNING_STEPS),
        pattern=st.sampled_from(["ties", "reals", "spikes"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_pruned_equals_oracle(self, data, n, steps, pattern):
        """Step counts on both sides of the pruning depth and row counts
        across a row block, with ties, all-zero rows, equal rows and
        one-step spikes."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if pattern == "ties":
            traces = rng.choice([0.0, 0.5, 1.0, 2.5], size=(n, steps))
        elif pattern == "reals":
            traces = rng.uniform(0.0, 10.0, size=(n, steps))
        else:
            traces = rng.uniform(0.0, 0.1, size=(n, steps))
            traces[np.arange(n), rng.integers(0, steps, size=n)] = 5.0
        if n:
            zeros = rng.random(n) < data.draw(st.sampled_from([0.0, 0.2, 1.0]))
            traces[zeros] = 0.0
            copies = rng.random(n) < data.draw(st.sampled_from([0.0, 0.3]))
            traces[copies] = traces[rng.integers(0, n)]
        result = peak_coincidence(traces)
        assert np.array_equal(result, oracles.peak_coincidence(traces))
        assert np.array_equal(result, result.T)

    def test_pruned_at_paper_resolution(self):
        """720 steps (the paper's slot): AR(1) traces with a diurnal
        bump, across two row blocks."""
        rng = np.random.default_rng(720)
        noise = rng.normal(0.0, 0.05, size=(130, 720))
        for step in range(1, 720):
            noise[:, step] += 0.9 * noise[:, step - 1]
        bump = np.sin(np.linspace(0.0, np.pi, 720))
        shifts = rng.integers(0, 720, size=130)
        traces = np.clip(
            0.4 + 0.3 * np.array([np.roll(bump, shift) for shift in shifts]) + noise,
            0.0,
            1.0,
        )
        result = peak_coincidence(traces)
        assert np.array_equal(result, oracles.peak_coincidence(traces))
        assert np.array_equal(result, result.T)

    def test_full_scan_when_the_threshold_fails(self):
        """Each row's largest steps are where the other row is zero, and
        the combined peak lies off both: the best sum over the top
        steps (10) falls short of fl(q_i + q_j) = 20, so the pair scans
        every step and finds 19."""
        traces = np.zeros((2, 40))
        traces[0, :8] = 10.0
        traces[1, 8:16] = 10.0
        traces[:, 20] = 9.5
        result = peak_coincidence(traces)
        assert np.array_equal(result, oracles.peak_coincidence(traces))
        assert result[0, 1] == result[1, 0] == 19.0 / 20.0

    def test_repulsion_zero_diagonal(self):
        traces = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        expected = oracles.peak_coincidence(traces)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(repulsion_matrix(traces), expected)


class TestEmbedding:
    @given(
        data=st.data(),
        n=st.integers(0, 10),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        normalize=st.booleans(),
        min_distance=st.sampled_from([1e-9, 0.3, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle(self, data, n, alpha, normalize, min_distance):
        coordinate = st.one_of(
            st.sampled_from([-1.0, 0.0, 1.0]),
            st.floats(-3.0, 3.0, allow_nan=False),
        )
        # Repeated coordinates put points on top of each other, so the
        # jitter branch runs.
        positions = data.draw(arrays(float, (n, 2), elements=coordinate))
        attraction = data.draw(
            arrays(float, (n, n), elements=st.floats(-1.0, 0.0))
        )
        repulsion = data.draw(
            arrays(float, (n, n), elements=st.floats(0.0, 1.0))
        )
        embedding = ForceDirectedEmbedding(
            ForceParameters(
                alpha=alpha,
                normalize_forces=normalize,
                min_distance=min_distance,
                max_iterations=8,
            )
        )
        result = embedding.run(positions, attraction, repulsion)
        expected = oracles.embedding_run(
            embedding, positions, attraction, repulsion
        )
        assert np.array_equal(result.positions, expected.positions)
        assert result.cost_history == expected.cost_history
        assert result.iterations == expected.iterations
        assert result.converged == expected.converged


def latency_models(seed=3):
    topology = GeoTopology(make_specs())
    return (
        LatencyModel(topology, BERProcess(seed=seed)),
        oracles.RedrawLatencyModel(topology, BERProcess(seed=seed)),
    )


latency_calls = st.lists(
    st.tuples(
        st.integers(0, 5),  # slot, visited in any order
        st.integers(0, 2),  # destination
        st.dictionaries(
            st.integers(0, 2),
            st.sampled_from([0.0, 1.0, 700.0, 40_000.0, 3e6]),
            min_size=1,
        ),
    ),
    min_size=1,
    max_size=15,
)


class TestBerWindowMemo:
    @given(calls=latency_calls)
    @settings(max_examples=40, deadline=None)
    def test_out_of_order_slots_equal_oracle(self, calls):
        model, oracle = latency_models()
        for slot, dst, volumes in calls:
            assert model.destination_latency(
                dst, volumes, slot
            ) == oracle.destination_latency(dst, volumes, slot)

    def test_one_draw_per_link_and_slot(self, monkeypatch):
        model, _ = latency_models()
        draws = []
        link_rng = BERProcess.link_rng

        def counted(process, slot, src, dst):
            draws.append((slot, src, dst))
            return link_rng(process, slot, src, dst)

        monkeypatch.setattr(BERProcess, "link_rng", counted)
        volumes = {0: 10.0, 1: 20.0, 2: 30.0}
        for _ in range(3):
            for dst in range(3):
                model.destination_latency(dst, volumes, 4)
        assert sorted(draws) == sorted(
            (4, src, dst) for src in range(3) for dst in range(3) if src != dst
        )
        model.destination_latency(0, volumes, 5)
        assert len(draws) == 8

    def test_windows_are_read_only(self):
        model, oracle = latency_models()
        window = model.ber_window(2, 0, 1)
        assert np.array_equal(window, oracle.ber_window(2, 0, 1))
        with pytest.raises(ValueError):
            window[0] = 0.5


def run_interleaved(engines, lag):
    """Step the engines in turn, the second ``lag`` slots behind the
    first, each exactly as :meth:`SimulationEngine.run` steps alone."""
    states = []
    for engine in engines:
        engine.policy.reset()
        states.append(
            (
                build_datacenters(engine.kernel.site),
                RunResult(
                    policy_name=engine.policy.name,
                    config_name=engine.config.name,
                ),
                {},
            )
        )
    horizon = engines[0].config.horizon_slots
    for tick in range(horizon + lag):
        for index, engine in enumerate(engines):
            slot = tick - lag * index
            if not 0 <= slot < horizon:
                continue
            dcs, result, previous = states[index]
            kernel = engine.kernel
            vms = kernel.materialization.population.alive(slot)
            observation = kernel.observe(slot, vms, previous, dcs)
            placement = engine.policy.place(observation)
            placement.validate(observation)
            result.slots.append(kernel.step(slot, vms, placement, dcs))
            states[index] = (dcs, result, dict(placement.assignment))
    return [result for _, result, _ in states]


class TestSharedLatencyModel:
    """Engines sharing one fleet's site conditions (and with them one
    latency model) read the windows and arrays of their own slot."""

    def test_interleaved_engines_equal_solo_runs(self):
        """The second engine runs one slot behind the first, so the
        memos change slot on every step."""
        config = scaled_config("tiny").with_horizon(8)
        solo = [
            SimulationEngine(config, policy).run().to_dict()
            for policy in (ProposedPolicy(), EnerAwarePolicy())
        ]
        engines = [
            SimulationEngine(config, policy)
            for policy in (ProposedPolicy(), EnerAwarePolicy())
        ]
        engines[1].kernel.site = engines[0].kernel.site
        interleaved = run_interleaved(engines, lag=1)
        assert [result.to_dict() for result in interleaved] == solo

    def test_threads_sharing_a_model_equal_solo_runs(self):
        config = scaled_config("tiny").with_horizon(6)
        solo = [
            SimulationEngine(config, policy).run().to_dict()
            for policy in default_policies()
        ]
        engines = [
            SimulationEngine(config, policy) for policy in default_policies()
        ]
        shared = engines[0].kernel.site
        for engine in engines:
            engine.kernel.site = shared
        results: list = [None] * len(engines)
        errors: list = []

        def run(index):
            try:
                results[index] = engines[index].run().to_dict()
            except Exception as exc:  # reported below with its traceback
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(engines))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert results == solo


class TestWholeRunAgainstOracles:
    def test_tiny_runs_identical_with_every_oracle(self, monkeypatch):
        config = scaled_config("tiny").with_horizon(8)
        production = [
            SimulationEngine(config, policy).run().to_dict()
            for policy in default_policies()
        ]

        def oracle_run(self, positions, attraction, repulsion):
            return oracles.embedding_run(self, positions, attraction, repulsion)

        def oracle_latency_model(config):
            return oracles.RedrawLatencyModel(
                GeoTopology(list(config.specs)), BERProcess(seed=config.seed)
            )

        monkeypatch.setattr(ForceDirectedEmbedding, "run", oracle_run)
        monkeypatch.setattr(
            "repro.core.correlation.peak_coincidence", oracles.peak_coincidence
        )
        monkeypatch.setattr(
            "repro.core.controller.constrained_kmeans",
            oracles.constrained_kmeans,
        )
        monkeypatch.setattr(
            "repro.baselines.ener_aware.allocate_correlation_aware",
            oracles.allocate_correlation_aware,
        )
        for module in ("pri_aware", "net_aware"):
            monkeypatch.setattr(
                f"repro.baselines.{module}.allocate_first_fit",
                oracles.allocate_first_fit,
            )
        monkeypatch.setattr(
            "repro.sim.kernel.build_latency_model", oracle_latency_model
        )
        policies = default_policies()
        policies[0] = ProposedPolicy(
            local_allocator=oracles.allocate_correlation_aware
        )
        reference = [
            SimulationEngine(config, policy).run().to_dict()
            for policy in policies
        ]
        assert production == reference
