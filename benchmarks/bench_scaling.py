"""Controller and engine scaling: wall time of each phase vs fleet size.

The paper argues the two-phase split keeps the controller cheap enough
for real-time hourly invocation.  These micro-benchmarks time each
phase (embedding, constrained k-means, Algorithm 2, local allocation)
on synthetic fleets of growing size, the slot kernel's per-slot
physics hot paths (`_fleet_it_power`, `_response_latencies`), the
volume layer on a population it has not seen and on the population of
the slot after, the repulsion matrix at the width the benchmark's
small comparisons run, and the repulsion matrix and local phase at the
paper's width.  Their bit-identity with the reference loops is a tier-1 test
(``tests/sim/test_engine_vectorized.py``,
``tests/workload/test_datacorr.py``,
``tests/property/test_property_kernels.py``); these benches only time
them.
"""

import numpy as np
import pytest

from conftest import make_specs, make_vm
from repro.core.correlation import attraction_matrix, repulsion_matrix
from repro.core.forces import ForceDirectedEmbedding, ForceParameters
from repro.core.kmeans import constrained_kmeans, warm_start_centroids
from repro.core.local import ServerAllocation, allocate_correlation_aware
from repro.core.migration import revise_migrations
from repro.datacenter.server import XEON_E5410
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.sim.config import paper_config, scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SiteConditions
from repro.workload.arrivals import VMPopulation
from repro.workload.datacorr import DataCorrelationProcess
from repro.workload.materialize import build_materialization


def synthetic_inputs(n_vms: int, steps: int = 60, seed: int = 0):
    rng = np.random.default_rng(seed)
    traces = rng.uniform(0.1, 3.0, size=(n_vms, steps))
    volumes = rng.uniform(0.0, 20.0, size=(n_vms, n_vms))
    np.fill_diagonal(volumes, 0.0)
    positions = rng.normal(size=(n_vms, 2))
    return traces, volumes, positions


@pytest.mark.parametrize("n_vms", [50, 150, 300])
def test_embedding_scaling(benchmark, n_vms):
    traces, volumes, positions = synthetic_inputs(n_vms)
    attraction = attraction_matrix(volumes)
    repulsion = repulsion_matrix(traces)
    embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=20))
    result = benchmark(embedding.run, positions, attraction, repulsion)
    assert result.positions.shape == (n_vms, 2)


@pytest.mark.parametrize("n_vms", [50, 150, 300])
def test_kmeans_scaling(benchmark, n_vms):
    _, __, positions = synthetic_inputs(n_vms)
    rng = np.random.default_rng(1)
    loads = rng.uniform(0.2, 2.0, n_vms)
    capacities = np.full(3, loads.sum())
    centroids = warm_start_centroids(positions, None, 3)
    result = benchmark(
        constrained_kmeans, positions, loads, capacities, centroids
    )
    assert result.assignment.shape == (n_vms,)


@pytest.mark.parametrize("n_vms", [50, 150])
def test_migration_revision_scaling(benchmark, n_vms):
    """Algorithm 2 on slot 0 of a fresh latency model per round: the
    model keeps a slot's BER windows once drawn, so reusing one would
    time warm lookups instead of the draws a slot's first revision
    pays."""
    rng = np.random.default_rng(2)
    vms = [
        make_vm(vm_id=i, image_gb=float(rng.choice([2, 4, 8])), seed=i)
        for i in range(n_vms)
    ]
    topology = GeoTopology(make_specs())
    target = rng.integers(0, 3, n_vms)
    previous = rng.integers(0, 3, n_vms)
    positions = rng.normal(size=(n_vms, 2))
    centroids = rng.normal(size=(3, 2))
    loads = rng.uniform(0.2, 2.0, n_vms)
    caps = np.full(3, loads.sum() / 2.0)
    plan = benchmark.pedantic(
        lambda latency_model: revise_migrations(
            vms,
            target,
            previous,
            positions,
            centroids,
            loads,
            caps,
            latency_model,
            0,
            72.0,
        ),
        setup=lambda: ((LatencyModel(topology, BERProcess(seed=1)),), {}),
        rounds=10,
    )
    assert len(plan.assignment) == n_vms


@pytest.mark.parametrize("n_vms", [50, 150, 300])
def test_local_allocation_scaling(benchmark, n_vms):
    traces, _, __ = synthetic_inputs(n_vms)
    allocation = benchmark(
        allocate_correlation_aware,
        list(range(n_vms)),
        traces,
        XEON_E5410,
        max(n_vms // 2, 1),
    )
    assert allocation.vm_count() == n_vms


# -- engine per-slot physics hot paths ---------------------------------


class _SyntheticPlacement:
    """Bare placement stand-in for the engine hot-path benchmarks."""

    def __init__(self, allocations=None, assignment=None):
        self.allocations = allocations
        self.assignment = assignment


def _physics_engine(steps: int) -> SimulationEngine:
    import dataclasses

    from repro.baselines import EnerAwarePolicy

    config = dataclasses.replace(
        scaled_config("tiny"), name="bench", horizon_slots=1, steps_per_slot=steps
    )
    return SimulationEngine(config, EnerAwarePolicy())


def _it_power_inputs(n_vms: int, steps: int = 720, seed: int = 0):
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.05, 0.8, size=(n_vms, steps))
    vm_rows = {i: i for i in range(n_vms)}
    allocation = allocate_correlation_aware(
        list(range(n_vms)), demand, XEON_E5410, n_vms
    )
    empty = ServerAllocation(model=XEON_E5410, n_servers=n_vms)
    placement = _SyntheticPlacement(allocations=[allocation, empty, empty])
    return placement, vm_rows, demand


@pytest.mark.parametrize("n_vms", [300, 1000])
def test_it_power_per_slot(benchmark, n_vms):
    """Per-slot IT power: per-server sequential sums over the whole
    placement, one slice-add per VM depth (servers ranked by VM
    count)."""
    kernel = _physics_engine(steps=720).kernel
    placement, vm_rows, demand = _it_power_inputs(n_vms)
    power, actives = benchmark(
        kernel._fleet_it_power, placement, vm_rows, demand
    )
    assert power.shape == (3, 720)
    assert power[0].min() > 0.0 and not power[1:].any()
    assert actives[0] == placement.allocations[0].active_servers


@pytest.mark.parametrize("n_vms", [150, 450])
def test_response_latencies_per_slot(benchmark, n_vms):
    """Per-slot Eq. 1 evaluation over the grouped volume matrix.

    Each round gets fresh site conditions, and with them a fresh
    latency model, so it times the cold slot a group's first step pays
    (the BER windows are drawn once per slot and then served from
    memory), not a warm lookup."""
    rng = np.random.default_rng(3)
    kernel = _physics_engine(steps=60).kernel
    vms = [
        make_vm(vm_id=i, service_id=i // 5, seed=i) for i in range(n_vms)
    ]
    volumes = np.exp(rng.normal(1.0, 1.0, size=(n_vms, n_vms)))
    np.fill_diagonal(volumes, 0.0)
    placement = _SyntheticPlacement(
        assignment={vm.vm_id: int(rng.integers(0, 3)) for vm in vms}
    )

    def fresh_model():
        kernel.site = SiteConditions(kernel.config)
        return (), {}

    latencies = benchmark.pedantic(
        lambda: kernel._response_latencies(placement, vms, volumes, 5),
        setup=fresh_model,
        rounds=20,
    )
    assert len(latencies) == 3
    assert all(latency > 0.0 for latency, _ in latencies)


# -- workload generation -------------------------------------------------


@pytest.mark.parametrize("n_vms", [300, 1177])
def test_volumes_new_population(benchmark, n_vms):
    """Slot-0 volumes of the first ``n_vms`` VMs alive at slot 0 of the
    paper fleet (1,177 is all of them).  Each round gets a fresh
    process with no population cached, so every VM counts as arrived:
    the round pays the first-uniform pass over every pair, the
    communicating pairs' seeded draws and the slot's jitter."""
    config = paper_config()
    vms = VMPopulation.generate(config.arrival_model, 1, seed=config.seed).alive(0)
    vms = vms[:n_vms]
    assert len(vms) == n_vms
    matrix = benchmark.pedantic(
        lambda process: process.volumes(vms, 0),
        setup=lambda: ((DataCorrelationProcess(seed=config.seed + 2),), {}),
        rounds=3,
    )
    assert matrix.volumes.shape == (n_vms, n_vms)


def test_volumes_next_population(benchmark):
    """Slot-1 volumes of the paper fleet on a process that has already
    realized slot 0's population: what every slot after the first pays.
    The survivors gather their pairs from slot 0's base matrix, so the
    round pays the arrived VMs' pairs, the phase indices and the slot's
    jitter."""
    config = paper_config()
    population = VMPopulation.generate(config.arrival_model, 2, seed=config.seed)
    first, second = population.alive(0), population.alive(1)

    def warm_process():
        process = DataCorrelationProcess(seed=config.seed + 2)
        process.volumes(first, 0)
        return (process,), {}

    matrix = benchmark.pedantic(
        lambda process: process.volumes(second, 1), setup=warm_process, rounds=3
    )
    assert matrix.volumes.shape == (len(second), len(second))


# -- policy kernels at the benchmark's and the paper's width ---------------


@pytest.fixture(scope="module")
def small_observed_demand():
    """The demand Proposed observes at slot 24 of the small fleet: slot
    23's traces of the VMs alive at slot 24 (about 126 x 60)."""
    materialization = build_materialization(scaled_config("small"), None)
    demand = materialization.demand(materialization.population.alive(24), 23)
    assert demand.shape[1] == 60
    return demand


def test_repulsion_small_width(benchmark, small_observed_demand):
    """The repulsion matrix at the width ``compare_small`` runs (times
    only, no bar)."""
    n = small_observed_demand.shape[0]
    repulsion = benchmark.pedantic(
        repulsion_matrix, args=(small_observed_demand,), rounds=20
    )
    assert repulsion.shape == (n, n)


@pytest.fixture(scope="module")
def paper_observed_demand():
    """The demand Proposed observes at slot 1 of the paper fleet: slot
    0's traces of the VMs alive at slot 1 (1,163 x 720)."""
    config = paper_config(0).with_horizon(2)
    materialization = build_materialization(config, None)
    demand = materialization.demand(materialization.population.alive(1), 0)
    assert demand.shape == (1163, 720)
    return materialization.config, demand


def test_repulsion_paper_width(benchmark, paper_observed_demand):
    """The repulsion matrix at paper width (times only, no bar: shared
    CI hosts drift too far in speed for one)."""
    _, demand = paper_observed_demand
    repulsion = benchmark.pedantic(repulsion_matrix, args=(demand,), rounds=3)
    assert repulsion.shape == (1163, 1163)


def test_local_phase_paper_width(benchmark, paper_observed_demand):
    """The correlation-aware local phase with every observed VM on the
    largest DC, as Ener-aware places them at paper scale (times only,
    no bar)."""
    config, demand = paper_observed_demand
    spec = config.specs[0]
    allocation = benchmark.pedantic(
        allocate_correlation_aware,
        args=(
            list(range(demand.shape[0])),
            demand,
            spec.server_model,
            spec.n_servers,
        ),
        rounds=3,
    )
    assert allocation.vm_count() == demand.shape[0]
