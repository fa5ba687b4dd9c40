"""Micro-benchmarks of the substrate components.

Times the pieces every simulated slot exercises: trace generation,
volume generation, the green controller, the latency model and the
server power model.  Useful for catching performance regressions in
the engine's hot path.
"""

import numpy as np
import pytest

from conftest import make_specs, make_vm
from repro.core.green import GreenController
from repro.datacenter.datacenter import Datacenter
from repro.datacenter.server import XEON_E5410
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.sim.config import ExperimentConfig
from repro.sim.kernel import SiteConditions
from repro.workload.datacorr import DataCorrelationProcess
from repro.workload.traces import TraceLibrary


@pytest.fixture(scope="module")
def vms():
    return [make_vm(vm_id=i, service_id=i // 4, seed=i) for i in range(100)]


def test_trace_generation(benchmark, vms):
    library = TraceLibrary(steps_per_slot=60, seed=1)
    matrix = benchmark(library.slot_demand_many, vms, 5)
    assert matrix.shape == (100, 60)


def test_volume_generation(benchmark, vms):
    process = DataCorrelationProcess(seed=2)
    process.volumes(vms, 0)  # cache the population's base matrix
    matrix = benchmark(process.volumes, vms, 1)
    assert matrix.volumes.shape == (100, 100)


def test_green_controller_slot(benchmark):
    """One DC's controller pass over a slot whose site conditions (PV,
    tariffs) are already evaluated, as every engine of a group after
    the first finds them."""
    site = SiteConditions(
        ExperimentConfig(
            name="bench",
            specs=tuple(make_specs()[:1]),
            steps_per_slot=720,  # the paper's 5 s granularity
            seed=3,
        )
    )
    dc = Datacenter(site, index=0)
    conditions = site.at(12)
    power = np.full((1, 720), 900.0)

    def run():
        dc.battery.soc_joules = dc.battery.capacity_joules
        return GreenController().run_slot_fleet([dc], conditions, power)[0]

    result = benchmark(run)
    result.sanity_check()


def test_destination_latency(benchmark):
    """Eq. 1 for one destination on a slot the model has not seen.

    The model draws each link's BER window once per slot and serves
    later calls of that slot from memory, so each round gets a fresh
    model: it times the cold-slot path a run pays once per slot, not a
    warm lookup."""
    topology = GeoTopology(make_specs())
    volumes = {0: 1500.0, 1: 400.0, 2: 90.0}
    result = benchmark.pedantic(
        lambda model: model.destination_latency(1, volumes, 7),
        setup=lambda: ((LatencyModel(topology, BERProcess(seed=4)),), {}),
        rounds=50,
    )
    assert result > 0.0


def test_server_power_trace(benchmark):
    rng = np.random.default_rng(5)
    load = rng.uniform(0.0, 8.0, 720)
    trace = benchmark(XEON_E5410.power_trace, 1, load)
    assert trace.shape == (720,)
