"""Shared fixtures for the test suite, and its cost report."""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

from repro.datacenter.datacenter import Datacenter, DatacenterSpec
from repro.datacenter.price import TwoLevelTariff
from repro.datacenter.pue import FreeCoolingPUE
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.sim.config import ExperimentConfig, build_datacenters, scaled_config
from repro.sim.kernel import SiteConditions
from repro.sim.state import SlotObservation
from repro.workload.datacorr import DataCorrelationProcess, VolumeMatrix
from repro.workload.traces import TraceLibrary
from repro.workload.vm import AppType, VirtualMachine


def make_vm(
    vm_id: int = 0,
    app_type: AppType = AppType.WEB,
    cores: float = 2.0,
    image_gb: float = 4.0,
    arrival_slot: int = 0,
    departure_slot: int = 100,
    service_id: int = 0,
    phase_hours: float = 0.0,
    seed: int = 0,
) -> VirtualMachine:
    """Convenience VM factory with sensible defaults."""
    return VirtualMachine(
        vm_id=vm_id,
        app_type=app_type,
        cores=cores,
        image_gb=image_gb,
        arrival_slot=arrival_slot,
        departure_slot=departure_slot,
        service_id=service_id,
        phase_hours=phase_hours,
        seed=seed,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def six_vms() -> list[VirtualMachine]:
    """Two services of three VMs each, mixed archetypes."""
    return [
        make_vm(vm_id=0, service_id=0, app_type=AppType.WEB, seed=10),
        make_vm(vm_id=1, service_id=0, app_type=AppType.WEB, seed=11),
        make_vm(vm_id=2, service_id=0, app_type=AppType.BATCH, seed=12),
        make_vm(vm_id=3, service_id=1, app_type=AppType.HPC, seed=13),
        make_vm(vm_id=4, service_id=1, app_type=AppType.BATCH, seed=14),
        make_vm(vm_id=5, service_id=1, app_type=AppType.WEB, seed=15),
    ]


@pytest.fixture
def trace_library() -> TraceLibrary:
    return TraceLibrary(steps_per_slot=30, seed=7)


@pytest.fixture
def volume_process() -> DataCorrelationProcess:
    return DataCorrelationProcess(seed=9)


def make_specs(n_servers: tuple[int, int, int] = (6, 4, 2)) -> list[DatacenterSpec]:
    """Three-site fleet with distinct tariffs/time zones."""
    sites = [
        ("Lisbon", 38.7223, -9.1393, 0.0, 0.24, 0.12),
        ("Zurich", 47.3769, 8.5417, 1.0, 0.20, 0.10),
        ("Helsinki", 60.1699, 24.9384, 2.0, 0.16, 0.08),
    ]
    specs = []
    for (name, lat, lon, tz, peak, off), servers in zip(sites, n_servers):
        specs.append(
            DatacenterSpec(
                name=name,
                latitude=lat,
                longitude=lon,
                n_servers=servers,
                pv_kwp=0.1 * servers,
                battery_kwh=0.64 * servers,
                tariff=TwoLevelTariff(
                    peak_price=peak, offpeak_price=off, tz_offset_hours=tz
                ),
                pue_model=FreeCoolingPUE(tz_offset_hours=tz),
                tz_offset_hours=tz,
            )
        )
    return specs


def make_site(
    specs: list[DatacenterSpec], seed: int = 0, steps_per_slot: int = 60
) -> SiteConditions:
    """The site conditions of a hand-built fleet."""
    config = ExperimentConfig(
        name="test",
        specs=tuple(specs),
        steps_per_slot=steps_per_slot,
        seed=seed,
    )
    return SiteConditions(config)


def make_datacenters(specs, seed: int = 0, steps_per_slot: int = 60):
    """Fresh live DCs on a hand-built fleet's site conditions."""
    return build_datacenters(make_site(specs, seed, steps_per_slot))


@pytest.fixture
def specs() -> list[DatacenterSpec]:
    return make_specs()


@pytest.fixture
def datacenters(specs) -> list[Datacenter]:
    return make_datacenters(specs, seed=3)


@pytest.fixture
def latency_model(specs) -> LatencyModel:
    return LatencyModel(GeoTopology(specs), BERProcess(seed=5))


def make_observation(
    vms: list[VirtualMachine],
    datacenters: list[Datacenter],
    latency_model: LatencyModel,
    trace_library: TraceLibrary,
    volume_process: DataCorrelationProcess,
    slot: int = 1,
    previous_assignment: dict[int, int] | None = None,
) -> SlotObservation:
    """Assemble a coherent observation for policy-level tests."""
    demand = trace_library.slot_demand_many(vms, max(slot - 1, 0))
    volumes = volume_process.volumes(vms, max(slot - 1, 0))
    return SlotObservation(
        slot=slot,
        vms=vms,
        demand_traces=demand,
        volumes=volumes,
        previous_assignment=dict(previous_assignment or {}),
        dcs=datacenters,
        latency_model=latency_model,
        latency_constraint_s=72.0,
    )


@pytest.fixture
def observation(
    six_vms, datacenters, latency_model, trace_library, volume_process
) -> SlotObservation:
    return make_observation(
        six_vms, datacenters, latency_model, trace_library, volume_process
    )


@pytest.fixture(scope="session")
def tiny_config():
    return scaled_config("tiny")


def _user_cpu_s() -> float:
    """User CPU seconds of this process and of its reaped children."""
    return sum(
        resource.getrusage(who).ru_utime
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


#: Wall clock and user CPU when pytest imports this file, just before
#: the session starts.
_STARTED = (time.perf_counter(), _user_cpu_s())


def pytest_terminal_summary(terminalreporter) -> None:
    """Report the session's wall time beside its user CPU time.

    User CPU counts pytest and the worker processes it has reaped; it
    drifts less with the host's load than wall time does, so a slower
    host is not read as a slower suite.
    """
    wall = time.perf_counter() - _STARTED[0]
    cpu = _user_cpu_s() - _STARTED[1]
    terminalreporter.write_line(
        f"session cost: {wall:.1f} s wall, {cpu:.1f} s user CPU "
        "(pytest and its reaped children)"
    )
