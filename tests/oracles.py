"""Reference loops the slot engine is checked against, bit for bit.

The engine ships one implementation per slot step.  The plain loops
those implementations were derived from live here, as test oracles:

* :func:`green_run_slot` -- the scalar green controller: one DC, one
  control step at a time, through the :class:`Battery` methods;
* :class:`LoopVolumes` -- the per-pair data-volume loop over a
  :class:`DataCorrelationProcess`'s own seeded draws;
* :class:`LoopKernel` -- a :class:`SlotKernel` whose demand rows, IT
  power, response latencies and green pass are per-row, per-server,
  per-pair and per-DC loops;
* :func:`loop_engine` -- a :class:`SimulationEngine` running on
  :class:`LoopKernel` and :class:`LoopVolumes`.

The placement policies' per-slot kernels keep their earlier forms here
too, each doing the full work the production kernel skips or reuses:

* :class:`RedrawLatencyModel` -- Eq. 1 drawing a fresh BER window on
  every call instead of once per (slot, link);
* :func:`embedding_run` -- the embedding with fresh ``(n, n)``
  temporaries every iteration;
* :func:`allocate_correlation_aware` and :func:`allocate_first_fit` --
  the local phase testing every open server's combined trace, and the
  first-fit baseline with its per-server aggregates;
* :func:`constrained_kmeans` -- one ``argsort`` per point per round;
* :func:`peak_coincidence` -- every row of the repulsion matrix.

The ledger's serialization keeps its earlier form too:
:func:`dc_record_dict`, ``dataclasses.asdict`` of a DC record.

Every production path must equal its oracle exactly; the tests compare
with ``==`` / ``np.array_equal``, never with a tolerance.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.forces import (
    EmbeddingResult,
    ForceDirectedEmbedding,
    plateaued,
)
from repro.core.green import GreenController, GreenSlotResult
from repro.core.kmeans import ClusterResult
from repro.core.local import ServerAllocation, _select_frequency
from repro.datacenter.datacenter import Datacenter
from repro.network.latency import BER_WINDOW, LatencyModel
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SlotKernel
from repro.sim.results import DCSlotRecord, SlotRecord
from repro.units import SECONDS_PER_HOUR
from repro.workload.datacorr import DataCorrelationProcess, VolumeMatrix


def green_run_slot(
    controller: GreenController,
    dc: Datacenter,
    slot: int,
    facility_power_w: np.ndarray,
) -> GreenSlotResult:
    """Source one DC's slot step by step; mutates the DC's battery."""
    facility_power_w = np.asarray(facility_power_w, dtype=float)
    steps = facility_power_w.size
    dt = SECONDS_PER_HOUR / steps
    times = slot * SECONDS_PER_HOUR + (np.arange(steps) + 0.5) * dt
    pv_power = np.asarray(dc.pv.power_watts(times), dtype=float)
    tariff = dc.spec.tariff
    battery = dc.battery

    soc_start = battery.soc_joules
    pv_used = pv_stored = pv_curtailed = 0.0
    battery_discharged = grid_to_load = grid_to_battery = 0.0
    grid_cost = 0.0
    for k in range(steps):
        load_j = facility_power_w[k] * dt
        pv_j = float(pv_power[k]) * dt
        time_s = float(times[k])
        grid_j = 0.0
        if pv_j >= load_j:
            pv_used += load_j
            surplus = pv_j - load_j
            stored = battery.charge(surplus, dt)
            pv_stored += stored
            pv_curtailed += surplus - stored
        else:
            pv_used += pv_j
            deficit = load_j - pv_j
            if tariff.is_peak(time_s):
                delivered = battery.discharge(deficit, dt)
                battery_discharged += delivered
                grid_to_load += deficit - delivered
                grid_j = deficit - delivered
            else:
                offer = (
                    battery.max_charge_joules(dt)
                    * controller.grid_charge_fraction
                )
                charged = battery.charge(offer, dt)
                grid_to_battery += charged
                grid_to_load += deficit
                grid_j = deficit + charged
        if grid_j:
            grid_cost += tariff.cost_of(grid_j, time_s)

    result = GreenSlotResult(
        facility_energy=float(facility_power_w.sum() * dt),
        pv_generated=float(pv_power.sum() * dt),
        pv_used=pv_used,
        pv_stored=pv_stored,
        pv_curtailed=pv_curtailed,
        battery_discharged=battery_discharged,
        grid_to_load=grid_to_load,
        grid_to_battery=grid_to_battery,
        grid_energy=grid_to_load + grid_to_battery,
        grid_cost_eur=grid_cost,
        soc_start=soc_start,
        soc_end=battery.soc_joules,
    )
    result.sanity_check()
    return result


class LoopVolumes:
    """The per-pair volume loop over ``process``'s seeded draws.

    A pair's base depends on its two VMs alone, so each ordered pair's
    :meth:`~DataCorrelationProcess.pair_base_mb` is memoized by vm ids
    for the loop's life.
    """

    def __init__(self, process: DataCorrelationProcess) -> None:
        self.process = process
        self._bases: dict[tuple[int, int], float] = {}

    def volumes(self, vms, slot: int) -> VolumeMatrix:
        process = self.process
        n = len(vms)
        matrix = np.zeros((n, n))
        jitter = process._slot_jitter(n, slot)
        modulus = process.PHASE_MODULUS
        for a, src in enumerate(vms):
            for b, dst in enumerate(vms):
                if a == b:
                    continue
                key = (src.vm_id, dst.vm_id)
                base = self._bases.get(key)
                if base is None:
                    base = self._bases[key] = process.pair_base_mb(src, dst)
                if base == 0.0:
                    continue
                phase = ((src.vm_id * 31 + dst.vm_id * 17) % modulus) / modulus
                matrix[a, b] = (
                    base * process._modulation(slot, phase) * jitter[a, b]
                )
        return VolumeMatrix(vm_ids=[vm.vm_id for vm in vms], volumes=matrix)


class LoopKernel(SlotKernel):
    """A :class:`SlotKernel` whose every physics step is a plain loop."""

    def _demand(self, vms, slot: int) -> np.ndarray:
        """One ``slot_demand`` call per row, on the run's own traces."""
        if not vms:
            return np.zeros((0, self.config.steps_per_slot))
        traces = self.materialization.traces
        return np.stack([traces.slot_demand(vm, slot) for vm in vms])

    @functools.cached_property
    def _loop_volumes(self) -> LoopVolumes:
        return LoopVolumes(self.materialization.volumes)

    def _slot_volumes(self, vms, slot: int) -> VolumeMatrix:
        """:class:`LoopVolumes` over the run's own volume process, one
        per kernel so its per-pair bases carry across slots."""
        return self._loop_volumes.volumes(vms, slot)

    def _dc_it_power(
        self, placement, dc_index: int, vm_rows: dict, demand_now: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """IT power trace (W) and active server count of one DC."""
        allocation = placement.allocations[dc_index]
        power = np.zeros(self.config.steps_per_slot)
        model = allocation.model
        for server_vms, level in zip(
            allocation.server_vms, allocation.frequencies
        ):
            aggregate = np.zeros(self.config.steps_per_slot)
            for vm_id in server_vms:
                aggregate += demand_now[vm_rows[vm_id]]
            power += model.power_trace(level, aggregate)
        return power, allocation.active_servers

    def _response_latencies(
        self, placement, vms, volumes_now: np.ndarray, slot: int
    ) -> list[tuple[float, int]]:
        """Per-(src, dst) ``np.nonzero`` scans and dict accumulation."""
        n_dcs = self.config.n_dcs
        dc_of = np.array(
            [placement.assignment[vm.vm_id] for vm in vms], dtype=int
        )
        results: list[tuple[float, int]] = []
        received = volumes_now.sum(axis=0)
        for dst in range(n_dcs):
            members = np.nonzero(dc_of == dst)[0]
            if members.size == 0:
                results.append((0.0, 0))
                continue
            volumes_from = {}
            for src in range(n_dcs):
                senders = np.nonzero(dc_of == src)[0]
                if senders.size == 0:
                    continue
                volume = float(volumes_now[np.ix_(senders, members)].sum())
                if volume > 0.0:
                    volumes_from[src] = volume
            latency = self.site.latency_model.destination_latency(
                dst, volumes_from, slot
            )
            receiving = int(np.count_nonzero(received[members] > 0.0))
            results.append((latency, receiving))
        return results

    def step(self, slot: int, vms, placement, dcs) -> SlotRecord:
        config = self.config
        vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
        demand_now = self._demand(vms, slot)
        volumes_now = self._slot_volumes(vms, slot)
        latencies = self._response_latencies(
            placement, vms, volumes_now.volumes, slot
        )
        slot_record = SlotRecord(
            slot=slot,
            n_vms=len(vms),
            migrations=len(placement.moves),
            migration_volume_mb=sum(move.image_mb for move in placement.moves),
        )
        times = slot * SECONDS_PER_HOUR + (
            (np.arange(config.steps_per_slot) + 0.5)
            * (SECONDS_PER_HOUR / config.steps_per_slot)
        )
        step_s = SECONDS_PER_HOUR / config.steps_per_slot
        for dc in dcs:
            it_power, active = self._dc_it_power(
                placement, dc.index, vm_rows, demand_now
            )
            facility_power = it_power * dc.spec.pue_model.pue(times)
            green = green_run_slot(self.green, dc, slot, facility_power)
            dc.record_slot(slot, green.facility_energy, green.pv_generated)
            latency, receiving = latencies[dc.index]
            slot_record.dc_records.append(
                DCSlotRecord(
                    green=green,
                    it_energy_joules=float(it_power.sum() * step_s),
                    active_servers=active,
                    response_latency_s=latency,
                    receiving_vms=receiving,
                )
            )
        return slot_record


def loop_kernel(kernel: SlotKernel) -> LoopKernel:
    """A :class:`LoopKernel` over ``kernel``'s workload and models."""
    return LoopKernel(
        kernel.config,
        materialization=kernel.materialization,
        site=kernel.site,
        green=kernel.green,
    )


def loop_engine(config, policy, **options) -> SimulationEngine:
    """A :class:`SimulationEngine` whose kernel runs the loops."""
    engine = SimulationEngine(config, policy, **options)
    engine.kernel = loop_kernel(engine.kernel)
    return engine


# -- placement policy kernels ---------------------------------------------


class RedrawLatencyModel(LatencyModel):
    """A :class:`LatencyModel` that draws every BER window afresh."""

    def ber_window(self, slot: int, src: int, dst: int) -> np.ndarray:
        rng = self.ber.link_rng(slot, src, dst)
        return np.asarray(self.ber.sample(rng, size=BER_WINDOW), dtype=float)


def _geometry(positions: np.ndarray):
    """Fresh ``(dx, dy, dists)`` arrays of 2D points."""
    x = positions[:, 0]
    y = positions[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    dists = dx * dx
    dists += dy * dy
    return dx, dy, np.sqrt(dists, out=dists)


def _resultant(params, dx, dy, dists, forces) -> np.ndarray:
    n = dists.shape[0]
    min_distance = params.min_distance
    scale = dists.copy()
    tiny = scale < min_distance
    np.fill_diagonal(tiny, False)
    if tiny.any():
        ii, jj = np.nonzero(tiny)
        angle = 2.0 * np.pi * ((ii * 31 + jj * 17) % 101) / 101.0
        dx[ii, jj] = np.cos(angle) * min_distance
        dy[ii, jj] = np.sin(angle) * min_distance
        scale[ii, jj] = min_distance
    np.fill_diagonal(scale, 1.0)
    resultant = np.empty((n, 2))
    resultant[:, 0] = np.einsum("ji,ij->i", forces, dx / scale)
    resultant[:, 1] = np.einsum("ji,ij->i", forces, dy / scale)
    if params.normalize_forces and n > 1:
        resultant /= n - 1
    return resultant


def embedding_run(
    embedding: ForceDirectedEmbedding, positions, attraction, repulsion
) -> EmbeddingResult:
    """``embedding.run`` allocating its geometry every iteration."""
    params = embedding.params
    positions = np.array(positions, dtype=float, copy=True)
    n = positions.shape[0]
    forces = np.ascontiguousarray(embedding.total_forces(attraction, repulsion))
    if n < 2:
        return EmbeddingResult(positions=positions, iterations=0, converged=True)
    gain = 0.5 * params.time_step**2
    dx, dy, previous_distances = _geometry(positions)
    cost_history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(params.max_iterations):
        positions += gain * _resultant(params, dx, dy, previous_distances, forces)
        iterations += 1
        dx, dy, distances = _geometry(positions)
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


def allocate_correlation_aware(vm_ids, demand, model, n_servers):
    """The combined-peak first fit, testing every open server."""
    demand = np.asarray(demand, dtype=float)
    allocation = ServerAllocation(model=model, n_servers=n_servers)
    if len(vm_ids) == 0:
        return allocation
    capacity = model.max_capacity
    order = np.argsort(-demand.max(axis=1), kind="stable")
    aggregates: list[np.ndarray] = []
    for index in order:
        trace = demand[index]
        placed = False
        for server, aggregate in enumerate(aggregates):
            if float((aggregate + trace).max()) <= capacity:
                aggregates[server] = aggregate + trace
                allocation.server_vms[server].append(vm_ids[index])
                placed = True
                break
        if placed:
            continue
        if len(aggregates) < n_servers:
            aggregates.append(trace.copy())
            allocation.server_vms.append([vm_ids[index]])
            continue
        peaks = [float((agg + trace).max()) for agg in aggregates]
        server = int(np.argmin(peaks))
        aggregates[server] = aggregates[server] + trace
        allocation.server_vms[server].append(vm_ids[index])
    for aggregate in aggregates:
        level, saturated = _select_frequency(model, float(aggregate.max()))
        allocation.frequencies.append(level)
        allocation.saturated.append(saturated)
    return allocation


def allocate_first_fit(vm_ids, demand, model, n_servers):
    """Sum-of-peaks first fit, also summing each server's traces."""
    demand = np.asarray(demand, dtype=float)
    allocation = ServerAllocation(model=model, n_servers=n_servers)
    if len(vm_ids) == 0:
        return allocation
    capacity = model.max_capacity
    peaks = demand.max(axis=1)
    order = np.argsort(-peaks, kind="stable")
    budget: list[float] = []
    aggregates: list[np.ndarray] = []
    for index in order:
        peak = float(peaks[index])
        placed = False
        for server in range(len(budget)):
            if budget[server] + peak <= capacity:
                budget[server] += peak
                aggregates[server] = aggregates[server] + demand[index]
                allocation.server_vms[server].append(vm_ids[index])
                placed = True
                break
        if placed:
            continue
        if len(budget) < n_servers:
            budget.append(peak)
            aggregates.append(demand[index].copy())
            allocation.server_vms.append([vm_ids[index]])
            continue
        server = int(np.argmin(budget))
        budget[server] += peak
        aggregates[server] = aggregates[server] + demand[index]
        allocation.server_vms[server].append(vm_ids[index])
    for server in range(len(aggregates)):
        level, saturated = _select_frequency(model, float(budget[server]))
        allocation.frequencies.append(level)
        allocation.saturated.append(saturated)
    return allocation


def constrained_kmeans(
    positions,
    loads,
    capacities,
    initial_centroids,
    max_iterations: int = 25,
) -> ClusterResult:
    """The capacity-constrained k-means, ranking each point on its own."""
    positions = np.asarray(positions, dtype=float)
    loads = np.asarray(loads, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    centroids = np.array(initial_centroids, dtype=float, copy=True)
    n = positions.shape[0]
    k = centroids.shape[0]
    if n == 0:
        zero = np.zeros(k)
        return ClusterResult(
            assignment=np.zeros(0, dtype=int),
            centroids=centroids,
            loads=zero,
            overflow=zero.copy(),
            iterations=0,
        )
    assignment = np.full(n, -1, dtype=int)
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        distances = np.sqrt(
            ((positions[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        )
        remaining = capacities.astype(float).copy()
        new_assignment = np.full(n, -1, dtype=int)
        order = np.argsort(-loads, kind="stable")
        for point in order:
            ranked = np.argsort(distances[point], kind="stable")
            target = -1
            for cluster in ranked:
                if loads[point] <= remaining[cluster]:
                    target = int(cluster)
                    break
            if target < 0:
                target = int(ranked[0])
            remaining[target] -= loads[point]
            new_assignment[point] = target
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cluster in range(k):
            members = np.nonzero(assignment == cluster)[0]
            if members.size:
                weights = loads[members]
                if weights.sum() > 0:
                    centroids[cluster] = np.average(
                        positions[members], axis=0, weights=weights
                    )
                else:
                    centroids[cluster] = positions[members].mean(axis=0)
    cluster_loads = np.array(
        [loads[assignment == cluster].sum() for cluster in range(k)]
    )
    overflow = np.maximum(cluster_loads - capacities, 0.0)
    return ClusterResult(
        assignment=assignment,
        centroids=centroids,
        loads=cluster_loads,
        overflow=overflow,
        iterations=iterations,
    )


def peak_coincidence(traces) -> np.ndarray:
    """The peak-coincidence matrix, computing both halves row by row."""
    traces = np.asarray(traces, dtype=float)
    n = traces.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    peaks = traces.max(axis=1)
    result = np.ones((n, n))
    for i in range(n):
        combined_peak = (traces[i][None, :] + traces).max(axis=1)
        denom = peaks[i] + peaks
        with np.errstate(invalid="ignore", divide="ignore"):
            row = np.where(denom > 0.0, combined_peak / denom, 1.0)
        result[i, :] = row
    np.fill_diagonal(result, 1.0)
    return result


# -- ledger serialization ----------------------------------------------------


def dc_record_dict(record: DCSlotRecord) -> dict:
    """``DCSlotRecord.to_dict`` through ``dataclasses.asdict``."""
    payload = dataclasses.asdict(record)
    payload["green"] = dataclasses.asdict(record.green)
    return payload
