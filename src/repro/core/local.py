"""Local phase: VM-to-server allocation with DVFS.

"At local phase, the VMs of each cluster are allocated to servers of
their corresponding DC, and the optimal frequency for each server is
computed.  We use only CPU-load correlation to allocate VMs to the
minimum number of servers [...] we base our implementation on the best
algorithm [Kim et al., DATE 2013] for VMs allocation."

Two allocators are provided:

* :func:`allocate_correlation_aware` -- the reimplementation of the
  cited heuristic: first-fit decreasing where the fit test uses the
  *combined peak* of the co-located traces (anti-correlated VMs pack
  tighter because their peaks interleave), followed by per-server
  frequency selection (lowest DVFS level whose capacity covers the
  observed combined peak);
* :func:`allocate_first_fit` -- the correlation-blind baseline used by
  Pri-aware and Net-aware: the fit test adds *individual* peaks
  (worst-case stationary sizing).

Demand traces are the *previous slot's*; the simulation engine then
replays the allocation against the realized current-slot traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.datacenter.server import ServerModel

if TYPE_CHECKING:  # imported lazily to avoid a core <-> sim import cycle
    from repro.sim.state import SlotObservation


@dataclass
class ServerAllocation:
    """VM-to-server mapping of one DC for one slot.

    Attributes
    ----------
    model:
        The server type of the DC.
    n_servers:
        Physical servers available.
    server_vms:
        One list of vm_ids per *active* server.
    frequencies:
        DVFS level index per active server (parallel to server_vms).
    saturated:
        True entries mark servers whose planned combined peak exceeds
        even the top frequency's capacity (overload accepted).
    """

    model: ServerModel
    n_servers: int
    server_vms: list[list[int]] = field(default_factory=list)
    frequencies: list[int] = field(default_factory=list)
    saturated: list[bool] = field(default_factory=list)

    @property
    def active_servers(self) -> int:
        """Number of powered-on servers."""
        return len(self.server_vms)

    def vm_count(self) -> int:
        """Total VMs placed on this DC."""
        return sum(len(vms) for vms in self.server_vms)

    def validate(self) -> None:
        """Raise if the allocation is structurally inconsistent."""
        if len(self.frequencies) != len(self.server_vms):
            raise ValueError("frequencies length != server count")
        if len(self.saturated) != len(self.server_vms):
            raise ValueError("saturated length != server count")
        if self.active_servers > self.n_servers:
            raise ValueError("more active servers than physical servers")
        seen: set[int] = set()
        for vms in self.server_vms:
            if not vms:
                raise ValueError("active server with no VMs")
            for vm_id in vms:
                if vm_id in seen:
                    raise ValueError(f"vm {vm_id} placed twice")
                seen.add(vm_id)


def _select_frequency(model: ServerModel, combined_peak: float) -> tuple[int, bool]:
    """Lowest level covering the peak; saturation flag if none does."""
    level = model.min_level_for(combined_peak)
    saturated = model.capacity(level) < combined_peak
    return level, saturated


def allocate_correlation_aware(
    vm_ids: list[int],
    demand: np.ndarray,
    model: ServerModel,
    n_servers: int,
) -> ServerAllocation:
    """Correlation-aware first-fit-decreasing consolidation (Kim '13).

    Parameters
    ----------
    vm_ids:
        VM identifiers, aligned with ``demand`` rows.
    demand:
        Last-slot demand traces in core units, shape ``(n, steps)``.
    model:
        Server type.
    n_servers:
        Physical servers available; when every server is full the VM
        lands on the active server with the smallest resulting combined
        peak (saturation, accepted as performance loss).
    """
    n = len(vm_ids)
    demand = np.asarray(demand, dtype=float)
    if demand.shape[0] != n:
        raise ValueError("demand rows must match vm_ids")
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")

    allocation = ServerAllocation(model=model, n_servers=n_servers)
    if n == 0:
        return allocation

    capacity = model.max_capacity
    trace_peaks = demand.max(axis=1)
    order = np.argsort(-trace_peaks, kind="stable")
    trace_peaks = trace_peaks.tolist()
    trace_floors = demand.min(axis=1).tolist()
    aggregates: list[np.ndarray] = []
    peaks: list[float] = []  # each aggregate's max, as a Python float

    for index in order:
        trace = demand[index]
        floor = trace_floors[index]
        placed = False
        # First fit: scan active servers in opening order; the fit test
        # is the *combined peak* (correlation-aware packing).  Rounding
        # is monotone, so a server whose peak plus the trace's floor
        # already exceeds the capacity cannot fit it: skip it without
        # forming the combined trace.  ``not <=`` keeps NaN peaks unfit.
        for server, aggregate in enumerate(aggregates):
            if peaks[server] + floor > capacity:
                continue
            combined = aggregate + trace
            combined_peak = float(combined.max())
            if not combined_peak <= capacity:
                continue
            aggregates[server] = combined
            peaks[server] = combined_peak
            allocation.server_vms[server].append(vm_ids[index])
            placed = True
            break
        if placed:
            continue
        if len(aggregates) < n_servers:
            aggregates.append(trace.copy())
            peaks.append(trace_peaks[index])
            allocation.server_vms.append([vm_ids[index]])
            continue
        # Fleet exhausted: overload the server that stays lowest.
        overloads = [float((agg + trace).max()) for agg in aggregates]
        server = int(np.argmin(overloads))
        aggregates[server] = aggregates[server] + trace
        peaks[server] = overloads[server]
        allocation.server_vms[server].append(vm_ids[index])

    for peak in peaks:
        level, saturated = _select_frequency(model, peak)
        allocation.frequencies.append(level)
        allocation.saturated.append(saturated)
    return allocation


def allocate_first_fit(
    vm_ids: list[int],
    demand: np.ndarray,
    model: ServerModel,
    n_servers: int,
) -> ServerAllocation:
    """Correlation-blind first-fit-decreasing (sum-of-peaks sizing).

    Same contract as :func:`allocate_correlation_aware`; the fit test
    adds individual peaks, the stationary worst case the paper's
    Section II-A attributes to conventional consolidation.
    """
    n = len(vm_ids)
    demand = np.asarray(demand, dtype=float)
    if demand.shape[0] != n:
        raise ValueError("demand rows must match vm_ids")
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")

    allocation = ServerAllocation(model=model, n_servers=n_servers)
    if n == 0:
        return allocation

    capacity = model.max_capacity
    peaks = demand.max(axis=1)
    order = np.argsort(-peaks, kind="stable")
    budget: list[float] = []  # sum of individual peaks per server

    for index in order:
        peak = float(peaks[index])
        placed = False
        for server in range(len(budget)):
            if budget[server] + peak <= capacity:
                budget[server] += peak
                allocation.server_vms[server].append(vm_ids[index])
                placed = True
                break
        if placed:
            continue
        if len(budget) < n_servers:
            budget.append(peak)
            allocation.server_vms.append([vm_ids[index]])
            continue
        server = int(np.argmin(budget))
        budget[server] += peak
        allocation.server_vms[server].append(vm_ids[index])

    for server_budget in budget:
        # Conservative sizing: frequency chosen from summed peaks, the
        # stationary worst case (this is what costs the baseline energy).
        level, saturated = _select_frequency(model, float(server_budget))
        allocation.frequencies.append(level)
        allocation.saturated.append(saturated)
    return allocation


def build_allocations(
    observation: SlotObservation,
    assignment: dict[int, int],
    allocator,
) -> list[ServerAllocation]:
    """Run the local ``allocator`` per DC over the final assignment.

    ``allocator`` has the signature of :func:`allocate_first_fit`.
    """
    allocations = []
    for dc in observation.dcs:
        member_rows = [
            row
            for row, vm in enumerate(observation.vms)
            if assignment[vm.vm_id] == dc.index
        ]
        allocations.append(
            allocator(
                [observation.vms[row].vm_id for row in member_rows],
                observation.demand_traces[member_rows],
                dc.spec.server_model,
                dc.spec.n_servers,
            )
        )
    return allocations
