"""Engine <-> policy interface.

At each slot the engine assembles a :class:`SlotObservation` -- exactly
the information the paper's global controller "receives" at time slot T
(Section IV-A): the VMs' loads from the previous interval, their data
communications, the renewable forecast, available battery energy and
grid price of each DC.  A policy maps it to a :class:`FleetPlacement`.

Policies may keep internal state across slots (the proposed method
carries its 2D embedding); :meth:`PlacementPolicy.reset` clears it
between runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.datacenter.datacenter import Datacenter
from repro.network.latency import LatencyModel
from repro.workload.datacorr import VolumeMatrix
from repro.workload.vm import VirtualMachine

if TYPE_CHECKING:  # imported lazily to avoid a core <-> sim import cycle
    from repro.core.local import ServerAllocation
    from repro.core.migration import MigrationMove


@dataclass
class SlotObservation:
    """Everything a placement policy may look at for one slot.

    Attributes
    ----------
    slot:
        Slot index (hours since simulation start).
    vms:
        VMs alive this slot, in stable (vm_id) order.
    demand_traces:
        Previous-slot demand traces in core units, shape
        ``(len(vms), steps)``; rows aligned with ``vms``.  For VMs that
        arrived this slot this is their advertised/profiled demand.
    volumes:
        Previous-slot pairwise data volumes (MB), aligned with ``vms``.
    previous_assignment:
        vm_id -> DC index from the previous slot; newly arrived VMs are
        absent.
    dcs:
        The fleet with live battery/forecast state (read-only for
        policies; the engine owns mutation).
    latency_model:
        Eq. 1-4 evaluator over the fleet's topology.
    latency_constraint_s:
        Hard migration window (e.g. 72 s for 98 % QoS on 1 h slots).
    """

    slot: int
    vms: list[VirtualMachine]
    demand_traces: np.ndarray
    volumes: VolumeMatrix
    previous_assignment: dict[int, int]
    dcs: list[Datacenter]
    latency_model: LatencyModel
    latency_constraint_s: float

    @property
    def n_dcs(self) -> int:
        """Number of data centers."""
        return len(self.dcs)

    def previous_array(self) -> np.ndarray:
        """Previous DC per VM as an array; -1 marks new arrivals."""
        return np.array(
            [self.previous_assignment.get(vm.vm_id, -1) for vm in self.vms],
            dtype=int,
        )

    def loads(self) -> np.ndarray:
        """Mean previous-slot demand per VM (core units)."""
        if len(self.vms) == 0:
            return np.zeros(0)
        return self.demand_traces.mean(axis=1)


@dataclass
class FleetPlacement:
    """A policy's decision for one slot.

    Attributes
    ----------
    assignment:
        vm_id -> DC index for every alive VM.
    allocations:
        Per-DC server allocation (index order matches the fleet).
    moves:
        Executed inter-DC migrations.
    """

    assignment: dict[int, int]
    allocations: list["ServerAllocation"]
    moves: list["MigrationMove"] = field(default_factory=list)

    def validate(self, observation: SlotObservation) -> None:
        """Raise if the placement is inconsistent with the observation."""
        alive_ids = {vm.vm_id for vm in observation.vms}
        if set(self.assignment) != alive_ids:
            missing = alive_ids - set(self.assignment)
            extra = set(self.assignment) - alive_ids
            raise ValueError(
                f"assignment mismatch: missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}"
            )
        if len(self.allocations) != observation.n_dcs:
            raise ValueError("one allocation per DC required")
        for dc_index, allocation in enumerate(self.allocations):
            allocation.validate()
            for vms in allocation.server_vms:
                for vm_id in vms:
                    if self.assignment[vm_id] != dc_index:
                        raise ValueError(
                            f"vm {vm_id} allocated on DC {dc_index} but "
                            f"assigned to DC {self.assignment[vm_id]}"
                        )
        placed = sum(a.vm_count() for a in self.allocations)
        if placed != len(alive_ids):
            raise ValueError(
                f"{placed} VMs on servers but {len(alive_ids)} alive"
            )


class PlacementPolicy(abc.ABC):
    """A global+local placement algorithm under comparison."""

    #: Short name used in result tables ("Proposed", "Ener-aware", ...).
    name: str = "unnamed"

    #: Placement-and-physics time of a run relative to a baseline's, at
    #: the ``small`` scale: the orchestrator's estimate when it splits
    #: a lone run group over idle workers.  A class attribute, so it
    #: never joins a run fingerprint.
    relative_cost: float = 1.0

    @abc.abstractmethod
    def place(self, observation: SlotObservation) -> FleetPlacement:
        """Decide the fleet placement for one slot."""

    def reset(self) -> None:
        """Clear cross-slot internal state (default: stateless)."""

    def descriptor(self) -> dict:
        """Identity of this policy for run fingerprinting.

        Returns the class name plus every public instance attribute
        (the constructor-tunable state); underscore attributes -- caches
        and cross-slot working state, which :meth:`reset` clears -- are
        excluded, so two freshly configured policies that would place
        identically share a descriptor.  The orchestrator canonicalizes
        the values (dataclasses, enums, functions) before hashing.
        """
        state = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_")
        }
        return {
            "class": type(self).__qualname__,
            "name": self.name,
            "state": state,
        }
