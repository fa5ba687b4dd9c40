"""Shared machinery for baseline policies.

Every baseline produces a *desired* DC per VM; the shared helpers here

* enforce the same hard migration-latency window the proposed method
  honors (accumulating migration volumes per link and checking Eq. 1
  per destination, like Algorithm 2 does), and
* build per-DC server allocations with a pluggable local allocator.

This keeps the comparison fair: baselines differ only in their
*placement decision rule*, not in the physics they are subjected to.
"""

from __future__ import annotations

import numpy as np

from repro.core.local import build_allocations
from repro.core.migration import MigrationMove, destination_within_constraint
from repro.sim.state import FleetPlacement, SlotObservation
from repro.units import gb_to_mb

#: Fraction of each DC's core capacity a baseline's global packer may
#: fill: a safety margin like the Proposed method's capacity caps.
HEADROOM = 0.9


def enforce_migration_constraint(
    observation: SlotObservation,
    desired: np.ndarray,
) -> tuple[dict[int, int], list[MigrationMove]]:
    """Turn a desired assignment into a latency-feasible one.

    New VMs take their desired DC directly (no WAN copy).  Existing VMs
    migrate in ascending image-size order (cheap moves first, which
    maximizes the number of executed migrations under the window);
    each candidate is checked against the *accumulated* migration
    volumes converging on its destination (Eq. 1), and a VM whose move
    would break the window keeps its previous DC.

    Returns
    -------
    (assignment, moves)
    """
    vms = observation.vms
    n_dcs = observation.n_dcs
    desired = np.asarray(desired, dtype=int)
    if desired.shape != (len(vms),):
        raise ValueError("desired must have one DC per alive VM")
    if len(vms) and (desired.min() < 0 or desired.max() >= n_dcs):
        raise ValueError("desired DCs out of range")

    previous = observation.previous_array()
    assignment: dict[int, int] = {}
    movers: list[int] = []
    for row, vm in enumerate(vms):
        if previous[row] < 0:
            assignment[vm.vm_id] = int(desired[row])
        else:
            assignment[vm.vm_id] = int(previous[row])
            if desired[row] != previous[row]:
                movers.append(row)

    movers.sort(key=lambda row: (vms[row].image_gb, vms[row].vm_id))
    volumes_mb = np.zeros((n_dcs, n_dcs))
    moves: list[MigrationMove] = []

    for row in movers:
        vm = vms[row]
        src, dst = int(previous[row]), int(desired[row])
        image_mb = gb_to_mb(vm.image_gb)
        volumes_mb[src, dst] += image_mb
        if destination_within_constraint(
            observation.latency_model,
            volumes_mb,
            dst,
            observation.slot,
            observation.latency_constraint_s,
        ):
            assignment[vm.vm_id] = dst
            moves.append(
                MigrationMove(vm_id=vm.vm_id, src_dc=src, dst_dc=dst, image_mb=image_mb)
            )
        else:
            volumes_mb[src, dst] -= image_mb

    return assignment, moves


def finish_placement(
    observation: SlotObservation,
    desired: np.ndarray,
    allocator,
) -> FleetPlacement:
    """Constraint enforcement + local allocation, in one call."""
    assignment, moves = enforce_migration_constraint(observation, desired)
    return FleetPlacement(
        assignment=assignment,
        allocations=build_allocations(observation, assignment, allocator),
        moves=moves,
    )


def dc_capacities_cores(observation: SlotObservation) -> np.ndarray:
    """Physical core capacity per DC, derated by :data:`HEADROOM`."""
    return np.array(
        [dc.spec.total_capacity_cores * HEADROOM for dc in observation.dcs]
    )
