"""Migration revision step (paper Algorithm 2).

The modified k-means output is only a *desired* clustering; moving a VM
between DCs costs wide-area bandwidth and must finish within the hard
migration window (QoS of 98 % -> migrations may use at most 2 % of the
slot).  Algorithm 2 revises the k-means output into an executable
migration plan:

* each DC gets an **outgoing queue** (members that k-means sent
  elsewhere, sorted by *descending* distance from the DC's centroid --
  the worst-fitting leave first) and an **incoming queue** (VMs k-means
  pulled in, sorted by *ascending* distance -- the best-fitting arrive
  first);
* a cursor walks the DCs: an under-cap DC pulls from its incoming
  queue, an over-cap DC pushes from its outgoing queue and the cursor
  follows the migrated VM to its destination;
* every candidate migration is latency-checked against the
  *accumulated* migration volumes converging on the destination
  (Eq. 1), which prevents one DC from becoming a network bottleneck;
* VMs whose migration would violate the constraint stay where they
  were; **new** VMs (no previous DC) take their k-means cluster without
  a latency check, since nothing needs to be copied over the WAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.latency import LatencyModel
from repro.units import gb_to_mb
from repro.workload.vm import VirtualMachine


@dataclass(frozen=True)
class MigrationMove:
    """One executed inter-DC migration."""

    vm_id: int
    src_dc: int
    dst_dc: int
    image_mb: float


@dataclass
class MigrationPlan:
    """Executable output of the revision step.

    Attributes
    ----------
    assignment:
        Final vm_id -> DC index map (every alive VM appears).
    moves:
        Executed migrations, in execution order.
    rejected_vm_ids:
        VMs whose desired migration was dropped (latency constraint).
    volumes_mb:
        Accumulated migration volume per (src, dst) DC pair.
    """

    assignment: dict[int, int]
    moves: list[MigrationMove] = field(default_factory=list)
    rejected_vm_ids: list[int] = field(default_factory=list)
    volumes_mb: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def destination_within_constraint(
    latency_model: LatencyModel,
    volumes_mb: np.ndarray,
    dst: int,
    slot: int,
    constraint_s: float,
) -> bool:
    """Whether Eq. 1 for all migration data converging on ``dst`` stays
    under ``constraint_s``."""
    sources = {
        src: float(volumes_mb[src, dst])
        for src in range(volumes_mb.shape[0])
        if volumes_mb[src, dst] > 0.0
    }
    return latency_model.destination_latency(dst, sources, slot) < constraint_s


def revise_migrations(
    vms: list[VirtualMachine],
    target: np.ndarray,
    previous: np.ndarray,
    positions: np.ndarray,
    centroids: np.ndarray,
    loads: np.ndarray,
    caps_cores: np.ndarray,
    latency_model: LatencyModel,
    slot: int,
    latency_constraint_s: float,
) -> MigrationPlan:
    """Run Algorithm 2 over the modified k-means output.

    Parameters
    ----------
    vms:
        Alive VMs; all arrays below are aligned with this list.
    target:
        Desired DC per VM (k-means output).
    previous:
        Current DC per VM, or -1 for newly arrived VMs.
    positions:
        2D embedding coordinates, shape ``(n, 2)``.
    centroids:
        Cluster centroid per DC, shape ``(n_dcs, 2)``.
    loads:
        CPU load per VM (core units, last slot).
    caps_cores:
        Capacity cap per DC in core units.
    latency_model:
        Eq. 1-4 evaluator for the migration transfers.
    slot:
        Current slot (selects the BER realization).
    latency_constraint_s:
        The hard migration window (e.g. 2 % of the slot for 98 % QoS).
    """
    n = len(vms)
    n_dcs = centroids.shape[0]
    target = np.asarray(target, dtype=int)
    previous = np.asarray(previous, dtype=int)
    loads = np.asarray(loads, dtype=float)
    for name, arr, shape in (
        ("target", target, (n,)),
        ("previous", previous, (n,)),
        ("loads", loads, (n,)),
        ("positions", positions, (n, 2)),
    ):
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}")
    if np.any(target < 0) or np.any(target >= n_dcs):
        raise ValueError("target DCs out of range")

    assignment = {}
    dc_load = np.zeros(n_dcs)
    is_new = previous < 0
    for index, vm in enumerate(vms):
        # New VMs take the k-means cluster directly (no WAN copy); old
        # VMs provisionally stay put.
        home = int(target[index]) if is_new[index] else int(previous[index])
        assignment[vm.vm_id] = home
        dc_load[home] += loads[index]

    centroid_dist = np.sqrt(
        ((positions[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    )

    # Queues hold *positional* indices into vms.
    movers = [
        index
        for index in range(n)
        if not is_new[index] and target[index] != previous[index]
    ]
    q_out: list[list[int]] = [[] for _ in range(n_dcs)]
    q_in: list[list[int]] = [[] for _ in range(n_dcs)]
    for index in movers:
        q_out[int(previous[index])].append(index)
        q_in[int(target[index])].append(index)
    for dc in range(n_dcs):
        # Outgoing: farthest from the *current* DC's centroid first.
        q_out[dc].sort(key=lambda i: -centroid_dist[i, dc])
        # Incoming: closest to the *destination* centroid first.
        q_in[dc].sort(key=lambda i: centroid_dist[i, dc])

    in_queue = set(movers)

    def erase(index: int) -> None:
        in_queue.discard(index)

    volumes_mb = np.zeros((n_dcs, n_dcs))
    moves: list[MigrationMove] = []
    rejected: list[int] = []

    def next_candidate(queue: list[int]) -> int | None:
        while queue:
            head = queue[0]
            if head in in_queue:
                return head
            queue.pop(0)
        return None

    def try_migrate(index: int, src: int, dst: int) -> bool:
        """Latency-check and, if feasible, execute one migration."""
        vm = vms[index]
        image_mb = gb_to_mb(vm.image_gb)
        volumes_mb[src, dst] += image_mb
        if not destination_within_constraint(
            latency_model, volumes_mb, dst, slot, latency_constraint_s
        ):
            volumes_mb[src, dst] -= image_mb
            rejected.append(vm.vm_id)
            return False
        assignment[vm.vm_id] = dst
        dc_load[src] -= loads[index]
        dc_load[dst] += loads[index]
        moves.append(
            MigrationMove(vm_id=vm.vm_id, src_dc=src, dst_dc=dst, image_mb=image_mb)
        )
        return True

    cursor = 0
    idle_visits = 0
    # Every loop iteration either erases a queue entry or advances the
    # cursor; idle_visits bounds full fruitless sweeps, so this
    # terminates after at most O(|movers| + n_dcs) iterations.
    while in_queue and idle_visits < n_dcs:
        acted = False
        if dc_load[cursor] < caps_cores[cursor]:
            candidate = next_candidate(q_in[cursor])
            if candidate is not None:
                src = int(previous[candidate])
                try_migrate(candidate, src, cursor)
                erase(candidate)
                acted = True
        else:
            candidate = next_candidate(q_out[cursor])
            if candidate is not None:
                dst = int(target[candidate])
                migrated = try_migrate(candidate, cursor, dst)
                erase(candidate)
                acted = True
                if migrated:
                    cursor = dst
                    idle_visits = 0
                    continue
        if acted:
            idle_visits = 0
        else:
            idle_visits += 1
        cursor = (cursor + 1) % n_dcs

    # Whatever is left in the queues stays in its previous DC; record
    # the VMs whose desired move never executed.
    for index in sorted(in_queue):
        vm_id = vms[index].vm_id
        if vm_id not in rejected:
            rejected.append(vm_id)

    return MigrationPlan(
        assignment=assignment,
        moves=moves,
        rejected_vm_ids=rejected,
        volumes_mb=volumes_mb,
    )
