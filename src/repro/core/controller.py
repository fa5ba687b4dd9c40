"""The complete two-phase multi-objective placement policy ("Proposed").

Global phase (Section IV-B.1):

1. force-directed 2D embedding from CPU-load and data correlations
   (Eqs. 5-7), warm-started from the previous slot's final positions;
2. per-DC capacity caps from battery, renewable forecast, grid price
   and a last-value demand predictor;
3. capacity-constrained modified k-means over the plane;
4. migration revision under the hard latency window (Algorithm 2).

Local phase (Section IV-B.2): correlation-aware consolidation with DVFS
per DC.

The policy is stateful across slots: embedding positions and the last
cluster membership persist ("the final location of all the VMs becomes
the initial position for the next time slot").  The plane is carried
re-centred to zero mean and scaled to unit RMS radius
(:func:`normalized_plane`), so new VMs' spawn offsets and the
embedding's per-iteration step keep their proportion to it.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import compute_capacity_caps
from repro.core.correlation import attraction_matrix, repulsion_matrix
from repro.core.forces import ForceDirectedEmbedding, ForceParameters
from repro.core.kmeans import constrained_kmeans, warm_start_centroids
from repro.core.local import allocate_correlation_aware, build_allocations
from repro.core.migration import revise_migrations
from repro.seeding import rng_for
from repro.sim.state import FleetPlacement, PlacementPolicy, SlotObservation


def normalized_plane(positions: np.ndarray) -> np.ndarray:
    """``positions`` re-centred to zero mean and scaled to unit RMS radius.

    A similarity transform: the k-means warm start scales with the
    points' spread and migration ranks by distance, so neither reads
    the plane's origin or scale.  Without it the plane grows every
    slot, since the Eqs. 5-6 forces do not depend on distance.  Points
    that all coincide are only re-centred.
    """
    centred = positions - positions.mean(axis=0)
    radius = float(np.sqrt((centred**2).sum(axis=1).mean()))
    return centred / radius if radius > 0.0 else centred


class ProposedPolicy(PlacementPolicy):
    """The paper's two-phase multi-objective VM placement.

    Parameters
    ----------
    force_params:
        Embedding tunables; ``alpha`` is the Eq. 5 energy/performance
        trade-off weight.
    local_allocator:
        The local-phase allocator (default: the paper's
        correlation-aware consolidation).  Swapping in
        :func:`repro.core.local.allocate_first_fit` ablates the local
        correlation awareness.
    """

    name = "Proposed"

    #: Measured at seed 7 beside the three baselines on one shared
    #: workload (each run's own slot steps in one lockstep group, median
    #: of three): 2.8x their mean at 48 slots, 2.9x at 168; 6.0x and
    #: 5.8x when the shared workload is charged to it.
    relative_cost = 3.0

    def __init__(
        self,
        force_params: ForceParameters | None = None,
        local_allocator=allocate_correlation_aware,
    ) -> None:
        self.force_params = force_params or ForceParameters()
        self.local_allocator = local_allocator
        self._embedding = ForceDirectedEmbedding(self.force_params)
        self._positions: dict[int, np.ndarray] = {}

    def reset(self) -> None:
        """Forget the plane between runs."""
        self._positions = {}

    def _initial_positions(self, observation: SlotObservation) -> np.ndarray:
        """Previous final positions; new VMs spawn near service peers.

        A new VM starts at the centroid of its already-embedded service
        peers (plus deterministic jitter) so the attraction force does
        not have to drag it across the whole plane; a VM of a brand-new
        service starts at a deterministic pseudo-random location.  Both
        draw from the VM's own ``spawn`` stream under the fixed root 0.
        """
        service_points: dict[int, list[np.ndarray]] = {}
        for vm in observation.vms:
            if vm.vm_id in self._positions:
                service_points.setdefault(vm.service_id, []).append(
                    self._positions[vm.vm_id]
                )
        positions = np.zeros((len(observation.vms), 2))
        for row, vm in enumerate(observation.vms):
            known = self._positions.get(vm.vm_id)
            if known is not None:
                positions[row] = known
                continue
            rng = rng_for(0, "spawn", vm.vm_id)
            jitter = rng.normal(0.0, 0.25, size=2)
            peers = service_points.get(vm.service_id)
            if peers:
                positions[row] = np.mean(peers, axis=0) + jitter
            else:
                positions[row] = rng.uniform(-2.0, 2.0, size=2) + jitter
        return positions

    def place(self, observation: SlotObservation) -> FleetPlacement:
        """Run both phases for one slot."""
        vms = observation.vms
        n_dcs = observation.n_dcs

        if not vms:
            return FleetPlacement(
                assignment={},
                allocations=build_allocations(
                    observation, {}, self.local_allocator
                ),
            )

        # -- Step 1: repulsion/attraction embedding (Eqs. 5-7).
        attraction = attraction_matrix(observation.volumes.volumes)
        repulsion = repulsion_matrix(observation.demand_traces)
        start = self._initial_positions(observation)
        embedding = self._embedding.run(start, attraction, repulsion)

        # -- Step 2: capacity caps + modified k-means.
        caps = compute_capacity_caps(observation.dcs, observation.slot)
        caps_cores = np.array([cap.cap_cores for cap in caps])
        loads = observation.loads()
        previous = observation.previous_array()
        centroids = warm_start_centroids(embedding.positions, previous, n_dcs)
        clustering = constrained_kmeans(
            embedding.positions, loads, caps_cores, centroids
        )

        # -- Step 3: migration revision (Algorithm 2).
        plan = revise_migrations(
            vms=vms,
            target=clustering.assignment,
            previous=previous,
            positions=embedding.positions,
            centroids=clustering.centroids,
            loads=loads,
            caps_cores=caps_cores,
            latency_model=observation.latency_model,
            slot=observation.slot,
            latency_constraint_s=observation.latency_constraint_s,
        )

        # -- Local phase: correlation-aware allocation per DC.
        allocations = build_allocations(
            observation, plan.assignment, self.local_allocator
        )

        # Persist the plane for the next slot.
        carried = normalized_plane(embedding.positions)
        self._positions = {
            vm.vm_id: carried[row] for row, vm in enumerate(vms)
        }

        return FleetPlacement(
            assignment=plan.assignment,
            allocations=allocations,
            moves=plan.moves,
        )
