"""Network-aware baseline ("Net-aware", Biran et al., CCGRID 2012).

The cited work's GH (Greedy Heuristic) places communicating VM groups
so that network demand is balanced and intra-group traffic stays local;
the paper characterizes it as "load balancing across DCs which in turn
leads to better exploiting free energies [...] however, this algorithm
does not consider the electricity price diversities".

Reimplementation: VMs are grouped by their communication structure
(connected components of the pairwise-volume graph); groups -- heaviest
internal traffic first -- go to the DC with the largest remaining
*relative* capacity, which keeps chatty VMs co-located while balancing
total load/traffic.  The local phase is plain first-fit-decreasing
(the cited work does not do correlation-aware packing).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import dc_capacities_cores, finish_placement
from repro.core.local import allocate_first_fit
from repro.sim.state import FleetPlacement, PlacementPolicy, SlotObservation

#: Pairs exchanging less than this (MB per slot) do not bind VMs into
#: the same placement group: it filters out light background chatter
#: that would otherwise merge everything into one component.
GROUP_THRESHOLD_MB = 2.0


def communication_groups(volumes: np.ndarray) -> list[list[int]]:
    """Connected components of the symmetrized volume graph.

    Rows/cols are positional VM indices; an edge exists where the
    bidirectional exchange exceeds :data:`GROUP_THRESHOLD_MB`.
    Singleton VMs form their own groups.
    """
    n = volumes.shape[0]
    exchanged = volumes + volumes.T
    visited = [False] * n
    groups: list[list[int]] = []
    for start in range(n):
        if visited[start]:
            continue
        stack = [start]
        visited[start] = True
        component = []
        while stack:
            node = stack.pop()
            component.append(node)
            neighbors = np.nonzero(exchanged[node] > GROUP_THRESHOLD_MB)[0]
            for neighbor in neighbors:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    stack.append(int(neighbor))
        groups.append(sorted(component))
    return groups


class NetAwarePolicy(PlacementPolicy):
    """Traffic-group placement with load balancing across DCs.

    The balancer fills each DC up to
    :data:`~repro.baselines.base.HEADROOM` of its core capacity, and
    groups VMs over pairs exchanging more than
    :data:`GROUP_THRESHOLD_MB`.
    """

    name = "Net-aware"

    def place(self, observation: SlotObservation) -> FleetPlacement:
        """Group-by-traffic, balance groups over DCs, plain FFD locally."""
        n = len(observation.vms)
        capacities = dc_capacities_cores(observation)
        loads = observation.loads()
        volumes = observation.volumes.volumes

        groups = communication_groups(volumes)
        internal_traffic = []
        for group in groups:
            block = volumes[np.ix_(group, group)]
            internal_traffic.append(float(block.sum()))
        order = sorted(
            range(len(groups)), key=lambda g: -internal_traffic[g]
        )

        previous = observation.previous_array()
        desired = np.zeros(n, dtype=int)
        remaining = capacities.copy()
        for group_index in order:
            group = groups[group_index]
            group_load = float(loads[group].sum())
            feasible = np.nonzero(remaining >= group_load)[0]
            # Stability first (the cited heuristic is a *stable* placement):
            # a group stays in the DC hosting most of its members as long
            # as that DC still has room.
            home_votes = previous[group]
            home_votes = home_votes[home_votes >= 0]
            chosen = None
            if home_votes.size:
                home = int(np.bincount(home_votes, minlength=observation.n_dcs).argmax())
                if remaining[home] >= group_load:
                    chosen = home
            if chosen is None:
                # Most relative free capacity: the balancing rule.
                fractions = remaining / capacities
                chosen = int(np.argmax(fractions))
                if feasible.size:
                    chosen = int(feasible[np.argmax(fractions[feasible])])
            remaining[chosen] -= group_load
            for row in group:
                desired[row] = chosen

        return finish_placement(observation, desired, allocate_first_fit)
