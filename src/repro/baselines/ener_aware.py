"""Energy-aware baseline ("Ener-aware", Kim et al., DATE 2013).

The cited work is a CPU-load-correlation-aware allocation for a single
DC.  Lifted to the geo-distributed setting exactly as the paper
describes it: "the Ener-aware approach first uses the FFD clustering
heuristic, placing VMs into the first DC in which its load capacity
fits, and then packs the VMs into the minimal number of active servers
based on the CPU-load correlation."

So the global step is first-fit-decreasing over a *fixed* DC order
(no price, renewable or network knowledge), and the local step is the
same correlation-aware consolidation + DVFS the proposed method uses
(:func:`repro.core.local.allocate_correlation_aware`).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import dc_capacities_cores, finish_placement
from repro.core.local import allocate_correlation_aware
from repro.sim.state import FleetPlacement, PlacementPolicy, SlotObservation


class EnerAwarePolicy(PlacementPolicy):
    """FFD DC clustering + correlation-aware local consolidation.

    FFD fills each DC up to :data:`~repro.baselines.base.HEADROOM` of
    its core capacity.
    """

    name = "Ener-aware"

    def place(self, observation: SlotObservation) -> FleetPlacement:
        """FFD over DCs in index order, then correlation-aware packing."""
        n = len(observation.vms)
        capacities = dc_capacities_cores(observation)
        loads = observation.loads()

        desired = np.zeros(n, dtype=int)
        remaining = capacities.copy()
        for row in np.argsort(-loads, kind="stable"):
            chosen = None
            for dc in range(observation.n_dcs):
                if loads[row] <= remaining[dc]:
                    chosen = dc
                    break
            if chosen is None:
                chosen = int(np.argmax(remaining))
            remaining[chosen] -= loads[row]
            desired[row] = chosen

        return finish_placement(observation, desired, allocate_correlation_aware)
