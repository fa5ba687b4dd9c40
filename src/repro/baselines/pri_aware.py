"""Cost-aware baseline ("Pri-aware", Gu et al., ICNC 2015).

The cited work minimizes electricity cost by jointly optimizing VM
placement and request distribution with DC resizing.  Its decision rule,
as the paper characterizes it: "the VMs are packed and placed onto DCs
and servers with the lowest current grid price, but it neglects to
maximize free energies usage".

Reimplementation: each slot, DCs are ranked by their *current* grid
price (ascending); VMs -- sorted by decreasing load -- fill the cheapest
DC up to its derated core capacity, then the next, and so on.  The
local phase is a plain (correlation-blind) first-fit-decreasing with
conservative frequency sizing.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import dc_capacities_cores, finish_placement
from repro.core.local import allocate_first_fit
from repro.sim.state import FleetPlacement, PlacementPolicy, SlotObservation


class PriAwarePolicy(PlacementPolicy):
    """Pack VMs into the cheapest-grid-price DCs.

    The packer fills each DC up to
    :data:`~repro.baselines.base.HEADROOM` of its core capacity.
    """

    name = "Pri-aware"

    def place(self, observation: SlotObservation) -> FleetPlacement:
        """Greedy price-ordered packing, then plain FFD per DC."""
        n = len(observation.vms)
        capacities = dc_capacities_cores(observation)
        prices = np.array(
            [dc.grid_price_at(observation.slot) for dc in observation.dcs]
        )
        # Cheapest first; ties broken toward the larger DC.
        dc_order = sorted(
            range(observation.n_dcs),
            key=lambda dc: (prices[dc], -capacities[dc]),
        )

        loads = observation.loads()
        desired = np.zeros(n, dtype=int)
        remaining = capacities.copy()
        for row in np.argsort(-loads, kind="stable"):
            chosen = None
            for dc in dc_order:
                if loads[row] <= remaining[dc]:
                    chosen = dc
                    break
            if chosen is None:
                # Everything full: cheapest DC absorbs the overflow.
                chosen = dc_order[0]
            remaining[chosen] -= loads[row]
            desired[row] = chosen

        return finish_placement(observation, desired, allocate_first_fit)
