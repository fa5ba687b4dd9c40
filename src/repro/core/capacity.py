"""Per-DC energy capacity caps (step 2 of the global phase).

The paper: "we first define a capacity cap (in Joules) per each DC
(cluster) to minimize the operational cost, computed according to the
available battery energy, renewable energy forecast, grid price and DCs
power consumed during the last previous time slot; i.e., last-value
predictor."

Concrete rule (DESIGN.md "Interpretation decisions"):

1. ``free_i = usable_battery_i + pv_forecast_i`` is energy DC *i* can
   spend without touching the grid next slot.
2. The fleet's demand for the next slot is predicted by the last-value
   predictor ``demand = sum_i last_slot_energy_i`` (warm-started with an
   idle-fleet estimate on the first slot).
3. Demand not covered by free energy is *waterfilled* over DCs in
   ascending grid-price order: the cheapest DC's grid share grows to
   its physical ceiling before the next-cheapest receives anything
   ("to minimize the operational cost").
4. Each cap is clipped to the DC's physical ceiling (all servers at
   peak, worst PUE).

The cap is also expressed in *CPU core units* so the clustering phase
can compare it against VM loads (conversion via the server model's
marginal energy and the site's floor PUE).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datacenter.datacenter import Datacenter
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class CapacityCap:
    """Energy cap of one DC for the upcoming slot.

    Attributes
    ----------
    dc_index:
        The DC this cap belongs to.
    cap_joules:
        Total facility-energy budget for the next slot.
    free_joules:
        The battery + renewable-forecast part of the budget.
    grid_joules:
        The grid part of the budget.
    cap_cores:
        The budget expressed as a sustained CPU load (core units).
    """

    dc_index: int
    cap_joules: float
    free_joules: float
    grid_joules: float
    cap_cores: float


def _idle_fleet_energy(dc: Datacenter) -> float:
    """Idle-fleet facility energy per slot; first-slot demand estimate."""
    spec = dc.spec
    idle_watts = spec.n_servers * spec.server_model.levels[0].idle_watts
    return idle_watts * spec.pue_model.floor * SECONDS_PER_HOUR


def joules_to_core_capacity(dc: Datacenter, joules: float) -> float:
    """Convert a facility-energy budget to a sustained CPU load.

    Uses the site's floor PUE and the low-frequency marginal energy per
    core-hour; clipped to the fleet's physical core capacity.  This is
    a planning conversion, not an energy accounting identity -- the cap
    only shapes how large each k-means cluster may grow.
    """
    if joules <= 0:
        return 0.0
    spec = dc.spec
    it_joules = joules / spec.pue_model.floor
    # Subtract the idle floor of the servers the load would keep on.
    model = spec.server_model
    idle_watts = model.levels[0].idle_watts
    per_core_hour = model.energy_per_core_hour(0)
    idle_per_core_hour = idle_watts / model.capacity(0) * SECONDS_PER_HOUR
    cores = it_joules / (per_core_hour + idle_per_core_hour)
    return min(cores, spec.total_capacity_cores)


def compute_capacity_caps(
    dcs: list[Datacenter], slot: int
) -> list[CapacityCap]:
    """Compute next-slot capacity caps for the whole fleet.

    Parameters
    ----------
    dcs:
        The fleet, in index order; battery state, forecaster history
        and last-slot energies are read from each DC.
    slot:
        The upcoming slot (selects forecast window and tariff level).
    """
    if not dcs:
        raise ValueError("at least one DC required")

    free = []
    prices = []
    ceilings = []
    demand = 0.0
    for dc in dcs:
        battery_energy = dc.battery.max_discharge_joules(SECONDS_PER_HOUR)
        pv_energy = dc.renewable_forecast_joules(slot)
        free.append(battery_energy + pv_energy)
        prices.append(max(dc.grid_price_at(slot), 1e-9))
        ceilings.append(dc.spec.max_slot_energy_joules())
        last = dc.last_slot_energy_joules
        demand += last if last > 0.0 else _idle_fleet_energy(dc)

    # Waterfill the grid-covered demand into the cheapest DCs first.
    grid_needed = max(demand - sum(free), 0.0)
    grid_share = [0.0] * len(dcs)
    for index in sorted(range(len(dcs)), key=lambda i: prices[i]):
        headroom = max(ceilings[index] - free[index], 0.0)
        grid_share[index] = min(grid_needed, headroom)
        grid_needed -= grid_share[index]
        if grid_needed <= 0.0:
            break

    caps = []
    for index, dc in enumerate(dcs):
        cap = min(free[index] + grid_share[index], ceilings[index])
        caps.append(
            CapacityCap(
                dc_index=index,
                cap_joules=cap,
                free_joules=min(free[index], cap),
                grid_joules=max(cap - free[index], 0.0),
                cap_cores=joules_to_core_capacity(dc, cap),
            )
        )
    return caps
