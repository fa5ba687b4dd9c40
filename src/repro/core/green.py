"""Rule-based green controller (Section IV-B.3).

After the VMs are allocated at slot T, each DC's green controller runs
at fine granularity (the paper: every 5 seconds) during [T, T+1) and
decides, step by step, how to source the facility's power:

* renewable surplus powers the DC and the excess charges the battery;
* under deficit during **high-price** periods: all renewables feed the
  load, the battery discharges (respecting depth of discharge) and the
  grid covers the remainder;
* under deficit during **low-price** periods: the grid covers the load
  *and* charges the battery (cheap-energy arbitrage); the battery is
  not discharged.

The controller sees *real* generation and *real* load -- it is exactly
the low-complexity compensator for forecast error the paper argues for.

:meth:`GreenController.run_slot_fleet` sources a whole fleet's slot at
once: it reads the slot's time-indexed site inputs (PV power, tariff
windows, prices) from the fleet's shared
:class:`~repro.sim.kernel.SlotConditions`, batches the ledger
reductions over DCs, and runs only the battery recurrence step by
step, per DC, on Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datacenter.battery import Battery
from repro.datacenter.datacenter import Datacenter
from repro.units import JOULES_PER_KWH, SECONDS_PER_HOUR


@dataclass
class GreenSlotResult:
    """Energy ledger of one DC for one slot (all Joules).

    ``facility_energy = pv_used + battery_discharged + grid_to_load``
    holds up to float rounding; ``grid_energy`` additionally includes
    the grid energy that went into charging the battery.
    """

    facility_energy: float
    pv_generated: float
    pv_used: float
    pv_stored: float
    pv_curtailed: float
    battery_discharged: float
    grid_to_load: float
    grid_to_battery: float
    grid_energy: float
    grid_cost_eur: float
    soc_start: float
    soc_end: float

    def sanity_check(self, tolerance: float = 1e-6) -> None:
        """Raise if the ledger violates conservation."""
        supplied = self.pv_used + self.battery_discharged + self.grid_to_load
        scale = max(self.facility_energy, 1.0)
        if abs(supplied - self.facility_energy) > tolerance * scale:
            raise AssertionError(
                f"energy not conserved: supplied {supplied} != "
                f"consumed {self.facility_energy}"
            )
        pv_split = self.pv_used + self.pv_stored + self.pv_curtailed
        if abs(pv_split - self.pv_generated) > tolerance * max(self.pv_generated, 1.0):
            raise AssertionError("PV split does not add up")


class GreenController:
    """Per-DC online energy-source manager.

    The control period is the slot's step: one hour divided by the
    number of steps per slot (paper: 720 steps of 5 seconds).

    Parameters
    ----------
    grid_charge_fraction:
        Fraction of the battery's C-rate limit used when charging from
        the grid during low-price periods (1.0 = charge as fast as the
        battery allows).
    """

    def __init__(self, grid_charge_fraction: float = 0.5) -> None:
        if not 0.0 <= grid_charge_fraction <= 1.0:
            raise ValueError("grid_charge_fraction must be in [0, 1]")
        self.grid_charge_fraction = grid_charge_fraction

    def run_slot_fleet(
        self,
        dcs: list[Datacenter],
        conditions,
        facility_power_w: np.ndarray,
    ) -> list[GreenSlotResult]:
        """Source one slot's facility power for every DC of the fleet.

        ``facility_power_w`` has shape ``(len(dcs), steps)``: row ``i``
        is ``dcs[i]``'s facility power (IT * PUE) per control step, and
        a step lasts one hour divided by ``steps``.  ``conditions`` is
        the slot's :class:`~repro.sim.kernel.SlotConditions` for the
        same fleet: its ``pv_power_w`` (the shape of
        ``facility_power_w``), ``peak`` and ``price`` (``(steps,
        n_dcs)``) are read, never written.  Mutates every DC's battery.

        * Everything time-indexed -- PV energy, branch masks, charge
          offers under surplus -- is derived once for the whole slot
          from the conditions, in ``(steps, n_dcs)`` layout.
        * The only sequential dependence is the battery recurrence,
          which never couples the DCs: :meth:`_replay_battery` steps
          each DC's bank on Python floats and records the per-step
          charge and discharge amounts.
        * Per-DC ledger accumulators reduce the per-step contributions
          with ``sum(axis=0)`` over the C-contiguous ``(steps, n_dcs)``
          arrays, which adds rows sequentially -- a per-step
          controller's step order.  Steps a branch does not touch
          contribute exactly ``+0.0``.  A one-DC fleet is the
          exception: its ``(steps, 1)`` arrays are contiguous along
          the step axis, where numpy sums pairwise, so its ledger sums
          may differ from a per-step controller's in the last ulp.
        """
        facility_power_w = np.asarray(facility_power_w, dtype=float)
        if facility_power_w.ndim != 2 or facility_power_w.shape[1] == 0:
            raise ValueError(
                "facility_power_w must be a non-empty (n_dcs, steps) array"
            )
        if facility_power_w.shape[0] != len(dcs):
            raise ValueError("facility_power_w rows must match the fleet")
        if np.any(facility_power_w < 0):
            raise ValueError("facility power must be non-negative")
        if not dcs:
            return []
        pv_power = conditions.pv_power_w
        if facility_power_w.shape != pv_power.shape:
            raise ValueError(
                "facility_power_w must match the conditions' (n_dcs, steps)"
            )

        n_dcs, steps = facility_power_w.shape
        dt = SECONDS_PER_HOUR / steps
        peak = conditions.peak
        price = conditions.price

        # (steps, n_dcs) C-order layout: the ledger's sum(axis=0) then
        # adds the per-step rows in step order.
        load = np.ascontiguousarray(facility_power_w.T) * dt
        pv = np.ascontiguousarray(pv_power.T) * dt
        surplus = pv >= load
        deficit = load - pv
        deficit_peak = ~surplus & peak
        deficit_off = ~surplus & ~peak
        request = np.where(deficit_peak, deficit, 0.0)
        #: Charge offers that need no SoC: the PV surplus (branch A).
        offer_surplus = np.where(surplus, pv - load, 0.0)

        soc_start = [dc.battery.soc_joules for dc in dcs]
        charged = np.zeros((steps, n_dcs))
        delivered = np.zeros((steps, n_dcs))
        for d, dc in enumerate(dcs):
            self._replay_battery(
                dc.battery,
                surplus[:, d].tolist(),
                peak[:, d].tolist(),
                offer_surplus[:, d].tolist(),
                request[:, d].tolist(),
                charged[:, d],
                delivered[:, d],
                dt,
            )

        pv_used = np.where(surplus, load, pv).sum(axis=0)
        pv_stored = np.where(surplus, charged, 0.0).sum(axis=0)
        pv_curtailed = np.where(surplus, offer_surplus - charged, 0.0).sum(axis=0)
        battery_discharged = delivered.sum(axis=0)
        grid_to_load_steps = np.where(
            deficit_peak,
            deficit - delivered,
            np.where(deficit_off, deficit, 0.0),
        )
        grid_to_battery_steps = np.where(deficit_off, charged, 0.0)
        grid_steps = grid_to_load_steps + grid_to_battery_steps
        grid_to_load = grid_to_load_steps.sum(axis=0)
        grid_to_battery = grid_to_battery_steps.sum(axis=0)
        grid_cost = (grid_steps / JOULES_PER_KWH * price).sum(axis=0)

        facility_energy = facility_power_w.sum(axis=1)
        pv_generated = pv_power.sum(axis=1)
        results = []
        for d in range(n_dcs):
            result = GreenSlotResult(
                facility_energy=float(facility_energy[d] * dt),
                pv_generated=float(pv_generated[d] * dt),
                pv_used=float(pv_used[d]),
                pv_stored=float(pv_stored[d]),
                pv_curtailed=float(pv_curtailed[d]),
                battery_discharged=float(battery_discharged[d]),
                grid_to_load=float(grid_to_load[d]),
                grid_to_battery=float(grid_to_battery[d]),
                grid_energy=float(grid_to_load[d] + grid_to_battery[d]),
                grid_cost_eur=float(grid_cost[d]),
                soc_start=float(soc_start[d]),
                soc_end=float(dcs[d].battery.soc_joules),
            )
            result.sanity_check()
            results.append(result)
        return results

    def _replay_battery(
        self,
        battery: Battery,
        surplus: list[bool],
        peak: list[bool],
        offer_surplus: list[float],
        request: list[float],
        charged: np.ndarray,
        delivered: np.ndarray,
        dt: float,
    ) -> None:
        """Step one bank through the slot; fills its ledger columns.

        Per step: under PV surplus the bank takes what it can of the
        surplus offer; under a peak-price deficit it discharges toward
        the ``request``; under an off-peak deficit it charges from the
        grid at ``grid_charge_fraction`` of its C-rate cap.  The
        arithmetic is :class:`~repro.datacenter.battery.Battery`'s own
        ``charge`` / ``discharge`` / ``max_charge_joules`` expressions,
        with the slot-constant limits hoisted out of the loop, so the
        bank ends the slot in exactly the state those calls would
        leave it in.  ``charged`` and ``delivered`` are the bank's
        columns of the fleet ledger.
        """
        fraction = self.grid_charge_fraction
        capacity = float(battery.capacity_joules)
        floor = capacity * (1.0 - float(battery.dod))
        charge_eff = float(battery.charge_efficiency)
        discharge_eff = float(battery.discharge_efficiency)
        rate_limit = float(battery.max_c_rate) * capacity * dt / 3600.0
        rate_discharge = rate_limit * discharge_eff
        soc = float(battery.soc_joules)
        for k in range(len(peak)):
            if surplus[k]:
                max_charge = min((capacity - soc) / charge_eff, rate_limit)
                accepted = min(offer_surplus[k], max_charge)
            elif peak[k]:
                usable = max(soc - floor, 0.0) * discharge_eff
                deliverable = min(request[k], min(usable, rate_discharge))
                if deliverable:
                    soc -= deliverable / discharge_eff
                    delivered[k] = deliverable
                continue
            else:
                max_charge = min((capacity - soc) / charge_eff, rate_limit)
                accepted = min(max_charge * fraction, max_charge)
            if accepted:
                soc += accepted * charge_eff
                charged[k] = accepted
        battery.soc_joules = soc
