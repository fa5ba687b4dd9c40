"""LP lower bound on operational cost (perfect-knowledge oracle).

The paper's green controller is deliberately myopic ("low-complexity
rule-based").  To quantify what that simplicity costs, this module
solves, per DC, the *offline* energy-sourcing problem as a linear
program with perfect knowledge of the whole horizon:

* the facility demand and PV generation each slot are those actually
  realized by a simulation run (so the bound isolates the *sourcing*
  decisions from the *placement* decisions);
* decision variables per slot: grid-to-load, grid-to-battery,
  PV-to-load, PV-to-battery, battery-to-load, and the state of charge;
* battery physics match :class:`repro.datacenter.battery.Battery`
  (efficiencies, C-rate limits, depth-of-discharge floor);
* the objective is total grid cost under the DC's tariff.

No online controller can pay less for the same demand/PV trajectories,
so ``policy cost / bound`` measures the green controller's optimality
gap.  Solved with :func:`scipy.optimize.linprog` (HiGHS), one LP per DC
(they decouple).  scipy is imported inside the solver, so only a caller
that computes a bound pays for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import ExperimentConfig
from repro.sim.results import RunResult


@dataclass(frozen=True)
class CostLowerBound:
    """Result of the offline sourcing LP.

    Attributes
    ----------
    total_cost_eur:
        Minimum achievable grid cost over all DCs.
    per_dc_cost_eur:
        The per-DC optimal costs (LPs are independent).
    actual_cost_eur:
        The simulated run's realized cost, for gap computation.
    """

    total_cost_eur: float
    per_dc_cost_eur: tuple[float, ...]
    actual_cost_eur: float

    @property
    def gap_pct(self) -> float:
        """How far the run's cost sits above the bound (percent)."""
        if self.total_cost_eur <= 0:
            return 0.0
        return 100.0 * (self.actual_cost_eur - self.total_cost_eur) / (
            self.total_cost_eur
        )


def _solve_dc_lp(
    demand: np.ndarray,
    pv: np.ndarray,
    prices: np.ndarray,
    capacity: float,
    floor: float,
    soc0: float,
    charge_eff: float,
    discharge_eff: float,
    charge_limit: float,
    discharge_limit: float,
) -> float:
    """Minimum grid cost for one DC; see module docstring for the model.

    Variable layout (T slots): ``[g, gb, pl, pb, b, s]`` blocks of
    length T each -- grid-to-load, grid-to-battery, PV-to-load,
    PV-to-battery, battery-to-load (delivered), end-of-slot SoC.

    The model is solved in kWh with prices in EUR/kWh: with energies
    in Joules the objective coefficients (~3e-8 EUR/J) sit below the
    solver's dual-feasibility tolerance and HiGHS accepts any feasible
    vertex as "optimal".
    """
    from scipy import sparse
    from scipy.optimize import linprog

    horizon = len(demand)
    if horizon == 0:
        return 0.0
    joules_per_kwh = 3.6e6
    demand = np.asarray(demand, dtype=float) / joules_per_kwh
    pv = np.asarray(pv, dtype=float) / joules_per_kwh
    prices = np.asarray(prices, dtype=float) * joules_per_kwh
    capacity /= joules_per_kwh
    floor /= joules_per_kwh
    soc0 /= joules_per_kwh
    charge_limit /= joules_per_kwh
    discharge_limit /= joules_per_kwh
    n = 6 * horizon

    def block(index: int, t: int) -> int:
        return index * horizon + t

    cost = np.zeros(n)
    cost[0:horizon] = prices  # g
    cost[horizon : 2 * horizon] = prices  # gb

    # Equalities: load balance + SoC recurrence.
    a_eq = sparse.lil_matrix((2 * horizon, n))
    b_eq = np.zeros(2 * horizon)
    for t in range(horizon):
        # pl + b + g = demand
        a_eq[t, block(0, t)] = 1.0
        a_eq[t, block(2, t)] = 1.0
        a_eq[t, block(4, t)] = 1.0
        b_eq[t] = demand[t]
        # s_t - s_{t-1} - eff_c*(gb + pb) + b/eff_d = 0
        row = horizon + t
        a_eq[row, block(5, t)] = 1.0
        if t > 0:
            a_eq[row, block(5, t - 1)] = -1.0
        a_eq[row, block(1, t)] = -charge_eff
        a_eq[row, block(3, t)] = -charge_eff
        a_eq[row, block(4, t)] = 1.0 / discharge_eff
        b_eq[row] = soc0 if t == 0 else 0.0

    # Inequalities: PV split and charge-rate coupling.
    a_ub = sparse.lil_matrix((2 * horizon, n))
    b_ub = np.zeros(2 * horizon)
    for t in range(horizon):
        # pl + pb <= pv
        a_ub[t, block(2, t)] = 1.0
        a_ub[t, block(3, t)] = 1.0
        b_ub[t] = pv[t]
        # gb + pb <= charge_limit
        row = horizon + t
        a_ub[row, block(1, t)] = 1.0
        a_ub[row, block(3, t)] = 1.0
        b_ub[row] = charge_limit

    bounds: list[tuple[float, float | None]] = []
    bounds += [(0.0, None)] * horizon  # g
    bounds += [(0.0, charge_limit)] * horizon  # gb
    bounds += [(0.0, None)] * horizon  # pl
    bounds += [(0.0, None)] * horizon  # pb
    bounds += [(0.0, discharge_limit)] * horizon  # b
    bounds += [(floor, capacity)] * horizon  # s

    solution = linprog(
        cost,
        A_ub=a_ub.tocsr(),
        b_ub=b_ub,
        A_eq=a_eq.tocsr(),
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not solution.success:
        raise RuntimeError(f"sourcing LP failed: {solution.message}")
    return float(solution.fun)


def operational_cost_lower_bound(
    result: RunResult, config: ExperimentConfig
) -> CostLowerBound:
    """Offline sourcing bound for a simulated run.

    Parameters
    ----------
    result:
        A finished simulation; its per-slot facility/PV ledgers define
        the demand and generation trajectories.
    config:
        The configuration the run used (tariffs and battery sizing).
    """
    if result.horizon == 0:
        return CostLowerBound(0.0, tuple(), 0.0)
    if len(result.slots[0].dc_records) != config.n_dcs:
        raise ValueError("result and config disagree on the number of DCs")

    from repro.datacenter.battery import Battery  # local to avoid cycles

    per_dc = []
    for dc_index, spec in enumerate(config.specs):
        demand = np.array(
            [slot.dc_records[dc_index].green.facility_energy for slot in result.slots]
        )
        pv = np.array(
            [slot.dc_records[dc_index].green.pv_generated for slot in result.slots]
        )
        prices = np.array(
            [spec.tariff.price_at_slot(slot.slot) for slot in result.slots]
        ) / 3.6e6  # EUR per Joule
        battery = Battery.from_kwh(spec.battery_kwh) if spec.battery_kwh else None
        if battery is None:
            capacity = floor = soc0 = 0.0
            charge_eff = discharge_eff = 1.0
            charge_limit = discharge_limit = 0.0
        else:
            capacity = battery.capacity_joules
            floor = battery.floor_joules
            soc0 = battery.soc_joules
            charge_eff = battery.charge_efficiency
            discharge_eff = battery.discharge_efficiency
            charge_limit = battery.max_c_rate * capacity  # per one-hour slot
            discharge_limit = charge_limit * discharge_eff
        per_dc.append(
            _solve_dc_lp(
                demand,
                pv,
                prices,
                capacity,
                floor,
                soc0,
                charge_eff,
                discharge_eff,
                charge_limit,
                discharge_limit,
            )
        )

    return CostLowerBound(
        total_cost_eur=float(sum(per_dc)),
        per_dc_cost_eur=tuple(per_dc),
        actual_cost_eur=result.total_grid_cost_eur(),
    )


def comparison_bounds(
    config: ExperimentConfig,
    alpha: float = 0.5,
    orchestrator=None,
    pack=None,
) -> list[tuple[RunResult, CostLowerBound]]:
    """Four-method comparison with the sourcing bound per policy.

    Obtains the comparison runs through the orchestrator's futures API
    (parallel on an orchestrator with ``jobs > 1``, cached by the
    result store) and solves each policy's offline LP *as its run
    resolves* -- the dependent analysis is chained on completion
    instead of waiting behind the slowest policy.  The returned list
    keeps the comparison's policy order.
    """
    from repro.experiments.orchestrator import grid_requests
    from repro.experiments.runner import (
        default_orchestrator,
        default_policies,
    )

    orchestrator = orchestrator or default_orchestrator()
    futures = orchestrator.submit_many(
        grid_requests([config], lambda _: default_policies(alpha), pack=pack)
    )
    bounds: dict[object, tuple[RunResult, CostLowerBound]] = {}
    for future in orchestrator.as_done(futures):
        artifact = future.result()
        bounds[future] = (
            artifact.result,
            operational_cost_lower_bound(artifact.result, config),
        )
    return [bounds[future] for future in futures]
