"""Analysis extensions beyond the paper's figures.

* :mod:`repro.analysis.lower_bound` -- an LP oracle (scipy) for the
  minimum achievable operational cost given perfect knowledge, used to
  measure how much headroom each policy leaves;
* :mod:`repro.analysis.pareto` -- alpha-sweep Pareto fronts for the
  cost/energy/performance trade-off (the Figs. 5-6 axes as curves);
* :mod:`repro.analysis.sensitivity` -- generic configuration sweeps
  (battery size, QoS window, PV size...).
"""

from repro.analysis.lower_bound import (
    CostLowerBound,
    comparison_bounds,
    operational_cost_lower_bound,
)
from repro.analysis.pareto import ParetoPoint, alpha_sweep, pareto_front
from repro.analysis.sensitivity import (
    SweepRow,
    sweep_battery_scale,
    sweep_pv_scale,
    sweep_qos,
)

__all__ = [
    "CostLowerBound",
    "ParetoPoint",
    "SweepRow",
    "alpha_sweep",
    "comparison_bounds",
    "operational_cost_lower_bound",
    "pareto_front",
    "sweep_battery_scale",
    "sweep_pv_scale",
    "sweep_qos",
]
