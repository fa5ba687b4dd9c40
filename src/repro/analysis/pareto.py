"""Alpha-sweep Pareto analysis of the energy/performance trade-off.

Eq. 5's alpha is the paper's explicit trade-off knob (attraction /
performance vs repulsion / energy).  Figs. 5-6 show two points of the
trade-off space; this module sweeps alpha and extracts the
Pareto-efficient frontier over (cost, energy, worst-case response
time), turning the paper's two scatter plots into full curves.  Each
coordinate is one of the paper's
:data:`~repro.sim.results.OBJECTIVES`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import ProposedPolicy
from repro.core.forces import ForceParameters
from repro.experiments.orchestrator import Orchestrator, RunRequest
from repro.sim.config import ExperimentConfig
from repro.sim.results import OBJECTIVES
from repro.units import joules_to_gj
from repro.workload.packs import TracePack


@dataclass(frozen=True)
class ParetoPoint:
    """One alpha's outcome in the objective space."""

    alpha: float
    cost_eur: float
    energy_gj: float
    response_p99_s: float

    def dominates(self, other: "ParetoPoint") -> bool:
        """Weak Pareto dominance on (cost, energy, response time)."""
        at_least_as_good = (
            self.cost_eur <= other.cost_eur
            and self.energy_gj <= other.energy_gj
            and self.response_p99_s <= other.response_p99_s
        )
        strictly_better = (
            self.cost_eur < other.cost_eur
            or self.energy_gj < other.energy_gj
            or self.response_p99_s < other.response_p99_s
        )
        return at_least_as_good and strictly_better


def alpha_sweep(
    config: ExperimentConfig,
    alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> list[ParetoPoint]:
    """Run the proposed controller once per alpha over one workload.

    The alphas fan out through the orchestrator's futures layer: on an
    orchestrator with ``jobs > 1`` they run in parallel worker
    processes, previously evaluated alphas come back from the result
    store immediately, and progress streams per completion.  The
    returned list pairs each artifact with its alpha by position
    (``alphas`` order).
    """
    from repro.experiments.runner import default_orchestrator

    orchestrator = orchestrator or default_orchestrator()
    # Pareto points read only headline aggregates (cost, energy, p99),
    # so a remote orchestrator may ship the projected artifact form.
    artifacts = orchestrator.run_many(
        [
            RunRequest(
                config=config,
                policy=ProposedPolicy(
                    force_params=ForceParameters(alpha=alpha)
                ),
                pack=pack,
            )
            for alpha in alphas
        ],
        detail="headline",
    )
    return [
        ParetoPoint(
            alpha=alpha,
            cost_eur=OBJECTIVES["cost"](artifact.result),
            energy_gj=joules_to_gj(OBJECTIVES["energy"](artifact.result)),
            response_p99_s=OBJECTIVES["performance"](artifact.result),
        )
        for alpha, artifact in zip(alphas, artifacts)
    ]


def pareto_front(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """The non-dominated subset, sorted by alpha."""
    front = [
        point
        for point in points
        if not any(other.dominates(point) for other in points)
    ]
    return sorted(front, key=lambda point: point.alpha)
