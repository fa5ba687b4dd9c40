"""Paper-claim scorecard: does the reproduction reproduce, over seeds?

Figs. 1, 2 and 4-6 state 18 numbers, but they are 9 facts: Proposed's
operational cost, facility energy and p99 response time (the paper's
three :data:`~repro.sim.results.OBJECTIVES`), each against the three
baselines (Figs. 4-6 restate Figs. 1-2).  :data:`FACTS` names
the figures that state each one and the figure its paper value is read
from; only Fig. 2 states energy against Pri-aware, as weekly totals
(65 against 57 GJ).  Every value is Proposed's
:func:`~repro.sim.metrics.improvements` over the baseline, computed
exactly as the figure reports compute it, so a positive value means
Proposed is lower (better).

For each fact the scorecard reports the mean over seeds with its
Student-t 95 % interval (:func:`~repro.sim.metrics.mean_ci`), in how
many seeds the measured sign agrees with the paper's, and whether the
paper value lies inside the interval.  Fig. 3's qualitative claim
("Proposed: higher mean, lower variance" than Ener- and Pri-aware)
becomes two counts per baseline: the seeds in which Proposed's mean
response time is higher, and those in which its standard deviation is
lower.

:class:`Scorecard` reduces each seed's four results to these numbers
as it is fed, so a caller that streams the seeds holds one comparison
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.figures import PAPER_CLAIMS
from repro.sim.metrics import improvement_pct, improvements, mean_ci
from repro.sim.results import RunResult

__all__ = ["FACTS", "FIG3_BASELINES", "Fact", "Scorecard", "render_scorecard"]


@dataclass(frozen=True)
class Fact:
    """One paper fact: Proposed's improvement on ``metric`` over ``baseline``."""

    metric: str  # "cost" | "energy" | "p99"
    baseline: str
    figures: tuple[int, ...]
    paper_pct: float
    source: str

    @property
    def name(self) -> str:
        """``"<metric> vs <baseline>"``, the fact's row label."""
        return f"{self.metric} vs {self.baseline}"


_FIG2_GJ = PAPER_CLAIMS["fig2_energy_gj"]

#: The 9 facts, in reporting order.
FACTS = (
    Fact("cost", "Ener-aware", (1, 4),
         PAPER_CLAIMS["fig1_cost_savings_pct"]["Ener-aware"], "Fig. 1"),
    Fact("cost", "Pri-aware", (1, 5),
         PAPER_CLAIMS["fig1_cost_savings_pct"]["Pri-aware"], "Fig. 1"),
    Fact("cost", "Net-aware", (1, 5),
         PAPER_CLAIMS["fig1_cost_savings_pct"]["Net-aware"], "Fig. 1"),
    Fact("energy", "Ener-aware", (2, 6),
         PAPER_CLAIMS["fig6_vs_ener"]["energy"], "Fig. 6"),
    Fact("energy", "Pri-aware", (2,),
         improvement_pct(_FIG2_GJ["Pri-aware"], _FIG2_GJ["Proposed"]),
         "Fig. 2 GJ"),
    Fact("energy", "Net-aware", (2, 4, 6),
         PAPER_CLAIMS["fig6_vs_net"]["energy"], "Fig. 6"),
    Fact("p99", "Ener-aware", (6,),
         PAPER_CLAIMS["fig6_vs_ener"]["performance"], "Fig. 6"),
    Fact("p99", "Pri-aware", (4, 5),
         PAPER_CLAIMS["fig5_vs_pri"]["performance"], "Fig. 5"),
    Fact("p99", "Net-aware", (5, 6),
         PAPER_CLAIMS["fig5_vs_net"]["performance"], "Fig. 5"),
)

#: The baselines Fig. 3 says Proposed beats on spread.
FIG3_BASELINES = ("Ener-aware", "Pri-aware")


class Scorecard:
    """Accumulates per-seed fact values; :meth:`report` summarizes them."""

    def __init__(self) -> None:
        self.seeds: list[int] = []
        self.values: dict[str, list[float]] = {fact.name: [] for fact in FACTS}
        self.fig3: dict[str, dict[str, int]] = {
            name: {"mean_higher": 0, "std_lower": 0} for name in FIG3_BASELINES
        }

    def add(self, seed: int, results: list[RunResult]) -> None:
        """Reduce one seed's four-policy comparison to its fact values."""
        by_metric = {
            "cost": improvements(results, "cost"),
            "energy": improvements(results, "energy"),
            "p99": improvements(results, "performance"),
        }
        for fact in FACTS:
            self.values[fact.name].append(by_metric[fact.metric][fact.baseline])
        samples = {
            result.policy_name: result.response_samples() for result in results
        }
        proposed = samples["Proposed"]
        for name, counts in self.fig3.items():
            counts["mean_higher"] += int(proposed.mean() > samples[name].mean())
            counts["std_lower"] += int(proposed.std() < samples[name].std())
        self.seeds.append(seed)

    def report(self) -> dict:
        """The scorecard as plain data (what ``scorecard.json`` holds)."""
        facts = []
        for fact in FACTS:
            values = self.values[fact.name]
            stats = mean_ci(values)
            facts.append({
                "fact": fact.name,
                "figures": list(fact.figures),
                "paper_pct": fact.paper_pct,
                "paper_source": fact.source,
                "values": dict(zip(map(str, self.seeds), values)),
                "mean": stats.mean,
                "ci95": stats.ci95,
                "sign_agrees": int(
                    sum(np.sign(value) == np.sign(fact.paper_pct)
                        for value in values)
                ),
                "paper_in_ci": abs(fact.paper_pct - stats.mean) <= stats.ci95,
            })
        return {
            "seeds": list(self.seeds),
            "facts": facts,
            "sign_agreement": sum(row["sign_agrees"] for row in facts),
            "sign_total": len(FACTS) * len(self.seeds),
            "fig3": {
                name: dict(counts) for name, counts in self.fig3.items()
            },
        }


def render_scorecard(report: dict, title: str) -> str:
    """Text table of a :meth:`Scorecard.report` (``scorecard.txt``)."""
    n = len(report["seeds"])
    lines = [
        f"== Paper-claim scorecard: {title} ==",
        f"  {n} seed(s): {', '.join(map(str, report['seeds']))}",
        "  Proposed's improvement over each baseline (%; positive = "
        "Proposed lower), mean +- Student-t 95 % CI",
        "",
        f"  {'fact':<22} {'figures':<9} {'paper':>6} "
        f"{'measured':>17} {'signs agree':>12} {'paper in CI':>12}",
    ]
    for row in report["facts"]:
        figures = ", ".join(map(str, row["figures"]))
        measured = f"{row['mean']:.1f} +- {row['ci95']:.1f}"
        lines.append(
            f"  {row['fact']:<22} {figures:<9} {row['paper_pct']:>6.1f} "
            f"{measured:>17} {row['sign_agrees']:>9}/{n:<2} "
            f"{'yes' if row['paper_in_ci'] else 'no':>12}"
        )
    lines += [
        "",
        f"  sign agreement: {report['sign_agreement']}/{report['sign_total']}",
        "  Fig. 3 (Proposed: higher mean, lower spread of response time):",
    ]
    for name, counts in report["fig3"].items():
        lines.append(
            f"    vs {name}: mean higher in {counts['mean_higher']}/{n} "
            f"seeds, std lower in {counts['std_lower']}/{n}"
        )
    return "\n".join(lines)
