"""The paper-claim scorecard: 9 facts, their intervals and sign counts."""

import numpy as np
import pytest

from repro.experiments.figures import (
    PAPER_CLAIMS,
    fig1_operational_cost,
    fig5_cost_performance,
    fig6_energy_performance,
)
from repro.experiments.runner import run_comparison
from repro.experiments.scorecard import (
    FACTS,
    FIG3_BASELINES,
    Scorecard,
    render_scorecard,
)
from repro.sim.config import scaled_config
from repro.sim.metrics import mean_ci


class Result:
    """The aggregate surface the scorecard reads, from plain numbers."""

    def __init__(self, name, cost, energy, samples):
        self.policy_name = name
        self._cost = cost
        self._energy = energy
        self._samples = np.asarray(samples, dtype=float)

    def total_grid_cost_eur(self):
        return self._cost

    def total_facility_energy_joules(self):
        return self._energy

    def response_samples(self):
        return self._samples

    def percentile_response_s(self, percentile):
        return float(np.percentile(self._samples, percentile))


def comparison(proposed_cost):
    """Proposed at ``proposed_cost`` against baselines costing 100."""
    return [
        Result("Proposed", proposed_cost, 90.0, [2.0, 2.0, 2.0]),
        Result("Ener-aware", 100.0, 100.0, [1.0, 3.0, 1.0]),
        Result("Pri-aware", 100.0, 80.0, [1.0, 1.0, 5.0]),
        Result("Net-aware", 100.0, 100.0, [2.0, 2.0, 1.0]),
    ]


class TestFacts:
    def test_nine_facts_over_three_metrics_and_baselines(self):
        assert len(FACTS) == 9
        assert len({fact.name for fact in FACTS}) == 9
        assert {fact.metric for fact in FACTS} == {"cost", "energy", "p99"}
        assert {fact.baseline for fact in FACTS} == {
            "Ener-aware", "Pri-aware", "Net-aware",
        }

    def test_paper_values_come_from_the_figures(self):
        paper = {fact.name: fact.paper_pct for fact in FACTS}
        assert paper["cost vs Ener-aware"] == 55.0
        assert paper["cost vs Pri-aware"] == 25.0
        assert paper["cost vs Net-aware"] == 35.0
        assert paper["energy vs Ener-aware"] == -3.0
        # Fig. 2 alone states this one, as weekly totals: 65 vs 57 GJ.
        gj = PAPER_CLAIMS["fig2_energy_gj"]
        assert paper["energy vs Pri-aware"] == pytest.approx(
            100.0 * (gj["Pri-aware"] - gj["Proposed"]) / gj["Pri-aware"]
        )
        assert paper["energy vs Net-aware"] == 15.0
        assert paper["p99 vs Ener-aware"] == 6.0
        assert paper["p99 vs Pri-aware"] == 12.0
        assert paper["p99 vs Net-aware"] == -2.0


class TestScorecard:
    def test_report_counts_signs_and_checks_the_interval(self):
        scorecard = Scorecard()
        for seed, cost in ((4, 60.0), (5, 40.0), (6, 110.0)):
            scorecard.add(seed, comparison(cost))
        report = scorecard.report()
        assert report["seeds"] == [4, 5, 6]
        rows = {row["fact"]: row for row in report["facts"]}
        cost = rows["cost vs Ener-aware"]
        assert cost["values"] == {"4": 40.0, "5": 60.0, "6": -10.0}
        stats = mean_ci([40.0, 60.0, -10.0])
        assert cost["mean"] == stats.mean
        assert cost["ci95"] == stats.ci95
        assert cost["sign_agrees"] == 2
        assert cost["paper_in_ci"] is (abs(55.0 - stats.mean) <= stats.ci95)
        # Energy: Proposed 90 vs 100 (+10 %) or vs Pri-aware's 80 (-12.5 %).
        assert rows["energy vs Ener-aware"]["sign_agrees"] == 0
        assert rows["energy vs Pri-aware"]["values"]["4"] == -12.5
        assert rows["energy vs Pri-aware"]["sign_agrees"] == 0
        assert rows["energy vs Net-aware"]["sign_agrees"] == 3
        assert rows["energy vs Net-aware"]["ci95"] == 0.0
        assert rows["energy vs Net-aware"]["paper_in_ci"] is False
        assert report["sign_total"] == 27
        assert report["sign_agreement"] == sum(
            row["sign_agrees"] for row in report["facts"]
        )
        # Proposed's samples are constant at 2.0: a higher mean than
        # Ener-aware (5/3) and Pri-aware (7/3)? Only the first.
        assert report["fig3"] == {
            "Ener-aware": {"mean_higher": 3, "std_lower": 3},
            "Pri-aware": {"mean_higher": 0, "std_lower": 3},
        }
        assert tuple(report["fig3"]) == FIG3_BASELINES

    def test_empty_scorecard_raises(self):
        with pytest.raises(ValueError):
            Scorecard().report()

    def test_render_lists_every_fact(self):
        scorecard = Scorecard()
        scorecard.add(0, comparison(60.0))
        text = render_scorecard(scorecard.report(), "cell")
        assert text.splitlines()[0] == "== Paper-claim scorecard: cell =="
        for fact in FACTS:
            assert fact.name in text
        assert "sign agreement: " in text
        assert "vs Pri-aware: mean higher in 0/1 seeds" in text

    def test_values_match_the_figure_reports(self):
        """Each fact is the number its figure reports print."""
        results = run_comparison(scaled_config("tiny").with_horizon(8))
        scorecard = Scorecard()
        scorecard.add(0, results)
        values = {
            row["fact"]: row["values"]["0"]
            for row in scorecard.report()["facts"]
        }
        fig1 = fig1_operational_cost(results)["measured_savings_pct"]
        fig5 = fig5_cost_performance(results)
        fig6 = fig6_energy_performance(results)
        for baseline in ("Ener-aware", "Pri-aware", "Net-aware"):
            assert values[f"cost vs {baseline}"] == fig1[baseline]
        assert values["energy vs Ener-aware"] == (
            fig6["measured_vs_ener"]["energy"]
        )
        assert values["energy vs Net-aware"] == (
            fig6["measured_vs_net"]["energy"]
        )
        assert values["p99 vs Ener-aware"] == (
            fig6["measured_vs_ener"]["performance"]
        )
        assert values["p99 vs Pri-aware"] == (
            fig5["measured_vs_pri"]["performance"]
        )
        assert values["p99 vs Net-aware"] == (
            fig5["measured_vs_net"]["performance"]
        )
