"""Per-figure experiment reports on a shared tiny run."""

import numpy as np
import pytest

from repro.experiments.figures import (
    PAPER_CLAIMS,
    fig1_operational_cost,
    fig2_energy,
    fig3_response_time,
    fig4_totals,
    fig5_cost_performance,
    fig6_energy_performance,
    render,
    table1_rows,
)
from repro.experiments import runner
from repro.experiments.runner import default_policies, run_comparison
from repro.sim.config import paper_config, scaled_config


@pytest.fixture(scope="module")
def results():
    return run_comparison(scaled_config("tiny").with_horizon(8))


class TestRunner:
    def test_four_policies_in_order(self, results):
        assert [result.policy_name for result in results] == [
            "Proposed",
            "Ener-aware",
            "Pri-aware",
            "Net-aware",
        ]

    def test_cache_returns_same_objects(self):
        config = scaled_config("tiny").with_horizon(8)
        first = run_comparison(config)
        second = run_comparison(config)
        assert all(a is b for a, b in zip(first, second))

    def test_cache_clear(self, monkeypatch):
        config = scaled_config("tiny").with_horizon(8)
        first = run_comparison(config)
        monkeypatch.setattr(runner, "_DEFAULT_ORCHESTRATOR", None)
        second = run_comparison(config)
        assert all(a is not b for a, b in zip(first, second))

    def test_default_policies_alpha(self):
        policies = default_policies(alpha=0.8)
        assert policies[0].force_params.alpha == 0.8


class TestTable1:
    def test_paper_rows_match_table(self):
        report = table1_rows(paper_config())
        measured = {row["dc"]: row for row in report["measured"]}
        for paper_row in report["paper"]:
            row = measured[paper_row["dc"]]
            assert row["servers"] == paper_row["servers"]
            assert row["pv_kwp"] == paper_row["pv_kwp"]
            assert row["battery_kwh"] == paper_row["battery_kwh"]

    def test_scaled_keeps_site_names(self):
        report = table1_rows(scaled_config("tiny"))
        assert [row["site"] for row in report["measured"]] == [
            "Lisbon",
            "Zurich",
            "Helsinki",
        ]


class TestFigureReports:
    def test_fig1_structure(self, results):
        report = fig1_operational_cost(results)
        assert set(report["normalized_cost"]) == {
            "Proposed",
            "Ener-aware",
            "Pri-aware",
            "Net-aware",
        }
        assert max(report["normalized_cost"].values()) == pytest.approx(1.0)
        assert set(report["measured_savings_pct"]) == set(
            PAPER_CLAIMS["fig1_cost_savings_pct"]
        )

    def test_fig1_hourly_series_lengths(self, results):
        report = fig1_operational_cost(results)
        for series in report["hourly_cost_eur"].values():
            assert len(series) == 8

    def test_fig2_totals_positive(self, results):
        report = fig2_energy(results)
        for total in report["measured_totals_gj"].values():
            assert total > 0.0

    def test_fig2_relative_normalized_to_proposed(self, results):
        report = fig2_energy(results)
        assert report["measured_relative"]["Proposed"] == pytest.approx(1.0)

    def test_fig3_pdfs_normalized(self, results):
        report = fig3_response_time(results, bins=10)
        for centers, density in report["pdfs"].values():
            if centers.size:
                width = centers[1] - centers[0]
                assert float((density * width).sum()) == pytest.approx(
                    1.0, rel=1e-6
                )

    def test_fig3_stats_normalized_by_common_upper(self, results):
        report = fig3_response_time(results)
        worsts = [stats["worst"] for stats in report["stats"].values()]
        assert max(worsts) == pytest.approx(1.0)

    def test_fig4_keys(self, results):
        report = fig4_totals(results)
        assert set(report["measured_pct"]) == {"cost", "energy", "performance"}

    def test_fig5_tradeoffs(self, results):
        report = fig5_cost_performance(results)
        assert set(report["measured_vs_pri"]) == {"cost", "performance"}
        assert set(report["measured_vs_net"]) == {"cost", "performance"}

    def test_fig6_tradeoffs(self, results):
        report = fig6_energy_performance(results)
        assert set(report["measured_vs_ener"]) == {"energy", "performance"}
        assert set(report["measured_vs_net"]) == {"energy", "performance"}

    def test_missing_policy_raises(self, results):
        with pytest.raises(KeyError):
            fig1_operational_cost(results[:2])

    def test_render_all_reports(self, results):
        for report in (
            fig1_operational_cost(results),
            fig2_energy(results),
            fig3_response_time(results),
            fig4_totals(results),
            fig5_cost_performance(results),
            fig6_energy_performance(results),
        ):
            text = render(report)
            assert report["id"] in text

    def test_render_fig3_shows_its_numbers(self, results):
        report = fig3_response_time(results)
        lines = render(report).splitlines()
        upper = report["normalization_upper_s"]
        assert f"  normalization_upper_s: {upper:.3f}" in lines
        for name, stats in report["stats"].items():
            assert f"    {name}: " + ", ".join(
                f"{key}={stats[key]:.3f}" for key in ("mean", "std", "worst", "p99")
            ) in lines
