"""Cross-run metrics: normalization, improvements, PDFs."""

import numpy as np
import pytest

from tests.sim.test_results import record
from repro.sim.metrics import (
    format_comparison,
    improvement_pct,
    improvements,
    normalized_costs,
    response_time_pdf,
)
from repro.sim.results import OBJECTIVES, RunResult


def run_named(name, n_slots=2):
    return RunResult(
        policy_name=name,
        config_name="unit",
        slots=[record(slot) for slot in range(n_slots)],
    )


@pytest.fixture
def results():
    cheap = run_named("Proposed", n_slots=1)
    pricey = run_named("Ener-aware", n_slots=2)
    return [cheap, pricey]


class TestNormalizedCosts:
    def test_worst_is_one(self, results):
        norms = normalized_costs(results)
        assert norms["Ener-aware"] == pytest.approx(1.0)
        assert norms["Proposed"] == pytest.approx(0.5)

    def test_empty(self):
        assert normalized_costs([]) == {}

    def test_zero_worst_cost_reports_parity(self):
        """All-green scenarios: every policy ties at 1.0, not 0.0."""
        free = [run_named("Proposed"), run_named("Ener-aware")]
        for result in free:
            for slot in result.slots:
                for record_ in slot.dc_records:
                    record_.green.grid_cost_eur = 0.0
        norms = normalized_costs(free)
        assert norms == {"Proposed": 1.0, "Ener-aware": 1.0}


class TestImprovements:
    def test_improvement_pct(self):
        assert improvement_pct(100.0, 75.0) == pytest.approx(25.0)
        assert improvement_pct(100.0, 120.0) == pytest.approx(-20.0)
        assert improvement_pct(0.0, 5.0) == 0.0

    def test_cost_improvements(self, results):
        savings = improvements(results, "cost", reference="Proposed")
        assert savings["Ener-aware"] == pytest.approx(50.0)

    def test_energy_improvements(self, results):
        savings = improvements(results, "energy", reference="Proposed")
        assert savings["Ener-aware"] == pytest.approx(50.0)

    def test_performance_improvements(self, results):
        # Identical distributions -> zero improvement.
        perf = improvements(results, "performance", reference="Proposed")
        assert perf["Ener-aware"] == pytest.approx(0.0, abs=1e-9)

    def test_objectives_are_cost_energy_and_p99(self, results):
        slower = run_named("Pri-aware")
        for slot in slower.slots:
            for record_ in slot.dc_records:
                record_.response_latency_s *= 2.0
        assert list(OBJECTIVES) == ["cost", "energy", "performance"]
        assert OBJECTIVES["cost"](slower) == slower.total_grid_cost_eur()
        assert OBJECTIVES["energy"](slower) == (
            slower.total_facility_energy_joules()
        )
        assert OBJECTIVES["performance"](slower) == (
            slower.percentile_response_s(99.0)
        )
        perf = improvements(results + [slower], "performance")
        assert perf["Pri-aware"] == pytest.approx(50.0)

    def test_improvements_exclude_the_reference(self, results):
        assert list(improvements(results, "cost")) == ["Ener-aware"]
        assert list(
            improvements(results, "cost", reference="Ener-aware")
        ) == ["Proposed"]

    def test_unknown_objective_raises(self, results):
        with pytest.raises(KeyError):
            improvements(results, "p99")

    def test_missing_reference_raises(self, results):
        with pytest.raises(KeyError):
            improvements(results, "cost", reference="Nope")


class TestResponsePdf:
    def test_density_integrates_to_one(self):
        samples = np.random.default_rng(0).uniform(0.0, 2.0, 5000)
        centers, density = response_time_pdf(samples, bins=20)
        width = centers[1] - centers[0]
        assert float((density * width).sum()) == pytest.approx(1.0, rel=1e-6)

    def test_common_upper_normalization(self):
        samples = np.array([0.4, 0.9])
        centers, density = response_time_pdf(samples, bins=4, upper=2.0)
        # Normalized samples are 0.2 and 0.45: lower half of [0, 1] only.
        assert density[centers > 0.5].sum() == 0.0

    def test_empty_samples(self):
        centers, density = response_time_pdf(np.zeros(0))
        assert centers.size == 0
        assert density.size == 0

    def test_zero_upper_is_not_unset(self):
        """``upper=0.0`` must not silently fall back to the sample max."""
        samples = np.array([0.5, 2.0])
        centers, with_zero = response_time_pdf(samples, bins=4, upper=0.0)
        # Degenerate scale falls back to 1.0: 0.5 stays, 2.0 clips.
        _, explicit_one = response_time_pdf(samples, bins=4, upper=1.0)
        assert np.array_equal(with_zero, explicit_one)
        _, unset = response_time_pdf(samples, bins=4)
        assert not np.array_equal(with_zero, unset)

    def test_samples_above_upper_clip_into_top_bin(self):
        """Out-of-range samples keep the density integrating to 1."""
        samples = np.concatenate(
            [np.full(50, 0.2), np.full(50, 3.0)]  # half beyond upper
        )
        centers, density = response_time_pdf(samples, bins=10, upper=1.0)
        width = centers[1] - centers[0]
        assert float((density * width).sum()) == pytest.approx(1.0)
        assert density[-1] > 0.0  # the clipped mass lands in the top bin


class TestFormatting:
    def test_format_contains_all_policies(self, results):
        table = format_comparison(results)
        assert "Proposed" in table
        assert "Ener-aware" in table

    def test_format_has_header(self, results):
        table = format_comparison(results)
        assert "cost EUR" in table.splitlines()[0]


class TestReplication:
    def make_run(self, seed):
        from repro.experiments.runner import default_policies
        from repro.sim.config import scaled_config
        from repro.sim.engine import SimulationEngine

        config = scaled_config("tiny", seed=seed).with_horizon(2)
        return SimulationEngine(config, default_policies()[1]).run()

    def test_mean_ci_single_value(self):
        from repro.sim.metrics import mean_ci

        stats = mean_ci([4.2])
        assert stats.mean == 4.2
        assert stats.ci95 == 0.0
        assert stats.n == 1

    def test_mean_ci_matches_student_t(self):
        """The half-width is t_0.975(n - 1) * s / sqrt(n), n = 2..30."""
        from scipy.stats import t

        from repro.sim.metrics import mean_ci

        for n in range(2, 31):
            values = np.arange(1.0, n + 1.0)
            stats = mean_ci(values)
            expected = (
                t.ppf(0.975, n - 1) * np.std(values, ddof=1) / np.sqrt(n)
            )
            assert stats.mean == pytest.approx((n + 1) / 2.0)
            assert stats.ci95 == pytest.approx(expected, rel=1e-12)
            assert stats.n == n

    def test_mean_ci_empty_raises(self):
        from repro.sim.metrics import mean_ci

        with pytest.raises(ValueError):
            mean_ci([])

    def test_aggregate_replicates_metrics(self):
        from repro.sim.metrics import REPLICATE_METRICS, aggregate_replicates

        runs = [self.make_run(seed) for seed in (0, 1)]
        stats = aggregate_replicates(runs)
        assert set(stats) == set(REPLICATE_METRICS)
        assert stats["cost_eur"].n == 2

    def test_aggregate_replicates_rejects_mixed_policies(self):
        from repro.experiments.runner import default_policies
        from repro.sim.config import scaled_config
        from repro.sim.engine import SimulationEngine
        from repro.sim.metrics import aggregate_replicates

        config = scaled_config("tiny").with_horizon(2)
        runs = [
            SimulationEngine(config, default_policies()[1]).run(),
            SimulationEngine(config, default_policies()[2]).run(),
        ]
        with pytest.raises(ValueError):
            aggregate_replicates(runs)

    def test_format_replicated_comparison(self):
        from repro.sim.metrics import format_replicated_comparison

        replicates = {"Ener-aware": [self.make_run(seed) for seed in (0, 1)]}
        table = format_replicated_comparison(replicates)
        assert "Ener-aware" in table
        assert "+-" in table
