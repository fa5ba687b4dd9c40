"""Ablation E: value of perfect load knowledge (clairvoyant controller).

Section IV-A has every controller plan on the *previous* interval's
loads and data volumes; the green controller then absorbs the error.
Running the proposed method clairvoyantly (current-slot traces in the
observation) bounds what a better load/traffic forecaster could buy.
"""

import pytest
from conftest import ABLATION_HORIZON, write_report

from repro.core.controller import ProposedPolicy
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.results import OBJECTIVES


@pytest.fixture(scope="module")
def pair():
    config = scaled_config("small").with_horizon(ABLATION_HORIZON)
    lagged = SimulationEngine(config, ProposedPolicy()).run()
    clairvoyant = SimulationEngine(
        config, ProposedPolicy(), clairvoyant=True
    ).run()
    return lagged, clairvoyant


def test_ablation_clairvoyance(benchmark, pair, report_dir):
    lagged, clairvoyant = pair

    def summarize():
        return {
            name: (
                OBJECTIVES["cost"](result),
                result.total_energy_gj(),
                OBJECTIVES["performance"](result),
            )
            for name, result in (
                ("lagged", lagged), ("clairvoyant", clairvoyant)
            )
        }

    table = benchmark(summarize)

    lines = ["== Ablation E: last-interval vs perfect load knowledge =="]
    lines.append(
        f"{'observation':<12} {'cost EUR':>10} {'energy GJ':>10} {'p99 RT s':>9}"
    )
    for name in ("lagged", "clairvoyant"):
        cost, energy, p99 = table[name]
        lines.append(f"{name:<12} {cost:>10.2f} {energy:>10.3f} {p99:>9.4f}")
    gain = 100.0 * (table["lagged"][0] - table["clairvoyant"][0]) / table["lagged"][0]
    lines.append(
        f"perfect knowledge is worth {gain:.1f} % of cost -- the paper's "
        "last-value observation is already close"
    )
    write_report(report_dir, "ablation_forecast.txt", lines)

    for cost, energy, p99 in table.values():
        assert cost > 0.0 and energy > 0.0 and p99 >= 0.0
    # Perfect knowledge should not make things dramatically worse.
    assert table["clairvoyant"][0] < table["lagged"][0] * 1.10