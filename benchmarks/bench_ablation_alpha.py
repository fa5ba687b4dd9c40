"""Ablation A: the Eq. 5 energy/performance weight alpha.

Alpha weights attraction (data correlation, performance) against
repulsion (CPU-load correlation, energy).  The paper presents alpha as
*the* trade-off knob of the force model; this ablation sweeps it and
reports how cost, energy and response time move.
"""

import pytest
from conftest import ABLATION_HORIZON, write_report

from repro.core.controller import ProposedPolicy
from repro.core.forces import ForceParameters
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.results import OBJECTIVES

ALPHAS = (0.1, 0.5, 0.9)


@pytest.fixture(scope="module")
def sweep():
    config = scaled_config("small").with_horizon(ABLATION_HORIZON)
    results = {}
    for alpha in ALPHAS:
        policy = ProposedPolicy(force_params=ForceParameters(alpha=alpha))
        results[alpha] = SimulationEngine(config, policy).run()
    return results


def test_ablation_alpha(benchmark, sweep, report_dir):
    def summarize():
        return {
            alpha: (
                OBJECTIVES["cost"](result),
                result.total_energy_gj(),
                result.mean_response_s(),
                OBJECTIVES["performance"](result),
            )
            for alpha, result in sweep.items()
        }

    table = benchmark(summarize)

    lines = ["== Ablation A: Eq. 5 alpha sweep (energy vs performance) =="]
    lines.append(
        f"{'alpha':>6} {'cost EUR':>10} {'energy GJ':>10} "
        f"{'mean RT s':>10} {'p99 RT s':>9}"
    )
    for alpha in ALPHAS:
        cost, energy, mean_rt, p99 = table[alpha]
        lines.append(
            f"{alpha:>6.1f} {cost:>10.2f} {energy:>10.3f} "
            f"{mean_rt:>10.4f} {p99:>9.4f}"
        )
    write_report(report_dir, "ablation_alpha.txt", lines)

    # Every sweep point must produce a live system.
    for cost, energy, mean_rt, _ in table.values():
        assert cost > 0.0
        assert energy > 0.0
        assert mean_rt >= 0.0
