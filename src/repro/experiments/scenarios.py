"""Workload scenario studies.

The paper's introduction motivates the design with the contrast between
scale-out services (fast-changing, strongly data-correlated) and HPC
jobs (sustained, weakly communicating).  These scenario builders vary
the archetype mix so the correlation-aware advantage can be measured as
a function of workload composition -- an extension experiment beyond
the paper's single mixed workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.experiments.orchestrator import Orchestrator, RunRequest
from repro.experiments.runner import default_orchestrator, default_policies
from repro.sim.config import ExperimentConfig
from repro.sim.metrics import improvement_pct
from repro.sim.results import OBJECTIVES
from repro.workload.packs import SCENARIO_MIXES, SCENARIO_PACKS, TracePack

__all__ = [
    "SCENARIO_MIXES",
    "SCENARIO_PACKS",
    "ScenarioOutcome",
    "format_outcomes",
    "run_scenarios",
    "scenario_config",
    "scenario_pack",
]


def scenario_pack(base: TracePack, scenario: str) -> TracePack:
    """``base`` with a scenario's archetype mix layered on top.

    Lets a recorded (or otherwise customized) pack run the scenario
    study: the derived pack keeps the base's trace source and datacorr
    parameters and swaps in the scenario's app mix (new content hash).
    """
    if scenario not in SCENARIO_MIXES:
        raise KeyError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIO_MIXES)}"
        )
    return base.with_app_mix(
        SCENARIO_MIXES[scenario], name=f"{base.name}-{scenario}"
    )


@dataclass(frozen=True)
class ScenarioOutcome:
    """Headline comparison for one workload scenario."""

    scenario: str
    proposed_cost_eur: float
    best_baseline_cost_eur: float
    cost_saving_pct: float
    proposed_energy_gj: float
    best_baseline_energy_gj: float
    energy_saving_pct: float
    proposed_p99_rt_s: float


def scenario_config(
    base: ExperimentConfig, scenario: str
) -> ExperimentConfig:
    """The base configuration with the scenario's archetype mix."""
    if scenario not in SCENARIO_MIXES:
        raise KeyError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIO_MIXES)}"
        )
    arrival_model = dataclasses.replace(
        base.arrival_model, app_mix=SCENARIO_MIXES[scenario]
    )
    return dataclasses.replace(
        base, name=f"{base.name}-{scenario}", arrival_model=arrival_model
    )


def run_scenarios(
    base: ExperimentConfig,
    scenarios: tuple[str, ...] = ("scale-out", "mixed", "hpc"),
    alpha: float = 0.5,
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> list[ScenarioOutcome]:
    """Four-method comparison per scenario, summarized vs best baseline.

    The whole (scenario x policy) grid is submitted as one orchestrator
    batch, so on an orchestrator with ``jobs > 1`` scenarios and
    policies parallelize together.  Without a ``pack`` the mixes apply
    through :func:`scenario_config`; with one, each scenario runs the
    derived :func:`scenario_pack` (same trace source, scenario app mix)
    so recorded workloads join the study and cache by content hash.

    Note that the archetype mix shapes *synthetic* diurnal profiles;
    a recorded source serves the recorded demand regardless of app
    type, so scenario outcomes on a recorded pack coincide by
    construction (the study is meaningful for synthetic sources).
    """
    orchestrator = orchestrator or default_orchestrator()
    requests = []
    for scenario in scenarios:
        if pack is None:
            config, run_pack = scenario_config(base, scenario), None
        else:
            config, run_pack = base, scenario_pack(pack, scenario)
        requests.extend(
            RunRequest(config=config, policy=policy, pack=run_pack)
            for policy in default_policies(alpha)
        )
    # The whole (scenario x policy) grid resolves as one futures batch
    # (progress streams per completion); artifacts come back in
    # request order, so each scenario's slice is positional.
    # Outcomes read only headline aggregates (costs, energy, p99), so
    # a remote orchestrator may ship the projected artifact form.
    artifacts = orchestrator.run_many(requests, detail="headline")
    n_policies = len(default_policies(alpha))
    cost, energy, performance = (
        OBJECTIVES[name] for name in ("cost", "energy", "performance")
    )
    outcomes = []
    for index, scenario in enumerate(scenarios):
        results = [
            artifact.result
            for artifact in artifacts[index * n_policies : (index + 1) * n_policies]
        ]
        proposed = results[0]
        baselines = results[1:]
        best_cost = min(map(cost, baselines))
        best_energy = min(map(energy, baselines))
        outcomes.append(
            ScenarioOutcome(
                scenario=scenario,
                proposed_cost_eur=cost(proposed),
                best_baseline_cost_eur=best_cost,
                cost_saving_pct=improvement_pct(best_cost, cost(proposed)),
                proposed_energy_gj=proposed.total_energy_gj(),
                best_baseline_energy_gj=best_energy / 1e9,
                energy_saving_pct=improvement_pct(
                    best_energy, energy(proposed)
                ),
                proposed_p99_rt_s=performance(proposed),
            )
        )
    return outcomes


def format_outcomes(outcomes: list[ScenarioOutcome]) -> str:
    """Plain-text scenario table."""
    header = (
        f"{'scenario':<10} {'cost EUR':>10} {'best bl.':>10} {'saving %':>9} "
        f"{'energy GJ':>10} {'saving %':>9} {'p99 RT s':>9}"
    )
    lines = [header, "-" * len(header)]
    for outcome in outcomes:
        lines.append(
            f"{outcome.scenario:<10} {outcome.proposed_cost_eur:>10.2f} "
            f"{outcome.best_baseline_cost_eur:>10.2f} "
            f"{outcome.cost_saving_pct:>9.1f} "
            f"{outcome.proposed_energy_gj:>10.3f} "
            f"{outcome.energy_saving_pct:>9.1f} "
            f"{outcome.proposed_p99_rt_s:>9.4f}"
        )
    return "\n".join(lines)
