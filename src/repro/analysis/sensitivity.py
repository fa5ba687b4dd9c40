"""Configuration sensitivity sweeps.

Generic helpers that rerun the proposed controller while varying one
infrastructure parameter (battery size, migration QoS window, PV
size), producing tidy rows for tables, examples and the ablation
benchmarks.  Each sweep submits its whole configuration grid as one
orchestrator batch, so sweep points run in parallel on an orchestrator
with ``jobs > 1`` and repeat evaluations resolve from the result store.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.controller import ProposedPolicy
from repro.experiments.orchestrator import Orchestrator, grid_requests
from repro.sim.config import ExperimentConfig
from repro.sim.results import OBJECTIVES, RunResult
from repro.workload.packs import TracePack


@dataclass(frozen=True)
class SweepRow:
    """One sweep point's headline outcomes."""

    parameter: str
    value: float
    cost_eur: float
    energy_gj: float
    renewable_utilization: float
    migrations: int
    response_p99_s: float


def _row_from(result: RunResult, parameter: str, value: float) -> SweepRow:
    return SweepRow(
        parameter=parameter,
        value=value,
        cost_eur=OBJECTIVES["cost"](result),
        energy_gj=result.total_energy_gj(),
        renewable_utilization=result.renewable_utilization(),
        migrations=result.total_migrations(),
        response_p99_s=OBJECTIVES["performance"](result),
    )


def _run_grid(
    configs: list[ExperimentConfig],
    parameter: str,
    values: tuple[float, ...],
    orchestrator: Orchestrator | None,
    pack: TracePack | None = None,
) -> list[SweepRow]:
    from repro.experiments.runner import default_orchestrator

    orchestrator = orchestrator or default_orchestrator()
    # run_many streams misses through the futures layer (progress
    # fires per completion) and returns artifacts in request order,
    # which is what labels each row: sweep values must pair by
    # *position*, not fingerprint -- two sweep points can collapse to
    # one fingerprint (e.g. battery scales over a zero-battery fleet)
    # yet still deserve their own labeled rows.
    # Sweep rows read only headline aggregates, so a remote
    # orchestrator may ship the projected artifact form.
    artifacts = orchestrator.run_many(
        grid_requests(configs, lambda _: [ProposedPolicy()], pack=pack),
        detail="headline",
    )
    return [
        _row_from(artifact.result, parameter, value)
        for artifact, value in zip(artifacts, values)
    ]


def sweep_battery_scale(
    config: ExperimentConfig,
    scales: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0),
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> list[SweepRow]:
    """Rerun with every DC's battery scaled by each factor.

    Measures how much of the proposed method's cost advantage comes
    from battery arbitrage (Table I sizing = scale 1.0).
    """
    configs = []
    for scale in scales:
        specs = tuple(
            dataclasses.replace(spec, battery_kwh=spec.battery_kwh * scale)
            for spec in config.specs
        )
        configs.append(dataclasses.replace(config, specs=specs))
    return _run_grid(configs, "battery_scale", scales, orchestrator, pack)


def sweep_qos(
    config: ExperimentConfig,
    qos_levels: tuple[float, ...] = (0.9995, 0.995, 0.98, 0.95),
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> list[SweepRow]:
    """Rerun with different migration QoS windows (Algorithm 2)."""
    configs = [
        dataclasses.replace(config, qos=qos) for qos in qos_levels
    ]
    return _run_grid(configs, "qos", qos_levels, orchestrator, pack)


def sweep_pv_scale(
    config: ExperimentConfig,
    scales: tuple[float, ...] = (0.0, 1.0, 2.0),
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> list[SweepRow]:
    """Rerun with every DC's PV array scaled by each factor."""
    configs = []
    for scale in scales:
        specs = tuple(
            dataclasses.replace(spec, pv_kwp=spec.pv_kwp * scale)
            for spec in config.specs
        )
        configs.append(dataclasses.replace(config, specs=specs))
    return _run_grid(configs, "pv_scale", scales, orchestrator, pack)


def format_rows(rows: list[SweepRow]) -> str:
    """Plain-text table of sweep rows."""
    header = (
        f"{'parameter':<14} {'value':>8} {'cost EUR':>10} {'energy GJ':>10} "
        f"{'renew':>6} {'migs':>6} {'p99 RT s':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.parameter:<14} {row.value:>8.3f} {row.cost_eur:>10.2f} "
            f"{row.energy_gj:>10.3f} {row.renewable_utilization:>6.3f} "
            f"{row.migrations:>6d} {row.response_p99_s:>9.4f}"
        )
    return "\n".join(lines)
