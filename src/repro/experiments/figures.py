"""Figure/table reproduction: computation + paper-vs-measured reports.

Every function takes the shared comparison results (see
:func:`repro.experiments.runner.run_comparison`) and returns a
structured dictionary with (a) the measured quantities that regenerate
the figure and (b) the paper's reported numbers for side-by-side
comparison.  ``render(report)`` turns any of them into printable text.

Paper numbers come from Section V-B:

* Fig. 1 -- cost savings of Proposed: 55 % vs Ener-aware, 25 % vs
  Pri-aware, 35 % vs Net-aware;
* Fig. 2 -- weekly energy: 57 / 55 / 65 / 67 GJ for Proposed /
  Ener-aware / Pri-aware / Net-aware;
* Fig. 3 -- Proposed & Net-aware: higher mean, lower variance, lower
  worst case; Ener & Pri: lower mean, heavy tail;
* Fig. 4 -- up to 55 % cost, 15 % energy, 12 % performance;
* Fig. 5 -- vs Pri-aware: 25 % cost and 12 % performance; vs
  Net-aware: 35 % cost at only 2 % performance degradation;
* Fig. 6 -- vs Ener-aware: 6 % performance better, 3 % energy worse;
  vs Net-aware: 15 % energy better, 2 % performance worse.

Every objective (cost, energy, performance) is read through
:data:`~repro.sim.results.OBJECTIVES`.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import ExperimentConfig
from repro.sim.metrics import (
    improvements,
    normalized_costs,
    response_time_pdf,
)
from repro.sim.results import OBJECTIVES, RunResult

#: The paper's headline numbers, keyed by figure.
PAPER_CLAIMS = {
    "fig1_cost_savings_pct": {"Ener-aware": 55.0, "Pri-aware": 25.0, "Net-aware": 35.0},
    "fig2_energy_gj": {
        "Proposed": 57.0,
        "Ener-aware": 55.0,
        "Pri-aware": 65.0,
        "Net-aware": 67.0,
    },
    "fig4_totals_pct": {"cost": 55.0, "energy": 15.0, "performance": 12.0},
    "fig5_vs_pri": {"cost": 25.0, "performance": 12.0},
    "fig5_vs_net": {"cost": 35.0, "performance": -2.0},
    "fig6_vs_ener": {"energy": -3.0, "performance": 6.0},
    "fig6_vs_net": {"energy": 15.0, "performance": -2.0},
}

def _by_name(results: list[RunResult]) -> dict[str, RunResult]:
    return {result.policy_name: result for result in results}


def _require(results: list[RunResult], *names: str) -> dict[str, RunResult]:
    by_name = _by_name(results)
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(f"comparison results missing policies: {missing}")
    return by_name


def table1_rows(config: ExperimentConfig) -> dict:
    """Table I: fleet and energy-source specification."""
    rows = []
    for index, spec in enumerate(config.specs):
        rows.append(
            {
                "dc": f"DC{index + 1}",
                "site": spec.name,
                "servers": spec.n_servers,
                "pv_kwp": spec.pv_kwp,
                "battery_kwh": spec.battery_kwh,
            }
        )
    paper_rows = [
        {"dc": "DC1", "servers": 1500, "pv_kwp": 150.0, "battery_kwh": 960.0},
        {"dc": "DC2", "servers": 1000, "pv_kwp": 100.0, "battery_kwh": 720.0},
        {"dc": "DC3", "servers": 500, "pv_kwp": 50.0, "battery_kwh": 480.0},
    ]
    return {"id": "Table I", "measured": rows, "paper": paper_rows}


def fig1_operational_cost(results: list[RunResult]) -> dict:
    """Fig. 1: normalized operational cost + savings of Proposed."""
    by_name = _require(results, "Proposed", "Ener-aware", "Pri-aware", "Net-aware")
    return {
        "id": "Fig. 1",
        "normalized_cost": normalized_costs(results),
        "weekly_cost_eur": {
            name: OBJECTIVES["cost"](result) for name, result in by_name.items()
        },
        "hourly_cost_eur": {
            name: result.hourly_cost_eur() for name, result in by_name.items()
        },
        "measured_savings_pct": improvements(results, "cost"),
        "paper_savings_pct": PAPER_CLAIMS["fig1_cost_savings_pct"],
    }


def fig2_energy(results: list[RunResult]) -> dict:
    """Fig. 2: hourly DC energy and weekly totals (GJ)."""
    by_name = _require(results, "Proposed", "Ener-aware", "Pri-aware", "Net-aware")
    totals = {name: result.total_energy_gj() for name, result in by_name.items()}
    proposed = totals["Proposed"]
    relative = {
        name: total / proposed if proposed else float("nan")
        for name, total in totals.items()
    }
    paper_totals = PAPER_CLAIMS["fig2_energy_gj"]
    paper_relative = {
        name: value / paper_totals["Proposed"] for name, value in paper_totals.items()
    }
    return {
        "id": "Fig. 2",
        "hourly_energy_gj": {
            name: result.hourly_energy_joules() / 1e9
            for name, result in by_name.items()
        },
        "measured_totals_gj": totals,
        "measured_relative": relative,
        "paper_totals_gj": paper_totals,
        "paper_relative": paper_relative,
    }


def fig3_response_time(results: list[RunResult], bins: int = 40) -> dict:
    """Fig. 3: PDF of normalized response time + distribution stats."""
    by_name = _require(results, "Proposed", "Ener-aware", "Pri-aware", "Net-aware")
    samples = {name: result.response_samples() for name, result in by_name.items()}
    upper = max(
        (float(array.max()) for array in samples.values() if array.size),
        default=1.0,
    )
    pdfs = {
        name: response_time_pdf(array, bins=bins, upper=upper)
        for name, array in samples.items()
    }
    stats = {}
    for name, array in samples.items():
        if array.size:
            stats[name] = {
                "mean": float(array.mean()) / upper,
                "std": float(array.std()) / upper,
                "worst": float(array.max()) / upper,
                "p99": OBJECTIVES["performance"](by_name[name]) / upper,
            }
        else:
            stats[name] = {"mean": 0.0, "std": 0.0, "worst": 0.0, "p99": 0.0}
    return {
        "id": "Fig. 3",
        "normalization_upper_s": upper,
        "pdfs": pdfs,
        "stats": stats,
        "paper_qualitative": (
            "Proposed/Net-aware: higher mean, lower variance, lower worst "
            "case; Ener/Pri-aware: lower mean, bigger fluctuations"
        ),
    }


def _versus(
    results: list[RunResult], baseline: str, *objectives: str
) -> dict[str, float]:
    """Proposed's improvement (%) over ``baseline`` on each objective."""
    return {
        objective: improvements(results, objective)[baseline]
        for objective in objectives
    }


def fig4_totals(results: list[RunResult]) -> dict:
    """Fig. 4: best-case cost/energy/performance improvements."""
    _require(results, "Proposed", "Ener-aware", "Pri-aware", "Net-aware")
    return {
        "id": "Fig. 4",
        "measured_pct": {
            objective: max(improvements(results, objective).values())
            for objective in OBJECTIVES
        },
        "paper_pct": PAPER_CLAIMS["fig4_totals_pct"],
    }


def fig5_cost_performance(results: list[RunResult]) -> dict:
    """Fig. 5: cost-performance trade-off vs Pri-aware and Net-aware."""
    _require(results, "Proposed", "Pri-aware", "Net-aware")
    return {
        "id": "Fig. 5",
        "measured_vs_pri": _versus(results, "Pri-aware", "cost", "performance"),
        "measured_vs_net": _versus(results, "Net-aware", "cost", "performance"),
        "paper_vs_pri": PAPER_CLAIMS["fig5_vs_pri"],
        "paper_vs_net": PAPER_CLAIMS["fig5_vs_net"],
    }


def fig6_energy_performance(results: list[RunResult]) -> dict:
    """Fig. 6: energy-performance trade-off vs Ener-aware and Net-aware."""
    _require(results, "Proposed", "Ener-aware", "Net-aware")
    return {
        "id": "Fig. 6",
        "measured_vs_ener": _versus(
            results, "Ener-aware", "energy", "performance"
        ),
        "measured_vs_net": _versus(
            results, "Net-aware", "energy", "performance"
        ),
        "paper_vs_ener": PAPER_CLAIMS["fig6_vs_ener"],
        "paper_vs_net": PAPER_CLAIMS["fig6_vs_net"],
    }


def all_figure_reports(results: list[RunResult]) -> list[dict]:
    """Every figure report (Figs. 1-6) from one comparison, in order.

    The results may come from any orchestrator path -- a cold serial
    run, a parallel fan-out, a streamed ``submit()``/``as_done()``
    pipeline or a warm result store (any backend) -- they are
    bit-identical, so the reports are too.
    """
    return [
        fig1_operational_cost(results),
        fig2_energy(results),
        fig3_response_time(results),
        fig4_totals(results),
        fig5_cost_performance(results),
        fig6_energy_performance(results),
    ]


def _scalars(value) -> bool:
    """Whether ``value`` is a dict of numbers and strings."""
    return isinstance(value, dict) and all(
        np.isscalar(v) or isinstance(v, (int, float)) for v in value.values()
    )


def _format(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else f"{value}"


def _pairs(values: dict) -> str:
    return ", ".join(f"{key}={_format(value)}" for key, value in values.items())


def render(report: dict) -> str:
    """Human-readable text for any figure report.

    A string, a number or a dict of scalars takes one line; a dict of
    scalar dicts (Fig. 3's per-policy ``stats``) takes one indented
    line per key.  Per-slot series and PDFs are left out.
    """
    lines = [f"== {report['id']} =="]
    for key, value in report.items():
        if key == "id":
            continue
        if isinstance(value, (str, int, float)):
            lines.append(f"  {key}: {_format(value)}")
        elif _scalars(value):
            lines.append(f"  {key}: {_pairs(value)}")
        elif isinstance(value, dict) and all(map(_scalars, value.values())):
            lines.append(f"  {key}:")
            lines.extend(
                f"    {name}: {_pairs(inner)}" for name, inner in value.items()
            )
    return "\n".join(lines)
