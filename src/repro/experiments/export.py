"""CSV export of the figure data.

Downstream users who want to redraw the paper's figures with their own
plotting stack can dump every series to plain CSV:

* ``fig1_cost.csv``       -- hourly grid cost per method
* ``fig2_energy.csv``     -- hourly facility energy per method
* ``fig3_response.csv``   -- normalized response-time PDF per method
* ``summary.csv``         -- one row per method with the headline metrics

No pandas dependency; files are written with :mod:`csv`.
"""

from __future__ import annotations

import csv
import pathlib

from repro.experiments.figures import fig3_response_time
from repro.sim.results import OBJECTIVES, RunResult
from repro.units import joules_to_gj


def _write_rows(path: pathlib.Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_hourly_cost(results: list[RunResult], path: pathlib.Path) -> None:
    """Fig. 1 series: one column per method, one row per slot."""
    names = [result.policy_name for result in results]
    series = [result.hourly_cost_eur() for result in results]
    rows = [
        [slot] + [f"{column[slot]:.6f}" for column in series]
        for slot in range(len(series[0]))
    ]
    _write_rows(path, ["slot"] + names, rows)


def export_hourly_energy(results: list[RunResult], path: pathlib.Path) -> None:
    """Fig. 2 series: hourly facility energy (GJ) per method."""
    names = [result.policy_name for result in results]
    series = [result.hourly_energy_joules() / 1e9 for result in results]
    rows = [
        [slot] + [f"{column[slot]:.9f}" for column in series]
        for slot in range(len(series[0]))
    ]
    _write_rows(path, ["slot"] + names, rows)


def export_response_pdf(
    results: list[RunResult], path: pathlib.Path, bins: int = 40
) -> None:
    """Fig. 3 data: normalized response-time densities per method."""
    report = fig3_response_time(results, bins=bins)
    names = list(report["pdfs"])
    first_centers = report["pdfs"][names[0]][0]
    rows = []
    for index, center in enumerate(first_centers):
        row = [f"{center:.5f}"]
        for name in names:
            density = report["pdfs"][name][1]
            row.append(f"{density[index]:.6f}" if density.size else "")
        rows.append(row)
    _write_rows(path, ["normalized_rt"] + names, rows)


def export_summary(results: list[RunResult], path: pathlib.Path) -> None:
    """One row per method: the headline metrics of the comparison."""
    header = [
        "policy",
        "cost_eur",
        "energy_gj",
        "grid_energy_gj",
        "mean_rt_s",
        "p95_rt_s",
        "p99_rt_s",
        "worst_rt_s",
        "migrations",
        "mean_active_servers",
        "renewable_utilization",
    ]
    rows = [
        [
            result.policy_name,
            f"{OBJECTIVES['cost'](result):.6f}",
            f"{result.total_energy_gj():.6f}",
            f"{joules_to_gj(result.total_grid_energy_joules()):.6f}",
            f"{result.mean_response_s():.6f}",
            f"{result.percentile_response_s(95.0):.6f}",
            f"{OBJECTIVES['performance'](result):.6f}",
            f"{result.worst_response_s():.6f}",
            result.total_migrations(),
            f"{result.mean_active_servers():.3f}",
            f"{result.renewable_utilization():.6f}",
        ]
        for result in results
    ]
    _write_rows(path, header, rows)


def export_all(results: list[RunResult], directory: str | pathlib.Path) -> list[pathlib.Path]:
    """Write every export into ``directory``; returns the file paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "fig1_cost.csv": export_hourly_cost,
        "fig2_energy.csv": export_hourly_energy,
        "fig3_response.csv": export_response_pdf,
        "summary.csv": export_summary,
    }
    written = []
    for name, exporter in paths.items():
        target = directory / name
        exporter(results, target)
        written.append(target)
    return written
