"""Cross-run comparison metrics and table formatting.

The paper's figures report *normalized* quantities: cost normalized by
the worst method (Fig. 1), response time normalized by the worst case
among methods (Fig. 3), pairwise improvement percentages (Figs. 4-6).
These helpers compute them from a set of :class:`RunResult`, reading
each of the paper's objectives through
:data:`~repro.sim.results.OBJECTIVES`.

Multi-seed replication support: :func:`aggregate_replicates` reduces a
set of same-policy runs over different seeds to mean / 95 % CI pairs
per headline metric, and :func:`format_replicated_comparison` renders
the replicated four-method table the orchestrator's ``--seeds N`` path
produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import methodcaller

import numpy as np

from repro.sim.results import OBJECTIVES, RunResult


def normalized_costs(results: list[RunResult]) -> dict[str, float]:
    """Fig. 1 quantity: cost / worst-method cost, per policy.

    When the worst cost is 0 (all-green scenarios: every policy ran
    the week without buying grid energy) all policies are tied at the
    worst case, so each reports 1.0 -- not 0.0, which would read as
    "infinitely better" than a zero-cost baseline.
    """
    if not results:
        return {}
    cost = OBJECTIVES["cost"]
    worst = max(cost(result) for result in results)
    if worst <= 0:
        return {result.policy_name: 1.0 for result in results}
    return {result.policy_name: cost(result) / worst for result in results}


def improvement_pct(baseline: float, candidate: float) -> float:
    """Relative improvement of ``candidate`` over ``baseline`` (%).

    Positive means the candidate is lower/better for cost-like metrics.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - candidate) / baseline


def improvements(
    results: list[RunResult], objective: str, reference: str = "Proposed"
) -> dict[str, float]:
    """Improvement (%) of ``reference`` over every other policy.

    ``objective`` names an :data:`~repro.sim.results.OBJECTIVES` entry
    (``cost``, ``energy`` or ``performance``); a positive value means
    ``reference`` is lower (better) than that policy.
    """
    read = OBJECTIVES[objective]
    by_name = {result.policy_name: result for result in results}
    if reference not in by_name:
        raise KeyError(f"no run named {reference!r}")
    ours = read(by_name[reference])
    return {
        name: improvement_pct(read(result), ours)
        for name, result in by_name.items()
        if name != reference
    }


def response_time_pdf(
    samples: np.ndarray, bins: int = 40, upper: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 3 quantity: (bin centers, probability density).

    ``upper`` normalizes the samples by a common worst case (use the
    max across all methods to match the paper's normalization).
    Samples above ``upper`` clip to 1.0 -- the paper's
    worst-case-normalized axis ends at 1, and dropping them instead
    would leave a "density" that no longer integrates to 1.  An
    ``upper`` of 0.0 is an explicit (degenerate) scale, not "unset";
    non-positive scales fall back to 1.0.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return np.zeros(0), np.zeros(0)
    scale = float(samples.max()) if upper is None else upper
    if scale <= 0:
        scale = 1.0
    normalized = np.minimum(samples / scale, 1.0)
    density, edges = np.histogram(normalized, bins=bins, range=(0.0, 1.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


@dataclass(frozen=True)
class MeanCI:
    """Mean and symmetric 95 % confidence half-width of replicates."""

    mean: float
    ci95: float
    n: int

    def __str__(self) -> str:
        """``mean +- ci`` rendering used by the replicated tables."""
        return f"{self.mean:.4g} +- {self.ci95:.2g}"


def _t_coverage(t: float, df: int) -> float:
    """``P(|T| <= t)`` for Student's t with ``df`` degrees of freedom.

    The closed form for integer ``df`` (Abramowitz & Stegun 26.7.3-4),
    with ``theta = atan(t / sqrt(df))``.
    """
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return math.sin(theta) * total
    term = total = math.cos(theta) if df > 1 else 0.0
    for k in range(1, (df - 1) // 2):
        term *= cos2 * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + math.sin(theta) * total)


def _t_quantile_975(df: int) -> float:
    """Student's t quantile ``t_0.975`` for ``df`` degrees of freedom.

    The half-width factor of a two-sided 95 % interval: 12.71 at one
    degree of freedom (the bisection's bracket is [0, 16]), 4.30 at
    two, 1.96 in the limit.  Solved by bisection on :func:`_t_coverage`
    to the last representable step, so a run path needs no scipy.
    """
    low, high = 0.0, 16.0
    while True:
        middle = 0.5 * (low + high)
        if not low < middle < high:
            return middle
        if _t_coverage(middle, df) < 0.95:
            low = middle
        else:
            high = middle


def mean_ci(values) -> MeanCI:
    """Mean and Student-t 95 % CI of a sample.

    The half-width is ``t_0.975(n - 1) * s / sqrt(n)`` with the sample
    standard deviation ``s`` (``ddof=1``).  With a single replicate it
    is 0 (no spread information).
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("mean_ci needs at least one value")
    if array.size == 1:
        return MeanCI(mean=float(array[0]), ci95=0.0, n=1)
    half = (
        _t_quantile_975(array.size - 1)
        * float(array.std(ddof=1))
        / float(np.sqrt(array.size))
    )
    return MeanCI(mean=float(array.mean()), ci95=half, n=int(array.size))


#: The headline metrics replicated tables aggregate, in table order,
#: each with its reading of a run.
REPLICATE_METRICS = {
    "cost_eur": OBJECTIVES["cost"],
    "energy_gj": methodcaller("total_energy_gj"),
    "mean_rt_s": methodcaller("mean_response_s"),
    "p99_rt_s": OBJECTIVES["performance"],
    "migrations": methodcaller("total_migrations"),
}


def aggregate_replicates(results: list[RunResult]) -> dict[str, MeanCI]:
    """Mean / 95 % CI per headline metric over same-policy replicates.

    Parameters
    ----------
    results:
        Runs of one policy over one configuration shape, differing only
        in seed.  All replicates must agree on the policy name.
    """
    if not results:
        raise ValueError("aggregate_replicates needs at least one run")
    names = {result.policy_name for result in results}
    if len(names) != 1:
        raise ValueError(f"replicates mix policies: {sorted(names)}")
    return {
        metric: mean_ci(read(result) for result in results)
        for metric, read in REPLICATE_METRICS.items()
    }


def format_replicated_comparison(
    replicates: dict[str, list[RunResult]],
) -> str:
    """Multi-seed comparison table: ``mean +- ci`` per policy/metric.

    Parameters
    ----------
    replicates:
        Policy name -> same-policy runs over different seeds (the shape
        returned by the orchestrator's replicated comparison).
    """
    header = (
        f"{'policy':<12} {'n':>3} {'cost EUR':>22} {'energy GJ':>22} "
        f"{'mean RT s':>22} {'p99 RT s':>22} {'migs':>16}"
    )
    lines = [header, "-" * len(header)]
    for name, results in replicates.items():
        stats = aggregate_replicates(results)
        lines.append(
            f"{name:<12} {stats['cost_eur'].n:>3} "
            f"{str(stats['cost_eur']):>22} "
            f"{str(stats['energy_gj']):>22} "
            f"{str(stats['mean_rt_s']):>22} "
            f"{str(stats['p99_rt_s']):>22} "
            f"{str(stats['migrations']):>16}"
        )
    return "\n".join(lines)


def format_comparison(results: list[RunResult]) -> str:
    """Multi-line table of the headline metrics per policy."""
    header = (
        f"{'policy':<12} {'cost EUR':>10} {'norm':>6} {'energy GJ':>10} "
        f"{'mean RT s':>10} {'p99 RT s':>9} {'worst RT s':>11} {'migs':>6}"
    )
    lines = [header, "-" * len(header)]
    norms = normalized_costs(results)
    for result in results:
        lines.append(
            f"{result.policy_name:<12} "
            f"{OBJECTIVES['cost'](result):>10.2f} "
            f"{norms[result.policy_name]:>6.3f} "
            f"{result.total_energy_gj():>10.3f} "
            f"{result.mean_response_s():>10.4f} "
            f"{OBJECTIVES['performance'](result):>9.4f} "
            f"{result.worst_response_s():>11.4f} "
            f"{result.total_migrations():>6d}"
        )
    return "\n".join(lines)
