"""Shared comparison runner for the figure experiments.

All six figures of the paper come from the *same* one-week run of the
four methods, so every consumer funnels through :func:`run_comparison`.
Execution and caching live in
:mod:`repro.experiments.orchestrator`: each (config, policy, seed) run
is fingerprinted and resolved against a :class:`ResultStore` -- an
in-memory layer by default, plus one of the pluggable persistent
backends in :mod:`repro.store` when a store root is configured
(``REPRO_RESULT_STORE`` or an explicit orchestrator) -- and cache
misses fan out over worker processes when the orchestrator has
``jobs > 1``.  The comparison itself goes through ``run_many`` (the
submit-all/await-all wrapper over the futures API), so parallel,
streamed and cached runs are bit-identical to serial cold runs.

:func:`run_replicated_comparison` repeats the comparison over several
seeds for mean/CI reporting
(:func:`repro.sim.metrics.aggregate_replicates`).
"""

from __future__ import annotations

from repro.baselines import EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy
from repro.core.controller import ProposedPolicy
from repro.core.forces import ForceParameters
from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    grid_requests,
)
from repro.sim.config import ExperimentConfig
from repro.sim.results import RunResult
from repro.sim.state import PlacementPolicy
from repro.workload.packs import TracePack

#: Process-wide default orchestrator; its store replaces the old
#: ``_CACHE`` dict (memory layer, plus disk when $REPRO_RESULT_STORE
#: is set).
_DEFAULT_ORCHESTRATOR: Orchestrator | None = None


def default_orchestrator() -> Orchestrator:
    """The process-wide orchestrator used when callers pass none."""
    global _DEFAULT_ORCHESTRATOR
    if _DEFAULT_ORCHESTRATOR is None:
        _DEFAULT_ORCHESTRATOR = Orchestrator(store=ResultStore.from_environment())
    return _DEFAULT_ORCHESTRATOR


def default_policies(alpha: float = 0.5) -> list[PlacementPolicy]:
    """The paper's four methods, in its reporting order."""
    return [
        ProposedPolicy(force_params=ForceParameters(alpha=alpha)),
        EnerAwarePolicy(),
        PriAwarePolicy(),
        NetAwarePolicy(),
    ]


def run_comparison(
    config: ExperimentConfig,
    alpha: float = 0.5,
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> list[RunResult]:
    """Run the four methods over one workload realization.

    Parameters
    ----------
    config:
        The experiment configuration (every policy sees the same
        workload, weather and channel realizations derived from
        ``config.seed``).
    alpha:
        Eq. 5 trade-off weight for the proposed method.
    orchestrator:
        Execution backend; defaults to the process-wide one.  Its own
        ``jobs`` and ``use_store`` (the CLI's ``--jobs`` and
        ``--no-cache``) govern parallelism and store reads.
    pack:
        Workload pack for every run (``None`` = synthetic default);
        its content hash keys the result store.
    """
    orchestrator = orchestrator or default_orchestrator()
    requests = grid_requests(
        [config], lambda _: default_policies(alpha), pack=pack
    )
    # Comparison results feed figures and tables that walk the full
    # ledger, so the service path must ship it -- no projection.
    artifacts = orchestrator.run_many(requests, detail="full")
    return [artifact.result for artifact in artifacts]


def run_replicated_comparison(
    config: ExperimentConfig,
    alpha: float = 0.5,
    seeds: tuple[int, ...] = (0, 1, 2),
    orchestrator: Orchestrator | None = None,
    pack: TracePack | None = None,
) -> dict[str, list[RunResult]]:
    """The four-method comparison replicated over several seeds.

    Returns policy name -> one run per seed (in ``seeds`` order), the
    input shape of
    :func:`repro.sim.metrics.aggregate_replicates` and
    :func:`repro.sim.metrics.format_replicated_comparison`.
    """
    orchestrator = orchestrator or default_orchestrator()
    requests = grid_requests(
        [config], lambda _: default_policies(alpha), seeds=list(seeds),
        pack=pack,
    )
    artifacts = orchestrator.run_many(requests, detail="full")
    replicates: dict[str, list[RunResult]] = {}
    for artifact in artifacts:
        replicates.setdefault(artifact.result.policy_name, []).append(
            artifact.result
        )
    return replicates


__all__ = [
    "default_orchestrator",
    "default_policies",
    "run_comparison",
    "run_replicated_comparison",
]
