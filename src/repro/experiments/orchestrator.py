"""Parallel experiment orchestration over a pluggable result store.

Every deliverable of the reproduction -- the figure comparisons, the
alpha Pareto sweep, the sensitivity sweeps, the LP bound and the
scenario study -- reduces to evaluating a grid of *(configuration x
policy x seed)* simulation runs.  This module owns that evaluation:

* :class:`RunRequest` names one run: an
  :class:`~repro.sim.config.ExperimentConfig`, a policy, an optional
  seed override and the :class:`EngineOptions` run kind.  Its
  :meth:`~RunRequest.fingerprint` is a SHA-256 over the canonicalized
  request, the unit of caching.
* :class:`~repro.store.ResultStore` (in :mod:`repro.store`) maps
  fingerprints to :class:`~repro.sim.results.RunResult` -- a memory
  layer plus one of two persistent backends (per-file JSON,
  append-only segments); see that package and DESIGN.md for layouts,
  auto-detection and concurrency discipline.
* :class:`Orchestrator` resolves requests against the store and runs
  the misses of a batch as lockstep groups -- the runs that share a
  workload materialization key advance slot by slot on one
  :class:`~repro.workload.materialize.WorkloadMaterialization`, each
  distinct simulation once (:func:`_simulation_key`) -- inline or as
  tasks of a persistent ``ProcessPoolExecutor``.
* :class:`ConsumerSurface` is the surface every analysis calls, shared
  with :class:`~repro.service.client.ServiceClient`.  The primitive is
  :meth:`~ConsumerSurface.submit_many`, which returns
  :class:`RunFuture` handles; :meth:`~ConsumerSurface.as_done`
  streams them back in *completion* order, so callers can render
  progress and chain dependent analyses (LP bounds, report rows) while
  later misses are still simulating.
  :meth:`~ConsumerSurface.run_many` is a thin submit-all/await-all
  wrapper that preserves request order.  Runs are deterministic per
  request, so parallel, streamed and serial execution produce
  identical :class:`~repro.sim.results.RunResult` ledgers.

Cache-invalidation (fingerprint) rules
--------------------------------------

The fingerprint hashes the *complete* canonicalized request:

* every ``ExperimentConfig`` field, recursively -- fleet specs,
  tariffs, PUE models, arrival model (including the app mix), horizon,
  sampling rate, QoS and seed;
* the policy descriptor -- class name plus all public constructor
  state (:meth:`~repro.sim.state.PlacementPolicy.descriptor`);
* the :class:`EngineOptions` run kind (``engine``);
* the workload pack's content descriptor (schema, version, kind and
  the SHA-256 *content* hash of
  :class:`~repro.workload.packs.TracePack` -- for a recorded pack that
  digest covers the raw utilization matrix; the pack *name* is a label
  and deliberately stays out), so recorded-workload runs cache exactly
  like synthetic ones and renames stay cache-compatible;
* :data:`~repro.store.STORE_VERSION`.

Anything that could change a run's numbers therefore changes its key;
entries never need explicit invalidation, only garbage collection
(``repro store gc``).  Store-side labels that must *not* key runs --
the pack's display name, provenance stamps -- travel in the
document's ``meta`` envelope instead (:func:`run_meta`).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import threading
import time
import traceback
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.canonical import canonical
from repro.sim.config import EngineCoreConfig, ExperimentConfig
from repro.sim.engine import SimulationEngine, run_lockstep, with_requests
from repro.sim.kernel import SiteConditions
from repro.sim.results import RunResult
from repro.sim.state import PlacementPolicy
from repro.store import STORE_ENV_VAR, STORE_VERSION, ResultStore
from repro.workload.materialize import (
    build_materialization,
    materialization_key,
)
from repro.workload.packs import TracePack
from repro.workload.shm import SharedPackStub, SharedWorkloadPublisher

__all__ = [
    "ConsumerSurface",
    "EngineOptions",
    "Orchestrator",
    "ResultStore",
    "RunArtifact",
    "RunFuture",
    "RunRequest",
    "STORE_ENV_VAR",
    "STORE_VERSION",
    "canonical",
    "grid_requests",
    "lockstep_groups",
    "materialization_key_of",
    "run_meta",
]


@dataclass(frozen=True)
class EngineOptions:
    """The engine option a :class:`RunRequest` threads through to the engine.

    Attributes
    ----------
    engine:
        The :class:`~repro.sim.config.EngineCoreConfig` selecting the
        run kind (``slot`` or ``event``) and its request-stream
        intensity.  Part of the fingerprint: an event run
        carries a per-request ledger a slot run does not, so they are
        distinct artifacts.  It never changes the simulation: every
        kind projects one slot ledger
        (:func:`~repro.sim.engine.with_requests`), so runs that differ
        only here share one simulation (:func:`_simulation_key`).
    """

    engine: EngineCoreConfig = field(default_factory=EngineCoreConfig)


@dataclass(frozen=True)
class RunRequest:
    """One simulation run: config x policy x seed x engine kind.

    Attributes
    ----------
    config:
        The experiment configuration.
    policy:
        The placement policy instance to run (a fresh engine is built
        around it; its cross-slot state is reset at run start).
    seed:
        Optional seed override; ``None`` keeps ``config.seed``.  The
        replication helpers use this to fan one config out over seeds.
    options:
        The engine kind threaded through to the engine.
    pack:
        Optional :class:`~repro.workload.packs.TracePack` naming the
        workload; ``None`` selects the synthetic default pack.  The
        pack's *content* descriptor (schema, version, kind, sha256 --
        not the name) joins the fingerprint, so a recorded-CSV run
        caches by the recording's actual bytes and renaming a pack
        keeps its cached runs warm.
    """

    config: ExperimentConfig
    policy: PlacementPolicy
    seed: int | None = None
    options: EngineOptions = field(default_factory=EngineOptions)
    pack: TracePack | None = None

    def resolved_config(self) -> ExperimentConfig:
        """The config with the seed override applied."""
        if self.seed is None or self.seed == self.config.seed:
            return self.config
        return dataclasses.replace(self.config, seed=self.seed)

    def descriptor(self) -> dict:
        """Full canonical description of the request (hashed + stored)."""
        return {
            "store_version": STORE_VERSION,
            "config": canonical(self.resolved_config()),
            "policy": canonical(self.policy.descriptor()),
            "options": canonical(self.options),
            "pack": (
                None if self.pack is None else self.pack.content_descriptor()
            ),
        }

    def fingerprint(self) -> str:
        """SHA-256 hex digest keying this run in the result store.

        Memoized: requests are value-stable once built (the orchestrator
        and wire layers hash, dedupe and poll by fingerprint many times
        per request), so the canonical descriptor walk runs once.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            blob = json.dumps(self.descriptor(), sort_keys=True)
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def run_meta(request: RunRequest) -> dict:
    """Store-side labels for a request (never part of the fingerprint).

    A pack run's ``pack`` block records the pack *name* alongside its
    content identity, so ``repro store ls``/``gc`` can filter by pack
    name even though fingerprints deliberately ignore it.  A synthetic
    run has no labels.
    """
    pack = request.pack
    if pack is None:
        return {}
    return {
        "pack": {
            "name": pack.name,
            "version": pack.version,
            "kind": pack.kind,
            "sha256": pack.sha256,
        }
    }


@dataclass(frozen=True)
class RunArtifact:
    """A resolved request: the result plus its provenance.

    Attributes
    ----------
    fingerprint:
        The request's store key.
    result:
        The run ledger.
    source:
        Where the result came from: ``"computed"``, ``"memory"`` or
        ``"disk"``.
    elapsed_s:
        Wall time spent obtaining the result (0 for memory hits).
    """

    fingerprint: str
    result: RunResult
    source: str
    elapsed_s: float


class RunFuture:
    """Handle to one submitted request, resolving to a :class:`RunArtifact`.

    Store hits resolve immediately; misses resolve when their lockstep
    group finishes (by which point the result has already streamed
    into the store -- persistence runs before the future completes, so
    an artifact you hold is an artifact that survives a crash).
    """

    __slots__ = ("request", "fingerprint", "_future")

    def __init__(
        self, request: RunRequest, fingerprint: str, future: Future
    ) -> None:
        self.request = request
        self.fingerprint = fingerprint
        self._future = future

    def done(self) -> bool:
        """True when the artifact (or an error) is available."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> RunArtifact:
        """Block for the artifact; re-raises the run's error if it failed."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The run's error, or None (blocks like :meth:`result`)."""
        return self._future.exception(timeout)

    @classmethod
    def resolved(
        cls, request: RunRequest, fingerprint: str, artifact: RunArtifact
    ) -> "RunFuture":
        future: Future = Future()
        future.set_result(artifact)
        return cls(request, fingerprint, future)


def materialization_key_of(request: RunRequest) -> str:
    """The request's workload materialization key, memoized like
    :meth:`RunRequest.fingerprint` (requests are value-stable)."""
    cached = request.__dict__.get("_materialization_key")
    if cached is None:
        cached = materialization_key(
            request.resolved_config(), request.pack
        )
        object.__setattr__(request, "_materialization_key", cached)
    return cached


def _simulation_key(future: RunFuture) -> str:
    """The fingerprint of the simulation ``future``'s run projects.

    A run with default :class:`EngineOptions` is its own simulation;
    any other projects its slot twin's
    (:func:`~repro.sim.engine.with_requests`), the request with
    ``EngineOptions()``, whose fingerprint is memoized on the request.
    """
    request = future.request
    if request.options == EngineOptions():
        return future.fingerprint
    cached = request.__dict__.get("_simulation_key")
    if cached is None:
        twin = dataclasses.replace(request, options=EngineOptions())
        cached = twin.fingerprint()
        object.__setattr__(request, "_simulation_key", cached)
    return cached


def _grouped(futures: Iterable[RunFuture], key) -> list[list[RunFuture]]:
    """Futures grouped by ``key``, groups in order of first appearance,
    each keeping its futures in the order given."""
    groups: dict[str, list[RunFuture]] = {}
    for future in futures:
        groups.setdefault(key(future), []).append(future)
    return list(groups.values())


def lockstep_groups(futures: Iterable[RunFuture]) -> list[list[RunFuture]]:
    """Futures grouped by their request's materialization key."""
    return _grouped(futures, lambda run: materialization_key_of(run.request))


def _cost(group: Sequence[RunFuture]) -> float:
    """A group's estimated run time, in baseline runs, counting each
    simulation (:func:`_simulation_key`) once."""
    costs = {
        _simulation_key(future): future.request.policy.relative_cost
        for future in group
    }
    return sum(costs.values())


def _spread(
    groups: list[list[RunFuture]], workers: int
) -> list[list[RunFuture]]:
    """Split groups until ``workers`` of them can start at once.

    While there are fewer groups than workers, the costliest group
    with more than one simulation (:func:`_cost`, from each policy's
    :attr:`~repro.sim.state.PlacementPolicy.relative_cost`) splits in
    two: its simulations -- each a run with its twins of other kinds,
    which move as one unit -- costliest first (ties in request order),
    each join the cheaper half.  At ``jobs=2`` a comparison thus runs
    Proposed on one worker and its three baselines, still sharing one
    materialization, on the other, and a four-point sweep of one
    policy runs two points per worker (DESIGN.md, "Workload
    materialization & lockstep groups").
    """
    while len(groups) < workers:
        splittable = [
            group for group in groups
            if len(_grouped(group, _simulation_key)) > 1
        ]
        if not splittable:
            break
        costliest = max(splittable, key=_cost)
        halves: tuple[list, list] = ([], [])
        units = _grouped(costliest, _simulation_key)
        for unit in sorted(units, key=lambda unit: -_cost(unit)):
            min(halves, key=_cost).extend(unit)
        groups = [group for group in groups if group is not costliest]
        groups.extend(halves)
    return groups


@dataclass(frozen=True)
class _GroupTask:
    """The requests of one lockstep group and their simulation keys.

    When ``stub`` is set the requests travel with ``pack=None`` and
    the worker re-attaches the pack zero-copy from shared memory;
    fingerprints and ``keys`` (:func:`_simulation_key`) are always
    computed parent-side from the original requests, so the stripped
    copies never need one.
    """

    requests: tuple[RunRequest, ...]
    keys: tuple[str, ...]
    stub: SharedPackStub | None = None


class _RemoteTraceback(Exception):
    """A pooled run's worker-side traceback, chained as the cause of
    its error (a pickled exception loses its ``__traceback__``)."""


def _execute_group(task: _GroupTask) -> tuple[list[tuple], dict]:
    """Run one lockstep group: the serial path and the pool's work function.

    Builds the group's one materialization (restoring a shared-memory
    pack when one was published), one
    :class:`~repro.sim.kernel.SiteConditions` per distinct fleet
    (``config.specs``: a PV or battery sweep mixes fleets in a group,
    whose seed and steps per slot the materialization fixes) and one
    engine per simulation key, and advances them on it through
    :func:`~repro.sim.engine.run_lockstep`.  Each request gets its
    engine's ledger as its own kind
    (:func:`~repro.sim.engine.with_requests`); a failed simulation
    fails every request that shares it.  Returns one ``(RunResult or
    exception, elapsed_s, traceback)`` triple per request --
    ``traceback`` is the formatted traceback of a failed run, ``None``
    otherwise -- and the group's workload counters: one
    materialization miss, a hit for every other run, and the window's
    slot lookups.  What fails before the engines run (the build, an
    engine's set-up) raises, failing the whole group.

    A run's ``elapsed_s`` is an equal share of its engine's own slot
    steps plus an equal share of what the group spent outside them
    (the materialization build, engine set-up, request draws), so a
    group's runs add up to its wall time.
    """
    start = time.perf_counter()
    requests = task.requests
    if task.stub is not None:
        pack = task.stub.restore()
        requests = [
            dataclasses.replace(request, pack=pack) for request in requests
        ]
    first = requests[0]
    materialization = build_materialization(
        first.resolved_config(), first.pack
    )
    sites: dict[tuple, SiteConditions] = {}
    engines: dict[str, SimulationEngine] = {}
    for request, key in zip(requests, task.keys):
        if key not in engines:
            config = request.resolved_config()
            site = sites.get(config.specs)
            if site is None:
                site = sites[config.specs] = SiteConditions(config)
            engines[key] = SimulationEngine(
                config,
                request.policy,
                materialization=materialization,
                site=site,
            )
    ledgers = dict(zip(engines, run_lockstep(list(engines.values()))))
    sharers = collections.Counter(task.keys)
    runs = []
    for request, key in zip(requests, task.keys):
        engine, outcome = engines[key], ledgers[key]
        text = None
        if isinstance(outcome, BaseException):
            text = "".join(
                traceback.format_exception(
                    type(outcome), outcome, outcome.__traceback__
                )
            )
        else:
            outcome = with_requests(
                outcome, engine.config.seed, request.options.engine
            )
        runs.append((outcome, engine.elapsed_s / sharers[key], text))
    wall = time.perf_counter() - start
    steps = sum(engine.elapsed_s for engine in engines.values())
    share = (wall - steps) / len(requests)
    runs = [(outcome, share + own, text) for outcome, own, text in runs]
    counters = {
        "hits": len(requests) - 1,
        "misses": 1,
        "slot_hits": materialization.hits,
        "slot_misses": materialization.misses,
    }
    return runs, counters


class ConsumerSurface:
    """The methods an analysis calls on its ``orchestrator=`` argument.

    :class:`Orchestrator` serves them in-process and
    :class:`~repro.service.client.ServiceClient` against a daemon.
    This class holds their shared bookkeeping: dedup by fingerprint,
    futures aligned with the request order, progress per resolved run,
    and run_many's rule that every survivor settles before the first
    error re-raises.  A subclass sets ``use_store`` and ``progress``
    and supplies what differs, besides ``lookup``, ``with_meta`` and
    ``close``:

    * ``_warm(fresh, detail)``: the futures of runs that need no
      launch -- stored, or (over the wire) already running;
    * ``_launch(misses, detail)``: futures for the rest, aligned with
      the ``(request, fingerprint)`` pairs given;
    * ``_landed(pending)``: await completions, yielding each
      fingerprint of ``pending`` once, as it lands.

    ``detail`` (``full`` or ``headline``) names the projection a
    service client fetches over the wire; in-process the result
    already sits in local memory, so it is ignored.
    """

    use_store: bool
    progress: Callable[[int, int], None] | None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(
        self, request: RunRequest, detail: str | None = None
    ) -> RunFuture:
        """Resolve one request asynchronously: the batch of one
        (:meth:`submit_many`).

        A stored run returns an already-resolved future.  An in-process
        miss runs as a lockstep group of one; with ``jobs == 1`` it
        executes inline, so its future is resolved too (a failed run's
        future holds its error).
        """
        return self.submit_many([request], detail=detail)[0]

    def submit_many(
        self, requests: Sequence[RunRequest], detail: str | None = None
    ) -> list[RunFuture]:
        """Submit a batch; duplicates share one future (simulated once).

        Stored runs resolve at once and runs already in flight share
        their future; the rest launch together, so the runs of one
        workload advance as one lockstep group.  The returned futures
        always align with ``requests``.  A consumer built with
        ``use_store=False`` skips the lookup (every request simulates)
        but still records results.
        """
        fresh: dict[str, RunRequest] = {}
        for request in requests:
            fresh.setdefault(request.fingerprint(), request)
        futures = self._warm(fresh, detail) if self.use_store else {}
        misses = [
            (request, fingerprint)
            for fingerprint, request in fresh.items()
            if fingerprint not in futures
        ]
        for future in self._launch(misses, detail):
            futures[future.fingerprint] = future
        return [futures[request.fingerprint()] for request in requests]

    def _notify(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    def as_done(self, futures: Iterable[RunFuture]) -> Iterator[RunFuture]:
        """Yield unique futures as they resolve, firing progress.

        Already-resolved futures (store hits, serial runs) come first;
        pending ones follow in completion order, every future of a
        fingerprint when that fingerprint lands (two ``submit`` calls
        of one request give two futures and both yield), while later
        runs keep executing.  The streaming primitive behind CLI
        progress, :meth:`run_many` and barrier-free dependent analyses
        that need the *future* (its ``request``, or its position in a
        batch) as well as its artifact.
        """
        unique = list(dict.fromkeys(futures))
        total = len(unique)
        done = 0
        pending: dict[str, list[RunFuture]] = {}
        for future in unique:
            if future.done():
                done += 1
                self._notify(done, total)
                yield future
            else:
                pending.setdefault(future.fingerprint, []).append(future)
        for fingerprint in self._landed(pending):
            for future in pending.pop(fingerprint):
                done += 1
                self._notify(done, total)
                yield future

    def run(
        self, request: RunRequest, detail: str | None = None
    ) -> RunArtifact:
        """Resolve one request, blocking (store lookup, else simulate)."""
        return self.submit(request, detail=detail).result()

    def run_many(
        self, requests: Sequence[RunRequest], detail: str | None = None
    ) -> list[RunArtifact]:
        """Resolve a batch of requests, preserving order.

        A thin wrapper over :meth:`submit_many`: duplicate
        fingerprints simulate once, and completions stream into the
        store as they land.  When a run fails, every surviving
        completion is still persisted (and counted toward progress)
        before the first error re-raises.
        """
        futures = self.submit_many(requests, detail=detail)
        first_error: BaseException | None = None
        for future in self.as_done(futures):
            error = future.exception()
            if error is not None:
                first_error = first_error or error
        if first_error is not None:
            raise first_error
        return [future.result() for future in futures]


class Orchestrator(ConsumerSurface):
    """Resolves run requests against a store, running misses in groups.

    Parameters
    ----------
    store:
        The result store consulted before simulating and updated after.
        Defaults to a fresh memory-only store.
    jobs:
        Worker processes for cache misses.  ``1`` executes serially in
        this process (``submit`` then blocks and returns an
        already-resolved future); higher values keep a persistent
        ``ProcessPoolExecutor`` so submissions stream.  Parallel runs
        are deterministic: every engine derives its streams from the
        request, so results are identical to serial execution.
    use_store:
        Store behavior.  ``False`` makes every resolution simulate
        (results are still recorded) -- consumers that only take an
        orchestrator, like the CLI's ``--no-cache`` path, configure
        cache bypass here.
    progress:
        Optional ``callback(completed, total)`` fired as each unique
        run of a batch resolves (:meth:`run_many` / :meth:`as_done`);
        the CLI uses it to stream run counts during sweeps.
    meta:
        Extra store-document ``meta`` keys stamped onto every run this
        orchestrator records, merged over :func:`run_meta`'s derived
        labels.  Provenance only -- never part of the fingerprint (the
        service daemon stamps ``{"daemon": <id>}`` here, so every
        stored artifact names the daemon that executed it).

    The misses of a batch run as *lockstep groups*
    (:meth:`launch_many`): the runs that share a materialization key
    advance slot by slot on one
    :class:`~repro.workload.materialize.WorkloadMaterialization`, built
    for the group and dropped with it.  Nothing is cached across
    batches but results.  Grouping is an execution detail: artifacts
    and fingerprints are byte-identical to a
    :class:`~repro.sim.engine.SimulationEngine` building its own
    workload.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        use_store: bool = True,
        progress: Callable[[int, int], None] | None = None,
        meta: dict | None = None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.jobs = max(1, int(jobs))
        self.use_store = use_store
        self.progress = progress
        self.meta = dict(meta or {})
        self._pool: ProcessPoolExecutor | None = None
        self._publisher: SharedWorkloadPublisher | None = None
        self._workload = dict.fromkeys(
            ("hits", "misses", "slot_hits", "slot_misses"), 0
        )
        self._inflight: dict[str, Future] = {}
        self._lock = threading.Lock()

    def with_meta(self, extra: dict) -> "Orchestrator":
        """This orchestrator's store and options with extra meta stamps.

        Returns ``self`` when nothing would change.  The campaign
        driver uses this to stamp every artifact a suite produces with
        its campaign id (into the store-document meta envelope, never
        the fingerprint), so ``repro store ls --campaign`` can list a
        campaign's artifacts as a unit.
        """
        merged = {**self.meta, **extra}
        if merged == self.meta:
            return self
        return Orchestrator(
            store=self.store,
            jobs=self.jobs,
            use_store=self.use_store,
            progress=self.progress,
            meta=merged,
        )

    def _meta_for(self, request: RunRequest) -> dict:
        """The store-document meta for one run: derived labels + stamps."""
        meta = run_meta(request)
        meta.update(self.meta)
        return meta

    # -- worker-pool lifecycle ---------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self._publisher = SharedWorkloadPublisher()
            # Workers outlive batches (submissions stream), but must
            # not outlive the orchestrator.
            weakref.finalize(self, self._pool.shutdown, wait=False)
            weakref.finalize(self, self._publisher.close)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pending runs finish)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._publisher is not None:
            self._publisher.close()
            self._publisher = None

    # -- where runs come from ---------------------------------------------

    def lookup(
        self, request: RunRequest, fingerprint: str
    ) -> RunFuture | None:
        """An already-resolved future for a store hit, else None."""
        hit = self.store.fetch(fingerprint)
        if hit is None:
            return None
        result, source = hit
        return RunFuture.resolved(
            request,
            fingerprint,
            RunArtifact(
                fingerprint=fingerprint,
                result=result,
                source=source,
                elapsed_s=0.0,
            ),
        )

    def inflight_count(self) -> int:
        """Number of fingerprints currently executing in the pool."""
        with self._lock:
            return len(self._inflight)

    def workload_cache_stats(self) -> dict:
        """Workload sharing over this orchestrator's life.

        ``misses`` counts materializations built (one per lockstep
        group), ``hits`` the runs that shared their group's, and
        ``slot_hits`` / ``slot_misses`` every demand and volume lookup
        of every group, served from its window or computed.  Pooled
        groups return their counts with their results.  Surfaced by
        the service daemon's ``/stats``, with the shared-memory
        publisher's counters under ``shared`` once a pool exists.
        """
        with self._lock:
            stats = dict(self._workload)
        if self._publisher is not None:
            stats["shared"] = self._publisher.stats()
        return stats

    def launch_many(
        self, misses: Sequence[tuple[RunRequest, str]]
    ) -> list[RunFuture]:
        """Execute misses as lockstep groups, bypassing the store lookup.

        ``misses`` are ``(request, fingerprint)`` pairs of distinct
        fingerprints; the returned futures align with them.  They run
        in groups of one materialization key (:func:`lockstep_groups`),
        one task per group: inline on the calling thread when
        ``jobs == 1``, so every returned future is already resolved;
        else one pool task per group.  A pooled miss first dedups
        against in-flight work (a fingerprint already executing shares
        its future), and when fewer groups than ``jobs`` remain they
        are split (:func:`_spread`) so that no worker idles.

        Each run's result streams into the store before its future
        resolves, so an artifact you hold survives a crash.  A run that
        raises fails only its own future; the rest of its group
        completes and is stored.  Serial callers that can race
        themselves -- the service daemon -- guard launches with their
        own registry.
        """
        futures = [
            RunFuture(request, fingerprint, Future())
            for request, fingerprint in misses
        ]
        if self.jobs == 1:
            for group in lockstep_groups(futures):
                self._run_inline(group)
            return futures
        fresh = []
        tasks = []
        with self._lock:
            for index, future in enumerate(futures):
                running = self._inflight.get(future.fingerprint)
                if running is None:
                    self._inflight[future.fingerprint] = future._future
                    fresh.append(future)
                else:
                    futures[index] = RunFuture(
                        future.request, future.fingerprint, running
                    )
            for group in _spread(lockstep_groups(fresh), self.jobs):
                try:
                    task = self._ensure_pool().submit(
                        _execute_group, self._group_task(group)
                    )
                except Exception as error:  # e.g. a broken or closed pool
                    task = Future()
                    task.set_exception(error)
                tasks.append((group, task))
        # Callbacks are registered *outside* the lock: a task that is
        # already done (or failed to submit) runs its callback inline
        # in this thread, and _settle re-acquires the (non-reentrant)
        # lock.
        for group, task in tasks:
            task.add_done_callback(
                lambda done, group=group: self._settle_task(group, done)
            )
        return futures

    def _group_task(self, group: list[RunFuture]) -> _GroupTask:
        """The pool task for ``group``.

        Publishes a large recorded pack to shared memory (once per pack
        content; a group's requests share their pack's content) so the
        task ships a few-hundred-byte stub instead of the utilization
        matrix; anything unpublishable falls back to the ordinary
        full-request pickle.  A pooled group's task is built under the
        lock right after :meth:`_ensure_pool`, which creates the
        publisher; an inline group (no pool, no publisher) ships nothing.
        """
        requests = tuple(future.request for future in group)
        keys = tuple(_simulation_key(future) for future in group)
        stub = None
        if self._publisher is not None:
            stub = self._publisher.publish_pack(requests[0].pack)
        if stub is not None:
            requests = tuple(
                dataclasses.replace(request, pack=None)
                for request in requests
            )
        return _GroupTask(requests=requests, keys=keys, stub=stub)

    def _run_inline(self, group: list[RunFuture]) -> None:
        """Execute one group on this thread and settle its futures."""
        try:
            outcomes, counters = _execute_group(self._group_task(group))
        except Exception as error:
            outcomes, counters = [(error, 0.0, None)] * len(group), {}
        self._settle(group, outcomes, counters)

    def _settle_task(self, group: list[RunFuture], task: Future) -> None:
        """Done callback of a pooled group: settle its futures.

        Runs in the executor's management thread, so a batch that dies
        partway (worker crash, interrupt) keeps every completed group.
        A task that failed as a whole fails each of its futures.
        """
        error = task.exception()
        if error is None:
            outcomes, counters = task.result()
        else:
            outcomes, counters = [(error, 0.0, None)] * len(group), {}
        self._settle(group, outcomes, counters)

    def _settle(
        self, group: list[RunFuture], outcomes: list[tuple], counters: dict
    ) -> None:
        """Store each result, then resolve its future.

        The store write happens *before* the future resolves and the
        in-flight entry is dropped -- a resubmission of the same
        fingerprint either shares the in-flight future or hits the
        store, never re-simulates.  A failed run's error that lost its
        traceback on the way back from a worker gets the worker's
        traceback as its ``__cause__``.
        """
        with self._lock:
            for name, count in counters.items():
                self._workload[name] += count
        for future, (outcome, elapsed, text) in zip(group, outcomes):
            error = outcome if isinstance(outcome, BaseException) else None
            if error is not None and text and error.__traceback__ is None:
                error.__cause__ = _RemoteTraceback(f'\n"""\n{text}"""')
            if error is None:
                try:
                    self.store.put(
                        future.fingerprint, outcome,
                        future.request.descriptor(),
                        self._meta_for(future.request),
                    )
                except Exception as put_error:
                    error = put_error
            if error is None:
                future._future.set_result(
                    RunArtifact(
                        fingerprint=future.fingerprint,
                        result=outcome,
                        source="computed",
                        elapsed_s=elapsed,
                    )
                )
            else:
                future._future.set_exception(error)
            with self._lock:
                self._inflight.pop(future.fingerprint, None)

    # -- the consumer hooks ------------------------------------------------

    def _warm(
        self, fresh: dict[str, RunRequest], detail: str | None
    ) -> dict[str, RunFuture]:
        """Store hits, resolved (``detail`` is moot: results are local)."""
        found = {}
        for fingerprint, request in fresh.items():
            hit = self.lookup(request, fingerprint)
            if hit is not None:
                found[fingerprint] = hit
        return found

    def _launch(
        self, misses: list[tuple[RunRequest, str]], detail: str | None
    ) -> list[RunFuture]:
        """The misses as lockstep groups (:meth:`launch_many`)."""
        return self.launch_many(misses)

    def _landed(self, pending: dict[str, list[RunFuture]]) -> Iterator[str]:
        """Fingerprints in completion order.

        A fingerprint's pending futures share one underlying future:
        :meth:`launch_many` dedups against in-flight work.
        """
        waiting = {group[0]._future: fp for fp, group in pending.items()}
        for landed in as_completed(waiting):
            yield waiting[landed]

def grid_requests(
    configs: Iterable[ExperimentConfig],
    policies_for: Callable[[ExperimentConfig], list[PlacementPolicy]],
    seeds: Sequence[int] | None = None,
    pack: TracePack | None = None,
) -> list[RunRequest]:
    """Cross a config iterable with per-config policies and seeds.

    Parameters
    ----------
    configs:
        The configurations to run.
    policies_for:
        Callable ``config -> list[PlacementPolicy]`` building *fresh*
        policy instances per config (policies carry cross-slot state,
        so sharing instances across parallel requests is unsafe).
    seeds:
        Seed overrides; ``None`` keeps each config's own seed.
    pack:
        Workload pack applied to every request (``None`` = synthetic
        default).
    """
    requests = []
    for config in configs:
        for seed in seeds if seeds is not None else [None]:
            for policy in policies_for(config):
                requests.append(
                    RunRequest(
                        config=config, policy=policy, seed=seed, pack=pack
                    )
                )
    return requests
