"""Content-keyed workload materializations shared across runs.

The paper's deliverables are sweeps: many policies (and engine-option
variants) evaluated over the *same* workload realization -- the VM
population, the trace library, the data-correlation process and every
realized per-slot demand and volume matrix.  This module owns that
realization, and is the only place that decides which realized arrays
are kept and for how long:

* :func:`materialization_key` -- a deterministic SHA-256 over the
  *workload-relevant* request state: the pack's content hash plus the
  configured experiment's seed, horizon, slot resolution and arrival
  model.  Two runs share a key iff they realize bit-identical
  workloads.
* :class:`WorkloadMaterialization` -- population + trace library +
  volume process, and the source of every demand and volume matrix a
  :class:`~repro.sim.kernel.SlotKernel` reads: those within its byte
  budget are kept for later runs of the key, the rest are served
  unkept.  Served arrays are marked read-only: sharing is only sound
  because policies never write observations, and the flag turns any
  future violation into an immediate ``ValueError`` instead of a
  silent cross-run corruption.
* :class:`MaterializationCache` -- a bounded per-process LRU of
  materializations.  The orchestrator owns one for its serial runs and
  installs one in each pool worker via the pool initializer
  (:func:`configure_process_cache`); every orchestrated run resolves
  its workload through one of them, and an engine handed none builds
  a private one with a zero budget.

Correctness contract
--------------------

The cache is an *execution detail*: it never joins a
:class:`~repro.experiments.orchestrator.RunRequest` fingerprint, and a
cached run must be byte-identical to a from-scratch run.  That holds
because every shared component is a deterministic memo of the same
seeded draws: demand row ``i`` is ``slot_demand(vms[i], slot)``
whichever batch computes it, volume matrices come from the same
:class:`~repro.workload.datacorr.DataCorrelationProcess` (whose
per-pair RNG streams depend only on vm ids), and the population from
the same ``VMPopulation.generate``.
``tests/experiments/test_workload_cache.py`` asserts the equivalence
across pack kinds and execution paths.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from typing import Callable

import numpy as np

from repro.canonical import canonical
from repro.workload.arrivals import VMPopulation
from repro.workload.packs import TracePack, default_pack, _hash_items

__all__ = [
    "DEFAULT_CACHE_MATERIALIZATIONS",
    "DEFAULT_SLOT_BUDGET_BYTES",
    "MaterializationCache",
    "WorkloadMaterialization",
    "build_materialization",
    "configure_process_cache",
    "materialization_key",
    "process_cache",
]

#: Materializations kept per process.  A sweep touches few distinct
#: workloads at a time (policies x options share one), so a small LRU
#: covers the working set while bounding memory.
DEFAULT_CACHE_MATERIALIZATIONS = 4

#: Byte budget for one materialization's realized slot data.
#: Covers a full small-scale week (~85 MB of demand + volume
#: matrices); at paper scale the budget caps admission instead of
#: ballooning (see :class:`WorkloadMaterialization`).
DEFAULT_SLOT_BUDGET_BYTES = 192 << 20


def materialization_key(config, pack: TracePack | None) -> str:
    """SHA-256 key of the workload realization a request implies.

    ``config`` must be the experiment configuration *as the run
    resolves it* (seed override applied); the pack's ``configure``
    overrides (e.g. a scenario mix rewriting the arrival model) are
    applied here, so two packs that configure the same effective
    arrival model over the same traces still share a key only when
    their content hashes agree.

    The key hashes exactly what determines the realized workload:

    * the pack's content identity (schema, version, sha256 -- never
      the name), ``None`` resolving to the registered default pack;
    * ``config.seed`` (roots population, traces and volumes),
      ``horizon_slots`` (population extent), ``steps_per_slot``
      (trace resolution) and the configured arrival model.

    Fleet shape, tariffs, PUE, QoS and policy state deliberately stay
    out: they change the run, not its workload.
    """
    if pack is None:
        pack = default_pack()
    configured = pack.configure(config)
    arrival = json.dumps(canonical(configured.arrival_model), sort_keys=True)
    return _hash_items(
        "repro-workload-materialization",
        pack.content_descriptor()["schema"],
        pack.version,
        pack.sha256,
        int(configured.seed),
        int(configured.horizon_slots),
        int(configured.steps_per_slot),
        arrival,
    ).hexdigest()


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only (the cross-run sharing tripwire)."""
    array.flags.writeable = False
    return array


class WorkloadMaterialization:
    """One workload realization and the realized slot arrays runs read.

    Bundles the population, trace library and volume process of the
    keyed ``(config, pack)`` pair, and serves every per-slot demand and
    volume matrix a :class:`~repro.sim.kernel.SlotKernel` uses.  Keys
    are ``(slot, vm-id tuple)``: demand and volume matrices are exact
    functions of the slot and the ordered alive set, so whole-matrix
    memoization is sound (the volume process's per-slot jitter depends
    on matrix *position*, not VM identity -- only exact-population hits
    may be served).

    Memory policy: admission-capped rather than evicted.  Runs replay
    slots in ascending order, so LRU eviction under a scan working set
    larger than the budget would evict precisely the matrices the next
    run is about to need (scan thrash, zero reuse).  Instead the first
    ``budget_bytes`` of matrices are kept -- every later run of the key
    gets a deterministic warm prefix -- and a matrix past the budget is
    computed, frozen and served without being kept, counted as a miss
    and as ``declined``.

    Demand rows are reused within a slot: a demand miss copies the
    rows it shares with the last demand matrix served to the same
    thread, if that matrix is of the same slot and on the same side of
    the budget (both kept, or both not), and a thread's request for
    its last matrix's own key is a hit.  So observing slot ``s`` over
    slot ``s + 1``'s alive set computes only the newly arrived VMs'
    rows, and past the budget the last matrix is all the demand data
    a thread holds.  ``tests/workload/test_materialize.py`` pins the
    provider work this costs, including at a budget that splits a run.

    Lookups serialize under one lock, so engines sharing a
    materialization from several threads (callers sharing one
    ``jobs=1`` orchestrator) interleave safely and deterministically;
    each thread's last matrix is its own, so one engine's requests
    never evict the rows another's next miss would copy.

    Attributes
    ----------
    key:
        The :func:`materialization_key` this realization answers to;
        ``None`` for a provider without content identity (a
        :class:`~repro.workload.packs.LibraryWorkload`).
    config:
        The configured experiment (pack overrides applied) every
        consumer must simulate under.
    budget_bytes:
        Bytes of realized matrices kept for later runs.
    """

    def __init__(
        self,
        key: str | None,
        config,
        pack,
        population: VMPopulation,
        traces,
        volumes,
        slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
    ) -> None:
        self.key = key
        self.config = config
        self.pack = pack
        self.population = population
        self.traces = traces
        self.volumes = volumes
        self.budget_bytes = int(slot_budget_bytes)
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.declined = 0
        self._demand: dict[tuple, np.ndarray] = {}
        self._volumes: dict[tuple, object] = {}
        #: Per thread, ``last``: the ``(key, matrix, kept)`` of the last
        #: demand matrix served to that thread.
        self._served = threading.local()
        self._lock = threading.RLock()

    def _admit(self, nbytes: int) -> bool:
        """Charge ``nbytes`` to the budget if they fit; else decline."""
        if self.bytes + nbytes > self.budget_bytes:
            self.declined += 1
            return False
        self.bytes += nbytes
        return True

    def demand(self, vms, slot: int) -> np.ndarray:
        """The read-only ``(len(vms), steps)`` demand matrix.

        Row ``i`` is exactly ``traces.slot_demand(vms[i], slot)``; the
        rows not copied from the slot's last matrix come from one
        batched ``slot_demand_many`` call.
        """
        steps = self.config.steps_per_slot
        if not vms:
            return np.zeros((0, steps))
        key = (slot, tuple(vm.vm_id for vm in vms))
        served = self._served
        with self._lock:
            matrix = self._demand.get(key)
            if matrix is not None:
                self.hits += 1
                served.last = (key, matrix, True)
                return matrix
            last = getattr(served, "last", None)
            if last is not None and last[0] == key:
                self.hits += 1
                return last[1]
            self.misses += 1
            kept = self._admit(len(vms) * steps * 8)
            matrix = _freeze(self._fresh_demand(vms, slot, kept, last))
            if kept:
                self._demand[key] = matrix
            served.last = (key, matrix, kept)
            return matrix

    def _fresh_demand(
        self, vms, slot: int, kept: bool, last_served
    ) -> np.ndarray:
        """The rows ``last_served`` shares, if it is of the slot and on
        the ``kept`` side of the budget; one provider batch for the
        rest."""
        rows: dict[int, int] = {}
        if last_served is not None:
            (last_slot, last_ids), last, last_kept = last_served
            if last_slot == slot and last_kept == kept:
                rows = {vm_id: row for row, vm_id in enumerate(last_ids)}
        shared = [index for index, vm in enumerate(vms) if vm.vm_id in rows]
        if not shared:
            return self.traces.slot_demand_many(vms, slot)
        matrix = np.empty((len(vms), self.config.steps_per_slot))
        matrix[shared] = last[[rows[vms[index].vm_id] for index in shared]]
        missing = [
            index for index, vm in enumerate(vms) if vm.vm_id not in rows
        ]
        if missing:
            matrix[missing] = self.traces.slot_demand_many(
                [vms[index] for index in missing], slot
            )
        return matrix

    def volume_matrix(self, vms, slot: int):
        """The read-only volume matrix of ``(vms, slot)``."""
        key = (slot, tuple(vm.vm_id for vm in vms))
        with self._lock:
            matrix = self._volumes.get(key)
            if matrix is not None:
                self.hits += 1
                return matrix
            self.misses += 1
            matrix = self.volumes.volumes(list(vms), slot)
            _freeze(matrix.volumes)
            if self._admit(matrix.volumes.nbytes):
                self._volumes[key] = matrix
            return matrix

    def approx_bytes(self) -> int:
        """Rough resident size: kept slot data + generator caches."""
        total = self.bytes
        approx = getattr(self.volumes, "approx_cache_bytes", None)
        if approx is not None:
            total += approx()
        return total

    def stats(self) -> dict:
        """Counter snapshot: hits, misses, declined, resident entries
        and :meth:`approx_bytes`."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "declined": self.declined,
                "bytes": self.approx_bytes(),
                "demand_entries": len(self._demand),
                "volume_entries": len(self._volumes),
            }


def build_materialization(
    config,
    pack,
    slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
    key: str | None = None,
) -> WorkloadMaterialization:
    """Materialize the workload for ``(config, pack)``.

    The one place a run's population, traces and volumes are built:
    orchestrated runs get theirs through a
    :class:`MaterializationCache`, and a
    :class:`~repro.sim.engine.SimulationEngine` handed none builds a
    private one here with ``slot_budget_bytes=0``.  ``pack`` is any
    :class:`~repro.workload.packs.WorkloadProvider` (``None`` = the
    default pack); ``key`` defaults to :func:`materialization_key` for
    a :class:`~repro.workload.packs.TracePack` and stays ``None`` for
    a provider without content identity.
    """
    if pack is None:
        pack = default_pack()
    if key is None and isinstance(pack, TracePack):
        key = materialization_key(config, pack)
    configured = pack.configure(config)
    population = VMPopulation.generate(
        configured.arrival_model,
        configured.horizon_slots,
        seed=configured.seed,
    )
    traces = pack.build_traces(configured)
    volumes = pack.build_volumes(configured)
    return WorkloadMaterialization(
        key=key,
        config=configured,
        pack=pack,
        population=population,
        traces=traces,
        volumes=volumes,
        slot_budget_bytes=slot_budget_bytes,
    )


class MaterializationCache:
    """Bounded per-process LRU of :class:`WorkloadMaterialization`.

    ``get`` moves hits to the back and evicts from the front when the
    entry cap is exceeded -- sweeps alternating between a few
    workloads keep them all warm; a stream of distinct workloads
    cannot grow the process beyond ``size`` materializations.  Each
    key is built once: concurrent callers of a key being built wait
    for that build, and count as hits when it succeeds.
    """

    def __init__(
        self,
        size: int = DEFAULT_CACHE_MATERIALIZATIONS,
        slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
    ) -> None:
        self.size = max(1, int(size))
        self.slot_budget_bytes = int(slot_budget_bytes)
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, WorkloadMaterialization] = {}
        #: Keys being built, each with the future its waiters block on.
        self._building: dict[str, Future] = {}
        self._lock = threading.RLock()

    def get(
        self,
        key: str,
        build: Callable[[], WorkloadMaterialization],
    ) -> WorkloadMaterialization:
        """The cached materialization for ``key``, building on miss.

        A caller that finds ``key`` being built waits for that build
        and gets its entry, or its exception; a failed build caches
        nothing.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.hits += 1
                self._entries[key] = entry  # refresh LRU position
                return entry
            pending = self._building.get(key)
            building = pending is None
            if building:
                self.misses += 1
                pending = self._building[key] = Future()
        if not building:
            entry = pending.result()
            with self._lock:
                self.hits += 1
            return entry
        # Build outside the lock: materialization is seconds of work
        # and concurrent callers for *different* keys must not
        # serialize.
        try:
            entry = build()
            if entry.key != key:
                raise ValueError(
                    f"materialization key mismatch: built {entry.key[:12]} "
                    f"for requested {key[:12]}"
                )
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            pending.set_exception(exc)
            raise
        with self._lock:
            del self._building[key]
            self._entries[key] = entry
            while len(self._entries) > self.size:
                self._entries.pop(next(iter(self._entries)))
        pending.set_result(entry)
        return entry

    def materialize(
        self, config, pack: TracePack | None
    ) -> WorkloadMaterialization:
        """Key + get + build in one call (the engine-facing entry)."""
        key = materialization_key(config, pack)
        return self.get(
            key,
            lambda: build_materialization(
                config,
                pack,
                slot_budget_bytes=self.slot_budget_bytes,
                key=key,
            ),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Resident materialization keys, oldest (next to evict) first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Aggregate counters over the cache and its materializations."""
        with self._lock:
            entries = list(self._entries.values())
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(entries),
            }
        slots = [entry.stats() for entry in entries]
        for counter in ("hits", "misses", "declined"):
            stats[f"slot_{counter}"] = sum(slot[counter] for slot in slots)
        stats["bytes"] = sum(slot["bytes"] for slot in slots)
        return stats


# -- the per-process cache ----------------------------------------------
#
# Orchestrator pool workers get theirs installed by the pool's
# initializer (configure_process_cache); serial orchestrators own a
# cache of their own instead.

_PROCESS_CACHE: MaterializationCache | None = None
_PROCESS_CACHE_LOCK = threading.Lock()


def configure_process_cache() -> MaterializationCache:
    """(Re)install this process's materialization cache.

    The orchestrator's worker initializer.  Replaces any existing cache
    (a forked worker inherits its parent's), dropping its entries, so
    counters restart from zero.
    """
    global _PROCESS_CACHE
    with _PROCESS_CACHE_LOCK:
        _PROCESS_CACHE = MaterializationCache()
        return _PROCESS_CACHE


def process_cache() -> MaterializationCache:
    """This process's materialization cache (created on first use)."""
    global _PROCESS_CACHE
    with _PROCESS_CACHE_LOCK:
        if _PROCESS_CACHE is None:
            _PROCESS_CACHE = MaterializationCache()
        return _PROCESS_CACHE
