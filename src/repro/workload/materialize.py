"""Content-keyed workload materializations, one per lockstep run group.

The paper compares its policies on one shared realization: the same
alive VMs, demand and data volumes in every slot (Section V-A).  This
module owns that realization, and is the only place that decides
which realized arrays are kept and for how long:

* :func:`materialization_key` -- a deterministic SHA-256 over the
  *workload-relevant* request state: the pack's content hash plus the
  configured experiment's seed, horizon, slot resolution and arrival
  model.  Two runs share a key iff they realize bit-identical
  workloads.
* :class:`WorkloadMaterialization` -- population + trace library +
  volume process, and the source of every demand and volume matrix a
  :class:`~repro.sim.kernel.SlotKernel` reads.  It keeps the matrices
  of the two newest slots requested, which is all a lockstep group
  (:func:`~repro.sim.engine.run_lockstep`) reads: slot ``s - 1`` for
  ``observe`` and slot ``s`` for ``step``.  Each slot's demand rows
  come from one provider batch, which reads the next slot's arrivals
  ahead.
* :func:`build_materialization` -- the one place a run's population,
  traces and volumes are built.

A materialization belongs to one group of engines on one thread: the
orchestrator builds one per group and drops it when the group ends,
so nothing here is locked and nothing outlives a batch.

Correctness contract
--------------------

Sharing is an *execution detail*: it never joins a
:class:`~repro.experiments.orchestrator.RunRequest` fingerprint, and a
run in a group must be byte-identical to a run on its own.  That
holds because every shared component is a deterministic memo of the
same seeded draws: demand row ``i`` is ``slot_demand(vms[i], slot)``
whichever lookup computes it, volume matrices come from the same
:class:`~repro.workload.datacorr.DataCorrelationProcess` (whose
per-pair RNG streams depend only on vm ids), and the population from
the same ``VMPopulation.generate``.
``tests/experiments/test_workload_cache.py`` asserts the equivalence
across pack kinds and execution paths.
"""

from __future__ import annotations

import json

import numpy as np

from repro.canonical import canonical
from repro.workload.arrivals import VMPopulation
from repro.workload.packs import TracePack, default_pack, _hash_items

__all__ = [
    "WINDOW_SLOTS",
    "WorkloadMaterialization",
    "build_materialization",
    "materialization_key",
]

#: Slots whose matrices a materialization keeps: the previous slot,
#: which ``observe`` reads, and the current one, which ``step`` reads.
WINDOW_SLOTS = 2


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
    return _hash_items(
        "repro-workload-materialization",
        pack.content_descriptor()["schema"],
        pack.version,
        pack.sha256,
        *_workload_fields(pack.configure(config)),
    ).hexdigest()


def _workload_fields(configured) -> tuple:
    """The fields of a configured experiment that shape its workload."""
    return (
        int(configured.seed),
        int(configured.horizon_slots),
        int(configured.steps_per_slot),
        json.dumps(canonical(configured.arrival_model), sort_keys=True),
    )


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark a served array read-only (the group-sharing tripwire)."""
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

    Window: the matrices of the :data:`WINDOW_SLOTS` newest slots
    requested are kept, and the first request of a newer slot drops
    the oldest slot's.  A request for a slot older than the window is
    computed and served without being kept.  Engines advancing in
    lockstep therefore compute each matrix once per group and hold it
    for one slot after.

    One provider batch per slot: a slot's first demand miss asks
    ``slot_demand_many`` for its VMs' rows plus those of the VMs alive
    next slot that it lacks, because the next slot's observation reads
    them (Section IV-A's last-interval protocol), and keeps the whole
    batch as the slot's newest matrix.  A later miss of the slot copies
    the rows it shares with that matrix and asks the provider only for
    the rest.  So observing slot ``s`` over slot ``s + 1``'s alive set
    computes no rows, and a lagged run's batches hold exactly the rows
    it reads; a clairvoyant run, which observes the current slot,
    leaves the read-ahead rows unread.

    Served arrays are read-only: the engines of a group share them,
    which is only sound because policies never write observations.

    Attributes
    ----------
    config:
        The configured experiment (pack overrides applied) every
        consumer must simulate under.
    hits / misses:
        Matrix lookups served from the window, and matrices computed.
    """

    def __init__(
        self, config, pack, population: VMPopulation, traces, volumes
    ) -> None:
        self.config = config
        self.pack = pack
        self.population = population
        self.traces = traces
        self.volumes = volumes
        self.hits = 0
        self.misses = 0
        #: The kept slots, ascending; at most WINDOW_SLOTS of them.
        self._window: list[int] = []
        self._demand: dict[tuple, np.ndarray] = {}
        self._volumes: dict[tuple, object] = {}

    def realizes(self, config) -> bool:
        """True if ``config`` under this pack realizes this workload.

        Compares what :func:`materialization_key` hashes besides the
        pack.
        """
        return _workload_fields(self.pack.configure(config)) == (
            _workload_fields(self.config)
        )

    def _keeps(self, slot: int) -> bool:
        """Admit ``slot`` to the window; True if its matrices are kept.

        A newer slot pushes the oldest out and drops its matrices.
        """
        if slot in self._window:
            return True
        window = sorted(self._window + [slot])[-WINDOW_SLOTS:]
        if slot not in window:
            return False
        self._window = window
        for matrices in (self._demand, self._volumes):
            for key in [key for key in matrices if key[0] not in window]:
                del matrices[key]
        return True

    def demand(self, vms, slot: int) -> np.ndarray:
        """The read-only ``(len(vms), steps)`` demand matrix.

        Row ``i`` is exactly ``traces.slot_demand(vms[i], slot)``.
        """
        if not vms:
            return np.zeros((0, self.config.steps_per_slot))
        ids = tuple(vm.vm_id for vm in vms)
        matrix = self._demand.get((slot, ids))
        if matrix is not None:
            self.hits += 1
            return matrix
        self.misses += 1
        if not self._keeps(slot):
            return _freeze(self.traces.slot_demand_many(vms, slot))
        newest = next(
            (
                (kept_ids, kept)
                for (kept_slot, kept_ids), kept in reversed(self._demand.items())
                if kept_slot == slot
            ),
            None,
        )
        if newest is None:
            return self._first_batch(vms, ids, slot)
        matrix = _freeze(self._gathered(vms, slot, *newest))
        self._demand[(slot, ids)] = matrix
        return matrix

    def _first_batch(self, vms, ids: tuple, slot: int) -> np.ndarray:
        """The slot's one provider batch: ``vms``' rows, plus those of
        the VMs alive next slot that ``vms`` lacks, which the next
        slot's observation reads (Section IV-A's last-interval
        protocol).  Keeps the view of ``vms``' rows, then the whole
        batch as the slot's newest matrix, and returns the view."""
        batch = list(vms)
        if slot + 1 < self.config.horizon_slots:
            known = set(ids)
            batch += [
                vm for vm in self.population.alive(slot + 1)
                if vm.vm_id not in known
            ]
        full = _freeze(self.traces.slot_demand_many(batch, slot))
        matrix = self._demand[(slot, ids)] = full[: len(vms)]
        if len(batch) > len(vms):
            self._demand[(slot, tuple(vm.vm_id for vm in batch))] = full
        return matrix

    def _gathered(self, vms, slot: int, kept_ids, kept) -> np.ndarray:
        """The rows the slot's newest kept matrix shares; one provider
        batch for the rest."""
        rows = {vm_id: row for row, vm_id in enumerate(kept_ids)}
        matrix = np.empty((len(vms), self.config.steps_per_slot))
        shared = [index for index, vm in enumerate(vms) if vm.vm_id in rows]
        matrix[shared] = kept[[rows[vms[index].vm_id] for index in shared]]
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
        matrix = self._volumes.get(key)
        if matrix is not None:
            self.hits += 1
            return matrix
        self.misses += 1
        kept = self._keeps(slot)
        matrix = self.volumes.volumes(list(vms), slot)
        _freeze(matrix.volumes)
        if kept:
            self._volumes[key] = matrix
        return matrix

def build_materialization(
    config, pack: TracePack | None
) -> WorkloadMaterialization:
    """Materialize the workload for ``(config, pack)``.

    The one place a run's population, traces and volumes are built:
    the orchestrator builds one per lockstep group, and a
    :class:`~repro.sim.engine.SimulationEngine` handed none builds the
    default pack's here.  ``pack`` is a
    :class:`~repro.workload.packs.TracePack` (``None`` = the default
    pack).
    """
    if pack is None:
        pack = default_pack()
    configured = pack.configure(config)
    population = VMPopulation.generate(
        configured.arrival_model,
        configured.horizon_slots,
        seed=configured.seed,
    )
    traces = pack.build_traces(configured)
    volumes = pack.build_volumes(configured)
    return WorkloadMaterialization(
        config=configured,
        pack=pack,
        population=population,
        traces=traces,
        volumes=volumes,
    )
