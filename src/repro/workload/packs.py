"""Versioned, content-hashed workload packs: the one workload type.

The paper's evaluation consumes two workload inputs: per-VM utilization
traces (a real DC recording extended one day -> one week, Section V)
and the runtime-varying pairwise data correlations (Section V-A).
Both come from one :class:`TracePack`, so every workload has an
identity the experiment orchestrator can fingerprint:

* :class:`TracePack` is a *named*, *versioned* bundle of a trace
  source (synthetic generator parameters or a recorded utilization
  matrix), data-correlation parameters and an optional
  application-mix override, identified by a SHA-256 content hash; it
  configures an experiment, builds its trace library and builds its
  volume process;
* a process-wide registry maps pack names to packs so the CLI can
  select workloads by name (``--pack``) and list what is available.

Content-hash scheme
-------------------

``TracePack.sha256`` digests a canonical byte stream: the pack schema
version, the pack version, the trace source (kind tag plus either the
generator parameters or the recorded matrix's shape/dtype/raw bytes
and its slotting/extension parameters), the data-correlation
parameters, and the app-mix override.  Names deliberately do **not**
feed the hash -- two packs with the same content but different names
share a sha256, making renames cache-compatible.  The orchestrator
folds ``content_descriptor()`` (schema, version, kind, sha256; no
name) into :class:`~repro.experiments.orchestrator.RunRequest`
fingerprints, so recorded-workload runs resolve from the result store
exactly like synthetic ones and keep resolving after a rename.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.workload.datacorr import DataCorrelationProcess
from repro.workload.recorded import RecordedTraceLibrary, load_utilization_csv
from repro.workload.traces import TraceLibrary
from repro.workload.vm import AppType

#: Version of the pack descriptor/hash schema (bump when the hashed
#: byte stream or the descriptor layout changes).
PACK_SCHEMA_VERSION = 1

#: Name of the default (synthetic) pack in the registry.
DEFAULT_PACK_NAME = "synthetic"


def _hash_items(*items: object) -> "hashlib._Hash":
    """SHA-256 over a canonical, length-prefixed encoding of ``items``.

    Scalars are encoded through ``repr`` (exact for ints/bools and for
    floats since repr is shortest-roundtrip), arrays through their
    shape, dtype and C-order bytes.  Length prefixes make the encoding
    injective: no concatenation of two item streams can collide.
    """
    digest = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            token = (
                f"ndarray:{item.shape}:{item.dtype.str}".encode()
                + np.ascontiguousarray(item).tobytes()
            )
        else:
            token = repr(item).encode()
        digest.update(f"{len(token)}:".encode())
        digest.update(token)
    return digest


@dataclass(frozen=True)
class DataCorrelationParams:
    """The :class:`DataCorrelationProcess` knobs a pack pins down.

    Defaults reproduce the process's own defaults, so the default pack
    is bit-identical to the engine's historical hard-wired process.
    """

    background_fraction: float = 0.005
    background_scale: float = 0.1
    dense: bool = False
    modulation_period_slots: float = 24.0
    jitter_sigma: float = 0.3

    def build(self, seed: int) -> DataCorrelationProcess:
        """A volume process with these parameters rooted at ``seed``."""
        return DataCorrelationProcess(
            background_fraction=self.background_fraction,
            background_scale=self.background_scale,
            dense=self.dense,
            modulation_period_slots=self.modulation_period_slots,
            jitter_sigma=self.jitter_sigma,
            seed=seed,
        )

    def content_items(self) -> tuple[object, ...]:
        """The fields, in declaration order, for content hashing."""
        return (
            "datacorr",
            self.background_fraction,
            self.background_scale,
            self.dense,
            self.modulation_period_slots,
            self.jitter_sigma,
        )


@dataclass(frozen=True)
class SyntheticTraceSource:
    """The library's synthetic trace generator as a pack source.

    Slot resolution and seeding follow the experiment config
    (``config.steps_per_slot`` and the engine's established
    ``config.seed + 1`` derivation), so the same pack serves every
    scale and seed while hashing only its own generator parameters.
    """

    extension_sigma: float = 0.05

    kind = "synthetic"

    def build(self, config) -> TraceLibrary:
        """A synthetic library matching the config's slotting and seed."""
        return TraceLibrary(
            steps_per_slot=config.steps_per_slot,
            extension_sigma=self.extension_sigma,
            seed=config.seed + 1,
        )

    def content_items(self) -> tuple[object, ...]:
        """Source identity for content hashing."""
        return (self.kind, self.extension_sigma)


@dataclass(frozen=True, eq=False)
class RecordedTraceSource:
    """A recorded utilization matrix (the paper's real-DC pipeline).

    Parameters mirror :class:`~repro.workload.recorded.RecordedTraceLibrary`
    plus the paper's one-day-to-one-week extension rule
    (:meth:`~repro.workload.recorded.RecordedTraceLibrary.extend_days`),
    applied at build time when ``extend_days > 1``.
    """

    utilization: np.ndarray
    steps_per_slot: int
    extend_days: int = 1
    extension_sigma: float = 0.05
    extend_seed: int = 0

    kind = "recorded"

    def __post_init__(self) -> None:
        # Private, read-only copy: the sha256 is computed lazily, so an
        # aliased caller array mutated after construction would
        # desynchronize the content hash from the served bytes.
        # Already-read-only float arrays are adopted without copying --
        # the shared-memory fan-out path (repro.workload.shm) relies on
        # this to keep worker-side restores zero-copy.
        matrix = np.asarray(self.utilization, dtype=float)
        if matrix.flags.writeable:
            if matrix is self.utilization:
                matrix = matrix.copy()
            matrix.flags.writeable = False
        # Validate eagerly so a bad matrix fails at pack construction,
        # not inside a worker process mid-batch.
        RecordedTraceLibrary(matrix, self.steps_per_slot)
        if self.extend_days < 1:
            raise ValueError("extend_days must be >= 1")
        object.__setattr__(self, "utilization", matrix)

    def build(self, config) -> RecordedTraceLibrary:
        """The recorded library, week-extended when configured."""
        library = RecordedTraceLibrary(self.utilization, self.steps_per_slot)
        if self.extend_days > 1:
            library = library.extend_days(
                self.extend_days, self.extension_sigma, seed=self.extend_seed
            )
        return library

    def content_items(self) -> tuple[object, ...]:
        """Source identity for content hashing (includes the matrix)."""
        return (
            self.kind,
            self.utilization,
            self.steps_per_slot,
            self.extend_days,
            self.extension_sigma,
            self.extend_seed,
        )


@dataclass(frozen=True, eq=False)
class TracePack:
    """A named, versioned, content-hashed workload bundle.

    Attributes
    ----------
    name:
        Registry/CLI name; not part of the content hash.
    source:
        Trace source (synthetic generator or recorded matrix).
    version:
        Pack version, for evolving a named pack's content over time.
    datacorr:
        Data-correlation parameters bundled with the traces.
    app_mix:
        Optional archetype-mix override applied to the config's
        arrival model (the scenario packs use this).
    """

    name: str
    source: SyntheticTraceSource | RecordedTraceSource
    version: int = 1
    datacorr: DataCorrelationParams = field(
        default_factory=DataCorrelationParams
    )
    app_mix: Mapping[AppType, float] | None = None

    @property
    def kind(self) -> str:
        """Source kind: ``"synthetic"`` or ``"recorded"``."""
        return self.source.kind

    @cached_property
    def sha256(self) -> str:
        """Content hash over source, datacorr params and app mix."""
        mix_items: tuple[object, ...] = ("app_mix",)
        if self.app_mix is not None:
            mix_items += tuple(
                (app.name, float(weight))
                for app, weight in sorted(
                    self.app_mix.items(), key=lambda item: item[0].name
                )
            )
        return _hash_items(
            "repro-trace-pack",
            PACK_SCHEMA_VERSION,
            self.version,
            *self.source.content_items(),
            *self.datacorr.content_items(),
            *mix_items,
        ).hexdigest()

    def descriptor(self) -> dict:
        """JSON-stable identity: schema, name, version, kind, sha256."""
        return {
            "schema": PACK_SCHEMA_VERSION,
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "sha256": self.sha256,
        }

    def content_descriptor(self) -> dict:
        """The descriptor minus the name -- what run fingerprints hash.

        Names are labels, not content (they don't feed
        :attr:`sha256`), so a renamed pack -- e.g. the same recorded
        CSV under a new file name -- keys the same cached runs.
        """
        descriptor = self.descriptor()
        del descriptor["name"]
        return descriptor

    def configure(self, config):
        """Apply the pack's app-mix override to ``config`` (if any)."""
        if self.app_mix is None:
            return config
        arrival_model = dataclasses.replace(
            config.arrival_model, app_mix=dict(self.app_mix)
        )
        return dataclasses.replace(config, arrival_model=arrival_model)

    def build_traces(self, config):
        """The pack's trace library, checked against the config slotting.

        Its ``slot_demand_many(vms, slot)`` rows equal
        ``slot_demand(vm, slot)`` bit for bit, in ``vms`` order.
        """
        library = self.source.build(config)
        steps = getattr(library, "steps_per_slot", config.steps_per_slot)
        if steps != config.steps_per_slot:
            raise ValueError(
                f"pack {self.name!r} serves {steps} steps per slot but "
                f"config {config.name!r} expects {config.steps_per_slot}"
            )
        return library

    def build_volumes(self, config) -> DataCorrelationProcess:
        """The pack's volume process, seeded by the engine's convention."""
        return self.datacorr.build(config.seed + 2)

    def with_app_mix(
        self, app_mix: Mapping[AppType, float], name: str | None = None
    ) -> "TracePack":
        """A copy carrying an archetype-mix override (new content hash)."""
        return dataclasses.replace(
            self, name=name or self.name, app_mix=dict(app_mix)
        )

    @classmethod
    def from_csv(
        cls,
        path: str | pathlib.Path,
        steps_per_slot: int,
        name: str | None = None,
        version: int = 1,
        extend_days: int = 1,
        extension_sigma: float = 0.05,
        extend_seed: int = 0,
        datacorr: DataCorrelationParams | None = None,
        app_mix: Mapping[AppType, float] | None = None,
    ) -> "TracePack":
        """A recorded pack from a utilization CSV (named after the file).

        This is the paper pipeline's entry point for private recorded
        traces; pass ``extend_days=7`` to apply the one-day-to-one-week
        extension rule at build time.
        """
        path = pathlib.Path(path)
        return cls(
            name=name or path.stem,
            source=RecordedTraceSource(
                utilization=load_utilization_csv(path),
                steps_per_slot=steps_per_slot,
                extend_days=extend_days,
                extension_sigma=extension_sigma,
                extend_seed=extend_seed,
            ),
            version=version,
            datacorr=datacorr or DataCorrelationParams(),
            app_mix=app_mix,
        )


# -- registry -----------------------------------------------------------

_REGISTRY: dict[str, TracePack] = {}


def register_pack(pack: TracePack) -> TracePack:
    """Add ``pack`` to the process-wide registry (returned unchanged)."""
    if pack.name in _REGISTRY:
        raise ValueError(f"pack {pack.name!r} is already registered")
    _REGISTRY[pack.name] = pack
    return pack


def get_pack(name: str) -> TracePack:
    """Look a pack up by name; raises ``KeyError`` naming alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown pack {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_packs() -> dict[str, TracePack]:
    """Snapshot of the registry, sorted by name."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def default_pack() -> TracePack:
    """The synthetic default pack (the engine's historical workload)."""
    return get_pack(DEFAULT_PACK_NAME)


register_pack(TracePack(name=DEFAULT_PACK_NAME, source=SyntheticTraceSource()))
register_pack(
    TracePack(
        name="synthetic-dense",
        source=SyntheticTraceSource(),
        datacorr=DataCorrelationParams(dense=True),
    )
)

#: Named archetype mixes for the workload scenario studies:
#: scale-out-heavy, HPC-heavy, and the paper-like blend the library
#: defaults to (consumed by :mod:`repro.experiments.scenarios`).
SCENARIO_MIXES: dict[str, dict[AppType, float]] = {
    "scale-out": {AppType.WEB: 0.8, AppType.BATCH: 0.15, AppType.HPC: 0.05},
    "mixed": {AppType.WEB: 0.5, AppType.BATCH: 0.3, AppType.HPC: 0.2},
    "hpc": {AppType.WEB: 0.1, AppType.BATCH: 0.2, AppType.HPC: 0.7},
}

#: The scenario mixes as registered, selectable packs
#: (``--pack scenario-hpc`` etc.): synthetic traces plus the mix as an
#: arrival-model override, each with its own content hash.  Registered
#: here so the registry is complete however it is reached (CLI,
#: ``repro.get_pack`` or this module directly).
SCENARIO_PACKS: dict[str, TracePack] = {
    scenario: register_pack(
        TracePack(
            name=f"scenario-{scenario}",
            source=SyntheticTraceSource(),
            app_mix=mix,
        )
    )
    for scenario, mix in SCENARIO_MIXES.items()
}
