"""The result store: memory layer + pluggable persistent backend.

:class:`ResultStore` is what the orchestrator talks to.  It keeps the
in-process memory layer, the hit/miss/write counters and the document
envelope (store version, fingerprint, request descriptor, serialized
result, optional metadata), and delegates persistence to one of the
two :mod:`repro.store` backends.  ``backend="auto"`` resolves through
:func:`repro.store.base.detect_format`, so a warm root written by any
earlier version (the per-file JSON layout) keeps resolving
transparently, while new roots can opt into the segment layout.
:func:`open_backend` refuses a root in the retired ``sharded`` layout
and names the ``repro store migrate`` recipe that moves it.
"""

from __future__ import annotations

import os
import pathlib
import threading
from collections import OrderedDict

from repro.sim.results import RunResult
from repro.store.base import (
    BACKEND_ENV_VAR,
    KNOWN_FORMATS,
    STORE_ENV_VAR,
    STORE_VERSION,
    StoreBackend,
    detect_format,
)
from repro.store.jsonfile import JsonFileBackend
from repro.store.segment import SegmentBackend

_BACKENDS = {"json": JsonFileBackend, "segment": SegmentBackend}

#: Results a backed store keeps in memory, least recently used out
#: first; an evicted run resolves from its backend (``source: disk``).
#: A small-scale week's result takes about 176 KB in memory, so the
#: layer stays near 180 MB in a daemon that serves for weeks.
_MEMORY_RESULTS = 1024


def open_backend(
    root: pathlib.Path | str, backend: str = "auto"
) -> StoreBackend:
    """Open the store backend for ``root``.

    ``"auto"`` uses the detected on-disk format (default ``json`` for
    a virgin root).  Naming a format explicitly on a root that already
    holds a different one is refused -- mixing layouts in one tree
    would corrupt both.  A root in the retired ``sharded`` layout is
    refused under every name: its ``shards/<name>/`` directories are
    per-file ``json`` roots, migrated one by one into a new root.
    """
    root = pathlib.Path(root)
    detected = detect_format(root)
    if detected == "sharded":
        raise ValueError(
            f"store root {os.fspath(root)!r} holds a 'sharded' store, a "
            "layout this version no longer opens; move every shard into "
            "one new root NEW with 'repro store migrate --store "
            f"{os.fspath(root / 'shards')}/<name> --dest NEW --to "
            "segment' (once per shard, same NEW), then use --store NEW"
        )
    name = backend or "auto"
    if name == "auto":
        name = detected or "json"
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown store backend {backend!r}; choose from "
            f"{('auto', *KNOWN_FORMATS)}"
        )
    if detected is not None and name != detected:
        raise ValueError(
            f"store root {os.fspath(root)!r} holds a {detected!r} store; "
            f"refusing to open it as {name!r}"
        )
    return _BACKENDS[name](root)


class ResultStore:
    """Fingerprint-keyed result storage: memory layer + optional backend.

    Parameters
    ----------
    root:
        Directory for the persistent layer (created lazily).  ``None``
        keeps results in memory only.
    backend:
        Persistent layout: ``"auto"`` (detect; new roots get the
        per-file ``json`` layout), ``"json"``, ``"segment"`` -- or an
        already-constructed :class:`~repro.store.base.StoreBackend`.

    A backed store keeps at most :data:`_MEMORY_RESULTS` results in
    memory; a memory-only store keeps every one, memory being its only
    copy.

    Thread safety: ``put``/``fetch`` may be called from the
    orchestrator's completion callbacks while the submitting thread
    keeps resolving, so the memory layer and counters are
    lock-protected (backends serialize their own writes).
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        backend: str | StoreBackend = "auto",
    ) -> None:
        if not isinstance(backend, str):
            # An already-constructed backend wins regardless of root
            # (its own root is authoritative).
            self._backend: StoreBackend | None = backend
            self.root = backend.root
        elif root is None:
            self.root = None
            self._backend = None
        else:
            self.root = pathlib.Path(root)
            self._backend = open_backend(self.root, backend)
        self._memory: OrderedDict[str, RunResult] = OrderedDict()
        self._lock = threading.RLock()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.writes = 0

    @classmethod
    def from_environment(cls) -> "ResultStore":
        """Store rooted at ``$REPRO_RESULT_STORE`` (memory-only if unset).

        ``$REPRO_STORE_BACKEND`` names the backend format (default:
        auto-detect).
        """
        root = os.environ.get(STORE_ENV_VAR) or None
        backend = os.environ.get(BACKEND_ENV_VAR) or "auto"
        return cls(root, backend=backend)

    @property
    def backend(self) -> StoreBackend | None:
        """The persistent backend (None when memory-only)."""
        return self._backend

    def fetch(self, fingerprint: str) -> tuple[RunResult, str] | None:
        """Look a fingerprint up; returns ``(result, source)`` or None."""
        with self._lock:
            cached = self._memory.get(fingerprint)
            if cached is not None:
                self._memory.move_to_end(fingerprint)
                self.hits_memory += 1
                return cached, "memory"
        if self._backend is not None:
            payload = self._backend.fetch(fingerprint)
            if (
                payload is not None
                and payload.get("store_version") == STORE_VERSION
                and payload.get("fingerprint") == fingerprint
            ):
                result = RunResult.from_dict(payload["result"])
                with self._lock:
                    self._remember(fingerprint, result)
                    self.hits_disk += 1
                return result, "disk"
        with self._lock:
            self.misses += 1
        return None

    def put(
        self,
        fingerprint: str,
        result: RunResult,
        descriptor: dict | None = None,
        meta: dict | None = None,
    ) -> None:
        """Record a result in memory and (when backed) persistently.

        ``meta`` carries store-side labels that deliberately stay out
        of the fingerprint -- the workload pack's name/version and
        provenance stamps (what ``repro store ls``/``gc`` filter on).
        Writes are atomic per backend discipline.
        """
        with self._lock:
            self._remember(fingerprint, result)
            self.writes += 1
        if self._backend is None:
            return
        document = {
            "store_version": STORE_VERSION,
            "fingerprint": fingerprint,
            "request": descriptor or {},
            "result": result.to_dict(),
        }
        if meta:
            document["meta"] = meta
        self._backend.put(fingerprint, document)

    def _remember(self, fingerprint: str, result: RunResult) -> None:
        """Keep ``result`` in memory; caller holds the lock."""
        self._memory[fingerprint] = result
        self._memory.move_to_end(fingerprint)
        if self._backend is not None:
            while len(self._memory) > _MEMORY_RESULTS:
                self._memory.popitem(last=False)

    def documents(self):
        """Every persisted ``(fingerprint, document)`` pair."""
        if self._backend is None:
            return iter(())
        return self._backend.scan()

    def stats(self) -> dict[str, int]:
        """Hit/miss/write counters (for benchmarks and logs)."""
        with self._lock:
            return {
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "writes": self.writes,
            }

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
        return self._backend is not None and fingerprint in self._backend

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)
