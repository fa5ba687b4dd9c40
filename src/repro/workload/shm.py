"""Zero-copy pack fan-out over ``multiprocessing.shared_memory``.

Submitting a recorded-trace pack to the orchestrator's worker pool
normally pickles the full utilization matrix into every task message.
For the paper's recorded day (720 samples/slot x 24 slots x thousands
of VMs) that is hundreds of megabytes re-serialized per run.  This
module ships the matrix across the process boundary exactly once:

* the parent-side :class:`SharedWorkloadPublisher` copies a recorded
  pack's utilization matrix into a ``SharedMemory`` segment and hands
  back a tiny picklable :class:`SharedPackStub`;
* workers call :meth:`SharedPackStub.restore`, which attaches the
  segment read-only and rebuilds an equivalent
  :class:`~repro.workload.packs.TracePack` *without copying* the
  matrix (see the adopt-read-only branch in
  ``RecordedTraceSource.__post_init__``) and without re-hashing it
  (the parent's sha256 is pre-seeded);
* the parent owns the segment lifecycle: ``close()`` unlinks every
  published segment; workers only ever close their attach handles.

The publisher degrades gracefully: synthetic packs (already tiny),
matrices under :data:`MIN_SHARED_BYTES`, and any OS-level shared
memory failure all yield ``None``, telling the caller to fall back to
the ordinary full-pack pickle path.  Restores are cached per process
and per segment, so a sweep of many runs over one pack attaches once.

Bit-identity: the stub rebuilds the pack from the *same bytes* the
parent hashed (``sha256`` equality is asserted structurally by
construction -- the segment holds a byte-exact copy), so run
fingerprints and artifacts are unchanged versus the pickle path.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

from repro.workload.packs import RecordedTraceSource, TracePack
from repro.workload.vm import AppType

#: Matrices smaller than this are cheaper to pickle than to publish.
MIN_SHARED_BYTES = 1 << 20


@dataclass(frozen=True)
class SharedArrayRef:
    """Location of one ndarray inside a shared memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def nbytes(self) -> int:
        """Byte size of the referenced array (shape x itemsize)."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


#: Segment names created by a publisher in *this* process.  A pool
#: worker forked after the first publish inherits the set and restores
#: those stubs; its attaches must not cancel the creator's resource
#: registration.
_OWNED_SEGMENTS: set[str] = set()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    Python < 3.13 unconditionally registers attached segments with the
    resource tracker, which would unlink them when *this* process
    exits even though the publisher still owns them; unregister to
    keep ownership with the parent.  3.13+ exposes ``track=False``.
    """
    if name in _OWNED_SEGMENTS:
        # We are the publisher: reuse one registration, don't touch it.
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        segment = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        return segment


# Worker-side attach caches.  Keyed by segment name so repeated stubs
# for one sweep attach a segment exactly once per process; handles are
# closed (never unlinked -- the parent owns the segments) at exit.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_RESTORED: dict[str, TracePack] = {}
_CLEANUP_REGISTERED = False


def _attached_array(ref: SharedArrayRef) -> np.ndarray:
    """The read-only ndarray view behind ``ref``, attach-once cached."""
    global _CLEANUP_REGISTERED
    cached = _ATTACHED.get(ref.name)
    if cached is not None:
        return cached[1]
    segment = _attach_segment(ref.name)
    array = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf
    )
    array.flags.writeable = False
    _ATTACHED[ref.name] = (segment, array)
    if not _CLEANUP_REGISTERED:
        atexit.register(_close_attachments)
        _CLEANUP_REGISTERED = True
    return array


def _close_attachments() -> None:
    """Close (not unlink) every attach handle this process holds."""
    _RESTORED.clear()
    for name, (segment, _array) in list(_ATTACHED.items()):
        _ATTACHED.pop(name, None)
        try:
            segment.close()
        except Exception:
            pass


@dataclass(frozen=True)
class SharedPackStub:
    """Everything needed to rebuild a recorded pack from shared memory.

    A few hundred bytes on the wire versus the full matrix; restoring
    yields a pack whose ``content_descriptor()`` (and therefore every
    run fingerprint) matches the original exactly.
    """

    name: str
    version: int
    datacorr: object
    app_mix: Mapping[AppType, float] | None
    sha256: str
    ref: SharedArrayRef
    steps_per_slot: int
    extend_days: int
    extension_sigma: float
    extend_seed: int

    def restore(self) -> TracePack:
        """The pack, rebuilt zero-copy from the shared segment."""
        cached = _RESTORED.get(self.sha256)
        if cached is not None:
            return cached
        matrix = _attached_array(self.ref)
        source = RecordedTraceSource(
            utilization=matrix,
            steps_per_slot=self.steps_per_slot,
            extend_days=self.extend_days,
            extension_sigma=self.extension_sigma,
            extend_seed=self.extend_seed,
        )
        pack = TracePack(
            name=self.name,
            source=source,
            version=self.version,
            datacorr=self.datacorr,
            app_mix=self.app_mix,
        )
        # The segment holds a byte-exact copy of the matrix the parent
        # hashed; seed the cached_property so workers skip re-hashing
        # hundreds of megabytes per process.
        pack.__dict__["sha256"] = self.sha256
        _RESTORED[self.sha256] = pack
        return pack


@dataclass
class SharedWorkloadPublisher:
    """Parent-side registry of shared segments for the current sweep.

    ``publish_pack`` is idempotent per pack content (keyed by sha256).
    The publisher owns every segment it creates; callers must invoke
    :meth:`close` (the orchestrator ties this to its own ``close()``)
    to unlink them, though an ``atexit`` hook covers abrupt exits.
    """

    min_bytes: int = MIN_SHARED_BYTES
    _segments: dict[str, shared_memory.SharedMemory] = field(
        default_factory=dict
    )
    _stubs: dict[str, SharedPackStub] = field(default_factory=dict)
    _closed: bool = False

    def __post_init__(self) -> None:
        atexit.register(self.close)

    def publish_pack(self, pack: object) -> SharedPackStub | None:
        """A stub for ``pack``, or ``None`` when sharing does not pay.

        ``None`` means: fall back to pickling the full pack.  Raised
        OS errors (e.g. an exhausted ``/dev/shm``) are swallowed into
        the same fallback -- sharing is an optimization, never a
        requirement.
        """
        if self._closed or not isinstance(pack, TracePack):
            return None
        if not isinstance(pack.source, RecordedTraceSource):
            return None
        matrix = pack.source.utilization
        if matrix.nbytes < self.min_bytes:
            return None
        stub = self._stubs.get(pack.sha256)
        if stub is not None:
            return stub
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=matrix.nbytes
            )
            staged = np.ndarray(
                matrix.shape, dtype=matrix.dtype, buffer=segment.buf
            )
            staged[:] = matrix
        except OSError:
            return None
        self._segments[pack.sha256] = segment
        _OWNED_SEGMENTS.add(segment.name)
        stub = SharedPackStub(
            name=pack.name,
            version=pack.version,
            datacorr=pack.datacorr,
            app_mix=pack.app_mix,
            sha256=pack.sha256,
            ref=SharedArrayRef(
                name=segment.name,
                shape=tuple(matrix.shape),
                dtype=matrix.dtype.str,
            ),
            steps_per_slot=pack.source.steps_per_slot,
            extend_days=pack.source.extend_days,
            extension_sigma=pack.source.extension_sigma,
            extend_seed=pack.source.extend_seed,
        )
        self._stubs[pack.sha256] = stub
        return stub

    def stats(self) -> dict:
        """Published segment count and total shared bytes."""
        return {
            "segments": len(self._segments),
            "bytes": sum(
                segment.size for segment in self._segments.values()
            ),
        }

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        self._closed = True
        for sha, segment in list(self._segments.items()):
            self._segments.pop(sha, None)
            _OWNED_SEGMENTS.discard(segment.name)
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        self._stubs.clear()
