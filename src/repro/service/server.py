"""The experiment daemon: a threaded stdlib-HTTP front-end.

``repro serve`` runs one :class:`ExperimentDaemon` around one
long-lived :class:`~repro.experiments.orchestrator.Orchestrator` (and
therefore one worker pool and one segment-capable result store); any
number of :class:`~repro.service.client.ServiceClient` processes share
it.  Endpoints:

``POST /runs/batch``
    Submit many encoded :class:`RunRequest` entries in one round
    trip.  The reply is one JSON line per entry, in entry order:
    artifact (store hit), pending (launched or already in flight) or
    error.  Misses enter the daemon's in-flight dedup table, so
    overlapping submissions of one fingerprint -- same client or
    different clients -- execute exactly once.
``POST /runs/poll``
    Settle many fingerprints in one call.  ``wait=0`` answers
    immediately with one buffered -- and compressible -- body;
    ``wait>0`` streams JSON lines in *completion* order, the wire
    mirror of
    :meth:`~repro.experiments.orchestrator.Orchestrator.as_resolved`.
    Runs still pending when ``wait`` expires stream a ``pending``
    line; the client re-polls.
``GET /runs/<fingerprint>[?wait=S&detail=D]``
    Poll one run.  ``wait`` long-polls up to S seconds (capped at
    :data:`MAX_WAIT_S`) for completion; replies ``200`` artifact,
    ``202`` pending, ``404`` unknown, or ``500`` with the run's error.
    ``detail`` selects the projection level.
``GET /healthz``
    Liveness and identity: ``status`` and ``daemon_id``.  Building the
    payload takes no lock.
``GET /stats``
    Load and counters (submitted/hits/computed/errors, in-flight and
    queue depth, the store's own counters, workload sharing, engine
    modes, per-campaign submissions, and the wire block: bytes in/out,
    gzip vs identity replies, batch sizes, request-latency p50/p99).
    ``hits`` counts runs served from the store: warm batch entries,
    and polls or lookups that find the run stored on their first
    look.

Every other path answers ``404``; on a POST that reply also closes the
connection, because the unread body would desync keep-alive framing.
Envelopes at any wire version but :data:`WIRE_VERSION` get ``400``.

Dedup and the warm fast path
----------------------------

Fingerprints are self-certifying SHA-256 content hashes, so the warm
path trusts the one declared in the envelope: if it already resolves
(response cache, store), the daemon replies without decoding the full
request -- a client that declares a wrong fingerprint only mis-serves
itself.  Misses take the strict path: the request is decoded, its
fingerprint recomputed and verified (``409`` on mismatch), and only
then does it reach the orchestrator: a store lookup
(:meth:`~repro.experiments.orchestrator.Orchestrator.lookup`), then
the daemon's own in-flight registry.  Once a batch is read, the
misses it claimed launch grouped by materialization key through
:meth:`~repro.experiments.orchestrator.Orchestrator.launch_many`, so
the runs of one workload advance in lockstep on one materialization.

The response cache stores fully *rendered* reply bodies of store hits
keyed by ``(fingerprint, detail, encoding)`` -- for gzip that means
pre-compressed bytes, so a warm hit is one cache lookup plus one
socket write with no per-request ``json.dumps`` or ``gzip.compress``
on the hot path.  A computed run's own reply is rendered uncached, so
later hits never replay its ``source: "computed"``.  Gzip variants are
complete gzip members whose decompressed form ends in a newline; batch
and buffered-poll replies are built by *concatenating* members (a
multi-member stream is valid gzip and ``gzip.decompress`` handles it),
so batching never has to re-compress cached artifacts.

Handlers run on per-connection daemon threads
(``ThreadingHTTPServer``); waits are capped at :data:`MAX_WAIT_S`,
idle keep-alive connections are closed after ``idle_timeout_s``, and
every write failure (client gone mid-poll) is swallowed, so an
abandoned connection occupies one thread for at most its ``wait`` and
never wedges the daemon or the worker that owns the run.  Request
bodies above ``max_body_bytes`` are refused with ``413`` *before*
being read (the connection closes: the unread body would desync
keep-alive framing); bodies without a ``Content-Length`` get ``411``.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
import zlib
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator
from urllib.parse import parse_qs, urlsplit

from repro.experiments.orchestrator import (
    Orchestrator,
    RunFuture,
    lockstep_groups,
)
from repro.service.protocol import (
    FingerprintMismatch,
    WIRE_VERSION,
    WireError,
    check_detail,
    decode_batch,
    decode_poll,
    decode_request,
    encode_artifact,
    encode_error,
    encode_health,
    encode_pending,
)

__all__ = [
    "DEFAULT_IDLE_TIMEOUT_S",
    "DEFAULT_MAX_BODY_BYTES",
    "ExperimentDaemon",
    "MAX_WAIT_S",
]

#: Hard cap on a single long-poll/stream wait (seconds).
MAX_WAIT_S = 60.0

#: Default cap on request-body size (encoded recorded-trace packs are
#: the big legitimate payload; 64 MiB leaves them ample headroom).
DEFAULT_MAX_BODY_BYTES = 64 << 20

#: Idle keep-alive connections are closed after this many seconds, so
#: a daemon serving weeks of bursty clients does not accumulate one
#: parked thread per client that ever connected.
DEFAULT_IDLE_TIMEOUT_S = 120.0

#: Rendered reply bodies kept for the warm fast path.  Keys are
#: ``(fingerprint, detail, encoding)`` -- a fingerprint hot in every
#: variant costs at most 4 slots (2 details x 2 encodings),
#: headline/gzip variants being tiny.
_RESPONSE_CACHE_SIZE = 4096

#: Failed-run messages retained for polls (bounded; a daemon lives
#: for weeks and failures must not accumulate without limit).
_ERROR_CACHE_SIZE = 1024

#: Compression level for cached artifact bodies: 6 is zlib's sweet
#: spot (±1% of level 9's ratio at a fraction of the CPU) and the
#: cost is paid once per cached variant, not per request.
_GZIP_LEVEL = 6

#: Request latencies retained for the /stats p50/p99 (a sliding
#: window, not a full history: the daemon is long-lived).
_LATENCY_WINDOW = 4096

#: Most-recent campaign ids kept in the per-campaign submission tally.
_CAMPAIGN_WINDOW = 256

#: Seconds between ``serve_forever``'s shutdown checks.  ``close()``
#: blocks until the serving loop notices, so the stdlib default of
#: 0.5 s would add up to half a second to every daemon teardown.
_SERVE_POLL_INTERVAL_S = 0.05


class ExperimentDaemon:
    """One orchestrator served over HTTP to many clients.

    Parameters
    ----------
    orchestrator:
        The shared execution backend (its ``jobs`` and store root are
        the daemon's capacity and persistence).
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    max_body_bytes:
        Request bodies larger than this are refused with ``413``
        before being read (also the cap on a gzip body's *decompressed*
        size, so a compression bomb cannot balloon in memory).
    idle_timeout_s:
        Keep-alive connections idle this long are closed server-side;
        ``None`` disables the idle reaper (connections park forever).
    daemon_id:
        Stable identity of this daemon (default ``host:port`` of the
        bound address).  Echoed in ``/healthz`` and ``/stats`` and
        stamped into every artifact this daemon records (the store
        document's ``meta.daemon``); a daemon restarted on the same
        store under the same id writes the same document bytes.
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        idle_timeout_s: float | None = DEFAULT_IDLE_TIMEOUT_S,
        daemon_id: str | None = None,
    ) -> None:
        self.orchestrator = orchestrator
        self.max_body_bytes = int(max_body_bytes)
        self.idle_timeout_s = idle_timeout_s
        self._futures: dict[str, RunFuture] = {}
        self._errors: OrderedDict[str, str] = OrderedDict()
        self._responses: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._started = time.time()
        self.counters = {
            "requests": 0,
            "submitted": 0,
            "hits": 0,
            "computed": 0,
            "errors": 0,
        }
        #: Decoded submissions per engine kind ("slot"/"event").
        #: Counted on the decode path only -- warm fast-path hits answer
        #: from the response cache without decoding, so these are
        #: "requests whose engine mode this daemon actually saw".
        self.engine_modes: dict[str, int] = {}
        #: Submissions per campaign, from the ``X-Repro-Campaign``
        #: header the suite driver sends.  Purely observational --
        #: routing, dedup and the store ignore campaigns entirely.
        self.campaigns: dict[str, int] = {}
        self.wire_counters = {
            "bytes_in": 0,
            "bytes_out": 0,
            "responses_gzip": 0,
            "responses_identity": 0,
            "batch_requests": 0,
            "batch_entries": 0,
        }
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        handler = _build_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        bound_host, bound_port = self.address
        self.daemon_id = daemon_id or f"{bound_host}:{bound_port}"
        # Provenance: every artifact this daemon records carries the
        # daemon that executed it.  setdefault so an orchestrator built
        # with explicit provenance meta keeps it.
        self.orchestrator.meta.setdefault("daemon", self.daemon_id)
        self._thread: threading.Thread | None = None
        self._serial: ThreadPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should connect to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentDaemon":
        """Serve in a background thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="repro-service",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close`/interrupt."""
        self._server.serve_forever(poll_interval=_SERVE_POLL_INTERVAL_S)

    def _serial_runner(self) -> ThreadPoolExecutor:
        """Capacity-1 executor for a serial orchestrator's launches."""
        if self._serial is None:
            self._serial = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serial-run"
            )
        return self._serial

    def close(self) -> None:
        """Stop serving and shut the orchestrator's pool down."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._serial is not None:
            self._serial.shutdown(wait=True)
            self._serial = None
        self.orchestrator.close()

    def __enter__(self) -> "ExperimentDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bookkeeping -------------------------------------------------------

    def _count(self, key: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[key] += delta

    def _count_wire(self, key: str, delta: int = 1) -> None:
        with self._lock:
            self.wire_counters[key] += delta

    def _record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(seconds)

    def _count_campaign(self, campaign: str | None, delta: int = 1) -> None:
        """Tally submissions a suite driver labeled with a campaign id.

        Bounded defensively: a daemon serving many one-off campaigns
        keeps the newest :data:`_CAMPAIGN_WINDOW` ids rather than
        growing without limit.
        """
        if not campaign:
            return
        with self._lock:
            self.campaigns[campaign] = (
                self.campaigns.get(campaign, 0) + delta
            )
            while len(self.campaigns) > _CAMPAIGN_WINDOW:
                self.campaigns.pop(next(iter(self.campaigns)))

    def _record_sent(self, nbytes: int, encoding: str) -> None:
        with self._lock:
            self.wire_counters["bytes_out"] += nbytes
            key = (
                "responses_gzip" if encoding == "gzip"
                else "responses_identity"
            )
            self.wire_counters[key] += 1

    def _cache_response(self, key: tuple, payload: bytes) -> None:
        with self._lock:
            self._responses[key] = payload
            self._responses.move_to_end(key)
            while len(self._responses) > _RESPONSE_CACHE_SIZE:
                self._responses.popitem(last=False)

    def _cached_response(self, key: tuple) -> bytes | None:
        with self._lock:
            payload = self._responses.get(key)
            if payload is not None:
                self._responses.move_to_end(key)
            return payload

    def _artifact_bytes(
        self,
        future: RunFuture,
        detail: str = "full",
        encoding: str = "identity",
    ) -> bytes:
        """One rendered reply body for a done future, cached per variant.

        Identity variants are the bare JSON object; gzip variants are
        one complete gzip member whose decompressed form is the JSON
        object plus a trailing newline, so batch replies concatenate
        cached members verbatim (see the module docstring).

        Only store hits are cached.  A computed run's reply carries
        ``source: "computed"`` and its run time; replaying it for later
        hits would report every warm resolution as an execution.
        """
        key = (future.fingerprint, detail, encoding)
        cached = self._cached_response(key)
        if cached is not None:
            return cached
        artifact = future.result(timeout=0)
        if encoding == "gzip":
            # Derive from the identity variant so both encodings carry
            # the same envelope byte for byte (the artifact's volatile
            # metadata -- elapsed_s, source -- would otherwise differ
            # between a re-resolve and the first render).
            identity = self._artifact_bytes(future, detail)
            body = gzip.compress(
                identity + b"\n", compresslevel=_GZIP_LEVEL, mtime=0
            )
        else:
            body = _dumps(encode_artifact(artifact, detail=detail))
        if artifact.from_cache:
            self._cache_response(key, body)
        return body

    def _finish(self, fingerprint: str, base: Future) -> None:
        """Done callback of every miss: counters, errors, registry."""
        error = base.exception()
        if error is not None:
            with self._lock:
                self._errors[fingerprint] = (
                    f"{type(error).__name__}: {error}"
                )
                self._errors.move_to_end(fingerprint)
                while len(self._errors) > _ERROR_CACHE_SIZE:
                    self._errors.popitem(last=False)
            self._count("errors")
        else:
            self._count("computed")
            with self._lock:
                # A successful recompute supersedes any stale failure.
                self._errors.pop(fingerprint, None)
        with self._lock:
            self._futures.pop(fingerprint, None)

    # -- request handling (HTTP-free; the handler is a thin shim) ----------

    def _submit_entry(
        self,
        payload: dict,
        claimed: list[RunFuture],
        detail: str = "full",
        encoding: str = "identity",
        campaign: str | None = None,
    ) -> tuple[int, bytes, str]:
        """One ``POST /runs/batch`` entry: ``(status, body, encoding)``.

        ``detail`` is the batch-level projection.  ``encoding`` is
        what the rendered artifact body should use -- error and
        pending replies are always identity (they are tiny, and
        per-line gzip wrapping is the batch assembler's job).
        ``campaign`` is the submitter's ``X-Repro-Campaign`` label,
        tallied into the ``/stats`` campaigns block.  A miss this
        entry claims is appended to ``claimed`` for the batch to
        launch.
        """
        self._count("submitted")
        self._count_campaign(campaign)
        if not isinstance(payload, dict):
            return 400, _dumps(
                encode_error("expected a JSON object body", status=400)
            ), "identity"
        if (
            payload.get("wire_version") != WIRE_VERSION
            or payload.get("kind") != "run_request"
        ):
            # Checked before the warm fast path too: a mismatched peer
            # must be refused deterministically, not served whenever
            # its fingerprint happens to be cached.
            return 400, _dumps(
                encode_error(
                    "expected a run_request payload at wire version "
                    f"{WIRE_VERSION}",
                    status=400,
                )
            ), "identity"
        declared = payload.get("fingerprint")
        use_store = bool(payload.get("use_store", True))
        if use_store and isinstance(declared, str):
            cached = self._cached_response((declared, detail, encoding))
            if cached is not None:
                self._count("hits")
                return 200, cached, encoding
        try:
            request, fingerprint, use_store = decode_request(payload)
        except FingerprintMismatch as error:
            return 409, _dumps(
                encode_error(str(error), status=409)
            ), "identity"
        except WireError as error:
            return 400, _dumps(
                encode_error(str(error), status=400)
            ), "identity"
        engine = getattr(request.options, "engine", None)
        kind = getattr(engine, "kind", "slot")
        with self._lock:
            self.engine_modes[kind] = self.engine_modes.get(kind, 0) + 1
        if use_store:
            hit = self.orchestrator.lookup(request, fingerprint)
            if hit is not None:
                self._count("hits")
                return 200, self._artifact_bytes(
                    hit, detail, encoding
                ), encoding
        # Miss: claim the fingerprint in the daemon registry *before*
        # launching, so overlapping submissions -- same client or a
        # different one, pooled or serial -- park on one run.  (The
        # orchestrator pool dedups too, but only for jobs > 1; the
        # registry also backs polls and error reporting.)  Misses
        # answer 202 unconditionally -- even a launch that fails
        # immediately reports through the poll endpoints, keeping the
        # wire contract deterministic (200 = store hit, 202 =
        # accepted).
        with self._lock:
            if fingerprint not in self._futures:
                claim = RunFuture(request, fingerprint, Future())
                self._futures[fingerprint] = claim
                claim._future.add_done_callback(
                    lambda base, fp=fingerprint: self._finish(fp, base)
                )
                claimed.append(claim)
        return 202, _dumps(encode_pending(fingerprint)), "identity"

    def _launch(self, claimed: list[RunFuture]) -> None:
        """Launch a batch's claimed misses as lockstep groups.

        A serial orchestrator executes launches inline; running that
        on the handler thread would stall the POST for the whole
        simulation (longer than any client timeout), so each group
        runs on a capacity-1 runner thread, in turn.  A pooled
        orchestrator gets the whole batch at once and spreads its
        groups over the workers.  Every claim resolves -- a launch
        that raises (e.g. a broken or closed pool, a runner that is
        shut down) fails each claim it did not hand on, or those
        fingerprints would answer 202 forever.
        """

        def launch(claims: list[RunFuture]) -> None:
            try:
                launched = self.orchestrator.launch_many(
                    [(claim.request, claim.fingerprint) for claim in claims]
                )
            except Exception as error:
                for claim in claims:
                    claim._future.set_exception(error)
                return
            for claim, future in zip(claims, launched):
                _chain(future._future, claim._future)

        serial = self.orchestrator.jobs == 1
        groups = lockstep_groups(claimed) if serial else [claimed]
        for index, group in enumerate(groups):
            try:
                if serial:
                    self._serial_runner().submit(launch, group)
                elif group:
                    launch(group)
            except Exception as error:
                for unlaunched in groups[index:]:
                    for claim in unlaunched:
                        claim._future.set_exception(error)
                return

    def handle_batch(
        self,
        payload: dict,
        encoding: str = "identity",
        campaign: str | None = None,
    ) -> tuple[int, bytes, str]:
        """``POST /runs/batch``: one disposition line per entry.

        Every miss is claimed in the daemon registry as its entry is
        read; once the whole batch is read, the misses launch grouped
        by materialization key (:meth:`_launch`).  The claims launch
        even when reading a later entry raises (an unreadable store
        document, say), so none is left unresolved.  Gzip bodies are
        assembled by concatenating members: cached artifact variants
        verbatim, tiny pending/error lines wrapped on the fly.  A
        malformed entry poisons only its own line.
        """
        self._count_wire("batch_requests")
        try:
            entries, detail = decode_batch(payload)
        except WireError as error:
            return 400, _dumps(encode_error(str(error), status=400)), (
                "identity"
            )
        self._count_wire("batch_entries", len(entries))
        parts = []
        claimed: list[RunFuture] = []
        try:
            for entry in entries:
                _, body, used = self._submit_entry(
                    entry, claimed, detail=detail, encoding=encoding,
                    campaign=campaign,
                )
                parts.append(_as_member(body, used, encoding))
        finally:
            self._launch(claimed)
        return 200, b"".join(parts), encoding

    def handle_poll_batch(
        self,
        fingerprints: list[str],
        detail: str = "full",
        encoding: str = "identity",
    ) -> tuple[int, bytes, str]:
        """``POST /runs/poll`` with ``wait=0``: one buffered body.

        One line per distinct fingerprint: artifact, pending, or error
        (404 unknown / 500 failed), assembled like a batch reply so
        warm artifacts reuse their pre-compressed cache entries.
        """
        parts = []
        for fingerprint in dict.fromkeys(fingerprints):
            _, body, used = self.handle_poll(
                fingerprint, 0.0, detail=detail, encoding=encoding
            )
            parts.append(_as_member(body, used, encoding))
        return 200, b"".join(parts), encoding

    def _lookup(
        self, fingerprint: str, first: bool = False
    ) -> RunFuture | None:
        """A future for a fingerprint: in-flight, else store-resolved.

        ``first`` marks a request's first look: a store hit found then
        counts under ``/stats`` ``hits``.  The daemon's own in-flight
        runs are never hits; they count under ``computed``.
        """
        with self._lock:
            future = self._futures.get(fingerprint)
        if future is not None:
            return future
        hit = self.orchestrator.lookup(None, fingerprint)
        if hit is not None and first:
            self._count("hits")
        return hit

    def _missing(self, fingerprint: str) -> tuple[int, bytes, str]:
        """The reply for a fingerprint neither in flight nor stored.

        A run that failed earlier reports its recorded error (``500``);
        anything else is unknown (``404``).
        """
        with self._lock:
            message = self._errors.get(fingerprint)
        if message is not None:
            return 500, _dumps(
                encode_error(message, fingerprint=fingerprint, status=500)
            ), "identity"
        return 404, _dumps(
            encode_error(
                "unknown fingerprint (not stored, not in flight)",
                fingerprint=fingerprint,
                status=404,
            )
        ), "identity"

    def _settled(
        self, future: RunFuture, detail: str, encoding: str = "identity"
    ) -> tuple[int, bytes, str]:
        """The reply for a done future: its artifact, else its error."""
        if future.exception(timeout=0) is None:
            return 200, self._artifact_bytes(
                future, detail, encoding
            ), encoding
        return 500, _dumps(
            encode_error(
                self._error_message(future),
                fingerprint=future.fingerprint,
                status=500,
            )
        ), "identity"

    def handle_poll(
        self,
        fingerprint: str,
        wait_s: float,
        detail: str = "full",
        encoding: str = "identity",
    ) -> tuple[int, bytes, str]:
        """``GET /runs/<fingerprint>``: ``(status, body, encoding)``.

        Also answers each line of a no-wait ``POST /runs/poll``.
        """
        deadline = time.monotonic() + min(max(wait_s, 0.0), MAX_WAIT_S)
        future = self._lookup(fingerprint, first=True)
        while future is not None and not future.done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return 202, _dumps(encode_pending(fingerprint)), "identity"
            try:
                # Chunked: each wake re-reads the registry and the
                # store below.
                future.result(timeout=min(remaining, 0.25))
            except Exception:
                pass  # still running, or failed (reported below)
            # Look again: a finished run is read back from the store.
            future = self._lookup(fingerprint)
        if future is None:
            return self._missing(fingerprint)
        return self._settled(future, detail, encoding)

    def handle_stream(
        self, fingerprints: list[str], wait_s: float, detail: str = "full"
    ) -> Iterator[bytes]:
        """``POST /runs/poll`` with ``wait>0``: lines in completion order.

        Always identity-encoded: lines go out as runs complete, and
        close-delimited incremental gzip would force clients into
        streaming decompression for no warm-path gain (streamed lines
        are the *cold* path; warm settlement uses the buffered poll).
        """
        deadline = time.monotonic() + min(max(wait_s, 0.0), MAX_WAIT_S)
        pending: dict[Future, RunFuture] = {}
        for fingerprint in dict.fromkeys(fingerprints):
            future = self._lookup(fingerprint, first=True)
            if future is None:
                yield self._missing(fingerprint)[1] + b"\n"
            elif future.done():
                yield self._settled(future, detail)[1] + b"\n"
            else:
                pending[future._future] = future
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for future in pending.values():
                    yield _dumps(encode_pending(future.fingerprint)) + b"\n"
                return
            done_now, _ = wait(
                pending,
                timeout=min(remaining, 0.25),
                return_when=FIRST_COMPLETED,
            )
            for base in done_now:
                yield self._settled(pending.pop(base), detail)[1] + b"\n"

    def _error_message(self, future: RunFuture) -> str:
        """A failed future's message, straight from its exception.

        Waiters can observe a future failed *before* its done
        callback records the message in ``_errors``, so the future
        itself is the authoritative source and the registry only a
        fallback (for runs whose future is long gone).
        """
        error = future.exception(timeout=0)
        if error is not None:
            return f"{type(error).__name__}: {error}"
        with self._lock:
            return self._errors.get(future.fingerprint, "run failed")

    def _load(self) -> tuple[int, int]:
        """Current ``(inflight, queue_depth)``.

        ``inflight`` counts runs executing or queued daemon-side (the
        registry and the orchestrator's dedup table can each lead
        during handoff, so take the max); ``queue_depth`` is the part
        that cannot start until an executor slot frees.
        """
        with self._lock:
            inflight = len(self._futures)
        inflight = max(inflight, self.orchestrator.inflight_count())
        return inflight, max(0, inflight - max(self.orchestrator.jobs, 1))

    def health(self) -> dict:
        """The ``GET /healthz`` payload: liveness and identity, no lock."""
        return encode_health(self.daemon_id)

    def stats(self) -> dict:
        """The ``/stats`` payload."""
        with self._lock:
            counters = dict(self.counters)
            wire = dict(self.wire_counters)
            engine_modes = dict(self.engine_modes)
            campaigns = dict(self.campaigns)
            latencies = sorted(self._latencies)
        wire["request_p50_ms"] = _percentile_ms(latencies, 50.0)
        wire["request_p99_ms"] = _percentile_ms(latencies, 99.0)
        inflight, queue_depth = self._load()
        return {
            "wire_version": WIRE_VERSION,
            "kind": "stats",
            "daemon_id": self.daemon_id,
            "uptime_s": time.time() - self._started,
            "jobs": self.orchestrator.jobs,
            "inflight": inflight,
            "queue_depth": queue_depth,
            "store": self.orchestrator.store.stats(),
            "wire": wire,
            "workload_cache": self.orchestrator.workload_cache_stats(),
            "engine_modes": engine_modes,
            "campaigns": campaigns,
            **counters,
        }


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _percentile_ms(sorted_latencies: list[float], percentile: float) -> float:
    """Nearest-rank percentile of a sorted seconds list, in ms."""
    if not sorted_latencies:
        return 0.0
    rank = min(
        len(sorted_latencies) - 1,
        int(percentile / 100.0 * len(sorted_latencies)),
    )
    return sorted_latencies[rank] * 1000.0


def _as_member(body: bytes, used: str, encoding: str) -> bytes:
    """One reply line for a batch body in the negotiated encoding.

    Identity bodies (no trailing newline) get one appended; under gzip
    a pre-compressed body passes through verbatim (its member already
    ends in a newline) and identity lines are wrapped into members.
    """
    if encoding != "gzip":
        return body + b"\n"
    if used == "gzip":
        return body
    return gzip.compress(body + b"\n", compresslevel=_GZIP_LEVEL, mtime=0)


def _gunzip_capped(data: bytes, cap: int) -> bytes | None:
    """Decompress one gzip member, refusing to exceed ``cap`` bytes.

    Returns None when the decompressed size would exceed the cap (the
    compression-bomb guard); raises ``WireError`` on corrupt input.
    """
    decompressor = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        payload = decompressor.decompress(data, cap + 1)
    except zlib.error as error:
        raise WireError(f"undecodable gzip body: {error}") from None
    if len(payload) > cap:
        return None
    return payload


def _chain(source: Future, target: Future) -> None:
    """Propagate ``source``'s outcome into ``target`` when it lands."""

    def _copy(done: Future) -> None:
        error = done.exception()
        if error is not None:
            target.set_exception(error)
        else:
            target.set_result(done.result())

    source.add_done_callback(_copy)


def _build_handler(daemon: ExperimentDaemon) -> type:
    """The request-handler class bound to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        """Routes HTTP requests onto the daemon's handle_* methods."""

        protocol_version = "HTTP/1.1"
        server_version = "repro-service"
        # Responses go out as two sends (headers, body); with Nagle on,
        # the second waits out the peer's delayed ACK (~40 ms per
        # exchange), capping keep-alive throughput at ~25 req/s.
        disable_nagle_algorithm = True
        # BaseHTTPRequestHandler applies this as the socket timeout: a
        # keep-alive connection idle past it raises in the request-line
        # read and the handler loop closes it.
        timeout = daemon.idle_timeout_s

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # endpoint traffic is metered via /stats, not stderr

        # -- plumbing ------------------------------------------------------

        def _wants_gzip(self) -> bool:
            accept = self.headers.get("Accept-Encoding", "")
            return "gzip" in accept.lower()

        def _reply(
            self,
            status: int,
            body: bytes,
            encoding: str = "identity",
            close: bool = False,
        ) -> None:
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                if encoding == "gzip":
                    self.send_header("Content-Encoding", "gzip")
                if close:
                    self.send_header("Connection", "close")
                    self.close_connection = True
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                daemon._record_sent(len(body), encoding)
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                self.close_connection = True

        def _reply_stream(self, lines) -> None:
            sent = 0
            try:
                self.send_response(200)
                self.send_header("Content-Type", "application/jsonl")
                self.send_header("Connection", "close")
                self.end_headers()
                for line in lines:
                    self.wfile.write(line)
                    self.wfile.flush()
                    sent += len(line)
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                pass
            daemon._record_sent(sent, "identity")
            self.close_connection = True

        def _read_body(self) -> dict | None:
            """The POST body as parsed JSON; None = already replied.

            Enforces the size cap *before* reading (413 closes the
            connection: the unread body would desync keep-alive
            framing) and transparently inflates gzip request bodies,
            capping their decompressed size too.
            """
            length_header = self.headers.get("Content-Length")
            if length_header is None:
                self._reply(
                    411,
                    _dumps(
                        encode_error(
                            "Content-Length required", status=411
                        )
                    ),
                    close=True,
                )
                return None
            try:
                length = int(length_header)
            except ValueError:
                self._reply(
                    400,
                    _dumps(
                        encode_error("malformed Content-Length", status=400)
                    ),
                    close=True,
                )
                return None
            if length > daemon.max_body_bytes:
                self._reply(
                    413,
                    _dumps(
                        encode_error(
                            f"request body of {length} bytes exceeds "
                            f"the {daemon.max_body_bytes}-byte cap",
                            status=413,
                        )
                    ),
                    close=True,
                )
                return None
            raw = self.rfile.read(length)
            daemon._count_wire("bytes_in", len(raw))
            if self.headers.get("Content-Encoding", "").lower() == "gzip":
                try:
                    inflated = _gunzip_capped(raw, daemon.max_body_bytes)
                except WireError as error:
                    self._reply(
                        400, _dumps(encode_error(str(error), status=400))
                    )
                    return None
                if inflated is None:
                    self._reply(
                        413,
                        _dumps(
                            encode_error(
                                "request body inflates past the "
                                f"{daemon.max_body_bytes}-byte cap",
                                status=413,
                            )
                        ),
                        close=True,
                    )
                    return None
                raw = inflated
            try:
                return json.loads(raw)
            except (ValueError, json.JSONDecodeError):
                self._reply(
                    400,
                    _dumps(encode_error("malformed JSON body", status=400)),
                )
                return None

        # -- routes --------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            self._route(self._handle_get)

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            self._route(self._handle_post)

        def _route(self, handle) -> None:
            daemon._count("requests")
            started = time.perf_counter()
            try:
                handle()
            finally:
                daemon._record_latency(time.perf_counter() - started)

        def _handle_get(self) -> None:
            parts = urlsplit(self.path)
            path = parts.path.rstrip("/")
            if path == "/healthz":
                self._reply(200, _dumps(daemon.health()))
                return
            if path == "/stats":
                self._reply(200, _dumps(daemon.stats()))
                return
            if not path.startswith("/runs/"):
                self._reply(
                    404, _dumps(encode_error("no such endpoint", status=404))
                )
                return
            query = parse_qs(parts.query)
            try:
                detail = check_detail(query.get("detail", [None])[0])
            except WireError as error:
                self._reply(400, _dumps(encode_error(str(error), status=400)))
                return
            encoding = "gzip" if self._wants_gzip() else "identity"
            status, body, used = daemon.handle_poll(
                path[len("/runs/") :],
                _float_param(query, "wait", 0.0),
                detail,
                encoding,
            )
            self._reply(status, body, encoding=used)

        def _handle_post(self) -> None:
            path = urlsplit(self.path).path.rstrip("/")
            if path not in ("/runs/batch", "/runs/poll"):
                # Close: the unread body would desync keep-alive framing.
                self._reply(
                    404,
                    _dumps(encode_error("no such endpoint", status=404)),
                    close=True,
                )
                return
            payload = self._read_body()
            if payload is None:
                return
            encoding = "gzip" if self._wants_gzip() else "identity"
            if path == "/runs/batch":
                status, body, used = daemon.handle_batch(
                    payload,
                    encoding,
                    campaign=self.headers.get("X-Repro-Campaign"),
                )
                self._reply(status, body, encoding=used)
                return
            try:
                fingerprints, wait_s, detail = decode_poll(payload)
            except WireError as error:
                self._reply(400, _dumps(encode_error(str(error), status=400)))
                return
            if wait_s > 0:
                # Streamed settlement in completion order; identity by
                # design (see handle_stream).
                self._reply_stream(
                    daemon.handle_stream(fingerprints, wait_s, detail)
                )
                return
            status, body, used = daemon.handle_poll_batch(
                fingerprints, detail, encoding
            )
            self._reply(status, body, encoding=used)

    return Handler


def _float_param(query: dict, name: str, default: float) -> float:
    try:
        return float(query.get(name, [default])[0])
    except (TypeError, ValueError):
        return default
