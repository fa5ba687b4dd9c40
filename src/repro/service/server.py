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
    Settle many fingerprints in one call; the daemon's only read
    route.  One line per distinct fingerprint: unknown, failed and
    settled runs first, then in-flight runs in completion order as
    they land, then ``pending`` for each still running when ``wait``
    (capped at :data:`MAX_WAIT_S`) expires; the client re-polls.
    ``wait=0`` answers with one buffered body; ``wait>0`` streams the
    lines, the wire mirror of
    :meth:`~repro.experiments.orchestrator.ConsumerSurface.as_done`.
``GET /healthz``
    Liveness and identity: ``status`` and ``daemon_id``.  Building the
    payload takes no lock.
``GET /stats``
    Load and counters (submitted/hits/computed/errors, in-flight and
    queue depth, the store's own counters, workload sharing, and the
    wire block: bytes in/out, batch sizes, request-latency p50/p99).
    ``hits`` counts runs served from the store: warm batch entries and
    poll lines that find the run stored.  A run this daemon computed
    counts under ``computed`` only: its claim stays registered until a
    poll delivers it, so it settles as computed whenever that poll
    comes -- unless :data:`_UNDELIVERED_CLAIMS` newer runs land
    undelivered first; the poll then reads it from the store as a
    hit.

Every other path answers ``404``; on a POST that reply also closes the
connection, because the unread body would desync keep-alive framing.
Envelopes at any wire version but :data:`WIRE_VERSION` get ``400``.

Dedup and the warm fast path
----------------------------

Fingerprints are self-certifying SHA-256 content hashes, so the warm
path trusts the one declared in the envelope: if its reply line is in
the response cache, the daemon replies without decoding the full
request -- a client that declares a wrong fingerprint only mis-serves
itself.  Other entries take the strict path: the request is decoded,
its fingerprint recomputed and verified (``409`` on mismatch), and
only then does it reach the store
(:meth:`~repro.experiments.orchestrator.Orchestrator.lookup`), then
the daemon's own in-flight registry.  A poll line asks the registry
first, then the response cache, then the store: the cache answers
warm lines however many results the store keeps in memory.  Once a
batch is read, the misses it claimed launch grouped by
materialization key through
:meth:`~repro.experiments.orchestrator.Orchestrator.launch_many`, so
the runs of one workload advance in lockstep on one materialization.

The response cache stores fully *rendered* reply lines of store hits
keyed by ``(fingerprint, detail)``, so a warm hit is one cache lookup
with no per-request ``json.dumps`` on the hot path.  A computed run's
own line is rendered uncached and never served from the cache, so
later hits never replay its ``source: "computed"`` and it never reads
as a hit.  Batch and buffered-poll replies go out line by line through
the handler's buffered socket writer, never joined into one body.

Bodies travel in HTTP's identity coding only: on loopback, where the
daemon's clients are measured, compressing a line costs more time
than sending it.  ``Accept-Encoding`` is ignored (identity is always
acceptable), and a request body under any other ``Content-Encoding``
is refused with ``415`` before being read.

Handlers run on per-connection daemon threads
(``ThreadingHTTPServer``); waits are capped at :data:`MAX_WAIT_S`,
idle keep-alive connections are closed after ``idle_timeout_s``, and
every write failure (client gone mid-poll) is swallowed, so an
abandoned connection occupies one thread for at most its ``wait`` and
never wedges the daemon or the worker that owns the run.  Request
bodies above ``max_body_bytes`` are refused with ``413`` *before*
being read (the connection closes: the unread body would desync
keep-alive framing, as it does on the ``415`` path); bodies without a
``Content-Length`` get ``411``.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator
from urllib.parse import urlsplit

from repro.experiments.orchestrator import (
    Orchestrator,
    RunFuture,
    lockstep_groups,
)
from repro.service.protocol import (
    FingerprintMismatch,
    WIRE_VERSION,
    WireError,
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

#: Rendered reply lines kept for the warm fast path.  Keys are
#: ``(fingerprint, detail)`` -- a fingerprint hot at both details
#: costs 2 slots, the headline one being tiny.
_RESPONSE_CACHE_SIZE = 4096

#: Failed-run messages retained for polls (bounded; a daemon lives
#: for weeks and failures must not accumulate without limit).
_ERROR_CACHE_SIZE = 1024

#: Landed claims kept for the polls that have not delivered them yet,
#: as many as the store keeps results in memory.  Each holds its
#: result, so past the bound the oldest is dropped: a poll for it then
#: reads the run from the store, as a hit.
_UNDELIVERED_CLAIMS = 1024

#: Request latencies retained for the /stats p50/p99 (a sliding
#: window, not a full history: the daemon is long-lived).
_LATENCY_WINDOW = 4096

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
        before being read.
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
        #: The landed, undelivered claims of ``_futures``, oldest first.
        self._undelivered: OrderedDict[str, RunFuture] = OrderedDict()
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
        self.wire_counters = {
            "bytes_in": 0,
            "bytes_out": 0,
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

    def _warm_line(self, fingerprint: str, detail: str) -> bytes | None:
        """A stored run's reply line, counted as a hit, else None.

        The response cache answers first, then the store, whose line
        joins the cache.  A poll line asks once the fingerprint has no
        claim; a batch entry asks once decoded, behind its no-decode
        fast path through the cache alone.  Only store hits read or
        fill the cache (a claim's line is :meth:`_settled`'s).
        """
        key = (fingerprint, detail)
        line = self._cached_response(key)
        if line is None:
            hit = self.orchestrator.lookup(None, fingerprint)
            if hit is None:
                return None
            line = _line(encode_artifact(hit.result(), detail=detail))
            self._cache_response(key, line)
        self._count("hits")
        return line

    def _finish(self, claim: RunFuture) -> None:
        """Done callback of every claim: counters and errors.

        A succeeded claim stays registered until a poll delivers it
        (:meth:`_settled`), so the run reads as computed however late
        that poll comes, unless :data:`_UNDELIVERED_CLAIMS` newer
        claims land undelivered first and drop it; a failed one leaves
        its message for polls and leaves the registry.  Only finished
        claims are dropped: a newer one (a ``use_store=False``
        resubmission) may have replaced this one.
        """
        fingerprint = claim.fingerprint
        error = claim.exception(timeout=0)
        with self._lock:
            if error is None:
                self.counters["computed"] += 1
                # A successful recompute supersedes any stale failure.
                self._errors.pop(fingerprint, None)
                if self._futures.get(fingerprint) is claim:
                    self._undelivered[fingerprint] = claim
                while len(self._undelivered) > _UNDELIVERED_CLAIMS:
                    _, oldest = self._undelivered.popitem(last=False)
                    if self._futures.get(oldest.fingerprint) is oldest:
                        del self._futures[oldest.fingerprint]
                return
            self.counters["errors"] += 1
            self._errors[fingerprint] = f"{type(error).__name__}: {error}"
            self._errors.move_to_end(fingerprint)
            while len(self._errors) > _ERROR_CACHE_SIZE:
                self._errors.popitem(last=False)
            if self._futures.get(fingerprint) is claim:
                del self._futures[fingerprint]

    # -- request handling (HTTP-free; the handler is a thin shim) ----------

    def _submit_entry(
        self,
        payload: dict,
        claimed: list[RunFuture],
        detail: str = "full",
    ) -> bytes:
        """One ``POST /runs/batch`` entry's reply line.

        ``detail`` is the batch-level projection.  A miss this entry
        claims is appended to ``claimed`` for the batch to launch.
        """
        self._count("submitted")
        if not isinstance(payload, dict):
            return _line(
                encode_error("expected a JSON object body", status=400)
            )
        if (
            payload.get("wire_version") != WIRE_VERSION
            or payload.get("kind") != "run_request"
        ):
            # Checked before the warm fast path too: a mismatched peer
            # must be refused deterministically, not served whenever
            # its fingerprint happens to be cached.
            return _line(
                encode_error(
                    "expected a run_request payload at wire version "
                    f"{WIRE_VERSION}",
                    status=400,
                )
            )
        declared = payload.get("fingerprint")
        use_store = bool(payload.get("use_store", True))
        if use_store and isinstance(declared, str):
            cached = self._cached_response((declared, detail))
            if cached is not None:
                self._count("hits")
                return cached
        try:
            request, fingerprint, use_store = decode_request(payload)
        except FingerprintMismatch as error:
            return _line(encode_error(str(error), status=409))
        except WireError as error:
            return _line(encode_error(str(error), status=400))
        if use_store:
            line = self._warm_line(fingerprint, detail)
            if line is not None:
                return line
        # Miss: claim the fingerprint in the daemon registry *before*
        # launching, so overlapping submissions -- same client or a
        # different one, pooled or serial -- park on one run.  (The
        # orchestrator pool dedups too, but only for jobs > 1; the
        # registry also backs polls and error reporting.)  Misses
        # answer pending unconditionally -- even a launch that fails
        # immediately reports through the poll, keeping the wire
        # contract deterministic (artifact = store hit, pending =
        # accepted).  A finished claim is replaced: a stored result
        # answered above, so only a rerun (use_store=False) or a failed
        # run's retry gets here.
        with self._lock:
            existing = self._futures.get(fingerprint)
            if existing is None or existing.done():
                self._undelivered.pop(fingerprint, None)
                claim = RunFuture(request, fingerprint, Future())
                self._futures[fingerprint] = claim
                claim._future.add_done_callback(
                    lambda _, claim=claim: self._finish(claim)
                )
                claimed.append(claim)
        return _line(encode_pending(fingerprint))

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

    def handle_batch(self, payload: dict) -> tuple[int, list[bytes]]:
        """``POST /runs/batch``: ``(status, lines)``, one per entry.

        Every miss is claimed in the daemon registry as its entry is
        read; once the whole batch is read, the misses launch grouped
        by materialization key (:meth:`_launch`).  The claims launch
        even when reading a later entry raises (an unreadable store
        document, say), so none is left unresolved.  A malformed entry
        poisons only its own line.
        """
        self._count_wire("batch_requests")
        try:
            entries, detail = decode_batch(payload)
        except WireError as error:
            return 400, [_line(encode_error(str(error), status=400))]
        self._count_wire("batch_entries", len(entries))
        lines = []
        claimed: list[RunFuture] = []
        try:
            for entry in entries:
                lines.append(self._submit_entry(entry, claimed, detail))
        finally:
            self._launch(claimed)
        return 200, lines

    def _missing(self, fingerprint: str) -> dict:
        """The error for a fingerprint neither claimed nor stored.

        A run that failed earlier reports its recorded error (status
        500); anything else is unknown (404).
        """
        with self._lock:
            message = self._errors.get(fingerprint)
        if message is not None:
            return encode_error(message, fingerprint=fingerprint, status=500)
        return encode_error(
            "unknown fingerprint (not stored, not in flight)",
            fingerprint=fingerprint,
            status=404,
        )

    def _settled(self, claim: RunFuture, detail: str) -> bytes:
        """The line for a done claim: its artifact, else its error.

        Rendering a succeeded claim delivers it: the claim leaves the
        registry, and later polls read the run from the store.  Its
        line carries ``source: "computed"`` and its run time, so it is
        never cached: replaying it would report every later warm
        resolution as an execution.
        """
        error = claim.exception(timeout=0)
        if error is not None:
            return _line(
                encode_error(
                    f"{type(error).__name__}: {error}",
                    fingerprint=claim.fingerprint,
                    status=500,
                )
            )
        line = _line(encode_artifact(claim.result(timeout=0), detail=detail))
        with self._lock:
            if self._futures.get(claim.fingerprint) is claim:
                del self._futures[claim.fingerprint]
                self._undelivered.pop(claim.fingerprint, None)
        return line

    def handle_poll(
        self,
        fingerprints: list[str],
        wait_s: float = 0.0,
        detail: str = "full",
    ) -> Iterator[bytes]:
        """``POST /runs/poll``: one line per distinct fingerprint.

        Each fingerprint is looked up in the daemon's claims, then
        through :meth:`_warm_line`.  Unknown, failed and settled runs
        come first, in request order; in-flight runs follow in
        completion order as they land within ``wait_s`` (capped at
        :data:`MAX_WAIT_S`), and each still running at the deadline
        gets a pending line.
        """
        deadline = time.monotonic() + min(wait_s, MAX_WAIT_S)
        running: dict[Future, RunFuture] = {}
        for fingerprint in dict.fromkeys(fingerprints):
            with self._lock:
                claim = self._futures.get(fingerprint)
            if claim is None:
                line = self._warm_line(fingerprint, detail)
                yield line or _line(self._missing(fingerprint))
            elif claim.done():
                yield self._settled(claim, detail)
            else:
                running[claim._future] = claim
        while running:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            landed, _ = wait(
                running, timeout=remaining, return_when=FIRST_COMPLETED
            )
            for base in landed:
                yield self._settled(running.pop(base), detail)
        for future in running.values():
            yield _line(encode_pending(future.fingerprint))

    def _load(self) -> tuple[int, int]:
        """Current ``(inflight, queue_depth)``.

        ``inflight`` counts runs executing or queued daemon-side: the
        registry's unfinished claims (a landed claim waits there for
        its poll) or the orchestrator's dedup table, whichever leads
        during handoff; ``queue_depth`` is the part that cannot start
        until an executor slot frees.
        """
        with self._lock:
            inflight = sum(
                not claim.done() for claim in self._futures.values()
            )
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
            **counters,
        }


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _percentile_ms(sorted_latencies: list[float], percentile: float) -> float:
    """Nearest-rank percentile of a sorted seconds list, in ms.

    The smallest value with at least ``percentile`` % of the list at or
    below it: rank ``ceil(p * n / 100)``, counted from 1.
    """
    if not sorted_latencies:
        return 0.0
    rank = max(0, math.ceil(percentile * len(sorted_latencies) / 100.0) - 1)
    return sorted_latencies[rank] * 1000.0


def _line(payload: dict) -> bytes:
    """One JSON line of a batch or poll reply."""
    return _dumps(payload) + b"\n"


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
        # Headers and body lines collect in one 64 KiB socket buffer, so
        # a reply leaves in as few sends as it fills, with no joined
        # copy of its body; each reply ends with a flush.
        wbufsize = 64 << 10
        # A reply past the buffer, and each streamed line, still leaves
        # in several sends; with Nagle on, a send queued behind an
        # unacknowledged one waits out the peer's delayed ACK (~40 ms
        # per exchange).
        disable_nagle_algorithm = True
        # BaseHTTPRequestHandler applies this as the socket timeout: a
        # keep-alive connection idle past it raises in the request-line
        # read and the handler loop closes it.
        timeout = daemon.idle_timeout_s

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # endpoint traffic is metered via /stats, not stderr

        # -- plumbing ------------------------------------------------------

        def handle_expect_100(self) -> bool:
            # The interim reply must leave now, not with the final one:
            # the client holds its body back until it arrives.
            super().handle_expect_100()
            self.wfile.flush()
            return True

        def _abandon(self) -> None:
            """Drop a connection whose peer left mid-reply.

            The bytes still buffered for the peer go with it: the
            handler loop flushes ``wfile`` after every request, and
            that flush would retry the dead socket and raise.
            """
            self.close_connection = True
            try:
                self.wfile.close()  # its flush fails again; it still closes
            except OSError:
                pass
            self.wfile = io.BytesIO()

        def _reply(
            self, status: int, lines: list[bytes], close: bool = False
        ) -> None:
            """One reply whose body is ``lines``, written back to back."""
            length = sum(map(len, lines))
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                if close:
                    self.send_header("Connection", "close")
                    self.close_connection = True
                self.send_header("Content-Length", str(length))
                self.end_headers()
                for line in lines:
                    self.wfile.write(line)
                self.wfile.flush()
                daemon._count_wire("bytes_out", length)
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                self._abandon()

        def _refuse(
            self, status: int, message: str, close: bool = False
        ) -> None:
            self._reply(
                status, [_dumps(encode_error(message, status=status))], close
            )

        def _reply_stream(self, lines: Iterator[bytes]) -> None:
            """A close-delimited reply; each line leaves as it lands."""
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
                self._abandon()
            daemon._count_wire("bytes_out", sent)
            self.close_connection = True

        def _read_body(self) -> dict | None:
            """The POST body as parsed JSON; None = already replied.

            Refuses a coded body (``415``) and enforces the size cap
            (``413``) *before* reading; both close the connection, as
            the unread body would desync keep-alive framing.
            """
            coding = self.headers.get("Content-Encoding", "")
            if coding.strip().lower() not in ("", "identity"):
                self._refuse(
                    415,
                    f"Content-Encoding {coding!r} is not supported; "
                    "send an identity body",
                    close=True,
                )
                return None
            length_header = self.headers.get("Content-Length")
            if length_header is None:
                self._refuse(411, "Content-Length required", close=True)
                return None
            try:
                length = int(length_header)
            except ValueError:
                self._refuse(400, "malformed Content-Length", close=True)
                return None
            if length > daemon.max_body_bytes:
                self._refuse(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{daemon.max_body_bytes}-byte cap",
                    close=True,
                )
                return None
            raw = self.rfile.read(length)
            daemon._count_wire("bytes_in", len(raw))
            try:
                return json.loads(raw)
            except (ValueError, json.JSONDecodeError):
                self._refuse(400, "malformed JSON body")
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
            path = urlsplit(self.path).path.rstrip("/")
            if path == "/healthz":
                self._reply(200, [_dumps(daemon.health())])
            elif path == "/stats":
                self._reply(200, [_dumps(daemon.stats())])
            else:
                self._refuse(404, "no such endpoint")

        def _handle_post(self) -> None:
            path = urlsplit(self.path).path.rstrip("/")
            if path not in ("/runs/batch", "/runs/poll"):
                # Close: the unread body would desync keep-alive framing.
                self._refuse(404, "no such endpoint", close=True)
                return
            payload = self._read_body()
            if payload is None:
                return
            if path == "/runs/batch":
                self._reply(*daemon.handle_batch(payload))
                return
            try:
                fingerprints, wait_s, detail = decode_poll(payload)
            except WireError as error:
                self._refuse(400, str(error))
                return
            lines = daemon.handle_poll(fingerprints, wait_s, detail)
            if wait_s > 0:
                self._reply_stream(lines)  # lines leave as runs land
            else:
                self._reply(200, list(lines))

    return Handler
