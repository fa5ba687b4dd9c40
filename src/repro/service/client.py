"""Drop-in orchestrator client for a remote experiment daemon.

:class:`ServiceClient` implements the
:class:`~repro.experiments.orchestrator.Orchestrator` consumer surface
-- ``submit`` / ``submit_many`` / ``as_done`` / ``as_resolved`` /
``run`` / ``run_many`` / ``lookup`` -- against an
:class:`~repro.service.server.ExperimentDaemon` URL, so every analysis
that takes an ``orchestrator=`` parameter (``runner``, ``scenarios``,
``pareto``, ``sensitivity``, ``lower_bound``) runs remotely with zero
changes to its logic: the CLI's ``--service URL`` path is exactly
``orchestrator=ServiceClient(url)``.

Resolution model
----------------

Every read is one primitive, :meth:`ServiceClient._poll`: chunked
``POST /runs/poll`` calls, the daemon's only read route.
``submit_many`` settles work in two chunked phases -- a no-wait poll
by fingerprint (warm hits resolve without uploading encoded bodies at
all), then ``POST /runs/batch`` for the remainder -- so a 1k-run
sweep costs ~tens of HTTP round trips instead of ~1k; ``submit`` is a
one-request ``submit_many``.  Store hits resolve their futures
immediately; the rest stay pending and resolve two ways, whichever
happens first:

* :meth:`as_done` / :meth:`as_resolved` poll with ``wait>0`` and
  resolve futures as artifact lines stream in, in completion order;
* :meth:`RunFuture.result` on an individual pending future polls its
  one fingerprint the same way.

Both paths funnel through one idempotent resolver, so a stream and a
poll racing on the same future are benign.

The client speaks wire v2
(:data:`~repro.service.protocol.WIRE_VERSION`) only: batch and poll
envelopes and ``detail`` projections, in HTTP's identity coding.  A
call that names no ``detail`` gets ``full``.

``detail="headline"`` artifacts decode to
:class:`~repro.sim.results.HeadlineResult` projections that lazily
fetch the full ledger, with a one-fingerprint poll, only when a
consumer asks for something beyond the headline block.

Every failure to reach the daemon or to get a protocol answer from it
raises :class:`ServiceError` (the CLI maps it to a clean nonzero
exit); a run that *failed on the daemon* raises a
:class:`ServiceRunError` carrying the daemon-side message.  A request
that dies on a stale keep-alive socket (the daemon closes idle
connections server-side) is retried once on a fresh connection before
any error surfaces.

The HTTP plumbing lives in :class:`HttpTransport` -- per-thread
keep-alive connections, the stale-socket retry and line-by-line JSONL
parsing -- so the client itself holds only the orchestrator-surface
semantics (envelopes, futures).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Iterable, Iterator, Sequence
from urllib.parse import urlsplit

from repro.experiments.orchestrator import (
    RunArtifact,
    RunFuture,
    RunRequest,
    materialization_key_of,
)
from repro.service.protocol import (
    WireError,
    check_detail,
    decode_artifact,
    encode_batch,
    encode_poll,
    encode_request,
)
from repro.sim.results import RunResult

__all__ = [
    "HttpTransport",
    "ServiceClient",
    "ServiceError",
    "ServiceRunError",
]

#: Seconds of server-side blocking requested per waiting poll.
_POLL_WAIT_S = 30.0

#: Fingerprints per ``POST /runs/poll`` chunk (fingerprint-only lines
#: are ~100 bytes each, so 512 keeps bodies well under a TCP window).
_POLL_CHUNK = 512

#: Encoded requests per ``POST /runs/batch`` chunk.  Entries carry the
#: full encoded request (for recorded packs, the whole matrix), so
#: batches chunk far smaller than polls.
_BATCH_CHUNK = 64

#: Exceptions that mean "the keep-alive socket went stale under us"
#: (e.g. the daemon's idle reaper closed it between requests); the
#: request is retried once on a fresh connection.
_STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    http.client.IncompleteRead,
    BrokenPipeError,
    ConnectionResetError,
)


class ServiceError(ConnectionError):
    """The daemon is unreachable, unreadable or refused a request.

    Raised for a malformed service URL, a connection that cannot be
    made or dies mid-reply, and a clean protocol rejection (bad
    envelope, refused run) alike; a run that failed *on* the daemon
    raises :class:`ServiceRunError` instead.
    """


class ServiceRunError(RuntimeError):
    """A run failed on the daemon; carries the daemon-side message."""


class HttpTransport:
    """Per-thread keep-alive HTTP plumbing for one daemon.

    One instance per daemon URL; each calling thread gets its own
    keep-alive connection (``http.client`` connections are not
    thread-safe), created lazily with TCP_NODELAY and torn down via
    :meth:`close`.  Handles the stale-socket retry and JSONL parsing;
    everything protocol-level (envelopes, futures) stays in
    :class:`ServiceClient`.
    """

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.host = host
        self.port = port
        self.url = f"http://{host}:{port}"
        self.timeout_s = timeout_s
        # Merged into every request's headers; the campaign driver
        # plants ``X-Repro-Campaign`` here so the daemon can count
        # per-campaign submissions.
        self.extra_headers: dict[str, str] = {}
        self._local = threading.local()

    def _connection(self, timeout_s: float) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s
            )
            connection.connect()
            # Requests go out as two sends (headers, body); see the
            # server handler's disable_nagle_algorithm note.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.connection = connection
        else:
            connection.timeout = timeout_s
            if connection.sock is not None:
                connection.sock.settimeout(timeout_s)
        return connection

    def close(self) -> None:
        """Drop the calling thread's keep-alive connection."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout_s: float | None = None,
        stream: bool = False,
        jsonl: bool = False,
    ):
        """One HTTP exchange; returns ``(status, response)``.

        Keep-alive connections are reused per thread; a request that
        dies on a stale socket is retried once on a fresh one.
        Returns the live response object when ``stream`` (caller
        reads/closes); a ``(status, [payload, ...])`` list of parsed
        JSON lines when ``jsonl``, parsed as each line is read; else
        ``(status, parsed payload)``.  Connection-level failures raise
        :class:`ServiceError`.
        """
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        headers = {"Content-Type": "application/json", **self.extra_headers}
        for attempt in (0, 1):
            try:
                connection = self._connection(timeout_s)
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                if stream:
                    return response.status, response
                if jsonl:
                    payload = [
                        json.loads(line) for line in response if line.strip()
                    ]
                    # Lines stop at Content-Length without finishing the
                    # exchange; only a read to EOF frees the keep-alive
                    # connection for the next request.
                    response.read()
                else:
                    payload = json.loads(response.read())
                if response.will_close:
                    self.close()
                return response.status, payload
            except (
                http.client.HTTPException,
                ConnectionError,
                TimeoutError,
                OSError,
                json.JSONDecodeError,
            ) as error:
                self.close()
                if attempt == 0 and isinstance(
                    error, _STALE_SOCKET_ERRORS
                ):
                    continue  # stale keep-alive socket; retry once
                raise ServiceError(
                    f"cannot reach experiment service at {self.url}: "
                    f"{type(error).__name__}: {error}"
                ) from None
        raise AssertionError("unreachable")


class ServiceClient:
    """Resolve run requests against a remote experiment daemon.

    Parameters
    ----------
    url:
        Daemon base URL, e.g. ``http://127.0.0.1:8123``.
    use_store:
        Default cache behavior forwarded with every submission
        (``False`` = the CLI's ``--no-cache``: the daemon resimulates
        but still records).
    progress:
        Optional ``callback(completed, total)`` fired per resolved run
        of a batch, exactly like the orchestrator's.
    timeout_s:
        Socket timeout for individual HTTP calls.  Polls that
        deliberately block server-side (``wait>0``) add their ``wait``
        on top.
    """

    def __init__(
        self,
        url: str,
        use_store: bool = True,
        progress: Callable[[int, int], None] | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        try:
            port = parts.port
        except ValueError:
            port = None
            parts = None  # unparseable port
        if (
            parts is None
            or parts.scheme != "http"
            or not parts.hostname
            or "@" in parts.netloc  # userinfo would be dropped silently
            or parts.path.strip("/")
            or parts.query
        ):
            raise ServiceError(
                f"service URL must look like http://host:port, got {url!r}"
            )
        self.url = f"http://{parts.hostname}:{port or 80}"
        self.host = parts.hostname
        self.port = port or 80
        self.use_store = use_store
        self.progress = progress
        self.timeout_s = timeout_s
        self._transport = HttpTransport(self.host, self.port, timeout_s)
        self._lock = threading.Lock()
        self._pending: dict[str, Future] = {}

    # -- HTTP plumbing -----------------------------------------------------

    def _drop_connection(self) -> None:
        self._transport.close()

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout_s: float | None = None,
        stream: bool = False,
        jsonl: bool = False,
    ):
        """One HTTP exchange via the transport; see its docstring."""
        return self._transport.request(
            method,
            path,
            body=body,
            timeout_s=timeout_s,
            stream=stream,
            jsonl=jsonl,
        )

    def ping(self) -> dict:
        """``GET /healthz``; raises :class:`ServiceError` if down."""
        status, payload = self._request("GET", "/healthz")
        if status != 200 or payload.get("status") != "ok":
            raise ServiceError(
                f"experiment service at {self.url} is unhealthy: "
                f"HTTP {status} {payload!r}"
            )
        return payload

    def stats(self) -> dict:
        """The daemon's ``/stats`` counters."""
        status, payload = self._request("GET", "/stats")
        if status != 200:
            raise ServiceError(f"/stats answered HTTP {status}")
        return payload

    # -- future resolution -------------------------------------------------

    def _full_fetcher(self, fingerprint: str) -> Callable[[], RunResult]:
        """The lazy headline->full upgrade: one ``detail=full`` poll."""

        def fetch() -> RunResult:
            hit = self.lookup(None, fingerprint)
            if hit is None:
                raise ServiceError(
                    f"cannot upgrade headline run {fingerprint[:12]}... "
                    f"to full detail from {self.url}"
                )
            return hit.result().result

        return fetch

    def _decode(self, fingerprint: str, payload: dict) -> RunArtifact:
        return decode_artifact(
            payload, fetch_full=self._full_fetcher(fingerprint)
        )

    def _settle(self, fingerprint: str, payload: dict) -> None:
        """Resolve the pending future for one terminal payload."""
        with self._lock:
            future = self._pending.pop(fingerprint, None)
        if future is None or future.done():
            return
        kind = payload.get("kind")
        if kind == "run_artifact":
            try:
                future.set_result(self._decode(fingerprint, payload))
            except WireError as error:
                future.set_exception(ServiceError(str(error)))
        else:
            future.set_exception(
                ServiceRunError(
                    payload.get("error", f"service answered {payload!r}")
                )
            )

    def _poll(
        self, fingerprints: list[str], wait_s: float, detail: str
    ) -> Iterator[dict]:
        """``POST /runs/poll`` in chunks; yields every reply line.

        Only the first chunk waits: with ``wait_s > 0`` its lines
        stream in completion order, pending lines included, and the
        rest are no-wait buffered polls, so a call costs
        ``ceil(n/chunk)`` exchanges but blocks only once.
        """
        for index, chunk in enumerate(_chunked(fingerprints, _POLL_CHUNK)):
            chunk_wait = wait_s if index == 0 else 0.0
            body = json.dumps(
                encode_poll(chunk, chunk_wait, detail)
            ).encode()
            if chunk_wait > 0:
                status, response = self._request(
                    "POST",
                    "/runs/poll",
                    body=body,
                    timeout_s=self.timeout_s + chunk_wait,
                    stream=True,
                )
                yield from self._consume_stream(status, response)
                continue
            status, payloads = self._request(
                "POST", "/runs/poll", body=body, jsonl=True
            )
            if status != 200:
                message = payloads[0].get("error", "") if payloads else ""
                raise ServiceError(
                    f"poll endpoint answered HTTP {status}: {message}"
                )
            yield from payloads

    def _await(
        self,
        fingerprint: str,
        timeout: float | None,
        detail: str = "full",
    ) -> None:
        """Poll one fingerprint until it settles (or times out)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if fingerprint not in self._pending:
                    return  # settled by a concurrent stream/poll
            wait_s = _POLL_WAIT_S
            if deadline is not None:
                wait_s = min(wait_s, deadline - time.monotonic())
                if wait_s <= 0:
                    raise TimeoutError(
                        f"run {fingerprint[:12]}... still pending"
                    )
            for payload in self._poll([fingerprint], wait_s, detail):
                if payload.get("kind") != "pending":
                    self._settle(fingerprint, payload)
                    return

    # -- the orchestrator surface ------------------------------------------

    def with_meta(self, extra: dict) -> "ServiceClient":
        """Orchestrator-surface meta stamping, service flavor.

        Store-document meta belongs to the daemon (per-request meta
        would complicate the dedup core), so only the campaign
        identity crosses the wire -- as an ``X-Repro-Campaign``
        header feeding the daemon's per-campaign ``/stats`` counters.
        """
        campaign = extra.get("campaign")
        if campaign is not None:
            self._transport.extra_headers["X-Repro-Campaign"] = str(
                campaign
            )
        return self

    def lookup(self, request, fingerprint: str) -> RunFuture | None:
        """An already-resolved future for a daemon-store hit, else None.

        The warm-only read behind suite resume verification, the
        output stage and the headline upgrade: a no-wait poll of one
        fingerprint that never triggers execution.  Mirrors
        :meth:`repro.experiments.orchestrator.Orchestrator.lookup`.
        """
        for payload in self._poll([fingerprint], 0.0, "full"):
            if payload.get("kind") != "run_artifact":
                return None
            try:
                artifact = self._decode(fingerprint, payload)
            except WireError:
                return None
            return RunFuture.resolved(request, fingerprint, artifact)
        return None

    def close(self) -> None:
        """Drop this thread's keep-alive connection (idempotent)."""
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(
        self,
        request: RunRequest,
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> RunFuture:
        """Submit one request to the daemon (a one-entry batch).

        Store hits (daemon-side) return an already-resolved future;
        misses return a pending future that resolves through the
        batch-aware poll (:meth:`as_done`) or its own one-fingerprint
        poll (:meth:`RunFuture.result`).
        """
        return self.submit_many(
            [request], use_store=use_store, detail=detail
        )[0]

    def submit_many(
        self,
        requests: Sequence[RunRequest],
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> list[RunFuture]:
        """Submit a batch; duplicate fingerprints share one future.

        This costs ~``len(requests)/chunk`` round trips: one
        fingerprint-only poll pass settles warm hits (and runs already
        in flight) without uploading encoded bodies -- which for
        recorded-trace packs are the whole matrix -- then the
        remainder ship in chunked ``POST /runs/batch`` calls, stably
        sorted by materialization key so that a workload's runs share
        a batch, and with it a lockstep group, where they fit.
        """
        if use_store is None:
            use_store = self.use_store
        detail = check_detail(detail)
        order: list[str] = []
        handles: dict[str, RunFuture] = {}
        fresh: dict[str, RunRequest] = {}
        for request in requests:
            fingerprint = request.fingerprint()
            order.append(fingerprint)
            if fingerprint in handles or fingerprint in fresh:
                continue
            pending = None
            if use_store:
                with self._lock:
                    pending = self._pending.get(fingerprint)
            if pending is not None:
                handles[fingerprint] = _ClientRunFuture(
                    self, request, fingerprint, pending, detail
                )
            else:
                fresh[fingerprint] = request
        need_post = list(fresh)
        if use_store and fresh:
            # Phase 1: settle what the daemon already has by
            # fingerprint alone.
            need_post = []
            for payload in self._poll(list(fresh), 0.0, detail):
                fingerprint = payload.get("fingerprint", "")
                request = fresh.get(fingerprint)
                if request is None:
                    continue
                kind = payload.get("kind")
                if kind == "run_artifact":
                    handles[fingerprint] = self._resolved_handle(
                        request, fingerprint, payload, detail
                    )
                elif kind == "pending":
                    handles[fingerprint] = self._pending_handle(
                        request, fingerprint, detail
                    )
                else:
                    # Unknown (404) or previously failed (500): a
                    # fresh submission retries.
                    need_post.append(fingerprint)
        # Phase 2: ship the rest in chunked batch POSTs, one workload's
        # runs together, so the daemon runs them as one lockstep group
        # wherever they fit in one chunk.
        need_post.sort(key=lambda fp: materialization_key_of(fresh[fp]))
        for chunk in _chunked(need_post, _BATCH_CHUNK):
            entries = [
                encode_request(
                    fresh[fingerprint], fingerprint, use_store=use_store
                )
                for fingerprint in chunk
            ]
            body = json.dumps(encode_batch(entries, detail=detail)).encode()
            status, payloads = self._request(
                "POST", "/runs/batch", body=body, jsonl=True
            )
            if status != 200:
                message = (
                    payloads[0].get("error", "") if payloads else ""
                )
                raise ServiceError(
                    f"batch endpoint answered HTTP {status}: {message}"
                )
            for payload in payloads:
                fingerprint = payload.get("fingerprint", "")
                request = fresh.get(fingerprint)
                if request is None or fingerprint in handles:
                    continue
                kind = payload.get("kind")
                if kind == "run_artifact":
                    handles[fingerprint] = self._resolved_handle(
                        request, fingerprint, payload, detail
                    )
                elif kind == "pending":
                    handles[fingerprint] = self._pending_handle(
                        request, fingerprint, detail
                    )
                elif int(payload.get("status", 500)) >= 500:
                    failed: Future = Future()
                    failed.set_exception(
                        ServiceRunError(
                            payload.get("error", "run failed")
                        )
                    )
                    handles[fingerprint] = _ClientRunFuture(
                        self, request, fingerprint, failed, detail
                    )
                else:
                    raise ServiceError(
                        f"service rejected run {fingerprint[:12]}...: "
                        f"{payload.get('error', payload)!r}"
                    )
        # Entries a misbehaving daemon failed to answer resolve via
        # their own poll rather than KeyError-ing here.
        for fingerprint in fresh:
            if fingerprint not in handles:
                handles[fingerprint] = self._pending_handle(
                    fresh[fingerprint], fingerprint, detail
                )
        return [handles[fingerprint] for fingerprint in order]

    def _resolved_handle(
        self,
        request: RunRequest,
        fingerprint: str,
        payload: dict,
        detail: str,
    ) -> RunFuture:
        future: Future = Future()
        try:
            future.set_result(self._decode(fingerprint, payload))
        except WireError as error:
            raise ServiceError(
                f"undecodable artifact from {self.url}: {error}"
            ) from None
        return _ClientRunFuture(self, request, fingerprint, future, detail)

    def _pending_handle(
        self, request: RunRequest, fingerprint: str, detail: str
    ) -> RunFuture:
        with self._lock:
            future = self._pending.setdefault(fingerprint, Future())
        return _ClientRunFuture(self, request, fingerprint, future, detail)

    def _notify(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    def as_done(
        self, futures: Iterable[RunFuture], timeout: float | None = None
    ) -> Iterator[RunFuture]:
        """Yield unique futures as the daemon completes their runs.

        Resolved futures come first; the rest settle over polling
        rounds with ``wait>0`` (one streamed connection per round,
        daemon completion order).
        """
        unique = list(dict.fromkeys(futures))
        total = len(unique)
        done = 0
        # Distinct future objects can share one fingerprint (two
        # submit() calls of the same request); all of them resolve --
        # and yield -- when that fingerprint settles, mirroring the
        # in-process as_done over per-call wrapper futures.
        pending: dict[str, list[RunFuture]] = {}
        for future in unique:
            if future.done():
                done += 1
                self._notify(done, total)
                yield future
            else:
                pending.setdefault(future.fingerprint, []).append(future)
        deadline = None if timeout is None else time.monotonic() + timeout
        while pending:
            wait_s = _POLL_WAIT_S
            if deadline is not None:
                wait_s = min(wait_s, deadline - time.monotonic())
                if wait_s <= 0:
                    raise TimeoutError(
                        f"{len(pending)} run(s) still pending"
                    )
            # Futures for one fingerprint share a detail level by
            # construction; across fingerprints the round polls at the
            # richest level any waiter needs (a full ledger satisfies a
            # headline waiter; not vice versa).
            round_detail = (
                "full"
                if any(
                    getattr(f, "_detail", "full") == "full"
                    for group in pending.values()
                    for f in group
                )
                else "headline"
            )
            for payload in self._poll(list(pending), wait_s, round_detail):
                if payload.get("kind") == "pending":
                    continue
                fingerprint = payload.get("fingerprint", "")
                self._settle(fingerprint, payload)
                for future in pending.pop(fingerprint, []):
                    if future.done():
                        done += 1
                        self._notify(done, total)
                        yield future
            # Defensive: a future settled by a concurrent poller would
            # never surface through this round's stream.
            for fingerprint in [
                fp
                for fp, group in pending.items()
                if group and group[0].done()
            ]:
                for future in pending.pop(fingerprint):
                    done += 1
                    self._notify(done, total)
                    yield future

    def _consume_stream(self, status: int, response) -> Iterator[dict]:
        """The payloads of a live JSONL response (close-delimited)."""
        try:
            if status != 200:
                response.read()
                raise ServiceError(f"poll endpoint answered HTTP {status}")
            for raw in response:
                if not raw.strip():
                    continue
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError as error:
                    raise ServiceError(
                        f"undecodable stream line: {error}"
                    ) from None
                yield payload
        except (ConnectionError, TimeoutError, OSError) as error:
            if isinstance(error, ServiceError):
                raise
            raise ServiceError(
                f"stream from {self.url} died: {type(error).__name__}: "
                f"{error}"
            ) from None
        finally:
            response.close()
            self._drop_connection()  # stream sockets are close-delimited

    def as_resolved(
        self, futures: Iterable[RunFuture], timeout: float | None = None
    ) -> Iterator[RunArtifact]:
        """Yield artifacts in daemon completion order (errors raise)."""
        for future in self.as_done(futures, timeout=timeout):
            yield future.result()

    def run(
        self,
        request: RunRequest,
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> RunArtifact:
        """Resolve one request against the daemon, blocking."""
        return self.submit(
            request, use_store=use_store, detail=detail
        ).result()

    def run_many(
        self,
        requests: Sequence[RunRequest],
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> list[RunArtifact]:
        """Resolve a batch, preserving request order.

        Matches the orchestrator's semantics: duplicates resolve once,
        completions stream (and persist daemon-side) as they land, and
        the first failure raises only after every survivor resolved.
        """
        futures = self.submit_many(
            requests, use_store=use_store, detail=detail
        )
        first_error: BaseException | None = None
        for future in self.as_done(futures):
            error = future.exception()
            if error is not None:
                first_error = first_error or error
        if first_error is not None:
            raise first_error
        return [future.result() for future in futures]


def _chunked(items: list, size: int) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


class _ClientRunFuture(RunFuture):
    """A :class:`RunFuture` whose pending state lives on the daemon.

    ``result``/``exception`` poll its one fingerprint when nobody is
    streaming the batch; everything else (``done``, identity, artifact
    access) is the inherited behavior.  The detail level it was
    submitted at rides along so that poll asks for the same projection
    the batch paths would.
    """

    __slots__ = ("_client", "_detail")

    def __init__(
        self,
        client: ServiceClient,
        request: RunRequest,
        fingerprint: str,
        future: Future,
        detail: str = "full",
    ) -> None:
        super().__init__(request, fingerprint, future)
        self._client = client
        self._detail = detail

    def _ensure_resolution(self, timeout: float | None) -> None:
        if not self._future.done():
            self._client._await(self.fingerprint, timeout, self._detail)

    def result(self, timeout: float | None = None) -> RunArtifact:
        """Block for the artifact, polling the daemon if needed."""
        self._ensure_resolution(timeout)
        return self._future.result(timeout)

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """The run's daemon-side error, or None (blocks like result)."""
        self._ensure_resolution(timeout)
        return self._future.exception(timeout)
