"""Drop-in orchestrator client for a remote experiment daemon.

:class:`ServiceClient` serves the consumer surface of
:class:`~repro.experiments.orchestrator.ConsumerSurface` --
``submit`` / ``submit_many`` / ``as_done`` / ``run`` / ``run_many``
plus ``lookup`` -- against an
:class:`~repro.service.server.ExperimentDaemon` URL, so every analysis
that takes an ``orchestrator=`` parameter (``runner``, ``scenarios``,
``pareto``, ``sensitivity``, ``lower_bound``) runs remotely with zero
changes to its logic: the CLI's ``--service URL`` path is exactly
``orchestrator=ServiceClient(url)``.  The surface's bookkeeping
(dedup, request-aligned futures, progress, error order) is the
in-process orchestrator's own, inherited; this module supplies where a
warm run is found, how misses launch and how completions are awaited.

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

* ``as_done`` polls with ``wait>0`` and resolves futures as artifact
  lines stream in, in completion order;
* :meth:`RunFuture.result` on an individual pending future polls its
  one fingerprint the same way.

Both paths funnel through one idempotent resolver, so a stream and a
poll racing on the same future are benign.

The client speaks wire v2
(:data:`~repro.service.protocol.WIRE_VERSION`) only: batch and poll
envelopes and ``detail`` projections, in HTTP's identity coding.  A
call that names no ``detail`` gets ``full``.

``detail="headline"`` artifacts decode to
:class:`~repro.sim.results.HeadlineResult` projections, which answer
the headline block's readings and raise for anything beyond it.

Every failure to reach the daemon or to get a protocol answer from it
raises :class:`ServiceError` (the CLI maps it to a clean nonzero
exit); a run that *failed on the daemon* raises a
:class:`ServiceRunError` carrying the daemon-side message.  Each
calling thread keeps its own keep-alive connection (``http.client``
connections are not thread-safe); a request that dies on a stale one
(the daemon closes idle connections server-side) is retried once on a
fresh connection before any error surfaces.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Iterator
from urllib.parse import urlsplit

from repro.experiments.orchestrator import (
    ConsumerSurface,
    RunArtifact,
    RunFuture,
    RunRequest,
    materialization_key_of,
)
from repro.service.protocol import (
    WireError,
    decode_artifact,
    encode_batch,
    encode_poll,
    encode_request,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceRunError",
]

#: Headers sent with every request.
_HEADERS = {"Content-Type": "application/json"}

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


class ServiceClient(ConsumerSurface):
    """Resolve run requests against a remote experiment daemon.

    Parameters
    ----------
    url:
        Daemon base URL, e.g. ``http://127.0.0.1:8123``.
    use_store:
        Cache behavior forwarded with every submission (``False`` =
        the CLI's ``--no-cache``: the daemon resimulates but still
        records).
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
        self._local = threading.local()
        self._lock = threading.Lock()
        # Every thread's connection opened since the last close().
        self._connections: set[http.client.HTTPConnection] = set()
        self._pending: dict[str, Future] = {}

    # -- HTTP plumbing -----------------------------------------------------

    def _connection(self, timeout_s: float) -> http.client.HTTPConnection:
        """The calling thread's keep-alive connection, (re)opened lazily."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self.host, self.port)
            self._local.connection = connection
        connection.timeout = timeout_s
        if connection.sock is None:
            connection.connect()
            # Requests go out as two sends (headers, body); see the
            # server handler's disable_nagle_algorithm note.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            with self._lock:
                self._connections.add(connection)
        else:
            connection.sock.settimeout(timeout_s)
        return connection

    def _drop_connection(self) -> None:
        """Close this thread's connection; its next request reopens it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _request(
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
        for attempt in (0, 1):
            try:
                connection = self._connection(timeout_s)
                connection.request(
                    method, path, body=body, headers=_HEADERS
                )
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
                    self._drop_connection()
                return response.status, payload
            except (
                http.client.HTTPException,
                ConnectionError,
                TimeoutError,
                OSError,
                json.JSONDecodeError,
            ) as error:
                self._drop_connection()
                if attempt == 0 and isinstance(
                    error, _STALE_SOCKET_ERRORS
                ):
                    continue  # stale keep-alive socket; retry once
                raise ServiceError(
                    f"cannot reach experiment service at {self.url}: "
                    f"{type(error).__name__}: {error}"
                ) from None
        raise AssertionError("unreachable")

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

    def _settle(self, fingerprint: str, payload: dict) -> None:
        """Resolve the pending future for one terminal payload."""
        with self._lock:
            future = self._pending.pop(fingerprint, None)
        if future is None or future.done():
            return
        kind = payload.get("kind")
        if kind == "run_artifact":
            try:
                future.set_result(decode_artifact(payload))
            except WireError as error:
                future.set_exception(ServiceError(str(error)))
        else:
            future.set_exception(
                ServiceRunError(
                    payload.get("error", f"service answered {payload!r}")
                )
            )

    def _poll(
        self, fingerprints: list[str], wait_s: float, detail: str | None
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

    # -- the consumer hooks ------------------------------------------------

    def _dispatch(
        self,
        request: RunRequest,
        fingerprint: str,
        payload: dict,
        detail: str | None,
    ) -> RunFuture | None:
        """The future for an artifact or ``pending`` reply line, else None.

        An artifact resolves; ``pending`` waits on this client's one
        future for the fingerprint.  What anything else means is up to
        the phase that read it.
        """
        kind = payload.get("kind")
        if kind == "pending":
            return self._pending_handle(request, fingerprint, detail)
        if kind != "run_artifact":
            return None
        future: Future = Future()
        try:
            future.set_result(decode_artifact(payload))
        except WireError as error:
            raise ServiceError(
                f"undecodable artifact from {self.url}: {error}"
            ) from None
        return _ClientRunFuture(self, request, fingerprint, future, detail)

    def _pending_handle(
        self, request: RunRequest, fingerprint: str, detail: str | None
    ) -> RunFuture:
        with self._lock:
            future = self._pending.setdefault(fingerprint, Future())
        return _ClientRunFuture(self, request, fingerprint, future, detail)

    def _warm(
        self, fresh: dict[str, RunRequest], detail: str | None
    ) -> dict[str, RunFuture]:
        """Runs that need no upload.

        A fingerprint this client already waits on shares its future;
        the rest are polled by fingerprint alone, without waiting, so
        warm hits (and runs in flight) settle without uploading encoded
        bodies -- which for recorded-trace packs are the whole matrix.
        """
        found: dict[str, RunFuture] = {}
        with self._lock:
            for fingerprint, request in fresh.items():
                future = self._pending.get(fingerprint)
                if future is not None:
                    found[fingerprint] = _ClientRunFuture(
                        self, request, fingerprint, future, detail
                    )
        asked = [fp for fp in fresh if fp not in found]
        if asked:
            for payload in self._poll(asked, 0.0, detail):
                fingerprint = payload.get("fingerprint", "")
                request = fresh.get(fingerprint)
                if request is None:
                    continue
                # Unknown (404) or previously failed (500): a fresh
                # submission retries, so the run is left to _launch.
                future = self._dispatch(request, fingerprint, payload, detail)
                if future is not None:
                    found[fingerprint] = future
        return found

    def _launch(
        self, misses: list[tuple[RunRequest, str]], detail: str | None
    ) -> list[RunFuture]:
        """Ship misses in chunked ``POST /runs/batch`` calls.

        They go stably sorted by materialization key, so that a
        workload's runs share a batch, and with it a lockstep group,
        wherever they fit in one chunk.
        """
        requests = {fingerprint: request for request, fingerprint in misses}
        ordered = sorted(
            misses, key=lambda miss: materialization_key_of(miss[0])
        )
        futures: dict[str, RunFuture] = {}
        for chunk in _chunked(ordered, _BATCH_CHUNK):
            entries = [
                encode_request(
                    request, fingerprint, use_store=self.use_store
                )
                for request, fingerprint in chunk
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
                request = requests.get(fingerprint)
                if request is None or fingerprint in futures:
                    continue
                future = self._dispatch(request, fingerprint, payload, detail)
                if future is None:
                    if int(payload.get("status", 500)) < 500:
                        raise ServiceError(
                            f"service rejected run {fingerprint[:12]}...: "
                            f"{payload.get('error', payload)!r}"
                        )
                    failed: Future = Future()
                    failed.set_exception(
                        ServiceRunError(payload.get("error", "run failed"))
                    )
                    future = _ClientRunFuture(
                        self, request, fingerprint, failed, detail
                    )
                futures[fingerprint] = future
        # Entries a misbehaving daemon failed to answer resolve via
        # their own poll rather than KeyError-ing here.
        return [
            futures.get(fingerprint)
            or self._pending_handle(request, fingerprint, detail)
            for request, fingerprint in misses
        ]

    def _landed(
        self,
        pending: dict[str, list[RunFuture]],
        timeout: float | None = None,
    ) -> Iterator[str]:
        """Fingerprints as the daemon completes their runs.

        Each round is one waiting poll of every pending fingerprint,
        streamed in daemon completion order.  A lone pending future's
        ``result(timeout)`` waits through this too, on its one
        fingerprint, and raises ``TimeoutError`` past ``timeout``.
        """
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
            detail = (
                "headline"
                if all(
                    future._detail == "headline"
                    for group in pending.values()
                    for future in group
                )
                else "full"
            )
            for payload in self._poll(list(pending), wait_s, detail):
                if payload.get("kind") == "pending":
                    continue
                fingerprint = payload.get("fingerprint", "")
                self._settle(fingerprint, payload)
                if fingerprint in pending:
                    yield fingerprint
            # Defensive: a future settled by a concurrent poller would
            # never surface through this round's stream.
            yield from [
                fingerprint
                for fingerprint, group in pending.items()
                if group[0].done()
            ]

    # -- the rest of the surface -------------------------------------------

    def with_meta(self, extra: dict) -> "ServiceClient":
        """Orchestrator-surface meta stamping: a no-op over the wire.

        Store-document meta belongs to the daemon (per-request meta
        would complicate the dedup core), so nothing of ``extra``
        crosses the wire and the client is returned as it is.
        """
        return self

    def lookup(self, request, fingerprint: str) -> RunFuture | None:
        """An already-resolved future for a daemon-store hit, else None.

        The warm-only read behind suite resume verification and the
        output stage: a no-wait poll of one fingerprint that never
        triggers execution.  Mirrors
        :meth:`repro.experiments.orchestrator.Orchestrator.lookup`.
        """
        for payload in self._poll([fingerprint], 0.0, "full"):
            if payload.get("kind") != "run_artifact":
                return None
            try:
                artifact = decode_artifact(payload)
            except WireError:
                return None
            return RunFuture.resolved(request, fingerprint, artifact)
        return None

    def close(self) -> None:
        """Close every thread's keep-alive connection (idempotent).

        The client stays usable: a thread's next request reopens its
        connection.  Call it while no request is in flight.
        """
        with self._lock:
            connections, self._connections = self._connections, set()
        for connection in connections:
            connection.close()


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
        detail: str | None = None,
    ) -> None:
        super().__init__(request, fingerprint, future)
        self._client = client
        self._detail = detail

    def _ensure_resolution(self, timeout: float | None) -> None:
        if not self._future.done():
            next(self._client._landed({self.fingerprint: [self]}, timeout))

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
