"""Daemon endpoints: submit/poll/stream semantics over real HTTP."""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from repro.experiments.orchestrator import RunRequest
from repro.experiments.runner import default_policies
from repro.service import ServiceClient
from repro.service.protocol import (
    WIRE_VERSION,
    encode_poll,
    encode_request,
)
from repro.workload.packs import (
    RecordedTraceSource,
    TracePack,
)
from tests.service.conftest import get, grid_requests, poll, post_entry


def stream_poll(daemon, fingerprints, wait_s=60.0):
    """``POST /runs/poll`` with ``wait > 0``: the streamed JSON lines."""
    connection = http.client.HTTPConnection(*daemon.address, timeout=90)
    try:
        connection.request(
            "POST",
            "/runs/poll",
            body=json.dumps(encode_poll(fingerprints, wait_s)).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200
        return [
            json.loads(line)
            for line in response.read().splitlines()
            if line.strip()
        ]
    finally:
        connection.close()


def wait_until(predicate, timeout_s: float = 30.0) -> None:
    """Block until ``predicate()`` holds (the deadline is a hang guard)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def settled_stats(daemon) -> dict:
    """``/stats`` once done callbacks have counted every finished run."""
    deadline = time.monotonic() + 5.0
    while daemon.stats()["inflight"] and time.monotonic() < deadline:
        time.sleep(0.02)
    return daemon.stats()


class TestHealthAndStats:
    def test_healthz(self, daemon):
        status, payload = get(daemon.url, "/healthz")
        assert status == 200
        # Liveness and identity only; load lives in /stats.
        assert payload == {
            "wire_version": WIRE_VERSION,
            "kind": "health",
            "status": "ok",
            "daemon_id": daemon.daemon_id,
        }
        # The default identity is the bound host:port.
        host, port = daemon.address
        assert payload["daemon_id"] == f"{host}:{port}"

    def test_stats_shape(self, daemon):
        status, payload = get(daemon.url, "/stats")
        assert status == 200
        for key in ("submitted", "hits", "computed", "errors", "inflight",
                    "store", "jobs", "uptime_s", "daemon_id",
                    "queue_depth"):
            assert key in payload
        assert payload["daemon_id"] == daemon.daemon_id
        assert payload["wire_version"] == WIRE_VERSION
        assert "supported_wire_versions" not in payload

    def test_stats_counts_inflight_and_queue(self, daemon_factory):
        daemon = daemon_factory(jobs=2)
        with ServiceClient(daemon.url) as client:
            futures = client.submit_many(
                grid_requests(range(3), horizon=6)
            )
            stats = daemon.stats()
            assert stats["inflight"] >= 1
            assert (
                stats["queue_depth"]
                == max(0, stats["inflight"] - 2)
            )
            list(client.as_done(futures))
            assert daemon.stats()["inflight"] == 0

    def test_unknown_endpoint_404(self, daemon):
        status, payload = get(daemon.url, "/nope")
        assert status == 404
        assert payload["kind"] == "error"


class TestRouteTable:
    """Only batch, poll, /healthz and /stats are served."""

    def test_single_entry_post_is_gone(self, daemon, tiny_requests):
        connection = http.client.HTTPConnection(*daemon.address, timeout=10)
        try:
            connection.request(
                "POST",
                "/runs",
                body=json.dumps(encode_request(tiny_requests[0])).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["kind"] == "error"
        finally:
            connection.close()

    def test_streaming_get_is_gone(self, daemon):
        status, payload = get(daemon.url, f"/runs?fp={'0' * 64}&wait=1")
        assert status == 404
        assert payload["error"] == "no such endpoint"

    def test_run_get_is_gone(self, daemon, tiny_requests):
        """``GET /runs/<fp>`` is not a route; the poll is the one read."""
        fingerprint = tiny_requests[0].fingerprint()
        connection = http.client.HTTPConnection(*daemon.address, timeout=10)
        try:
            for query in ("", "?wait=1"):
                connection.request("GET", f"/runs/{fingerprint}{query}")
                response = connection.getresponse()
                assert response.status == 404
                assert json.loads(response.read())["error"] == (
                    "no such endpoint"
                )
            # A GET 404 has no unread body: keep-alive carries on, on
            # the same socket.
            sock = connection.sock
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            assert sock is not None and connection.sock is sock
        finally:
            connection.close()

    def test_poll_wait_must_be_finite_and_non_negative(self, daemon):
        unknown = ["0" * 64]
        for wait in (float("nan"), -1.0, float("inf")):
            status, lines = poll(daemon.url, unknown, wait=wait)
            assert status == 400
            assert "wait" in lines[0]["error"]
        for wait in (0.0, 30.0):
            status, lines = poll(daemon.url, unknown, wait=wait)
            assert status == 200
            assert lines[0]["status"] == 404

    def test_post_404_closes_the_connection(self, daemon):
        """The unread body of a refused POST must not desync keep-alive."""
        connection = http.client.HTTPConnection(*daemon.address, timeout=10)
        try:
            for path in ("/runs", "/nope"):
                connection.request(
                    "POST",
                    path,
                    body=b'{"kind": "run_request"}',
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 404
                assert response.getheader("Connection") == "close"
                response.read()
                # Same HTTPConnection object: it reopens the closed
                # socket instead of writing behind the unread body.
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_v1_poll_envelope_refused(self, daemon):
        envelope = encode_poll(["0" * 64])
        envelope["wire_version"] = 1
        connection = http.client.HTTPConnection(*daemon.address, timeout=10)
        try:
            connection.request(
                "POST",
                "/runs/poll",
                body=json.dumps(envelope).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "wire version" in json.loads(response.read())["error"]
        finally:
            connection.close()


class TestSubmitAndPoll:
    def test_miss_then_longpoll_then_hit(self, daemon, tiny_requests):
        request = tiny_requests[0]
        fingerprint = request.fingerprint()
        status, payload = post_entry(daemon.url, encode_request(request))
        assert status == 202
        assert payload["kind"] == "pending"
        assert payload["fingerprint"] == fingerprint

        status, (payload,) = poll(daemon.url, [fingerprint], wait=30)
        assert status == 200
        assert payload["kind"] == "run_artifact"
        assert payload["fingerprint"] == fingerprint

        # Resubmission is now an instant store hit.
        status, payload = post_entry(daemon.url, encode_request(request))
        assert status == 200
        assert payload["kind"] == "run_artifact"
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = get(daemon.url, "/stats")[1]
            if stats["computed"] == 1:
                break
            time.sleep(0.02)
        assert stats["computed"] == 1
        assert stats["hits"] >= 1

    def test_unknown_fingerprint_404(self, daemon):
        status, (payload,) = poll(daemon.url, ["0" * 64], wait=30)
        assert status == 200
        assert payload["kind"] == "error"
        assert payload["status"] == 404

    def test_poll_without_wait_reports_pending(self, daemon, tiny_requests):
        request = tiny_requests[1]
        fingerprint = request.fingerprint()
        status, _ = post_entry(daemon.url, encode_request(request))
        assert status == 202
        status, (payload,) = poll(daemon.url, [fingerprint])
        assert status == 200
        # Pending unless the run won the race.
        assert payload["kind"] in ("pending", "run_artifact")
        # Drain so teardown doesn't race the executing run.
        _, (payload,) = poll(daemon.url, [fingerprint], wait=30)
        assert payload["kind"] == "run_artifact"

    def test_malformed_body_400(self, daemon):
        connection = http.client.HTTPConnection(*daemon.address, timeout=10)
        connection.request(
            "POST", "/runs/batch", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_version_mismatch_400(self, daemon, tiny_requests):
        payload = encode_request(tiny_requests[0])
        payload["wire_version"] = 99
        status, answer = post_entry(daemon.url, payload)
        assert status == 400
        assert "version" in answer["error"]

    def test_version_checked_even_on_warm_fingerprints(
        self, daemon, tiny_requests
    ):
        """The warm fast path must not serve a mismatched peer."""
        request = tiny_requests[0]
        post_entry(daemon.url, encode_request(request))
        poll(daemon.url, [request.fingerprint()], wait=30)
        warm = encode_request(request)
        status, _ = post_entry(daemon.url, warm)
        assert status == 200  # cached
        for version in (1, 99):
            bad = dict(warm)
            bad["wire_version"] = version
            status, answer = post_entry(daemon.url, bad)
            assert status == 400
            assert "wire version" in answer["error"]

    def test_fingerprint_mismatch_409(self, daemon, tiny_requests):
        payload = encode_request(tiny_requests[0])
        payload["fingerprint"] = "f" * 64
        status, answer = post_entry(daemon.url, payload)
        assert status == 409
        assert "mismatch" in answer["error"]

    def test_failing_run_reports_500(self, daemon_factory, tiny_config):
        daemon = daemon_factory(jobs=1)
        # A pack serving 30 steps/slot against a config expecting
        # tiny's slotting fails inside the engine build -- a genuine
        # execution-time error on the daemon.
        pack = TracePack(
            name="mismatched",
            source=RecordedTraceSource(
                utilization=np.full((3, 60), 0.5), steps_per_slot=60
            ),
        )
        request = RunRequest(
            config=tiny_config, policy=default_policies()[0], pack=pack
        )
        status, payload = post_entry(daemon.url, encode_request(request))
        assert status == 202  # even serial daemons answer promptly
        _, (payload,) = poll(daemon.url, [request.fingerprint()], wait=30)
        assert payload["kind"] == "error"
        assert payload["status"] == 500
        assert "steps per slot" in payload["error"]
        # The streamed poll reports the recorded error too (the run is
        # neither stored nor in flight by now -- it must not be
        # misreported as an unknown fingerprint).
        lines = stream_poll(daemon, [request.fingerprint()])
        assert lines[0]["kind"] == "error"
        assert lines[0]["status"] == 500
        assert "steps per slot" in lines[0]["error"]
        # Counters update in done callbacks, which can trail the poll
        # that observed the failure by an instant.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = get(daemon.url, "/stats")[1]
            if stats["errors"] == 1:
                break
            time.sleep(0.02)
        assert stats["errors"] == 1


class TestStreamEndpoint:
    """``POST /runs/poll`` with ``wait > 0`` streams completion order."""

    def test_stream_returns_all_in_completion_order(
        self, daemon, tiny_requests
    ):
        fingerprints = []
        for request in tiny_requests:
            status, _ = post_entry(daemon.url, encode_request(request))
            assert status in (200, 202)
            fingerprints.append(request.fingerprint())
        lines = stream_poll(daemon, fingerprints)
        kinds = {line["kind"] for line in lines}
        assert kinds == {"run_artifact"}
        assert {line["fingerprint"] for line in lines} == set(fingerprints)

    def test_stream_reports_unknown_fingerprints(self, daemon):
        lines = stream_poll(daemon, ["0" * 64], wait_s=1.0)
        assert lines[0]["kind"] == "error"
        assert lines[0]["status"] == 404

    def test_settled_lines_come_before_pending_ones(
        self, daemon_factory, tiny_requests
    ):
        """Unknown and settled runs answer first, in request order;
        a run still in flight at the deadline gets a pending line."""
        daemon = daemon_factory(jobs=1)
        landed, held = (request.fingerprint() for request in tiny_requests[:2])
        post_entry(daemon.url, encode_request(tiny_requests[0]))
        poll(daemon.url, [landed], wait=30)
        # Hold the serial runner so the next claim stays in flight.
        gate = threading.Event()
        daemon._serial_runner().submit(gate.wait)
        try:
            post_entry(daemon.url, encode_request(tiny_requests[1]))
            unknown = "0" * 64
            status, lines = poll(daemon.url, [held, unknown, landed])
        finally:
            gate.set()
        assert status == 200
        assert [(line["kind"], line["fingerprint"]) for line in lines] == [
            ("error", unknown), ("run_artifact", landed), ("pending", held),
        ]
        _, (line,) = poll(daemon.url, [held], wait=30)
        assert (line["kind"], line["source"]) == ("run_artifact", "computed")


class TestHitCounting:
    """``/stats`` ``hits`` counts every run served from the store."""

    def test_warm_run_many_counts_one_hit_per_run(
        self, daemon, tiny_requests
    ):
        with ServiceClient(daemon.url) as client:
            client.run_many(tiny_requests)
        before = settled_stats(daemon)
        with ServiceClient(daemon.url) as fresh:
            fresh.run_many(tiny_requests)
        after = settled_stats(daemon)
        assert after["hits"] - before["hits"] == len(tiny_requests)
        assert after["computed"] == before["computed"]

    def test_single_submit_and_lookup_count_hits(
        self, daemon, tiny_requests
    ):
        request = tiny_requests[0]
        with ServiceClient(daemon.url) as client:
            client.run(request)
        before = settled_stats(daemon)
        with ServiceClient(daemon.url) as fresh:
            fresh.run(request)
            assert fresh.lookup(request, request.fingerprint()) is not None
        after = settled_stats(daemon)
        assert after["hits"] - before["hits"] == 2
        assert after["computed"] == before["computed"]

    def test_long_poll_on_an_inflight_run_is_not_a_hit(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory(jobs=1)
        with ServiceClient(daemon.url) as client:
            futures = client.submit_many(tiny_requests[:2])
            # The second run queues behind the first on the serial
            # runner, so its long-poll arrives while it is in flight.
            assert futures[1].result().fingerprint == (
                tiny_requests[1].fingerprint()
            )
        stats = settled_stats(daemon)
        assert stats["computed"] == 2
        assert stats["hits"] == 0


class TestProvenance:
    """A run this daemon computed settles as computed -- ``source`` and
    ``elapsed_s`` from the run, ``computed`` +1 and ``hits`` +0 --
    whichever poll delivers it, however late that poll comes."""

    def test_cold_run_settles_as_computed(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory(jobs=1)
        with ServiceClient(daemon.url) as client:
            artifacts = [client.run(request) for request in tiny_requests]
        assert [artifact.source for artifact in artifacts] == (
            ["computed"] * len(tiny_requests)
        )
        assert all(artifact.elapsed_s > 0 for artifact in artifacts)
        stats = settled_stats(daemon)
        assert stats["computed"] == len(tiny_requests)
        assert stats["hits"] == 0

    def test_as_done_settles_landed_and_running_runs_as_computed(
        self, daemon_factory
    ):
        daemon = daemon_factory(jobs=1)
        requests = grid_requests(range(2))  # two groups, run in turn
        with ServiceClient(daemon.url) as client:
            futures = client.submit_many(requests)
            # The first group lands before as_done's first poll.
            wait_until(lambda: daemon.stats()["computed"] >= 4)
            artifacts = [
                future.result() for future in client.as_done(futures)
            ]
        assert {artifact.source for artifact in artifacts} == {"computed"}
        stats = settled_stats(daemon)
        assert stats["computed"] == len(requests)
        assert stats["hits"] == 0

    def test_run_that_landed_before_its_first_poll_reads_computed(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory(jobs=1)
        with ServiceClient(daemon.url) as client:
            futures = client.submit_many(tiny_requests)
            wait_until(
                lambda: daemon.stats()["computed"] == len(tiny_requests)
            )
            # A landed claim waits for its poll, but is not in flight.
            assert daemon.stats()["inflight"] == 0
            artifacts = [future.result() for future in futures]
        assert {artifact.source for artifact in artifacts} == {"computed"}
        assert all(artifact.elapsed_s > 0 for artifact in artifacts)
        stats = daemon.stats()
        assert stats["computed"] == len(tiny_requests)
        assert stats["hits"] == 0

    def test_landed_claim_is_not_served_a_cached_hit(
        self, daemon_factory, tiny_requests
    ):
        """A batch entry reads a landed, undelivered run from the store
        and caches that reply; the claim's own poll still reads
        computed."""
        daemon = daemon_factory(jobs=1)
        request = tiny_requests[0]
        fingerprint = request.fingerprint()
        post_entry(daemon.url, encode_request(request))
        wait_until(lambda: daemon.stats()["computed"] == 1)
        status, hit = post_entry(daemon.url, encode_request(request))
        assert (status, hit["source"]) == (200, "memory")
        _, (line,) = poll(daemon.url, [fingerprint])
        assert line["source"] == "computed"
        _, (line,) = poll(daemon.url, [fingerprint])
        assert line["source"] == "memory"
        stats = daemon.stats()
        assert (stats["computed"], stats["hits"]) == (1, 2)

    def test_no_cache_resubmission_replaces_a_landed_claim(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory(jobs=1)
        request = tiny_requests[0]
        with ServiceClient(daemon.url) as client:
            client.submit(request)  # claimed, landed, never polled
            wait_until(lambda: daemon.stats()["computed"] == 1)
            artifact = client.run(request, use_store=False)
        assert artifact.source == "computed"
        assert settled_stats(daemon)["computed"] == 2
