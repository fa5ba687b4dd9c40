"""Daemon endpoints: submit/poll/stream semantics over real HTTP."""

from __future__ import annotations

import http.client
import json
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
from tests.service.conftest import get, grid_requests, post_entry


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
    """Only batch, poll, one-run GET, /healthz and /stats are served."""

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

        status, payload = get(
            daemon.url, f"/runs/{fingerprint}?wait=30"
        )
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
        status, payload = get(daemon.url, f"/runs/{'0' * 64}")
        assert status == 404 or payload["kind"] == "error"

    def test_poll_without_wait_reports_pending(self, daemon, tiny_requests):
        request = tiny_requests[1]
        fingerprint = request.fingerprint()
        status, _ = post_entry(daemon.url, encode_request(request))
        assert status == 202
        status, payload = get(daemon.url, f"/runs/{fingerprint}")
        assert status in (200, 202)  # 202 unless the run won the race
        # Drain so teardown doesn't race the executing run.
        status, payload = get(daemon.url, f"/runs/{fingerprint}?wait=30")
        assert status == 200

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
        get(daemon.url, f"/runs/{request.fingerprint()}?wait=30")
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
        status, payload = get(
            daemon.url, f"/runs/{request.fingerprint()}?wait=30"
        )
        assert status == 500
        assert payload["kind"] == "error"
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
