"""Wire v2: identity coding, batching, projections, hardening."""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.service import ServiceClient
from repro.service.protocol import (
    WIRE_VERSION,
    encode_batch,
    encode_poll,
    encode_request,
)
from repro.sim.results import HeadlineResult, RunResult
from tests.service.conftest import get, poll


def raw(address, method, path, body=None, headers=None):
    """One exchange with full header control; (status, headers, body)."""
    connection = http.client.HTTPConnection(*address, timeout=90)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def warm(daemon, requests):
    """Resolve ``requests`` on the daemon so later hits are warm."""
    with ServiceClient(daemon.url) as client:
        client.run_many(requests)


class TestIdentityWire:
    """Bodies travel in HTTP's identity coding, both ways."""

    @pytest.mark.parametrize("path", ["/runs/batch", "/runs/poll"])
    def test_coded_request_body_gets_415(self, daemon, path):
        """A gzip body is refused before it is read: its 415 arrives
        though the declared body is never sent, and the daemon closes
        the connection (EOF, not the 120 s idle reaper)."""
        sock = socket.create_connection(daemon.address, timeout=10)
        try:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: t\r\n".encode()
                + b"Content-Type: application/json\r\n"
                b"Content-Encoding: gzip\r\n"
                b"Content-Length: 4096\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        finally:
            sock.close()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b" 415 " in head.partition(b"\r\n")[0]
        assert b"connection: close" in head.lower()
        assert "Content-Encoding" in json.loads(body)["error"]
        assert daemon.stats()["wire"]["bytes_in"] == 0

    def test_accept_encoding_gzip_is_ignored(self, daemon, tiny_requests):
        request = tiny_requests[0]
        warm(daemon, [request])
        body = json.dumps(encode_poll([request.fingerprint()])).encode()
        plain = {"Content-Type": "application/json"}
        replies = [
            raw(daemon.address, "POST", "/runs/poll", body=body, headers=h)
            for h in (plain, {**plain, "Accept-Encoding": "gzip"})
        ]
        for status, headers, _ in replies:
            assert status == 200
            assert "Content-Encoding" not in headers
        (line,) = [json.loads(text) for text in replies[1][2].splitlines()]
        assert line["kind"] == "run_artifact"
        assert line["fingerprint"] == request.fingerprint()
        assert replies[1][2] == replies[0][2]


class TestDetailProjection:
    def test_headline_is_strict_field_subset(self, daemon, tiny_requests):
        request = tiny_requests[0]
        warm(daemon, [request])
        fingerprint = request.fingerprint()
        status, (full_payload,) = poll(daemon.url, [fingerprint])
        assert status == 200
        status, (head_payload,) = poll(
            daemon.url, [fingerprint], detail="headline"
        )
        assert status == 200
        assert head_payload["detail"] == "headline"
        assert "result" not in head_payload

        full_result = RunResult.from_dict(full_payload["result"])
        headline = head_payload["headline"]
        # Every projected field is derivable from the full ledger and
        # exactly equal to it (JSON float round-trips are exact).
        assert headline == full_result.headline()
        # ...and the projection is *strict*: the full ledger carries
        # more than the headline block.
        assert len(json.dumps(head_payload)) < len(
            json.dumps(full_payload)
        )

    def test_headline_refuses_reads_past_its_block(
        self, daemon, tiny_requests
    ):
        request = tiny_requests[0]
        with ServiceClient(daemon.url) as client:
            full = client.run(request).result  # no detail named: full
            head = client.run(request, detail="headline").result
            assert isinstance(head, HeadlineResult)
            assert not isinstance(full, HeadlineResult)
            assert head.headline() == full.headline()
            # Anything beyond the headline block raises, naming the
            # detail that carries it, and asks the daemon nothing.
            before = daemon.stats()["requests"]
            with pytest.raises(ValueError, match="detail='full'"):
                head.to_dict()
            assert daemon.stats()["requests"] == before

    def test_client_detail_used_by_analysis_consumer(
        self, daemon, tiny_config
    ):
        """A headline-declaring consumer works end to end over wire."""
        from repro.analysis.sensitivity import sweep_qos

        with ServiceClient(daemon.url) as client:
            rows = sweep_qos(
                tiny_config, qos_levels=(0.98, 0.95), orchestrator=client
            )
        assert [row.value for row in rows] == [0.98, 0.95]
        assert all(row.cost_eur >= 0 for row in rows)

    def test_inprocess_orchestrator_accepts_detail(
        self, tmp_path, tiny_requests
    ):
        """The in-process surface takes detail= and ignores it."""
        with Orchestrator(store=ResultStore(tmp_path / "s")) as local:
            artifacts = local.run_many(
                tiny_requests[:1], detail="headline"
            )
        assert isinstance(artifacts[0].result, RunResult)

    def test_bad_detail_rejected(self, daemon, tiny_requests):
        status, (payload,) = poll(
            daemon.url, ["0" * 64], detail="everything"
        )
        assert status == 400
        assert "detail" in payload["error"]


class TestBatchEndpoints:
    def test_batch_dispositions_in_entry_order(self, daemon, tiny_requests):
        warm_request, fresh_request = tiny_requests[0], tiny_requests[1]
        warm(daemon, [warm_request])
        entries = [
            encode_request(warm_request),
            encode_request(fresh_request),
        ]
        body = json.dumps(encode_batch(entries)).encode()
        status, _, data = raw(
            daemon.address, "POST", "/runs/batch",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        lines = [
            json.loads(line) for line in data.splitlines() if line.strip()
        ]
        assert len(lines) == 2
        assert lines[0]["fingerprint"] == warm_request.fingerprint()
        assert lines[0]["kind"] == "run_artifact"
        assert lines[1]["fingerprint"] == fresh_request.fingerprint()
        assert lines[1]["kind"] in ("pending", "run_artifact")
        _, (line,) = poll(daemon.url, [fresh_request.fingerprint()], wait=60)
        assert line["kind"] == "run_artifact"

    def test_malformed_batch_entry_poisons_only_its_line(
        self, daemon, tiny_requests
    ):
        good = encode_request(tiny_requests[0])
        bad = {"wire_version": WIRE_VERSION, "kind": "nonsense"}
        old = dict(good, wire_version=1)
        # Entries whose request tree fails while being rebuilt: a
        # dataclass's own validation (ValueError), a malformed tag
        # (TypeError), a tag missing its payload (KeyError) and a
        # RunRequest whose fields cannot be fingerprinted
        # (AttributeError).
        warp = json.loads(json.dumps(good))
        options = warp["request"]["fields"]["options"]["fields"]
        options["engine"]["fields"]["kind"] = "warp"
        not_a_tuple = dict(good, request={"__tuple__": 5})
        no_data = dict(good, request={"__ndarray__": "<f8"})
        int_fields = dict(
            good,
            request={
                "__dataclass__": "repro.experiments.orchestrator:RunRequest",
                "fields": {"config": 5, "policy": 5},
            },
        )
        undecodable = [warp, not_a_tuple, no_data, int_fields]
        body = json.dumps(
            encode_batch([bad, old, *undecodable, good])
        ).encode()
        status, _, data = raw(
            daemon.address, "POST", "/runs/batch",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        lines = [
            json.loads(line) for line in data.splitlines() if line.strip()
        ]
        assert len(lines) == 7
        assert lines[0]["kind"] == "error"
        # A v1 entry is refused on its own line; its sibling is served.
        assert lines[1]["kind"] == "error"
        assert lines[1]["status"] == 400
        assert "wire version" in lines[1]["error"]
        for line in lines[2:6]:
            assert line["kind"] == "error"
            assert line["status"] == 400
            assert "undecodable request" in line["error"]
        assert lines[6]["kind"] in ("pending", "run_artifact")
        _, (line,) = poll(
            daemon.url, [tiny_requests[0].fingerprint()], wait=60
        )
        assert line["kind"] == "run_artifact"

    def test_old_shaped_entries_get_400_lines(self, daemon, tiny_requests):
        """An entry carrying a removed engine flag or a baseline's
        headroom is refused on its own line; its sibling is served."""
        good = encode_request(tiny_requests[0])
        flagged = json.loads(json.dumps(good))
        options = flagged["request"]["fields"]["options"]["fields"]
        options["validate"] = True
        headroom = json.loads(json.dumps(encode_request(tiny_requests[1])))
        headroom["request"]["fields"]["policy"]["state"]["headroom"] = 0.9
        body = json.dumps(encode_batch([flagged, headroom, good])).encode()
        status, _, data = raw(
            daemon.address, "POST", "/runs/batch",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        lines = [
            json.loads(line) for line in data.splitlines() if line.strip()
        ]
        assert len(lines) == 3
        for line, name in zip(lines, ("validate", "headroom")):
            assert line["kind"] == "error"
            assert line["status"] == 400
            assert "undecodable request" in line["error"]
            assert name in line["error"]
        assert lines[2]["kind"] in ("pending", "run_artifact")
        _, (line,) = poll(
            daemon.url, [tiny_requests[0].fingerprint()], wait=60
        )
        assert line["kind"] == "run_artifact"

    def test_poll_reports_unknown_fingerprints(self, daemon):
        body = json.dumps(encode_poll(["0" * 64])).encode()
        status, _, data = raw(
            daemon.address, "POST", "/runs/poll",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        line = json.loads(data.splitlines()[0])
        assert line["kind"] == "error"
        assert line["status"] == 404

    def test_warm_submit_many_costs_few_round_trips(
        self, daemon, tiny_requests
    ):
        warm(daemon, tiny_requests)
        before = get(daemon.url, "/stats")[1]["requests"]
        with ServiceClient(daemon.url) as client:
            artifacts = client.run_many(tiny_requests)
        after = get(daemon.url, "/stats")[1]["requests"]
        assert len(artifacts) == len(tiny_requests)
        # One chunked poll settles the whole warm sweep -- not one
        # POST per request; the second request is the /stats read.
        assert after - before == 2

    def test_each_single_read_costs_one_poll(self, daemon, tiny_requests):
        """A lookup and a warm run(): one POST each."""
        request = tiny_requests[0]
        warm(daemon, [request])

        def cost(read) -> tuple[int, bool, int]:
            """(requests, whether a body was posted, batch POSTs)."""
            before = daemon.stats()
            read()
            after = daemon.stats()
            return (
                after["requests"] - before["requests"],
                after["wire"]["bytes_in"] > before["wire"]["bytes_in"],
                after["wire"]["batch_requests"]
                - before["wire"]["batch_requests"],
            )

        one_poll = (1, True, 0)  # a GET posts no body
        with ServiceClient(daemon.url) as client:
            assert cost(
                lambda: client.lookup(request, request.fingerprint())
            ) == one_poll
            assert cost(
                lambda: client.run(request, detail="headline")
            ) == one_poll

    def test_wire_counters_observe_batching(self, daemon, tiny_requests):
        with ServiceClient(daemon.url) as client:
            client.run_many(tiny_requests)  # fresh: poll + batch POSTs
        wire = get(daemon.url, "/stats")[1]["wire"]
        assert wire["batch_requests"] >= 1
        assert wire["batch_entries"] >= len(tiny_requests)
        assert wire["bytes_in"] > 0
        assert wire["bytes_out"] > 0
        assert wire["request_p99_ms"] >= wire["request_p50_ms"] >= 0.0


class TestRequestCaps:
    def test_missing_content_length_411(self, daemon):
        sock = socket.create_connection(daemon.address, timeout=10)
        try:
            sock.sendall(
                b"POST /runs/batch HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n\r\n"
            )
            reply = sock.recv(65536).decode()
        finally:
            sock.close()
        assert " 411 " in reply.partition("\r\n")[0]

    def test_interim_100_continue_precedes_the_body(self, daemon):
        """A client that sends ``Expect: 100-continue`` holds its body
        back until the interim reply arrives; it must not sit in the
        daemon's write buffer."""
        body = json.dumps(encode_poll(["0" * 64])).encode()
        sock = socket.create_connection(daemon.address, timeout=10)
        try:
            sock.sendall(
                b"POST /runs/poll HTTP/1.1\r\nHost: t\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            interim = sock.recv(65536)
            sock.sendall(body)
            reply = sock.recv(65536)
        finally:
            sock.close()
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_batch_endpoint_shares_the_cap(self, daemon_factory):
        daemon = daemon_factory(max_body_bytes=2048)
        status, _, data = raw(
            daemon.address, "POST", "/runs/batch",
            body=b"x" * 4096,
            headers={"Content-Type": "application/json"},
        )
        assert status == 413
        # Declare a huge body but never send it: the 413 must arrive
        # anyway, proving the daemon rejected on the declared length,
        # and close the connection the unread body would desync.
        sock = socket.create_connection(daemon.address, timeout=10)
        try:
            sock.sendall(
                b"POST /runs/batch HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
            reply = sock.recv(65536).decode()
        finally:
            sock.close()
        status_line, _, rest = reply.partition("\r\n")
        assert " 413 " in status_line
        assert "connection: close" in rest.lower()


class TestStaleKeepAlive:
    def test_idle_closed_connection_is_retried_transparently(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory(idle_timeout_s=0.25)
        client = ServiceClient(daemon.url)
        assert client.ping()["status"] == "ok"
        time.sleep(0.8)  # daemon reaps the idle keep-alive socket
        # The next call would die with RemoteDisconnected on the stale
        # socket; the client retries once on a fresh connection.
        assert client.stats()["kind"] == "stats"
        time.sleep(0.8)
        artifact = client.run(tiny_requests[0])
        assert artifact.fingerprint == tiny_requests[0].fingerprint()
        client.close()
