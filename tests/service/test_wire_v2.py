"""Wire v2: gzip, batching, projections, hardening."""

from __future__ import annotations

import gzip
import http.client
import json
import socket
import time

from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.service import ServiceClient
from repro.service.protocol import (
    WIRE_VERSION,
    encode_batch,
    encode_poll,
    encode_request,
)
from repro.sim.results import HeadlineResult, RunResult
from tests.service.conftest import get


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


class TestGzip:
    def test_response_gzip_negotiation_round_trips(
        self, daemon, tiny_requests
    ):
        request = tiny_requests[0]
        warm(daemon, [request])
        path = f"/runs/{request.fingerprint()}?detail=full"
        status, headers, identity = raw(daemon.address, "GET", path)
        assert status == 200
        assert "Content-Encoding" not in headers
        status, headers, compressed = raw(
            daemon.address, "GET", path,
            headers={"Accept-Encoding": "gzip"},
        )
        assert status == 200
        assert headers.get("Content-Encoding") == "gzip"
        assert len(compressed) < len(identity)
        assert json.loads(gzip.decompress(compressed)) == (
            json.loads(identity)
        )

    def test_gzip_request_body_accepted(self, daemon, tiny_requests):
        request = tiny_requests[0]
        body = json.dumps(encode_batch([encode_request(request)])).encode()
        status, _, data = raw(
            daemon.address, "POST", "/runs/batch",
            body=gzip.compress(body),
            headers={
                "Content-Type": "application/json",
                "Content-Encoding": "gzip",
            },
        )
        assert status == 200
        line = json.loads(data.splitlines()[0])
        assert line["kind"] in ("pending", "run_artifact")
        assert line["fingerprint"] == request.fingerprint()
        # Drain so teardown does not race the launched run.
        get(daemon.url, f"/runs/{request.fingerprint()}?wait=60")

    def test_batch_poll_concatenates_gzip_members(
        self, daemon, tiny_requests
    ):
        """A gzip poll body is cached members stitched, not re-zipped."""
        requests = tiny_requests[:2]
        warm(daemon, requests)
        fingerprints = [r.fingerprint() for r in requests]
        body = json.dumps(encode_poll(fingerprints)).encode()
        status, headers, compressed = raw(
            daemon.address, "POST", "/runs/poll",
            body=body,
            headers={
                "Content-Type": "application/json",
                "Accept-Encoding": "gzip",
            },
        )
        assert status == 200
        assert headers.get("Content-Encoding") == "gzip"
        # Multi-member stream: decompress yields every line.
        lines = [
            json.loads(line)
            for line in gzip.decompress(compressed).splitlines()
            if line.strip()
        ]
        assert [line["fingerprint"] for line in lines] == fingerprints
        assert {line["kind"] for line in lines} == {"run_artifact"}

    def test_compressed_and_identity_clients_agree(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory()
        with ServiceClient(daemon.url, compress=False) as plain:
            identity = plain.run_many(tiny_requests)
        with ServiceClient(daemon.url, compress=True) as zipped:
            compressed = zipped.run_many(tiny_requests)
        for a, b in zip(identity, compressed):
            assert a.fingerprint == b.fingerprint
            assert json.dumps(a.result.to_dict(), sort_keys=True) == (
                json.dumps(b.result.to_dict(), sort_keys=True)
            )
        wire = get(daemon.url, "/stats")[1]["wire"]
        assert wire["responses_gzip"] >= 1
        assert wire["responses_identity"] >= 1


class TestDetailProjection:
    def test_headline_is_strict_field_subset(self, daemon, tiny_requests):
        request = tiny_requests[0]
        warm(daemon, [request])
        fingerprint = request.fingerprint()
        status, full_payload = get(
            daemon.url, f"/runs/{fingerprint}?detail=full"
        )
        assert status == 200
        status, head_payload = get(
            daemon.url, f"/runs/{fingerprint}?detail=headline"
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

    def test_headline_accessors_match_full(self, daemon, tiny_requests):
        request = tiny_requests[0]
        with ServiceClient(daemon.url) as client:
            full = client.run(request, detail="full").result
            head = client.run(request, detail="headline").result
        assert isinstance(head, HeadlineResult)
        assert not isinstance(full, HeadlineResult)
        assert head.policy_name == full.policy_name
        assert head.total_grid_cost_eur() == full.total_grid_cost_eur()
        assert head.total_energy_gj() == full.total_energy_gj()
        assert head.total_facility_energy_joules() == (
            full.total_facility_energy_joules()
        )
        assert head.renewable_utilization() == full.renewable_utilization()
        assert head.mean_response_s() == full.mean_response_s()
        assert head.percentile_response_s(99.0) == (
            full.percentile_response_s(99.0)
        )
        assert head.total_migrations() == full.total_migrations()

    def test_headline_lazily_upgrades_to_full(self, daemon, tiny_requests):
        request = tiny_requests[0]
        with ServiceClient(daemon.url, detail="headline") as client:
            full = client.run(request, detail="full").result
            head = client.run(request).result  # client default: headline
            assert isinstance(head, HeadlineResult)
            # Anything beyond the headline block fetches the full
            # ledger over the wire, transparently.
            assert head.to_dict() == full.to_dict()
            assert head.full().policy_name == full.policy_name

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
        status, payload = get(
            daemon.url, f"/runs/{'0' * 64}?detail=everything"
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
        get(daemon.url, f"/runs/{fresh_request.fingerprint()}?wait=60")

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
        get(daemon.url, f"/runs/{tiny_requests[0].fingerprint()}?wait=60")

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

    def test_gzip_bomb_capped_on_inflated_size(self, daemon_factory):
        daemon = daemon_factory(max_body_bytes=2048)
        bomb = gzip.compress(b"0" * 1_000_000)  # ~1KB compressed
        assert len(bomb) <= 2048
        status, _, data = raw(
            daemon.address, "POST", "/runs/batch",
            body=bomb,
            headers={
                "Content-Type": "application/json",
                "Content-Encoding": "gzip",
            },
        )
        assert status == 413
        assert "inflates" in json.loads(data)["error"]

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
