"""ServiceClient: the drop-in orchestrator surface against a daemon."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.analysis.lower_bound import comparison_bounds
from repro.analysis.pareto import alpha_sweep
from repro.analysis.sensitivity import sweep_qos
from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies, run_comparison
from repro.service import ServiceClient, ServiceError
from repro.service.client import ServiceRunError
from tests.service.conftest import grid_requests


class TestConstruction:
    def test_rejects_non_http_urls(self):
        with pytest.raises(ServiceError):
            ServiceClient("ftp://host:1")

    def test_rejects_bad_port_and_paths_cleanly(self):
        for url in (
            "http://127.0.0.1:80x0",
            "http://127.0.0.1:8123/prefix",
            # The retired multi-daemon forms of --service.
            "http://127.0.0.1:8123,http://127.0.0.1:8124",
            "@fleet.txt",
            # Userinfo would otherwise be dropped without a word.
            "http://user@127.0.0.1:8123",
        ):
            with pytest.raises(ServiceError, match="http://host:port"):
                ServiceClient(url)

    def test_bare_host_port_accepted(self, daemon):
        host, port = daemon.address
        with ServiceClient(f"{host}:{port}") as client:
            assert client.ping()["status"] == "ok"

    def test_unreachable_daemon(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()


class TestSubmission:
    def test_submit_resolves_to_artifact(self, client, tiny_requests):
        future = client.submit(tiny_requests[0])
        artifact = future.result(timeout=60)
        assert artifact.fingerprint == tiny_requests[0].fingerprint()
        assert future.done()
        assert future.exception(timeout=0) is None

    def test_second_submit_is_store_hit(self, client, tiny_requests):
        client.submit(tiny_requests[0]).result(timeout=60)
        future = client.submit(tiny_requests[0])
        assert future.done()  # instant reply, no polling needed
        assert future.result().source != "computed"

    def test_submit_many_shares_duplicates(self, client, tiny_requests):
        request = tiny_requests[0]
        futures = client.submit_many([request, request, request])
        assert len(futures) == 3
        assert len({f.fingerprint for f in futures}) == 1
        artifacts = [f.result(timeout=60) for f in futures]
        assert client.stats()["computed"] == 1
        assert len({a.fingerprint for a in artifacts}) == 1

    def test_as_done_yields_every_distinct_future(
        self, client, tiny_requests
    ):
        """Two submit() calls of one request both yield, like in-process:
        the second shares the first one's pending future until a poll
        settles it, and progress reaches (2, 2)."""
        request = tiny_requests[0]
        first = client.submit(request)
        second = client.submit(request)
        assert first is not second
        assert first._future is second._future
        calls = []
        client.progress = lambda *call: calls.append(call)
        yielded = list(client.as_done([first, second]))
        assert set(yielded) == {first, second}
        assert all(f.done() for f in yielded)
        assert calls == [(1, 2), (2, 2)]

    def test_run_many_matches_inprocess_bit_for_bit(
        self, client, tiny_requests, tmp_path
    ):
        remote = client.run_many(tiny_requests)
        local = Orchestrator(
            store=ResultStore(tmp_path / "local")
        ).run_many(tiny_requests)
        for over_wire, in_process in zip(remote, local):
            assert over_wire.fingerprint == in_process.fingerprint
            assert json.dumps(
                over_wire.result.to_dict(), sort_keys=True
            ) == json.dumps(in_process.result.to_dict(), sort_keys=True)

    def test_progress_callback_fires(self, daemon, tiny_requests):
        seen = []
        client = ServiceClient(
            daemon.url, progress=lambda done, total: seen.append((done, total))
        )
        client.run_many(tiny_requests[:2])
        assert seen[-1] == (2, 2)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_failed_run_raises_service_run_error(self, daemon_factory, tiny_config):
        import numpy as np

        from repro.workload.packs import RecordedTraceSource, TracePack

        daemon = daemon_factory(jobs=1)
        client = ServiceClient(daemon.url)
        pack = TracePack(
            name="mismatched",
            source=RecordedTraceSource(
                utilization=np.full((3, 60), 0.5), steps_per_slot=60
            ),
        )
        request = RunRequest(
            config=tiny_config, policy=default_policies()[0], pack=pack
        )
        with pytest.raises(ServiceRunError, match="steps per slot"):
            client.run(request)


class TestAnalysisConsumers:
    """The analysis layer takes a ServiceClient verbatim."""

    def test_run_comparison(self, client, tiny_config):
        results = run_comparison(tiny_config, orchestrator=client)
        assert [r.policy_name for r in results] == [
            "Proposed", "Ener-aware", "Pri-aware", "Net-aware",
        ]

    def test_alpha_sweep(self, client, tiny_config):
        points = alpha_sweep(tiny_config, (0.3, 0.7), orchestrator=client)
        assert [p.alpha for p in points] == [0.3, 0.7]

    def test_sweep_qos(self, client, tiny_config):
        rows = sweep_qos(
            tiny_config, qos_levels=(0.98, 0.95), orchestrator=client
        )
        assert [row.value for row in rows] == [0.98, 0.95]

    def test_comparison_bounds(self, client, tiny_config):
        bounds = comparison_bounds(tiny_config, orchestrator=client)
        assert len(bounds) == 4
        for result, bound in bounds:
            assert bound.total_cost_eur <= bound.actual_cost_eur + 1e-9


class TestTransportTunables:
    def test_tiny_chunks_still_resolve_a_sweep(self, daemon, monkeypatch):
        monkeypatch.setattr("repro.service.client._POLL_CHUNK", 1)
        monkeypatch.setattr("repro.service.client._BATCH_CHUNK", 1)
        with ServiceClient(daemon.url) as client:
            requests = grid_requests(range(2))
            artifacts = client.run_many(requests)
            assert len(artifacts) == len(requests)
        # One batch POST per request: every chunk boundary was crossed.
        assert daemon.stats()["wire"]["batch_requests"] == len(requests)


class TestTransportHardeningUnderThreads:
    def test_stale_keepalive_retry_under_concurrent_threads(
        self, daemon_factory, tiny_requests
    ):
        # An idle reaper aggressive enough that every thread's parked
        # connection is stale by its second round.
        daemon = daemon_factory(idle_timeout_s=0.25)
        with ServiceClient(daemon.url) as client:
            client.run_many(tiny_requests)  # warm + per-thread sockets
            errors: list[BaseException] = []
            barrier = threading.Barrier(4)

            def body() -> None:
                try:
                    client.run_many(tiny_requests)  # open the socket
                    barrier.wait()
                    time.sleep(0.8)  # idle past the server-side reaper
                    for _ in range(3):
                        artifacts = client.run_many(tiny_requests)
                        assert len(artifacts) == len(tiny_requests)
                except BaseException as error:
                    errors.append(error)
                    barrier.abort()

            threads = [
                threading.Thread(target=body) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
