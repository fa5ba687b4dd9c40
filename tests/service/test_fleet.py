"""Fleet client: routing, exactly-once, failover, transport hardening.

The scenarios the distributed runner fleet must survive:

* routing is deterministic and member-order-independent (rendezvous);
* a cold sweep over N daemons sharing one segment root executes each
  miss exactly once fleet-wide, even with concurrent fleet clients
  that disagree on member order;
* killing a member mid-sweep reroutes its pending fingerprints and
  the sweep completes with no lost or duplicated artifacts;
* fleet-resolved artifacts are byte-identical to in-process ones;
* the per-member transport survives stale keep-alive sockets under
  concurrent threads (load-bearing once the fleet multiplies
  transports).
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.service import (
    FleetClient,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    parse_fleet_spec,
    rendezvous_member,
)
from repro.sim.config import scaled_config


@pytest.fixture
def fleet_daemons(tmp_path, daemon_factory):
    """Three daemons sharing one segment store root."""
    root = tmp_path / "shared-store"
    return [
        daemon_factory(
            jobs=2, store_root=root, daemon_id=f"member-{index}"
        )
        for index in range(3)
    ]


@pytest.fixture
def fleet(fleet_daemons):
    with FleetClient(
        [daemon.url for daemon in fleet_daemons], poll_wait_s=1.0
    ) as fleet:
        yield fleet


def grid_requests(seeds, horizon=2):
    return [
        RunRequest(
            config=scaled_config("tiny", seed=seed).with_horizon(horizon),
            policy=policy,
        )
        for seed in seeds
        for policy in default_policies()
    ]


def canonical_result(artifact):
    return json.dumps(artifact.result.to_dict(), sort_keys=True)


class TestRouting:
    def test_rendezvous_is_member_order_independent(self):
        members = [f"http://10.0.0.{i}:8123" for i in range(1, 8)]
        fingerprints = [f"{i:064x}" for i in range(500)]
        baseline = {
            fp: rendezvous_member(fp, members) for fp in fingerprints
        }
        for trial in range(5):
            shuffled = list(members)
            random.Random(trial).shuffle(shuffled)
            for fp in fingerprints:
                assert rendezvous_member(fp, shuffled) == baseline[fp]

    def test_rendezvous_balances_roughly(self):
        members = [f"http://10.0.0.{i}:8123" for i in range(1, 4)]
        fingerprints = [f"{i:064x}" for i in range(3000)]
        counts = {member: 0 for member in members}
        for fp in fingerprints:
            counts[rendezvous_member(fp, members)] += 1
        for count in counts.values():
            assert 700 <= count <= 1300  # ~1000 ± 30%

    def test_rendezvous_moves_little_on_member_loss(self):
        members = [f"http://10.0.0.{i}:8123" for i in range(1, 5)]
        fingerprints = [f"{i:064x}" for i in range(2000)]
        before = {
            fp: rendezvous_member(fp, members) for fp in fingerprints
        }
        survivors = members[1:]
        moved = sum(
            1
            for fp in fingerprints
            if before[fp] in survivors
            and rendezvous_member(fp, survivors) != before[fp]
        )
        # Keys owned by survivors must not move when a member dies.
        assert moved == 0

    def test_rendezvous_refuses_empty_membership(self):
        with pytest.raises(ServiceUnavailable):
            rendezvous_member("ab" * 32, [])


class TestFleetSpec:
    def test_comma_separated(self):
        assert parse_fleet_spec(
            "http://a:1, http://b:2 ,http://a:1"
        ) == ["http://a:1", "http://b:2"]

    def test_list_and_single(self):
        assert parse_fleet_spec(["http://a:1"]) == ["http://a:1"]
        assert parse_fleet_spec("http://a:1") == ["http://a:1"]

    def test_fleet_file(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text(
            "# the fleet\nhttp://a:1\n\nhttp://b:2  # second member\n"
        )
        assert parse_fleet_spec(f"@{path}") == [
            "http://a:1",
            "http://b:2",
        ]
        assert parse_fleet_spec(str(path)) == [
            "http://a:1",
            "http://b:2",
        ]

    def test_empty_spec_refused(self, tmp_path):
        with pytest.raises(ServiceError):
            parse_fleet_spec("  ,  ")
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ServiceError):
            parse_fleet_spec(f"@{empty}")

    def test_missing_fleet_file_refused(self, tmp_path):
        with pytest.raises(ServiceError):
            parse_fleet_spec(f"@{tmp_path / 'nope.txt'}")


class TestFleetSweep:
    def test_cold_sweep_routes_and_merges(self, fleet, fleet_daemons):
        requests = grid_requests(range(4))
        unique = {request.fingerprint() for request in requests}
        artifacts = fleet.run_many(requests)
        assert len(artifacts) == len(requests)
        assert [a.fingerprint for a in artifacts] == [
            r.fingerprint() for r in requests
        ]
        # Exactly-once: per-member executed-run counters sum to the
        # number of unique misses...
        computed = {
            daemon.daemon_id: daemon.counters["computed"]
            for daemon in fleet_daemons
        }
        assert sum(computed.values()) == len(unique)
        # ...and each member computed exactly its rendezvous share.
        expected = {daemon.daemon_id: 0 for daemon in fleet_daemons}
        by_url = {
            member["url"]: member["daemon_id"]
            for member in fleet.status()["fleet"]["members"]
        }
        for fingerprint in unique:
            owner = rendezvous_member(fingerprint, list(by_url))
            expected[by_url[owner]] += 1
        assert computed == expected

    def test_artifacts_byte_identical_to_in_process(
        self, tmp_path, fleet
    ):
        requests = grid_requests(range(2))
        fleet_artifacts = fleet.run_many(requests)
        with Orchestrator(
            store=ResultStore(tmp_path / "local-store")
        ) as local:
            local_artifacts = local.run_many(requests)
        for ours, theirs in zip(fleet_artifacts, local_artifacts):
            assert canonical_result(ours) == canonical_result(theirs)

    def test_warm_hits_resolve_without_execution(
        self, fleet, fleet_daemons
    ):
        requests = grid_requests(range(2))
        fleet.run_many(requests)
        computed = sum(d.counters["computed"] for d in fleet_daemons)
        again = fleet.run_many(requests)
        assert len(again) == len(requests)
        assert (
            sum(d.counters["computed"] for d in fleet_daemons) == computed
        )

    def test_duplicate_fingerprints_share_one_future(self, fleet):
        requests = grid_requests([0])
        futures = fleet.submit_many(requests + requests)
        assert futures[0] is futures[len(requests)]
        done = list(fleet.as_done(futures))
        assert len(done) == len(requests)  # unique futures only

    def test_progress_callback_fires_per_unique_run(self, fleet_daemons):
        events = []
        with FleetClient(
            [d.url for d in fleet_daemons],
            progress=lambda done, total: events.append((done, total)),
            poll_wait_s=1.0,
        ) as fleet:
            requests = grid_requests(range(2))
            fleet.run_many(requests)
        unique = len({r.fingerprint() for r in requests})
        assert events[-1] == (unique, unique)

    def test_daemon_id_stamped_into_store_meta(
        self, fleet, fleet_daemons, tmp_path
    ):
        requests = grid_requests([0])
        fleet.run_many(requests)
        store = fleet_daemons[0].orchestrator.store
        stamped = {
            fingerprint: document["meta"]["daemon"]
            for fingerprint, document in store.documents()
        }
        members = {daemon.daemon_id for daemon in fleet_daemons}
        for fingerprint in (r.fingerprint() for r in requests):
            assert stamped[fingerprint] in members


class TestExactlyOnceUnderConcurrency:
    def test_concurrent_fleet_clients_execute_each_miss_once(
        self, fleet_daemons
    ):
        urls = [daemon.url for daemon in fleet_daemons]
        requests = grid_requests(range(3))
        unique = {request.fingerprint() for request in requests}
        results: dict[int, list] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def sweep(slot: int, member_urls: list[str]) -> None:
            # Clients deliberately disagree on member order.
            with FleetClient(member_urls, poll_wait_s=1.0) as fleet:
                barrier.wait()
                try:
                    results[slot] = fleet.run_many(requests)
                except BaseException as error:  # surfaced below
                    errors.append(error)

        threads = [
            threading.Thread(target=sweep, args=(0, urls)),
            threading.Thread(target=sweep, args=(1, urls[::-1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results[0]) == len(results[1]) == len(requests)
        # Both clients resolved identical bytes...
        for ours, theirs in zip(results[0], results[1]):
            assert canonical_result(ours) == canonical_result(theirs)
        # ...and the fleet executed each unique miss exactly once.
        computed = sum(d.counters["computed"] for d in fleet_daemons)
        assert computed == len(unique)


class TestFailover:
    def test_kill_mid_sweep_completes_with_no_lost_or_dup_artifacts(
        self, tmp_path, daemon_factory
    ):
        root = tmp_path / "shared-store"
        daemons = [
            daemon_factory(
                jobs=2, store_root=root, daemon_id=f"member-{index}"
            )
            for index in range(3)
        ]
        requests = grid_requests(range(6), horizon=6)
        unique = {request.fingerprint() for request in requests}
        with FleetClient(
            [daemon.url for daemon in daemons], poll_wait_s=0.5
        ) as fleet:
            futures = fleet.submit_many(requests)
            # Killed as soon as the sweep is submitted, the victim still
            # owns unresolved work however fast the runs are; a kill on
            # a timer can land after the whole sweep has resolved.
            victim = daemons[1]
            victim.kill()
            done = list(fleet.as_done(futures))
            # No lost runs: every future resolved, none with an error.
            assert len(done) == len(unique)
            assert all(f.exception() is None for f in done)
            assert {f.fingerprint for f in done} == unique
            status = fleet.status()["fleet"]
            assert status["alive"] == 2
            down = [m for m in status["members"] if not m["alive"]]
            assert len(down) == 1
        # No lost artifacts: the shared store resolves every
        # fingerprint, each to exactly one document (the store's
        # fetch path dedups; byte-identity of re-executed runs is
        # covered above, so any racing duplicate is indistinguishable
        # anyway).
        store = ResultStore(root, backend="segment")
        for fingerprint in unique:
            assert store.fetch(fingerprint) is not None

    def test_pending_result_reroutes_after_kill(
        self, tmp_path, daemon_factory
    ):
        root = tmp_path / "shared-store"
        daemons = [
            daemon_factory(
                jobs=2, store_root=root, daemon_id=f"member-{index}"
            )
            for index in range(2)
        ]
        request = grid_requests([11], horizon=6)[0]
        with FleetClient(
            [daemon.url for daemon in daemons], poll_wait_s=0.5
        ) as fleet:
            future = fleet.submit(request)
            owner_url = fleet.member_for(request.fingerprint())
            owner_id = next(
                member["daemon_id"]
                for member in fleet.status()["fleet"]["members"]
                if member["url"] == owner_url
            )
            owner = next(
                d for d in daemons if d.daemon_id == owner_id
            )
            threading.Timer(0.2, owner.kill).start()
            artifact = future.result(timeout=60)
            assert artifact.fingerprint == request.fingerprint()

    def test_all_members_down_surfaces_cleanly(
        self, tmp_path, daemon_factory
    ):
        daemon = daemon_factory(
            jobs=2, store_root=tmp_path / "s", daemon_id="only"
        )
        request = grid_requests([12], horizon=6)[0]
        with FleetClient([daemon.url], poll_wait_s=0.5) as fleet:
            future = fleet.submit(request)
            daemon.kill()
            with pytest.raises(ServiceError):
                future.result(timeout=30)

    def test_status_revives_recovered_members(self, fleet, fleet_daemons):
        key = fleet.urls[0]
        fleet._mark_down(key, RuntimeError("synthetic outage"))
        assert key not in fleet._alive_keys()
        status = fleet.status()["fleet"]
        assert status["alive"] == len(fleet_daemons)
        assert key in fleet._alive_keys()

    def test_member_load_surfaces_in_status(self, fleet, fleet_daemons):
        status = fleet.status()["fleet"]
        for member, daemon in zip(
            sorted(status["members"], key=lambda m: m["daemon_id"]),
            sorted(fleet_daemons, key=lambda d: d.daemon_id),
        ):
            assert member["daemon_id"] == daemon.daemon_id
            assert member["jobs"] == daemon.orchestrator.jobs
            assert member["inflight"] == 0
            assert member["queue_depth"] == 0


class TestHealthz:
    def test_healthz_reports_load_fields(self, daemon, client):
        payload = client.ping()
        assert payload["daemon_id"] == daemon.daemon_id
        assert payload["jobs"] == daemon.orchestrator.jobs
        assert payload["inflight"] == 0
        assert payload["queue_depth"] == 0

    def test_healthz_counts_inflight_and_queue(
        self, daemon_factory, tiny_requests
    ):
        daemon = daemon_factory(jobs=2)
        with ServiceClient(daemon.url) as client:
            futures = client.submit_many(
                grid_requests(range(3), horizon=6)
            )
            health = daemon.health()
            assert health["inflight"] >= 1
            assert (
                health["queue_depth"]
                == max(0, health["inflight"] - 2)
            )
            list(client.as_done(futures))
            assert daemon.health()["inflight"] == 0


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


class TestOrchestratorSurfaceConformance:
    """FleetClient must be a drop-in orchestrator consumer surface."""

    SURFACE = (
        "submit",
        "submit_many",
        "as_done",
        "as_resolved",
        "run",
        "run_many",
        "with_jobs",
        "close",
    )

    def test_surface_methods_exist(self, fleet):
        for name in self.SURFACE:
            assert callable(getattr(fleet, name))
        assert fleet.jobs == 0
        assert fleet.with_jobs(8) is fleet

    def test_as_resolved_streams_artifacts(self, fleet):
        requests = grid_requests([0])
        futures = fleet.submit_many(requests)
        artifacts = list(fleet.as_resolved(futures))
        assert {a.fingerprint for a in artifacts} == {
            r.fingerprint() for r in requests
        }

    def test_runner_level_consumer_works_unchanged(self, fleet):
        # The same call shape scenarios/pareto/sensitivity use:
        # submit_many then as_done with per-future result().
        requests = grid_requests(range(2))
        futures = fleet.submit_many(requests)
        resolved = {
            future.fingerprint: future.result()
            for future in fleet.as_done(futures)
        }
        for request in requests:
            assert (
                resolved[request.fingerprint()].fingerprint
                == request.fingerprint()
            )
