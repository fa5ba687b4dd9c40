"""Futures-based orchestration: submit, as_done, progress, errors."""

import os
import time

import pytest

from repro.baselines import EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy
from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunFuture,
    RunRequest,
    run_meta,
)
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.state import PlacementPolicy
from repro.workload.packs import RecordedTraceSource, TracePack

import numpy as np


def tiny(horizon: int = 2, seed: int = 0):
    return scaled_config("tiny", seed=seed).with_horizon(horizon)


def request(policy_index: int = 1, **kwargs):
    return RunRequest(
        config=kwargs.pop("config", tiny()),
        policy=kwargs.pop("policy", None)
        or default_policies()[policy_index],
        **kwargs,
    )


class StalledPolicy(PriAwarePolicy):
    """Blocks until a release file exists: a deliberately stalled
    worker (picklable).  The wait is bounded, so a test that never
    releases it fails instead of hanging."""

    name = "Stalled"

    def __init__(self, release) -> None:
        super().__init__()
        self.release = str(release)

    def place(self, observation):
        deadline = time.monotonic() + 60.0
        while not os.path.exists(self.release):
            if time.monotonic() > deadline:
                raise TimeoutError("stalled worker was never released")
            time.sleep(0.01)
        return super().place(observation)


class ExplodingPolicy(PlacementPolicy):
    """Raises on first placement; picklable for pool workers."""

    name = "Exploding"

    def place(self, observation):
        raise RuntimeError("boom")


class TestSubmit:
    def test_serial_submit_returns_resolved_future(self):
        future = Orchestrator().submit(request())
        assert isinstance(future, RunFuture)
        assert future.done()
        artifact = future.result()
        assert artifact.source == "computed"
        assert artifact.fingerprint == future.fingerprint

    def test_cache_hit_resolves_immediately(self):
        orchestrator = Orchestrator()
        orchestrator.run(request())
        future = orchestrator.submit(request())
        assert future.done()
        assert future.result().source == "memory"
        assert future.exception() is None

    def test_submit_records_into_store(self, tmp_path):
        store = ResultStore(tmp_path)
        future = Orchestrator(store=store).submit(request())
        assert future.fingerprint in store

    def test_parallel_submit_streams_into_store_before_done(self, tmp_path):
        store = ResultStore(tmp_path)
        with Orchestrator(store=store, jobs=2) as orchestrator:
            future = orchestrator.submit(request())
            artifact = future.result()
        # Persistence callbacks run before the future resolves.
        assert artifact.fingerprint in store
        retry = Orchestrator(store=ResultStore(tmp_path)).run(request())
        assert retry.source == "disk"

    def test_inflight_deduplication(self):
        with Orchestrator(jobs=2) as orchestrator:
            first = orchestrator.submit(request())
            second = orchestrator.submit(request())
            assert first.result().result is second.result().result
        assert orchestrator.store.stats()["writes"] == 1

    def test_submit_many_shares_duplicate_futures(self):
        orchestrator = Orchestrator()
        futures = orchestrator.submit_many([request(), request()])
        assert futures[0] is futures[1]
        assert orchestrator.store.stats()["writes"] == 1


class TestAsResolved:
    """``as_done`` streams futures out as their runs resolve."""

    def test_yields_in_completion_order_while_misses_execute(self, tmp_path):
        """The stalled-worker guarantee: fast runs stream out while a
        slow run is still executing; nothing waits for the whole
        batch."""
        gate = tmp_path / "release"
        slow = request(policy=StalledPolicy(gate))
        fast = request(1)
        with Orchestrator(jobs=2) as orchestrator:
            futures = orchestrator.submit_many([slow, fast])
            stream = orchestrator.as_done(futures)
            first = next(stream)
            # The fast run resolved first -- and the stalled one is
            # genuinely still executing at this moment.
            assert first.fingerprint == futures[1].fingerprint
            assert not futures[0].done()
            gate.touch()
            rest = list(stream)
        assert [future.fingerprint for future in rest] == [
            futures[0].fingerprint
        ]

    def test_cache_hits_yield_before_pending_misses(self, tmp_path):
        gate = tmp_path / "release"
        with Orchestrator(jobs=2) as orchestrator:
            orchestrator.run(request(1))
            futures = orchestrator.submit_many(
                [request(policy=StalledPolicy(gate)), request(1)]
            )
            first = next(orchestrator.as_done(futures))
            assert first.result().source == "memory"
            assert not futures[0].done()
            gate.touch()
            futures[0].result()  # drain

    def test_as_done_over_two_submits_of_one_inflight_run(self, tmp_path):
        """Both futures yield and progress reaches (2, 2), though the
        pool runs the fingerprint once behind one shared future."""
        gate = tmp_path / "release"
        calls = []
        with Orchestrator(
            jobs=2, progress=lambda done, total: calls.append((done, total))
        ) as orchestrator:
            stalled = request(policy=StalledPolicy(gate))
            first = orchestrator.submit(stalled)
            second = orchestrator.submit(stalled)
            assert first is not second
            assert first._future is second._future
            assert not first.done()

            def release_once_read():
                # as_done reads its futures before checking which are
                # done, so the run is still stalled at that check.
                yield from (first, second)
                gate.touch()

            yielded = list(orchestrator.as_done(release_once_read()))
        assert set(yielded) == {first, second}
        assert calls == [(1, 2), (2, 2)]

    def test_duplicates_yield_once(self):
        orchestrator = Orchestrator()
        futures = orchestrator.submit_many([request(), request()])
        assert len(list(orchestrator.as_done(futures))) == 1

    def test_failed_run_raises_in_stream(self):
        with Orchestrator(jobs=2) as orchestrator:
            futures = orchestrator.submit_many(
                [request(policy=ExplodingPolicy())]
            )
            with pytest.raises(RuntimeError, match="boom"):
                [future.result() for future in orchestrator.as_done(futures)]


class TestRunManyWrapper:
    def test_results_identical_to_serial_reference(self):
        """The futures-backed run_many stays byte-identical."""
        requests = [request(index) for index in range(3)]
        serial = [
            Orchestrator().run(req).result for req in requests
        ]
        with Orchestrator(jobs=2) as orchestrator:
            batch = orchestrator.run_many(
                [request(index) for index in range(3)]
            )
        for reference, artifact in zip(serial, batch):
            assert artifact.result.policy_name == reference.policy_name
            assert artifact.result.slots == reference.slots
            assert (
                artifact.result.to_dict() == reference.to_dict()
            )

    def test_order_preserved_despite_completion_order(self, tmp_path):
        gate = tmp_path / "release"
        slow_first = [request(policy=StalledPolicy(gate)), request(1)]
        # The fast run completes first; its progress tick releases the
        # stalled one.
        with Orchestrator(
            jobs=2, progress=lambda done, total: gate.touch()
        ) as orchestrator:
            artifacts = orchestrator.run_many(slow_first)
        assert artifacts[0].result.policy_name == "Stalled"
        assert artifacts[1].result.policy_name == "Ener-aware"

    def test_run_delegates_to_submit(self):
        artifact = Orchestrator().run(request())
        assert artifact.source == "computed"


class TestProgress:
    def test_progress_streams_per_completion(self):
        calls = []
        orchestrator = Orchestrator(progress=lambda d, t: calls.append((d, t)))
        orchestrator.run_many([request(1), request(2), request(3)])
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_progress_counts_unique_runs(self):
        calls = []
        orchestrator = Orchestrator(progress=lambda d, t: calls.append((d, t)))
        orchestrator.run_many([request(1), request(1), request(2)])
        assert calls == [(1, 2), (2, 2)]

    def test_progress_fires_while_stalled_worker_runs(self, tmp_path):
        gate = tmp_path / "release"
        snapshots = []

        def progress(done, total):
            snapshots.append((done, total, futures[0].done()))
            gate.touch()

        with Orchestrator(jobs=2) as orchestrator:
            slow = request(policy=StalledPolicy(gate))
            fast = request(1)
            futures = orchestrator.submit_many([slow, fast])
            orchestrator.progress = progress
            orchestrator.run_many([slow, fast])
        # The first progress tick arrived before the stalled run ended.
        assert snapshots[0][:2] == (1, 2)
        assert snapshots[0][2] is False
        assert snapshots[-1][:2] == (2, 2)


class TestRunMeta:
    def test_synthetic_run_has_no_labels(self):
        assert run_meta(request()) == {}

    def test_pack_run_carries_only_its_pack_block(self):
        rng = np.random.default_rng(3)
        pack = TracePack(
            name="My Recorded Pack!",
            source=RecordedTraceSource(
                utilization=rng.uniform(0.1, 0.8, size=(3, 60)),
                steps_per_slot=30,
            ),
        )
        assert run_meta(request(pack=pack)) == {
            "pack": {
                "name": "My Recorded Pack!",
                "version": pack.version,
                "kind": pack.kind,
                "sha256": pack.sha256,
            }
        }

    def test_meta_travels_to_disk_documents(self, tmp_path):
        store = ResultStore(tmp_path)
        Orchestrator(store=store, meta={"campaign": "c-1"}).run(request())
        ((_, document),) = list(store.documents())
        assert document["meta"] == {"campaign": "c-1"}


class TestLifecycle:
    def test_close_is_idempotent(self):
        orchestrator = Orchestrator(jobs=2)
        orchestrator.run_many([request(1), request(2)])
        orchestrator.close()
        orchestrator.close()

    def test_context_manager_closes_pool(self):
        with Orchestrator(jobs=2) as orchestrator:
            orchestrator.run_many([request(1), request(2)])
        assert orchestrator._pool is None

    def test_pool_survives_across_batches(self):
        with Orchestrator(jobs=2) as orchestrator:
            orchestrator.run_many([request(1)])
            pool = orchestrator._pool
            orchestrator.run_many([request(2)])
            assert orchestrator._pool is pool
