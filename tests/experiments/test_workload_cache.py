"""Workload sharing in the orchestrator: identity, sharing, plumbing."""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.experiments.orchestrator import (
    Orchestrator,
    RunRequest,
    grid_requests,
)
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine, with_requests
from repro.workload.materialize import build_materialization
from repro.workload.packs import RecordedTraceSource, TracePack, get_pack


def tiny(horizon: int = 3, seed: int = 0):
    return scaled_config("tiny", seed=seed).with_horizon(horizon)


def request(policy_index: int = 1, **kwargs):
    return RunRequest(
        config=kwargs.pop("config", tiny()),
        policy=kwargs.pop("policy", None)
        or default_policies()[policy_index],
        **kwargs,
    )


def big_recorded_pack(n_vms: int = 200):
    """A recorded pack whose matrix crosses the shared-memory floor."""
    rng = np.random.default_rng(17)
    matrix = rng.uniform(0.05, 0.95, size=(n_vms, 24 * 30))
    assert matrix.nbytes >= 1 << 20
    return TracePack(
        name="rec-big",
        source=RecordedTraceSource(utilization=matrix, steps_per_slot=30),
    )


def direct_run(req: RunRequest):
    """The recompute reference: an engine building its own workload."""
    config = req.resolved_config()
    result = SimulationEngine(
        config,
        req.policy,
        materialization=build_materialization(config, req.pack),
    ).run()
    return with_requests(result, config.seed, req.options.engine)


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def slots_of(artifacts):
    return [artifact.result.slots for artifact in artifacts]


class TestByteIdentity:
    """Serial and pooled runs equal the engine's own recompute.

    Every test covers all four policies; fresh requests per side, since
    policies carry cross-slot state.
    """

    def check(self, make_requests):
        with Orchestrator(jobs=2) as pooled:
            pooled_artifacts = pooled.run_many(make_requests())
            stats = pooled.workload_cache_stats()
        serial = Orchestrator(jobs=1)
        serial_artifacts = serial.run_many(make_requests())
        references = make_requests()
        for pooled_artifact, serial_artifact, reference in zip(
            pooled_artifacts, serial_artifacts, references, strict=True
        ):
            expected = result_bytes(direct_run(reference))
            assert pooled_artifact.fingerprint == reference.fingerprint()
            assert serial_artifact.fingerprint == reference.fingerprint()
            assert result_bytes(pooled_artifact.result) == expected
            assert result_bytes(serial_artifact.result) == expected
        # jobs=2 splits the one group in two: one build per worker.
        assert stats["misses"] == 2
        assert stats["hits"] + stats["misses"] == len(references)
        return serial.workload_cache_stats(), stats

    def test_pooled_and_serial_equal_direct_engine(self):
        serial_stats, _ = self.check(
            lambda: grid_requests([tiny()], lambda _: default_policies())
        )
        assert serial_stats["misses"] == 1
        assert serial_stats["hits"] == len(default_policies()) - 1

    def test_scenario_pack_identity_serial_cached(self):
        pack = get_pack("scenario-hpc")
        serial_stats, _ = self.check(
            lambda: [
                request(config=tiny(), policy=policy, pack=pack)
                for policy in default_policies()
            ]
        )
        assert serial_stats["misses"] == 1
        assert serial_stats["hits"] == len(default_policies()) - 1

    def test_shared_memory_pack_identity_and_engagement(self):
        pack = big_recorded_pack()
        _, pooled_stats = self.check(
            lambda: [
                request(config=tiny(2), policy=policy, pack=pack)
                for policy in default_policies()
            ]
        )
        shared = pooled_stats["shared"]
        assert shared["segments"] == 1
        assert shared["bytes"] == pack.source.utilization.nbytes


class TestSharing:
    def test_serial_runs_share_one_materialization(self):
        orchestrator = Orchestrator(jobs=1, use_store=False)
        orchestrator.run_many(
            [request(policy=policy) for policy in default_policies()]
        )
        stats = orchestrator.workload_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(default_policies()) - 1
        assert stats["slot_hits"] > 0

    def test_seed_override_splits_keys(self):
        orchestrator = Orchestrator(jobs=1, use_store=False)
        orchestrator.run_many([request(), request(seed=5)])
        assert orchestrator.workload_cache_stats()["misses"] == 2


class TestPlumbing:
    def test_pool_is_plain_executor(self):
        with Orchestrator(jobs=2) as orchestrator:
            pool = orchestrator._ensure_pool()
            assert type(pool) is ProcessPoolExecutor
            assert pool._max_workers == 2
            assert orchestrator._ensure_pool() is pool

    def test_pool_starts_publisher(self):
        with Orchestrator(jobs=2) as orchestrator:
            assert orchestrator._publisher is None
            orchestrator._ensure_pool()
            assert orchestrator._publisher is not None

    def test_close_releases_pool_and_publisher(self):
        orchestrator = Orchestrator(jobs=2)
        orchestrator._ensure_pool()
        orchestrator.close()
        assert orchestrator._pool is None
        assert orchestrator._publisher is None

    def test_stats_shape(self):
        stats = Orchestrator().workload_cache_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "slot_hits": 0,
            "slot_misses": 0,
        }

    def test_cache_never_joins_fingerprint(self):
        assert (
            request().fingerprint()
            == RunRequest(
                config=tiny(), policy=default_policies()[1]
            ).fingerprint()
        )
        with Orchestrator(jobs=2, use_store=False) as pooled:
            fingerprints = {
                orchestrator.run(request()).fingerprint
                for orchestrator in (
                    Orchestrator(jobs=1, use_store=False),
                    pooled,
                )
            }
        assert fingerprints == {request().fingerprint()}


class TestSubmitMany:
    def test_futures_return_in_request_order(self):
        requests = [
            request(config=tiny(2, seed=seed), policy=policy)
            for seed in (0, 1)
            for policy in default_policies()[:2]
        ]
        with Orchestrator(jobs=2, use_store=False) as orchestrator:
            futures = orchestrator.submit_many(requests)
            assert [f.request for f in futures] == requests
            artifacts = [future.result(timeout=300) for future in futures]
        reference = [direct_run(req) for req in requests]
        assert slots_of(artifacts) == [result.slots for result in reference]
