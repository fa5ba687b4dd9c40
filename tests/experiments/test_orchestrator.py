"""Orchestrator: fingerprints, result store, parallel equivalence."""

import dataclasses
import json

import numpy as np

import pytest

from repro.experiments.orchestrator import (
    EngineOptions,
    Orchestrator,
    ResultStore,
    RunRequest,
    canonical,
    grid_requests,
)
from repro.experiments.runner import default_policies
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.state import PlacementPolicy


def tiny(horizon: int = 3, seed: int = 0):
    return scaled_config("tiny", seed=seed).with_horizon(horizon)


def request(policy_index: int = 1, **kwargs):
    return RunRequest(
        config=kwargs.pop("config", tiny()),
        policy=kwargs.pop(
            "policy", None
        ) or default_policies(kwargs.pop("alpha", 0.5))[policy_index],
        **kwargs,
    )


class TestFingerprint:
    def test_stable_across_equal_requests(self):
        assert request().fingerprint() == request().fingerprint()

    def test_policy_distinguishes(self):
        assert request(1).fingerprint() != request(2).fingerprint()

    def test_alpha_distinguishes_proposed(self):
        assert (
            request(0, alpha=0.3).fingerprint()
            != request(0, alpha=0.7).fingerprint()
        )

    def test_seed_override_distinguishes(self):
        assert request().fingerprint() != request(seed=5).fingerprint()

    def test_seed_override_matching_config_seed_is_identity(self):
        assert request().fingerprint() == request(seed=0).fingerprint()

    def test_horizon_distinguishes(self):
        assert (
            request(config=tiny(3)).fingerprint()
            != request(config=tiny(4)).fingerprint()
        )

    def test_spec_change_distinguishes(self):
        config = tiny()
        specs = tuple(
            dataclasses.replace(spec, battery_kwh=spec.battery_kwh * 2.0)
            for spec in config.specs
        )
        scaled = dataclasses.replace(config, specs=specs)
        assert (
            request(config=config).fingerprint()
            != request(config=scaled).fingerprint()
        )

    def test_engine_options_distinguish(self):
        assert (
            request().fingerprint()
            != request(
                options=EngineOptions(engine=EngineCoreConfig(kind="event"))
            ).fingerprint()
        )

    def test_descriptor_is_json_stable(self):
        descriptor = request(0).descriptor()
        assert json.dumps(descriptor, sort_keys=True) == json.dumps(
            request(0).descriptor(), sort_keys=True
        )


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(1.5) == 1.5
        assert canonical("x") == "x"
        assert canonical(None) is None

    def test_dataclass_includes_class_name(self):
        tree = canonical(EngineOptions())
        assert tree["__class__"] == "EngineOptions"
        assert tree["engine"]["__class__"] == "EngineCoreConfig"

    def test_function_canonicalized_by_qualname(self):
        from repro.core.local import allocate_first_fit

        tree = canonical(allocate_first_fit)
        assert "allocate_first_fit" in tree["__function__"]

    def test_config_canonicalizes(self):
        tree = canonical(tiny())
        assert tree["__class__"] == "ExperimentConfig"
        assert len(tree["specs"]) == 3


class TestResultStore:
    def test_memory_roundtrip(self):
        store = ResultStore()
        artifact = Orchestrator(store=store).run(request())
        assert artifact.source == "computed"
        again = Orchestrator(store=store).run(request())
        assert again.source == "memory"
        assert again.result is artifact.result

    def test_disk_roundtrip_bit_identical(self, tmp_path):
        cold = Orchestrator(store=ResultStore(tmp_path)).run(request())
        warm = Orchestrator(store=ResultStore(tmp_path)).run(request())
        assert warm.source == "disk"
        assert warm.result.slots == cold.result.slots
        assert warm.result.headline() == cold.result.headline()

    def test_disk_document_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        artifact = Orchestrator(store=store).run(request())
        path = store.backend.path_for(artifact.fingerprint)
        assert path.exists()
        assert path.parent.name == artifact.fingerprint[:2]
        document = json.loads(path.read_text())
        assert document["fingerprint"] == artifact.fingerprint
        assert document["request"]["policy"]["name"] == "Ener-aware"
        assert "meta" not in document  # a synthetic run has no labels

    def test_corrupt_document_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        artifact = Orchestrator(store=store).run(request())
        store.backend.path_for(artifact.fingerprint).write_text("{not json")
        fresh = ResultStore(tmp_path)
        assert fresh.fetch(artifact.fingerprint) is None
        assert fresh.misses == 1

    def test_stats_counters(self):
        store = ResultStore()
        orchestrator = Orchestrator(store=store)
        orchestrator.run(request())
        orchestrator.run(request())
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["hits_memory"] == 1
        assert stats["writes"] == 1

    def test_backed_memory_layer_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.store.core._MEMORY_RESULTS", 2)
        result = Orchestrator().run(request()).result
        backed, memory_only = ResultStore(tmp_path), ResultStore()
        fingerprints = [f"{index:064x}" for index in range(3)]
        for store in (backed, memory_only):
            for fingerprint in fingerprints:
                store.put(fingerprint, result)
        # The least recently used result left memory, not the store.
        assert len(backed) == 2
        assert backed.fetch(fingerprints[0])[1] == "disk"
        assert backed.fetch(fingerprints[2])[1] == "memory"
        assert backed.fetch(fingerprints[1])[1] == "disk"
        # That memory hit made the second result the most recent.
        assert backed.fetch(fingerprints[2])[1] == "memory"
        # Memory is a memory-only store's one copy: it keeps them all.
        assert len(memory_only) == 3
        assert memory_only.fetch(fingerprints[0])[1] == "memory"


class TestOrchestrator:
    def test_parallel_matches_serial_exactly(self):
        requests = grid_requests([tiny()], lambda _: default_policies())
        serial = Orchestrator(jobs=1).run_many(requests)
        parallel = Orchestrator(jobs=2).run_many(
            grid_requests([tiny()], lambda _: default_policies())
        )
        for a, b in zip(serial, parallel):
            assert a.result.policy_name == b.result.policy_name
            assert a.result.slots == b.result.slots

    def test_duplicate_requests_simulated_once(self):
        store = ResultStore()
        artifacts = Orchestrator(store=store).run_many([request(), request()])
        assert store.stats()["writes"] == 1
        assert artifacts[0].result is artifacts[1].result

    def test_use_store_false_recomputes(self):
        store = ResultStore()
        first = Orchestrator(store=store).run(request())
        second = Orchestrator(store=store, use_store=False).run(request())
        assert second.source == "computed"
        assert second.result is not first.result
        assert second.result.slots == first.result.slots

    def test_order_preserved(self):
        requests = grid_requests([tiny()], lambda _: default_policies())
        artifacts = Orchestrator().run_many(requests)
        assert [a.result.policy_name for a in artifacts] == [
            "Proposed",
            "Ener-aware",
            "Pri-aware",
            "Net-aware",
        ]


class TestGridRequests:
    def test_crosses_configs_seeds_policies(self):
        configs = [tiny(), tiny(seed=1)]
        requests = grid_requests(
            configs, lambda _: default_policies(), seeds=[0, 1, 2]
        )
        assert len(requests) == 2 * 3 * 4
        assert requests[0].seed == 0
        assert requests[-1].config.seed == 1

    def test_fresh_policy_instances_per_cell(self):
        requests = grid_requests(
            [tiny()], lambda _: default_policies(), seeds=[0, 1]
        )
        policies = [req.policy for req in requests]
        assert len(set(map(id, policies))) == len(policies)


class TestUseStoreDefault:
    def test_orchestrator_level_bypass(self):
        store = ResultStore()
        first = Orchestrator(store=store).run(request())
        bypass = Orchestrator(store=store, use_store=False).run(request())
        assert bypass.source == "computed"
        assert bypass.result is not first.result


class TestPackFingerprints:
    def recorded(self, tweak: float = 0.0, name: str = "rec"):
        from repro.workload.packs import RecordedTraceSource, TracePack

        rng = np.random.default_rng(8)
        matrix = rng.uniform(0.1, 0.8, size=(3, 60))
        matrix[0, 0] += tweak
        return TracePack(
            name=name,
            source=RecordedTraceSource(utilization=matrix, steps_per_slot=30),
        )

    def test_pack_distinguishes_from_default(self):
        assert request().fingerprint() != request(pack=self.recorded()).fingerprint()

    def test_same_content_same_fingerprint(self):
        assert (
            request(pack=self.recorded()).fingerprint()
            == request(pack=self.recorded()).fingerprint()
        )

    def test_rename_keeps_fingerprint(self):
        """Pack names are labels, not content: renames stay cache-warm."""
        assert (
            request(pack=self.recorded(name="a")).fingerprint()
            == request(pack=self.recorded(name="b")).fingerprint()
        )

    def test_content_change_changes_fingerprint(self):
        assert (
            request(pack=self.recorded()).fingerprint()
            != request(pack=self.recorded(tweak=0.01)).fingerprint()
        )

    def test_pack_descriptor_stored(self):
        descriptor = request(pack=self.recorded()).descriptor()
        assert descriptor["pack"]["kind"] == "recorded"
        assert descriptor["pack"]["sha256"] == self.recorded().sha256

    def test_grid_requests_thread_pack(self):
        pack = self.recorded()
        requests = grid_requests(
            [tiny()], lambda _: default_policies(), seeds=[0, 1], pack=pack
        )
        assert all(req.pack is pack for req in requests)

    def test_recorded_pack_roundtrips_through_store(self, tmp_path):
        pack = self.recorded()
        cold = Orchestrator(store=ResultStore(tmp_path)).run(request(pack=pack))
        warm = Orchestrator(store=ResultStore(tmp_path)).run(
            request(pack=self.recorded())
        )
        assert warm.source == "disk"
        assert warm.result.slots == cold.result.slots

    def test_parallel_workers_receive_pack(self):
        pack = self.recorded()
        serial = Orchestrator(store=ResultStore(), jobs=1).run_many(
            [request(index, pack=pack) for index in range(2)]
        )
        parallel = Orchestrator(store=ResultStore(), jobs=2).run_many(
            [request(index, pack=pack) for index in range(2)]
        )
        for left, right in zip(serial, parallel):
            assert left.result.slots == right.result.slots


class ExplodingPolicy(PlacementPolicy):
    """Raises on first placement; picklable for pool workers."""

    name = "Exploding"

    def place(self, observation):
        raise RuntimeError("boom")


class TestParallelFailureIsolation:
    def test_completed_runs_persist_when_a_worker_fails(self, tmp_path):
        store = ResultStore(tmp_path)
        orchestrator = Orchestrator(store=store, jobs=2)
        batch = [request(1), request(2), request(policy=ExplodingPolicy())]
        with pytest.raises(RuntimeError, match="boom"):
            orchestrator.run_many(batch)
        # The two healthy runs streamed into the disk store before the
        # failure re-raised; a retry resolves them without simulating.
        assert batch[0].fingerprint() in store
        assert batch[1].fingerprint() in store
        retry = Orchestrator(store=ResultStore(tmp_path)).run(request(1))
        assert retry.source == "disk"
