"""Workload materializations: keys, slot arrays, LRU, engine identity."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.experiments.orchestrator import Orchestrator, RunRequest
from repro.experiments.runner import default_policies, run_comparison
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.workload.materialize import (
    DEFAULT_CACHE_MATERIALIZATIONS,
    DEFAULT_SLOT_BUDGET_BYTES,
    MaterializationCache,
    build_materialization,
    configure_process_cache,
    materialization_key,
    process_cache,
)
from repro.workload.packs import (
    RecordedTraceSource,
    TracePack,
    available_packs,
    default_pack,
    get_pack,
)
from repro.workload.datacorr import DataCorrelationProcess
from repro.workload.traces import TraceLibrary
from tests.oracles import loop_engine


#: ``materialization_key(scaled_config("tiny", seed), pack)`` of every
#: registered pack.
PINNED_KEYS = {
    0: {
        "scenario-hpc": "2fad42bc3a310bdac7c04078e38467956dfb56cb6bbcd8dea7ba400803d07048",
        "scenario-mixed": "49393ec3aeb832e533ee9564401e5ea470573d00c6fd82cb7b3a12d0a4f4f941",
        "scenario-scale-out": "8d696741d1fa6a057100106c81428a61912e609fec0a98197aef6abcf6dd652f",
        "synthetic": "d211d16ec8810fbff37c57754f5846a0a6d323d1f0d4edca7868fb2825fc39de",
        "synthetic-dense": "025afb45a000c7f6eb588eeaa3646423cfc7e3b58660e23cc11505a8971d9c85",
    },
    1: {
        "scenario-hpc": "d5c9a2ec15cfe7f72cd7b9f36040084aad8dcf3e80b3e12bfc637a868e9be613",
        "scenario-mixed": "fbdc08305ec277bdbb01bf78024d70f17335a3eefaff04ef0d89f64cd5d07a24",
        "scenario-scale-out": "a8529bdf7a4ace797ec9051cda3d7291d6865ab330174c75fcb63cb2c204d8e5",
        "synthetic": "5e972c168b673ad80c162c0d7fecbdd47eaccfb4a9bea674692705cb5591e899",
        "synthetic-dense": "dbfa047d99e9a451d10ca3171d893a87ea02da2fa35a7f9bdde1a783fd128837",
    },
}


def tiny(horizon=3):
    return scaled_config("tiny").with_horizon(horizon)


def recorded_pack(seed=11, n_vms=6, days=1):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.05, 0.95, size=(n_vms, days * 24 * 30))
    return TracePack(
        name="rec-test",
        source=RecordedTraceSource(utilization=matrix, steps_per_slot=30),
    )


class TestMaterializationKey:
    def test_deterministic(self):
        config = tiny()
        assert materialization_key(config, None) == materialization_key(
            config, None
        )

    def test_none_pack_is_default_pack(self):
        config = tiny()
        assert materialization_key(config, None) == materialization_key(
            config, default_pack()
        )

    def test_seed_changes_key(self):
        config = tiny()
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert materialization_key(config, None) != materialization_key(
            reseeded, None
        )

    def test_horizon_changes_key(self):
        assert materialization_key(tiny(3), None) != materialization_key(
            tiny(4), None
        )

    def test_pack_content_changes_key(self):
        config = tiny()
        assert materialization_key(
            config, recorded_pack(seed=1)
        ) != materialization_key(config, recorded_pack(seed=2))

    def test_pack_name_does_not_change_key(self):
        config = tiny()
        pack = recorded_pack()
        renamed = dataclasses.replace(pack, name="other-name")
        assert materialization_key(config, pack) == materialization_key(
            config, renamed
        )

    def test_scenario_mix_distinct_from_synthetic(self):
        # Scenario packs rewrite the arrival model in configure();
        # their realized workloads differ, so their keys must too.
        config = tiny()
        assert materialization_key(
            config, get_pack("synthetic")
        ) != materialization_key(config, get_pack("scenario-hpc"))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_registered_pack_keys_are_pinned(self, seed):
        """Keys of every registered pack, as first published: moving
        the canonicalizer must not move a key."""
        config = scaled_config("tiny", seed=seed)
        keys = {
            name: materialization_key(config, get_pack(name))
            for name in available_packs()
        }
        assert keys == PINNED_KEYS[seed]

    def test_workload_irrelevant_fields_do_not_change_key(self):
        config = tiny()
        renamed = dataclasses.replace(config, name="renamed-experiment")
        assert materialization_key(config, None) == materialization_key(
            renamed, None
        )


class TestSlotDataCache:
    """The materialization's realized slot arrays: kept, shared, and
    always served."""

    def materialized(self, horizon=3, **kwargs):
        return build_materialization(tiny(horizon), None, **kwargs)

    def test_demand_hit_returns_same_frozen_array(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        first = mat.demand(vms, 0)
        second = mat.demand(vms, 0)
        assert first is second
        assert not first.flags.writeable
        assert mat.hits == 1
        assert mat.misses == 1

    def test_demand_matches_trace_provider_exactly(self):
        mat = self.materialized()
        vms = mat.population.alive(1)
        matrix = mat.demand(vms, 1)
        for row, vm in zip(matrix, vms):
            assert np.array_equal(row, mat.traces.slot_demand(vm, 1))

    def test_volume_hit_and_freeze(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        first = mat.volume_matrix(vms, 0)
        second = mat.volume_matrix(vms, 0)
        assert first is second
        assert not first.volumes.flags.writeable

    def test_volume_matches_fresh_process(self):
        mat = self.materialized()
        vms = mat.population.alive(2)
        cached = mat.volume_matrix(vms, 2)
        fresh = default_pack().build_volumes(mat.config).volumes(vms, 2)
        assert np.array_equal(cached.volumes, fresh.volumes)

    def test_tiny_budget_declines_instead_of_evicting(self):
        """A matrix past the budget is computed, frozen and served
        without being kept, and counts as a miss and a decline."""
        mat = self.materialized(slot_budget_bytes=1)
        vms = mat.population.alive(1)
        demand = mat.demand(vms, 1)
        volumes = mat.volume_matrix(vms, 1)
        assert not demand.flags.writeable
        assert not volumes.volumes.flags.writeable
        fresh = self.materialized()
        assert np.array_equal(demand, fresh.demand(vms, 1))
        assert np.array_equal(
            volumes.volumes, fresh.volume_matrix(vms, 1).volumes
        )
        assert mat.volume_matrix(vms, 1) is not volumes  # never kept
        stats = mat.stats()
        assert (stats["misses"], stats["declined"]) == (3, 3)
        assert mat.bytes == 0
        assert stats["demand_entries"] == stats["volume_entries"] == 0

    def test_budget_admits_prefix_then_declines(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        mat.budget_bytes = len(vms) * mat.config.steps_per_slot * 8
        kept = mat.demand(vms, 0)  # fills the budget...
        assert mat.demand(vms, 0) is kept  # ...hits stay served
        assert mat.demand(vms, 1) is not None  # ...new slots decline
        assert mat.demand(vms, 0) is kept  # the prefix stays kept
        stats = mat.stats()
        assert stats["declined"] == 1
        assert stats["demand_entries"] == 1

    def test_empty_population_shortcut(self):
        mat = self.materialized()
        empty = mat.demand([], 0)
        assert empty.shape == (0, mat.config.steps_per_slot)

    @pytest.mark.parametrize(
        "budget", [0, DEFAULT_SLOT_BUDGET_BYTES], ids=["unkept", "kept"]
    )
    def test_rows_reused_within_a_slot(self, budget, monkeypatch):
        """A miss copies the rows it shares with the slot's last matrix
        and asks the provider only for the rest."""
        mat = self.materialized(slot_budget_bytes=budget)
        asked = []
        original = mat.traces.slot_demand_many

        def counted(vms, slot):
            asked.append(len(vms))
            return original(vms, slot)

        monkeypatch.setattr(mat.traces, "slot_demand_many", counted)
        vms = mat.population.alive(0)
        assert len(vms) >= 2
        newcomer = mat.population.alive(1)[-1]
        assert newcomer not in vms
        full = mat.demand(vms, 0)
        grown = mat.demand(vms[:-1] + [newcomer], 0)
        assert asked == [len(vms), 1]
        assert np.array_equal(grown[:-1], full[:-1])
        assert np.array_equal(
            grown[-1], mat.traces.slot_demand(newcomer, 0)
        )
        assert mat.misses == 2

    def test_rows_never_cross_the_budget(self, monkeypatch):
        """A matrix past the budget takes no rows from a kept one."""
        mat = self.materialized()
        asked = []
        original = mat.traces.slot_demand_many

        def counted(vms, slot):
            asked.append(len(vms))
            return original(vms, slot)

        monkeypatch.setattr(mat.traces, "slot_demand_many", counted)
        vms = mat.population.alive(0)
        mat.budget_bytes = len(vms) * mat.config.steps_per_slot * 8
        kept = mat.demand(vms, 0)
        served = mat.demand(vms[:-1], 0)
        assert asked == [len(vms), len(vms) - 1]
        assert np.array_equal(served, kept[:-1])
        assert mat.declined == 1

    def test_cache_decline_is_engine_fallback_not_error(self):
        config = tiny()
        mat = build_materialization(config, None, slot_budget_bytes=1)
        policy = default_policies()[1]
        starved = SimulationEngine(config, policy, materialization=mat).run()
        policy = default_policies()[1]
        plain = SimulationEngine(config, policy).run()
        assert starved.slots == plain.slots

    def test_stats_shape(self):
        stats = build_materialization(
            tiny(), None, slot_budget_bytes=123
        ).stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "declined": 0,
            "bytes": 0,
            "demand_entries": 0,
            "volume_entries": 0,
        }


class TestMaterializationCache:
    def test_lru_eviction_under_small_cap(self):
        cache = MaterializationCache(size=1)
        config_a = tiny(2)
        config_b = dataclasses.replace(config_a, seed=config_a.seed + 7)
        first = cache.materialize(config_a, None)
        assert cache.materialize(config_a, None) is first
        cache.materialize(config_b, None)  # evicts config_a's entry
        assert cache.keys() == [materialization_key(config_b, None)]
        rebuilt = cache.materialize(config_a, None)
        assert rebuilt is not first
        assert cache.stats()["entries"] == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 3

    def test_lru_refreshes_on_hit(self):
        cache = MaterializationCache(size=2)
        config_a = tiny(2)
        config_b = dataclasses.replace(config_a, seed=config_a.seed + 7)
        config_c = dataclasses.replace(config_a, seed=config_a.seed + 8)
        kept = cache.materialize(config_a, None)
        cache.materialize(config_b, None)
        cache.materialize(config_a, None)  # refresh: b is now oldest
        cache.materialize(config_c, None)  # evicts b, not a
        assert cache.materialize(config_a, None) is kept

    def test_key_mismatch_raises(self):
        cache = MaterializationCache(size=2)
        config = tiny(2)
        with pytest.raises(ValueError, match="key mismatch"):
            cache.get(
                "0" * 64, lambda: build_materialization(config, None)
            )

    def test_concurrent_cold_callers_share_one_build(self, monkeypatch):
        """Four threads running the four policies cold on one serial
        orchestrator build the workload once: one materialization's
        618 demand rows, not four's 2,472."""
        rows = []
        demand_many = TraceLibrary.slot_demand_many

        def counted(library, vms, slot):
            rows.append(len(vms))
            return demand_many(library, vms, slot)

        monkeypatch.setattr(TraceLibrary, "slot_demand_many", counted)
        orchestrator = Orchestrator(jobs=1)
        config = scaled_config("tiny")
        barrier = threading.Barrier(4, timeout=60)
        errors = []

        def run(policy):
            try:
                barrier.wait()
                orchestrator.run(RunRequest(config, policy))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(policy,))
            for policy in default_policies()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sum(rows) == 618
        stats = orchestrator.workload_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 3)

    def waiting_callers(self, cache, key, build, callers=3):
        """Start ``callers`` threads on ``cache.get(key)`` once a build
        of ``key`` is under way; returns (threads, outcomes)."""
        outcomes = []

        def call():
            try:
                outcomes.append(cache.get(key, build))
            except Exception as exc:  # collected for the assertions
                outcomes.append(exc)

        threads = [threading.Thread(target=call) for _ in range(callers)]
        return threads, outcomes

    def test_waiters_get_the_one_build(self):
        cache = MaterializationCache(size=2)
        config = tiny(2)
        key = materialization_key(config, None)
        started, release = threading.Event(), threading.Event()
        builds = []

        def build():
            builds.append(key)
            started.set()
            assert release.wait(timeout=60)
            return build_materialization(config, None)

        owner = threading.Thread(target=lambda: cache.get(key, build))
        owner.start()
        assert started.wait(timeout=60)
        threads, outcomes = self.waiting_callers(cache, key, build)
        for thread in threads:
            thread.start()
        release.set()
        for thread in [owner, *threads]:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in [owner, *threads])
        assert len(builds) == 1
        assert all(entry is outcomes[0] for entry in outcomes)
        assert outcomes[0] is cache.get(key, build)
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 4)

    def test_failed_build_raises_in_every_waiter_and_caches_nothing(self):
        cache = MaterializationCache(size=2)
        key = materialization_key(tiny(2), None)
        started, release = threading.Event(), threading.Event()

        def failing():
            started.set()
            assert release.wait(timeout=60)
            raise RuntimeError("build failed")

        owner_errors = []

        def owner_call():
            try:
                cache.get(key, failing)
            except RuntimeError as exc:
                owner_errors.append(exc)

        owner = threading.Thread(target=owner_call)
        owner.start()
        assert started.wait(timeout=60)
        threads, outcomes = self.waiting_callers(cache, key, failing)
        for thread in threads:
            thread.start()
        release.set()
        for thread in [owner, *threads]:
            thread.join(timeout=60)
        assert len(owner_errors) == 1
        assert len(outcomes) == 3
        # A waiter either shared the failed build or, arriving after
        # it, ran (and failed) a build of its own: it never got an entry.
        assert all(
            isinstance(outcome, RuntimeError) for outcome in outcomes
        )
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0
        rebuilt = cache.get(key, lambda: build_materialization(tiny(2), None))
        assert rebuilt.key == key

    def test_builds_of_different_keys_overlap(self):
        cache = MaterializationCache(size=2)
        configs = [tiny(2), dataclasses.replace(tiny(2), seed=9)]
        both_building = threading.Barrier(2, timeout=60)
        errors = []

        def fetch(config):
            def build():
                both_building.wait()  # breaks if builds serialize
                return build_materialization(config, None)

            try:
                cache.get(materialization_key(config, None), build)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=fetch, args=(config,)) for config in configs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(cache) == 2

    def test_configure_process_cache_replaces_global(self):
        original = process_cache()
        original.materialize(tiny(2), None)
        replaced = configure_process_cache()
        assert process_cache() is replaced
        assert replaced is not original
        assert len(replaced) == 0
        assert replaced.size == DEFAULT_CACHE_MATERIALIZATIONS
        assert replaced.slot_budget_bytes == DEFAULT_SLOT_BUDGET_BYTES


class TestEngineBitIdentity:
    """Materialized runs are byte-identical to self-built runs."""

    def run_pair(self, pack, policy_index=1, horizon=3):
        config = tiny(horizon)
        mat = build_materialization(config, pack)
        policy = default_policies()[policy_index]
        shared = SimulationEngine(config, policy, materialization=mat).run()
        policy = default_policies()[policy_index]
        plain = SimulationEngine(config, policy, workload=pack).run()
        return shared, plain, mat

    @pytest.mark.parametrize(
        "pack_name", ["synthetic", "synthetic-dense", "scenario-hpc"]
    )
    def test_registered_packs(self, pack_name):
        shared, plain, _ = self.run_pair(get_pack(pack_name))
        assert shared.slots == plain.slots
        assert np.array_equal(
            shared.response_samples(), plain.response_samples()
        )

    def test_recorded_pack(self):
        shared, plain, _ = self.run_pair(recorded_pack())
        assert shared.slots == plain.slots

    def test_loop_engine(self):
        """A materialized run equals the loop oracle's self-built run."""
        shared, _, _ = self.run_pair(None)
        loops = loop_engine(tiny(3), default_policies()[1]).run()
        assert shared.to_dict() == loops.to_dict()

    def test_reuse_across_engines_stays_identical(self):
        config = tiny(3)
        mat = build_materialization(config, None)
        results = []
        for _ in range(2):
            policy = default_policies()[2]
            results.append(
                SimulationEngine(config, policy, materialization=mat).run()
            )
        policy = default_policies()[2]
        plain = SimulationEngine(config, policy).run()
        assert results[0].slots == results[1].slots == plain.slots
        assert mat.hits > 0  # the second run was served warm

    def test_wrong_workload_config_rejected(self):
        mat = build_materialization(tiny(3), None)
        with pytest.raises(ValueError, match="different workload"):
            SimulationEngine(
                tiny(4), default_policies()[1], materialization=mat
            )

    def test_workload_irrelevant_config_change_shares(self):
        """A battery sweep's configs share one materialization: fleet
        fields stay out of the key, and the engine keeps its own
        config for the physics."""
        config = tiny(3)
        specs = tuple(
            dataclasses.replace(spec, battery_kwh=spec.battery_kwh * 2.0)
            for spec in config.specs
        )
        doubled = dataclasses.replace(config, specs=specs)
        mat = build_materialization(config, None)
        shared = SimulationEngine(
            doubled, default_policies()[1], materialization=mat
        ).run()
        plain = SimulationEngine(doubled, default_policies()[1]).run()
        assert shared.slots == plain.slots
        assert shared.slots != SimulationEngine(
            config, default_policies()[1]
        ).run().slots  # the battery change did take effect

    def test_materialization_excludes_other_workload_sources(self):
        mat = build_materialization(tiny(3), None)
        with pytest.raises(ValueError, match="already carries"):
            SimulationEngine(
                tiny(3),
                default_policies()[1],
                workload=recorded_pack(),
                materialization=mat,
            )


def run_standalone(config):
    SimulationEngine(config, default_policies()[1]).run()


def run_orchestrated(config):
    run_comparison(config, orchestrator=Orchestrator(jobs=1))


def run_clairvoyant(config):
    SimulationEngine(config, default_policies()[1], clairvoyant=True).run()


def run_half_budget(config):
    # The run's slot arrays take 218,144 bytes; 100,000 keeps a prefix
    # of them and serves the rest unkept.
    mat = build_materialization(config, None, slot_budget_bytes=100_000)
    for policy in default_policies():
        SimulationEngine(config, policy, materialization=mat).run()
    stats = mat.stats()
    assert stats["declined"] > 0 and stats["demand_entries"] > 0


class TestProviderWork:
    """What a 12-slot tiny run asks of its providers, per way of
    running it: ``slot_demand_many`` rows and calls, and
    ``DataCorrelationProcess.volumes`` calls."""

    @pytest.mark.parametrize(
        "run, expected",
        [
            (run_standalone, {"rows": 301, "calls": 17, "volumes": 24}),
            (run_orchestrated, {"rows": 301, "calls": 17, "volumes": 22}),
            (run_clairvoyant, {"rows": 280, "calls": 12, "volumes": 24}),
            (run_half_budget, {"rows": 872, "calls": 48, "volumes": 65}),
        ],
        ids=["standalone", "orchestrated", "clairvoyant", "half-budget"],
    )
    def test_provider_work(self, run, expected, monkeypatch):
        work = {"rows": 0, "calls": 0, "volumes": 0}
        demand_many = TraceLibrary.slot_demand_many
        volumes = DataCorrelationProcess.volumes

        def counted_demand(library, vms, slot):
            work["rows"] += len(vms)
            work["calls"] += 1
            return demand_many(library, vms, slot)

        def counted_volumes(process, vms, slot):
            work["volumes"] += 1
            return volumes(process, vms, slot)

        monkeypatch.setattr(TraceLibrary, "slot_demand_many", counted_demand)
        monkeypatch.setattr(DataCorrelationProcess, "volumes", counted_volumes)
        run(scaled_config("tiny").with_horizon(12))
        assert work == expected
