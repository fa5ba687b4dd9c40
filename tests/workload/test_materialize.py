"""Workload materializations: keys, the slot window, engine identity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.orchestrator import Orchestrator
from repro.experiments.runner import default_policies, run_comparison
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine, run_policies
from repro.workload.materialize import (
    WINDOW_SLOTS,
    build_materialization,
    materialization_key,
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


def held_slots(mat) -> set[int]:
    """The slots whose demand or volume matrices ``mat`` holds."""
    return {slot for slot, _ in mat._demand} | {
        slot for slot, _ in mat._volumes
    }


class TestSlotDataCache:
    """The materialization's realized slot arrays: kept for a two-slot
    window, shared, and always served."""

    def materialized(self, horizon=3):
        return build_materialization(tiny(horizon), None)

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

    def test_newer_slot_drops_the_oldest(self):
        mat = self.materialized(horizon=4)
        vms = mat.population.alive(0)
        slot0 = mat.demand(vms, 0)
        volumes0 = mat.volume_matrix(vms, 0)
        mat.demand(vms, 1)
        assert mat.demand(vms, 0) is slot0  # two slots fit the window
        mat.volume_matrix(vms, 2)  # the first request of slot 2...
        assert held_slots(mat) == {1, 2}  # ...drops slot 0's matrices
        assert mat.volume_matrix(vms, 0) is not volumes0
        assert mat.demand(vms, 0) is not slot0

    def test_slot_older_than_window_served_unkept(self):
        """A slot older than the window is computed, frozen and served
        without being kept, and counts as a miss."""
        mat = self.materialized()
        vms = mat.population.alive(0)
        mat.demand(vms, 1)
        mat.demand(vms, 2)
        misses = mat.misses
        demand = mat.demand(vms, 0)
        volumes = mat.volume_matrix(vms, 0)
        assert not demand.flags.writeable
        assert not volumes.volumes.flags.writeable
        fresh = self.materialized()
        assert np.array_equal(demand, fresh.demand(vms, 0))
        assert np.array_equal(
            volumes.volumes, fresh.volume_matrix(vms, 0).volumes
        )
        assert mat.volume_matrix(vms, 0) is not volumes  # never kept
        assert mat.misses == misses + 3
        assert held_slots(mat) == {1, 2}

    def test_empty_population_shortcut(self):
        mat = self.materialized()
        empty = mat.demand([], 0)
        assert empty.shape == (0, mat.config.steps_per_slot)

    def counted_demand(self, mat, monkeypatch) -> list[int]:
        """Record the batch size of every provider demand call."""
        asked = []
        original = mat.traces.slot_demand_many

        def counted(vms, slot):
            asked.append(len(vms))
            return original(vms, slot)

        monkeypatch.setattr(mat.traces, "slot_demand_many", counted)
        return asked

    def ahead(self, mat, vms, slot) -> int:
        """Rows a first batch of ``(vms, slot)`` reads ahead: the VMs
        alive next slot that ``vms`` lacks."""
        if slot + 1 >= mat.config.horizon_slots:
            return 0
        return sum(vm not in vms for vm in mat.population.alive(slot + 1))

    @pytest.mark.parametrize("dropped", [False, True], ids=["kept", "unkept"])
    def test_rows_reused_within_a_slot(self, dropped, monkeypatch):
        """A slot's first batch also asks for the rows of the VMs alive
        next slot that it lacks.  A later miss of the slot copies the
        rows it shares with the slot's newest kept matrix and asks the
        provider only for the rest; a kept matrix of another slot gives
        it no rows, and once two newer slots have dropped the slot's
        matrices every row is asked for again."""
        mat = self.materialized(horizon=4)
        asked = self.counted_demand(mat, monkeypatch)
        population = mat.population
        vms = population.alive(0)
        assert len(vms) >= 2
        newcomer = population.alive(1)[-1]
        assert newcomer not in vms
        # Alive at neither slot 0 nor slot 1: no batch of slot 0 has it.
        late = population.alive(3)[-1]
        assert late not in vms + population.alive(1)
        full = mat.demand(vms, 0)
        mat.demand(vms, 1)
        if dropped:
            mat.demand(vms, 2)
        grown = mat.demand(vms[:-1] + [newcomer, late], 0)
        first_batches = [
            len(vms) + self.ahead(mat, vms, slot) for slot in range(2 + dropped)
        ]
        assert first_batches[0] > len(vms)
        rest = len(vms) + 1 if dropped else 1
        assert asked == first_batches + [rest]
        assert np.array_equal(grown[:-2], full[:-1])
        assert np.array_equal(grown[-2], mat.traces.slot_demand(newcomer, 0))
        assert np.array_equal(grown[-1], mat.traces.slot_demand(late, 0))
        assert mat.misses == 3 + dropped

    def test_observing_a_slot_computes_no_rows(self, monkeypatch):
        """Observing slot s over slot s + 1's alive set, after slot s's
        own batch, asks the provider for nothing."""
        mat = self.materialized()
        asked = self.counted_demand(mat, monkeypatch)
        for slot in range(mat.config.horizon_slots):
            if slot:
                mat.demand(mat.population.alive(slot), slot - 1)
            mat.demand(mat.population.alive(slot), slot)
        assert len(asked) == mat.config.horizon_slots

    def test_rows_never_cross_the_budget(self, monkeypatch):
        """The window is the materialization's memory budget, and rows
        never cross it: a slot older than the window takes no rows from
        the kept matrices of the same VMs in newer slots."""
        mat = self.materialized()
        asked = self.counted_demand(mat, monkeypatch)
        vms = mat.population.alive(0)
        mat.demand(vms, 1)
        mat.demand(vms, 2)  # the window now holds slots 1 and 2
        served = mat.demand(vms[:-1], 0)
        ahead = self.ahead(mat, vms, 1)
        assert asked == [len(vms) + ahead, len(vms), len(vms) - 1]
        fresh = self.materialized().demand(vms, 0)
        assert np.array_equal(served, fresh[:-1])
        assert held_slots(mat) == {1, 2}

    def test_stats_shape(self):
        """A fresh materialization has served and computed nothing, and
        holds no slot."""
        mat = build_materialization(tiny(), None)
        assert (mat.hits, mat.misses) == (0, 0)
        assert held_slots(mat) == set()

    @settings(max_examples=40, deadline=None)
    @given(
        horizon=st.integers(1, 8),
        lookups=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()),
            max_size=24,
        ),
    )
    def test_never_holds_more_than_two_slots(self, horizon, lookups):
        """Whatever order slots are asked in, the matrices held are of
        the two newest slots requested, or fewer."""
        mat = self.materialized(horizon)
        requested: set[int] = set()
        for slot, alive_slot, volumes in lookups:
            slot, alive_slot = slot % horizon, alive_slot % horizon
            vms = mat.population.alive(alive_slot)
            if volumes:
                mat.volume_matrix(vms, slot)
            else:
                mat.demand(vms, slot)
            requested.add(slot)
            held = held_slots(mat)
            assert len(held) <= WINDOW_SLOTS
            assert held <= set(sorted(requested)[-WINDOW_SLOTS:])


class TestEngineBitIdentity:
    """Runs on one materialization are byte-identical to runs on
    another built for the same workload."""

    def run_pair(self, pack, policy_index=1, horizon=3):
        config = tiny(horizon)
        mat = build_materialization(config, pack)
        policy = default_policies()[policy_index]
        shared = SimulationEngine(config, policy, materialization=mat).run()
        policy = default_policies()[policy_index]
        plain = SimulationEngine(
            config, policy, materialization=build_materialization(config, pack)
        ).run()
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

    @pytest.mark.parametrize(
        "field, value",
        [("horizon_slots", 4), ("seed", 1), ("steps_per_slot", 12)],
    )
    def test_materialization_checks_its_workload(self, field, value):
        """An engine whose seed, horizon or slot resolution differs from
        its materialization's is refused."""
        config = tiny(3)
        mat = build_materialization(config, None)
        other = dataclasses.replace(config, **{field: value})
        with pytest.raises(ValueError, match="different workload"):
            SimulationEngine(other, default_policies()[1], materialization=mat)
        SimulationEngine(config, default_policies()[1], materialization=mat)

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


def run_standalone(config):
    SimulationEngine(config, default_policies()[1]).run()


def run_orchestrated(config):
    run_comparison(config, orchestrator=Orchestrator(jobs=1))


def run_clairvoyant(config):
    SimulationEngine(config, default_policies()[1], clairvoyant=True).run()


def run_lockstep_group(config):
    run_policies(config, default_policies())


class TestProviderWork:
    """What a 12-slot tiny run asks of its providers, per way of
    running it: ``slot_demand_many`` rows and calls, and
    ``DataCorrelationProcess.volumes`` calls.  A four-policy lockstep
    group, through the engine or the orchestrator, costs what one
    standalone run does.  Every run makes one demand batch per slot,
    which reads the next slot's arrivals ahead; a clairvoyant run,
    which observes the current slot, never reads those 21 rows."""

    @pytest.mark.parametrize(
        "run, expected",
        [
            (run_standalone, {"rows": 301, "calls": 12, "volumes": 22}),
            (run_orchestrated, {"rows": 301, "calls": 12, "volumes": 22}),
            (run_clairvoyant, {"rows": 301, "calls": 12, "volumes": 12}),
            (run_lockstep_group, {"rows": 301, "calls": 12, "volumes": 22}),
        ],
        ids=["standalone", "orchestrated", "clairvoyant", "lockstep"],
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


def test_lockstep_group_asks_one_batch_per_slot(monkeypatch):
    """A four-policy lockstep group makes one ``slot_demand_many`` call
    per slot, and asks for each (vm, slot) row the run reads exactly
    once: slot s's alive VMs, and slot s + 1's arrivals, which slot s +
    1's observation reads at slot s."""
    calls = []
    demand_many = TraceLibrary.slot_demand_many

    def counted_demand(library, vms, slot):
        calls.append((slot, [vm.vm_id for vm in vms]))
        return demand_many(library, vms, slot)

    monkeypatch.setattr(TraceLibrary, "slot_demand_many", counted_demand)
    config = scaled_config("tiny").with_horizon(12)
    run_policies(config, default_policies())
    assert [slot for slot, _ in calls] == list(range(12))
    population = build_materialization(config, None).population
    for slot, ids in calls:
        read = {vm.vm_id for vm in population.alive(slot)}
        if slot + 1 < 12:
            read |= {vm.vm_id for vm in population.alive(slot + 1)}
        assert sorted(ids) == sorted(read)


def test_two_populations_build_as_many_as_eight(monkeypatch):
    """A lockstep group asks for each population's volumes back to
    back, so the volume process's two-entry population cache builds as
    many base/phase matrices as an eight-entry one would."""
    assert DataCorrelationProcess.POPULATION_CACHE_SIZE == 2
    original = DataCorrelationProcess._population_arrays
    builds = {}
    for size in (2, 8):
        builds[size] = 0

        def counted(process, vms, size=size):
            key = tuple(vm.vm_id for vm in vms)
            builds[size] += key not in process._population_cache
            return original(process, vms)

        monkeypatch.setattr(
            DataCorrelationProcess, "POPULATION_CACHE_SIZE", size
        )
        monkeypatch.setattr(
            DataCorrelationProcess, "_population_arrays", counted
        )
        run_policies(scaled_config("tiny").with_horizon(12), default_policies())
    assert builds[2] == builds[8] > 0
