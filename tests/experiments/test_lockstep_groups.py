"""Lockstep run groups: failure isolation, batch order, counters,
one simulation per slot/event twin, and one evaluation of each slot's
site conditions per fleet."""

import collections
import dataclasses
import json
import sys
import threading
import traceback
import types

import pytest

from repro.baselines import PriAwarePolicy
from concurrent.futures import Future

from repro.datacenter.pv import PVArray
from repro.experiments import orchestrator as orchestrator_module
from repro.experiments.orchestrator import (
    EngineOptions,
    Orchestrator,
    RunFuture,
    RunRequest,
    _cost,
    _spread,
)
from repro.experiments.runner import default_policies
from repro.network.ber import BERProcess
from repro.service.client import ServiceClient
from repro.service.protocol import encode_batch, encode_request
from repro.service.server import ExperimentDaemon
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim import engine as engine_module
from repro.sim import kernel as kernel_module
from repro.sim.engine import (
    SimulationEngine,
    run_lockstep,
    run_policies,
    with_requests,
)
from repro.sim.kernel import SiteConditions
from repro.store import ResultStore
from repro.workload.materialize import (
    WorkloadMaterialization,
    build_materialization,
)


EVENT = EngineOptions(engine=EngineCoreConfig(kind="event"))


def tiny(seed: int = 0, horizon: int = 3):
    return scaled_config("tiny", seed=seed).with_horizon(horizon)


def twin_requests(policies=None, horizon: int = 3) -> list[RunRequest]:
    """Each policy as a slot run, then each as an event run."""
    return [
        RunRequest(
            config=tiny(horizon=horizon), policy=policy, options=options
        )
        for options in (EngineOptions(), EVENT)
        for policy in policies or default_policies()
    ]


def count_places(monkeypatch) -> list[str]:
    """The names of the policies whose ``place`` runs, one per call."""
    calls = []
    for cls in {type(policy) for policy in default_policies()}:

        def counted(self, observation, place=cls.place):
            calls.append(self.name)
            return place(self, observation)

        monkeypatch.setattr(cls, "place", counted)
    return calls


def poll_line(daemon: ExperimentDaemon, fingerprint: str) -> dict:
    """The daemon's poll line for one fingerprint, waiting for it."""
    (line,) = daemon.handle_poll([fingerprint], 60.0)
    return json.loads(line)


class FailsAtSlotOne(PriAwarePolicy):
    """Places slot 0, then raises (picklable for pool workers)."""

    name = "Fails-at-slot-1"

    def place(self, observation):
        if observation.slot == 1:
            raise RuntimeError("boom at slot 1")
        return super().place(observation)


class DropsOneVm(PriAwarePolicy):
    """Leaves its first alive VM out of the slot-1 assignment."""

    name = "Drops-one-VM"

    def place(self, observation):
        placement = super().place(observation)
        if observation.slot == 1:
            del placement.assignment[observation.vms[0].vm_id]
        return placement


def solo_bytes(request: RunRequest) -> str:
    """A request's result run on its own, as canonical JSON."""
    config = request.resolved_config()
    result = SimulationEngine(
        config,
        request.policy,
        materialization=build_materialization(config, request.pack),
    ).run()
    result = with_requests(result, config.seed, request.options.engine)
    return json.dumps(result.to_dict(), sort_keys=True)


def artifact_bytes(future) -> str:
    return json.dumps(future.result().result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_run_fails_only_its_own_future(jobs):
    """One raising policy in a four-run group: its future holds the
    error, with the traceback of where it was raised (from the worker,
    when pooled); the other three complete, are stored and equal their
    solo runs."""
    policies = default_policies()
    policies[2] = FailsAtSlotOne()
    requests = [RunRequest(config=tiny(), policy=p) for p in policies]
    with Orchestrator(jobs=jobs) as orchestrator:
        futures = orchestrator.submit_many(requests)
        for future in orchestrator.as_done(futures):
            pass
        with pytest.raises(RuntimeError, match="boom at slot 1") as raised:
            futures[2].result()
        error = raised.value
        shown = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        assert 'raise RuntimeError("boom at slot 1")' in shown
        for index in (0, 1, 3):
            assert futures[index].fingerprint in orchestrator.store
            assert artifact_bytes(futures[index]) == solo_bytes(
                RunRequest(config=tiny(), policy=default_policies()[index])
            )
        assert futures[2].fingerprint not in orchestrator.store


def test_inconsistent_placement_fails_the_run():
    """Every placement is validated: one that leaves an alive VM
    unassigned raises out of the engine's run."""
    engine = SimulationEngine(tiny(), DropsOneVm())
    with pytest.raises(ValueError, match="assignment mismatch: missing="):
        engine.run()


def test_inconsistent_placement_fails_only_its_own_future():
    """Beside a good policy in one group, the invalid run fails its own
    future and is not stored; the good run completes unchanged."""
    requests = [
        RunRequest(config=tiny(), policy=policy)
        for policy in (DropsOneVm(), PriAwarePolicy())
    ]
    with Orchestrator(jobs=1) as orchestrator:
        bad, good = orchestrator.submit_many(requests)
        with pytest.raises(ValueError, match="assignment mismatch"):
            bad.result()
        assert good.result().source == "computed"
        assert artifact_bytes(good) == solo_bytes(requests[1])
        assert bad.fingerprint not in orchestrator.store
        stats = orchestrator.workload_cache_stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)


def split_names(policies, workers, groups=1):
    """The policy names of each task ``_spread`` makes of ``groups``
    copies of a group of ``policies``."""
    group = [
        RunFuture(RunRequest(config=tiny(), policy=policy), str(index), Future())
        for index, policy in enumerate(policies)
    ]
    return [
        [future.request.policy.name for future in task]
        for task in _spread([list(group) for _ in range(groups)], workers)
    ]


def test_split_balances_estimated_cost_not_caller_order():
    """A lone comparison splits into Proposed and the three baselines
    wherever Proposed is listed; a lone sweep of one policy splits into
    equal halves; each task keeps request order; a batch with a group
    per worker is not split."""
    proposed, ener, pri, net = default_policies()
    assert split_names([pri, proposed, ener, net], 2) == [
        ["Proposed"],
        ["Pri-aware", "Ener-aware", "Net-aware"],
    ]
    assert split_names([proposed] * 4, 2) == [["Proposed"] * 2] * 2
    assert sorted(map(len, split_names([proposed, ener, pri, net], 4))) == [
        1, 1, 1, 1,
    ]
    assert split_names([proposed, ener], 2, groups=2) == [
        ["Proposed", "Ener-aware"]
    ] * 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_of_two_keys_duplicates_and_hits_resolves_in_order(jobs):
    """Futures align with the batch: duplicates share one future, a
    store hit resolves from memory, and each workload key builds one
    materialization."""

    def make(seed, index):
        return RunRequest(config=tiny(seed), policy=default_policies()[index])

    with Orchestrator(jobs=jobs) as orchestrator:
        orchestrator.run(make(0, 2))
        batch = [
            make(0, 2),  # store hit
            make(0, 1),
            make(1, 1),
            make(0, 1),  # duplicate
            make(1, 3),
            make(1, 1),  # duplicate
            make(0, 3),
        ]
        before = orchestrator.workload_cache_stats()
        futures = orchestrator.submit_many(batch)
        assert [future.fingerprint for future in futures] == [
            request.fingerprint() for request in batch
        ]
        assert futures[1] is futures[3] and futures[2] is futures[5]
        assert futures[0].result().source == "memory"
        for future, request in zip(futures[1:], batch[1:]):
            assert future.result().source == "computed"
            assert artifact_bytes(future) == solo_bytes(request)
        after = orchestrator.workload_cache_stats()
    built = after["misses"] - before["misses"]
    shared = after["hits"] - before["hits"]
    assert (built, shared) == (2, 2)


def test_clairvoyant_and_normal_runs_share_a_group():
    """Clairvoyant and last-interval engines advance in lockstep on one
    materialization, whose two-slot window serves both reads, and each
    equals its solo run."""
    config = tiny(horizon=4)
    setups = [(1, True), (1, False), (0, False)]

    def engine(index, clairvoyant, materialization=None):
        return SimulationEngine(
            config,
            default_policies()[index],
            clairvoyant=clairvoyant,
            materialization=materialization,
        )

    materialization = build_materialization(config, None)
    grouped = run_lockstep(
        [engine(*setup, materialization) for setup in setups]
    )
    for result, setup in zip(grouped, setups):
        assert result.to_dict() == engine(*setup).run().to_dict()


def test_slot_and_event_runs_share_a_group():
    """Slot- and event-kind runs of one key form one orchestrator group
    and each equal its solo run."""
    event = EngineOptions(engine=EngineCoreConfig(kind="event"))
    requests = [
        RunRequest(
            config=tiny(horizon=4),
            policy=default_policies()[index],
            options=options,
        )
        for index, options in [(1, event), (1, EngineOptions()), (0, event)]
    ]
    orchestrator = Orchestrator(jobs=1)
    futures = orchestrator.submit_many(requests)
    for future, request in zip(futures, requests):
        assert artifact_bytes(future) == solo_bytes(request)
    stats = orchestrator.workload_cache_stats()
    assert (stats["misses"], stats["hits"]) == (1, 2)


def test_failed_build_fails_every_run_of_its_group(monkeypatch):
    """A materialization that cannot be built fails each run of its
    group and stores none of them; another key's group is unaffected."""
    from repro.experiments import orchestrator as module

    build = module.build_materialization

    def failing(config, pack):
        if config.seed == 1:
            raise RuntimeError("build failed")
        return build(config, pack)

    monkeypatch.setattr(module, "build_materialization", failing)
    requests = [
        RunRequest(config=tiny(seed), policy=policy)
        for seed in (0, 1)
        for policy in default_policies()[:2]
    ]
    orchestrator = Orchestrator(jobs=1)
    futures = orchestrator.submit_many(requests)
    for future in futures[2:]:
        with pytest.raises(RuntimeError, match="build failed"):
            future.result()
        assert future.fingerprint not in orchestrator.store
    for future, request in zip(futures[:2], requests[:2]):
        assert artifact_bytes(future) == solo_bytes(request)
    stats = orchestrator.workload_cache_stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)


def test_two_key_batch_reports_exactly_the_lookups_it_made(monkeypatch):
    lookups = {"count": 0}
    demand = WorkloadMaterialization.demand
    volume_matrix = WorkloadMaterialization.volume_matrix

    def counted_demand(self, vms, slot):
        lookups["count"] += 1
        return demand(self, vms, slot)

    def counted_volumes(self, vms, slot):
        lookups["count"] += 1
        return volume_matrix(self, vms, slot)

    monkeypatch.setattr(WorkloadMaterialization, "demand", counted_demand)
    monkeypatch.setattr(
        WorkloadMaterialization, "volume_matrix", counted_volumes
    )
    orchestrator = Orchestrator(jobs=1)
    orchestrator.run_many(
        [
            RunRequest(config=tiny(seed), policy=policy)
            for seed in (0, 1)
            for policy in default_policies()
        ]
    )
    stats = orchestrator.workload_cache_stats()
    # Two workloads x four runs x three slots x (observe + step) x
    # (demand + volumes).
    assert lookups["count"] == 2 * 4 * 3 * 2 * 2
    assert stats["slot_hits"] + stats["slot_misses"] == lookups["count"]
    assert (stats["misses"], stats["hits"]) == (2, 6)


def test_counters_add_up_under_concurrent_batches():
    """Four threads submit a two-run batch each to one pooled
    orchestrator while the interpreter switches threads every
    microsecond: the group counters, updated from the pool's callback
    thread, lose no update."""
    orchestrator = Orchestrator(jobs=2)
    errors = []

    def submit(seed):
        try:
            orchestrator.run_many(
                [
                    RunRequest(config=tiny(seed, horizon=2), policy=policy)
                    for policy in default_policies()[1:3]
                ]
            )
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=submit, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        orchestrator.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    stats = orchestrator.workload_cache_stats()
    assert stats["hits"] + stats["misses"] == 8
    # Two runs x two slots x (observe + step) x (demand + volumes).
    assert stats["slot_hits"] + stats["slot_misses"] == 4 * 2 * 2 * 2 * 2


@pytest.mark.parametrize("chunk", [64, 4])
def test_daemon_runs_a_batch_as_one_group_per_key(
    tmp_path, monkeypatch, chunk
):
    """A client batch of two workloads, interleaved, reaches the daemon
    sorted by workload -- in one POST, or in two four-entry POSTs --
    and the daemon builds one materialization per key and counts every
    run."""
    monkeypatch.setattr("repro.service.client._BATCH_CHUNK", chunk)
    requests = [
        RunRequest(config=tiny(seed), policy=policy)
        for policy in default_policies()
        for seed in (0, 1)
    ]
    store = ResultStore(tmp_path / "store", backend="segment")
    with ExperimentDaemon(Orchestrator(store=store, jobs=1)) as daemon:
        with ServiceClient(daemon.url) as client:
            futures = client.submit_many(requests)
            for future, request in zip(futures, requests):
                assert artifact_bytes(future) == solo_bytes(request)
            stats = client.stats()
    assert stats["computed"] == len(requests)
    assert stats["workload_cache"]["misses"] == 2
    assert stats["workload_cache"]["hits"] == len(requests) - 2


def test_pool_that_cannot_take_a_group_fails_its_futures():
    """A group the pool refuses (here: the pool is shut down) fails
    each of its futures and leaves nothing in flight, so a later
    submission of the same runs executes instead of waiting forever."""
    requests = [
        RunRequest(config=tiny(), policy=policy)
        for policy in default_policies()[:2]
    ]
    with Orchestrator(jobs=2) as orchestrator:
        orchestrator._ensure_pool().shutdown(wait=True)
        futures = orchestrator.submit_many(requests)
        for future in futures:
            with pytest.raises(RuntimeError, match="shutdown"):
                future.result(timeout=60)
        assert orchestrator.inflight_count() == 0
        orchestrator._pool = None
        artifacts = orchestrator.run_many(requests)
    for artifact, request in zip(artifacts, requests):
        assert json.dumps(
            artifact.result.to_dict(), sort_keys=True
        ) == solo_bytes(request)


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_entry_that_raises_still_launches_earlier_claims(
    tmp_path, monkeypatch, jobs
):
    """Reading a batch's second entry raises (its store document is
    unreadable): the batch fails, yet the miss the first entry claimed
    still runs, is stored and settles instead of answering 202 until
    the daemon restarts."""
    first, second = (
        RunRequest(config=tiny(), policy=policy)
        for policy in default_policies()[1:3]
    )
    orchestrator = Orchestrator(
        store=ResultStore(tmp_path / "store", backend="segment"), jobs=jobs
    )
    lookup = orchestrator.lookup

    def unreadable(request, fingerprint):
        if fingerprint == second.fingerprint():
            raise OSError("unreadable segment")
        return lookup(request, fingerprint)

    monkeypatch.setattr(orchestrator, "lookup", unreadable)
    with ExperimentDaemon(orchestrator) as daemon:
        batch = encode_batch([encode_request(first), encode_request(second)])
        with pytest.raises(OSError, match="unreadable segment"):
            daemon.handle_batch(batch)
        assert poll_line(daemon, first.fingerprint())["kind"] == (
            "run_artifact"
        )
        assert first.fingerprint() in orchestrator.store
        assert daemon.stats()["inflight"] == 0


def test_runner_that_refuses_a_group_fails_its_claims(monkeypatch):
    """A serial daemon whose runner refuses a batch's second group (it
    was shut down, say) fails that group's claims; the first group
    still runs and settles."""
    requests = [
        RunRequest(config=tiny(seed), policy=default_policies()[1])
        for seed in (0, 1)
    ]
    with ExperimentDaemon(Orchestrator(jobs=1)) as daemon:
        runner = daemon._serial_runner()
        calls = []

        def refusing():
            calls.append(None)
            if len(calls) > 1:
                raise RuntimeError("runner is shut down")
            return runner

        monkeypatch.setattr(daemon, "_serial_runner", refusing)
        daemon.handle_batch(
            encode_batch([encode_request(request) for request in requests])
        )
        settled = poll_line(daemon, requests[0].fingerprint())
        failed = poll_line(daemon, requests[1].fingerprint())
        assert daemon.stats()["inflight"] == 0
    assert settled["kind"] == "run_artifact"
    assert failed["status"] == 500
    assert "runner is shut down" in failed["error"]


def test_twins_share_one_simulation(monkeypatch):
    """Four policies x {slot, event} in one batch simulate four times:
    each policy places once per slot, each event run shares its slot
    twin's records, and every artifact equals its solo run."""
    calls = count_places(monkeypatch)
    requests = twin_requests()
    with Orchestrator(jobs=1) as orchestrator:
        futures = orchestrator.submit_many(requests)
        assert collections.Counter(calls) == {
            policy.name: 3 for policy in default_policies()
        }
        for slot, event in zip(futures[:4], futures[4:]):
            assert event.result().result.slots is slot.result().result.slots
            assert event.result().result.requests
        for future, request in zip(futures, requests):
            assert future.result().source == "computed"
            assert artifact_bytes(future) == solo_bytes(request)
        stats = orchestrator.workload_cache_stats()
    assert (stats["misses"], stats["hits"]) == (1, 7)


def test_event_runs_of_two_rates_share_one_simulation(monkeypatch):
    """Two event runs that differ only in their request rate simulate
    once and draw different request ledgers, each its solo run's."""
    calls = count_places(monkeypatch)
    requests = [
        RunRequest(
            config=tiny(),
            policy=default_policies()[1],
            options=EngineOptions(
                engine=EngineCoreConfig(
                    kind="event", requests_per_vm_hour=rate
                )
            ),
        )
        for rate in (120.0, 30.0)
    ]
    with Orchestrator(jobs=1) as orchestrator:
        first, second = orchestrator.submit_many(requests)
    assert calls == ["Ener-aware"] * 3
    assert first.result().result.requests != second.result().result.requests
    for future, request in zip((first, second), requests):
        assert artifact_bytes(future) == solo_bytes(request)


def test_failed_simulation_fails_both_twins():
    """A policy that raises fails its slot and its event future alike
    and stores neither; the other pair of the group completes."""
    requests = twin_requests([FailsAtSlotOne(), PriAwarePolicy()])
    with Orchestrator(jobs=1) as orchestrator:
        futures = orchestrator.submit_many(requests)
        for index in (0, 2):
            with pytest.raises(RuntimeError, match="boom at slot 1"):
                futures[index].result()
            assert futures[index].fingerprint not in orchestrator.store
        for index in (1, 3):
            assert futures[index].fingerprint in orchestrator.store
            assert artifact_bytes(futures[index]) == solo_bytes(
                requests[index]
            )


def test_elapsed_adds_up_to_the_group_wall_time(monkeypatch):
    """On a clock that ticks a quarter second per read, the group's runs
    add up to its wall time, and twins split their engine's time."""
    readings = []

    def perf_counter():
        readings.append(len(readings) * 0.25)
        return readings[-1]

    clock = types.SimpleNamespace(perf_counter=perf_counter)
    monkeypatch.setattr(orchestrator_module, "time", clock)
    monkeypatch.setattr(engine_module, "time", clock)
    with Orchestrator(jobs=1) as orchestrator:
        artifacts = orchestrator.run_many(twin_requests())
    elapsed = [artifact.elapsed_s for artifact in artifacts]
    assert sum(elapsed) == pytest.approx(readings[-1] - readings[0])
    assert elapsed[:4] == elapsed[4:]


def test_split_keeps_twins_together():
    """At jobs=2 a one-seed four-policy slot+event group splits into
    Proposed's twins and the three baselines' twins, and its cost
    counts each simulation once."""
    group = [
        RunFuture(request, request.fingerprint(), Future())
        for request in twin_requests()
    ]
    assert _cost(group) == _cost(group[:4])
    names = [
        [future.request.policy.name for future in task]
        for task in _spread([group], 2)
    ]
    assert names == [
        ["Proposed"] * 2,
        ["Ener-aware"] * 2 + ["Pri-aware"] * 2 + ["Net-aware"] * 2,
    ]


def test_daemon_counts_each_twin_as_computed(monkeypatch):
    """Through the daemon a twin pair simulates once yet counts twice
    under /stats ``computed``, and each twin equals its solo run."""
    calls = count_places(monkeypatch)
    requests = twin_requests(default_policies()[1:2])
    with ExperimentDaemon(Orchestrator(jobs=1)) as daemon:
        with ServiceClient(daemon.url) as client:
            before = client.stats()
            artifacts = client.run_many(requests)
            after = client.stats()
    assert calls == ["Ener-aware"] * 3
    assert after["computed"] - before["computed"] == 2
    assert [artifact.source for artifact in artifacts] == ["computed"] * 2
    for artifact, request in zip(artifacts, requests):
        assert json.dumps(
            artifact.result.to_dict(), sort_keys=True
        ) == solo_bytes(request)


def count_site_work(monkeypatch) -> dict[str, list]:
    """Record each BER window draw, each slot's PV power and PUE
    evaluation (by the slot's first step time) and each clear-sky
    prior (by site array and slot)."""
    work: dict[str, list] = {"ber": [], "pv": [], "pue": [], "prior": []}
    link_rng = BERProcess.link_rng
    fleet_power_watts = kernel_module.fleet_power_watts
    fleet_pue = kernel_module.fleet_pue
    clear_sky_energy = PVArray.clear_sky_energy

    def counted_link_rng(process, slot, src, dst):
        work["ber"].append((slot, src, dst))
        return link_rng(process, slot, src, dst)

    def counted_power(arrays, times):
        work["pv"].append(float(times[0]))
        return fleet_power_watts(arrays, times)

    def counted_pue(models, times):
        work["pue"].append(float(times[0]))
        return fleet_pue(models, times)

    def counted_prior(array, slot):
        work["prior"].append((array.seed, slot))
        return clear_sky_energy(array, slot)

    monkeypatch.setattr(BERProcess, "link_rng", counted_link_rng)
    monkeypatch.setattr(kernel_module, "fleet_power_watts", counted_power)
    monkeypatch.setattr(kernel_module, "fleet_pue", counted_pue)
    monkeypatch.setattr(PVArray, "clear_sky_energy", counted_prior)
    return work


@pytest.mark.parametrize("entry", ["orchestrator", "run_policies"])
def test_a_group_evaluates_each_slots_site_once(monkeypatch, entry):
    """Four policies on one fleet: each (slot, link) BER window is drawn
    once, and each slot's PV power, PUE and clear-sky priors are
    computed once for the group, not once per engine."""
    config = tiny(horizon=6)
    work = count_site_work(monkeypatch)
    if entry == "orchestrator":
        with Orchestrator(jobs=1) as orchestrator:
            orchestrator.run_many(
                [
                    RunRequest(config=config, policy=policy)
                    for policy in default_policies()
                ]
            )
    else:
        run_policies(config, default_policies())
    assert work["ber"]
    for kind in ("ber", "prior"):
        assert max(collections.Counter(work[kind]).values()) == 1, kind
    # One day: every slot's hour is new to the forecasters.
    assert len(work["prior"]) == config.n_dcs * config.horizon_slots
    for kind in ("pv", "pue"):
        assert len(work[kind]) == config.horizon_slots, kind
        assert len(set(work[kind])) == config.horizon_slots, kind


def test_a_group_mixing_fleets_equals_solo_runs(monkeypatch):
    """PV and battery sweep points of one workload, built as
    ``sweep_pv_scale`` and ``sweep_battery_scale`` build them, form one
    group with one SiteConditions per fleet, and every run is
    byte-identical to its solo run."""
    base = tiny(horizon=6)
    configs = [
        dataclasses.replace(
            base,
            specs=tuple(
                dataclasses.replace(
                    spec, **{field: getattr(spec, field) * scale}
                )
                for spec in base.specs
            ),
        )
        for field in ("pv_kwp", "battery_kwh")
        for scale in (0.5, 2.0)
    ]
    requests = [
        RunRequest(config=config, policy=policy)
        for config in configs
        for policy in default_policies()[:2]
    ]
    fleets = []
    init = SiteConditions.__init__

    def counted_init(self, config):
        fleets.append(config.specs)
        init(self, config)

    monkeypatch.setattr(SiteConditions, "__init__", counted_init)
    with Orchestrator(jobs=1) as orchestrator:
        futures = orchestrator.submit_many(requests)
        stats = orchestrator.workload_cache_stats()
        grouped = [artifact_bytes(future) for future in futures]
    assert (stats["misses"], stats["hits"]) == (1, len(requests) - 1)
    assert fleets == [config.specs for config in configs]
    assert grouped == [solo_bytes(request) for request in requests]
