"""Lockstep run groups: failure isolation, batch order, counters."""

import json
import sys
import threading
import traceback

import pytest

from repro.baselines import PriAwarePolicy
from concurrent.futures import Future

from repro.experiments.orchestrator import (
    EngineOptions,
    Orchestrator,
    RunFuture,
    RunRequest,
    _spread,
)
from repro.experiments.runner import default_policies
from repro.service.client import ServiceClient
from repro.service.protocol import encode_batch, encode_request
from repro.service.server import ExperimentDaemon
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import SimulationEngine
from repro.store import ResultStore
from repro.workload.materialize import WorkloadMaterialization


def tiny(seed: int = 0, horizon: int = 3):
    return scaled_config("tiny", seed=seed).with_horizon(horizon)


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


def solo_bytes(request: RunRequest) -> str:
    """A request's result run on its own, as canonical JSON."""
    result = SimulationEngine(
        request.resolved_config(),
        request.policy,
        validate=request.options.validate,
        clairvoyant=request.options.clairvoyant,
        workload=request.pack,
        engine=request.options.engine,
    ).run()
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
    """Clairvoyant and last-interval runs of one key (and an event-kind
    run) advance on one materialization and each equal its solo run."""
    requests = [
        RunRequest(
            config=tiny(horizon=4),
            policy=default_policies()[index],
            options=options,
        )
        for index, options in [
            (1, EngineOptions(clairvoyant=True)),
            (1, EngineOptions()),
            (0, EngineOptions(engine=EngineCoreConfig(kind="event"))),
        ]
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
