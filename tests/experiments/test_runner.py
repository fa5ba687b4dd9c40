"""Comparison runner: caching semantics."""

import pytest

from repro.experiments import runner
from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.experiments.runner import (
    default_orchestrator,
    default_policies,
    run_comparison,
)
from repro.sim.config import scaled_config


@pytest.fixture(autouse=True)
def fresh_default_orchestrator(monkeypatch):
    """Each test starts on a new default orchestrator (an empty store)."""
    monkeypatch.setattr(runner, "_DEFAULT_ORCHESTRATOR", None)


def test_alpha_distinguishes_cache_entries():
    config = scaled_config("tiny").with_horizon(3)
    a = run_comparison(config, alpha=0.3)
    b = run_comparison(config, alpha=0.7)
    assert a is not b


def test_horizon_distinguishes_cache_entries():
    base = scaled_config("tiny")
    a = run_comparison(base.with_horizon(3))
    b = run_comparison(base.with_horizon(4))
    assert a is not b
    assert a[0].horizon == 3
    assert b[0].horizon == 4


def test_seed_distinguishes_cache_entries():
    a = run_comparison(scaled_config("tiny", seed=1).with_horizon(3))
    b = run_comparison(scaled_config("tiny", seed=2).with_horizon(3))
    assert a is not b


def test_cache_bypass():
    config = scaled_config("tiny").with_horizon(3)
    a = run_comparison(config)
    bypass = Orchestrator(store=default_orchestrator().store, use_store=False)
    b = run_comparison(config, orchestrator=bypass)
    assert a is not b
    assert a[0] is not b[0]  # recomputed, not the stored object
    assert a[0].total_grid_cost_eur() == b[0].total_grid_cost_eur()


def test_comparison_honours_the_orchestrators_store_setting(monkeypatch):
    """A warm store behind ``use_store=False`` is recomputed, not read."""
    config = scaled_config("tiny").with_horizon(2)
    store = ResultStore()
    run_comparison(config, orchestrator=Orchestrator(store=store))
    before = store.stats()
    bypass = Orchestrator(store=store, use_store=False)
    artifacts = []
    run_many = bypass.run_many

    def recording(*args, **kwargs):
        artifacts.extend(run_many(*args, **kwargs))
        return artifacts

    monkeypatch.setattr(bypass, "run_many", recording)
    run_comparison(config, orchestrator=bypass)
    after = store.stats()
    assert after["writes"] - before["writes"] == 4
    assert after["hits_memory"] == before["hits_memory"]
    assert [artifact.source for artifact in artifacts] == ["computed"] * 4


def test_default_policies_order_and_names():
    policies = default_policies()
    assert [policy.name for policy in policies] == [
        "Proposed",
        "Ener-aware",
        "Pri-aware",
        "Net-aware",
    ]


def test_run_replicated_comparison_shape():
    from repro.experiments.runner import run_replicated_comparison

    config = scaled_config("tiny").with_horizon(2)
    replicates = run_replicated_comparison(config, seeds=(0, 1))
    assert set(replicates) == {
        "Proposed",
        "Ener-aware",
        "Pri-aware",
        "Net-aware",
    }
    assert all(len(runs) == 2 for runs in replicates.values())
    # Different seeds, different workloads, same policy order.
    costs = [run.total_grid_cost_eur() for run in replicates["Proposed"]]
    assert costs[0] != costs[1]


def test_jobs_parallel_comparison_identical():
    config = scaled_config("tiny").with_horizon(3)
    serial = run_comparison(
        config, orchestrator=Orchestrator(store=ResultStore())
    )
    with Orchestrator(store=ResultStore(), jobs=2) as pooled:
        parallel = run_comparison(config, orchestrator=pooled)
    for a, b in zip(serial, parallel):
        assert a.policy_name == b.policy_name
        assert a.slots == b.slots
