"""Campaigns over the service path: meta stamping, daemon identity.

The driver treats every consumer uniformly through ``with_meta``: an
in-process ``Orchestrator`` stamps the campaign id into each store
document's meta envelope, while ``ServiceClient`` ignores it (store
meta is the daemon's), and the ledger records the daemon's identity.
"""

from __future__ import annotations

import pytest

from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.service import ExperimentDaemon, ServiceClient
from repro.suite import CampaignDriver, CampaignLedger


@pytest.fixture
def daemon_factory(tmp_path):
    """In-process daemons on ephemeral ports, closed at teardown."""
    daemons: list[ExperimentDaemon] = []
    roots = iter(range(100))

    def build(**daemon_kwargs) -> ExperimentDaemon:
        store = ResultStore(
            tmp_path / f"daemon-store-{next(roots)}", backend="segment"
        )
        daemon = ExperimentDaemon(
            Orchestrator(store=store, jobs=1), **daemon_kwargs
        )
        daemons.append(daemon)
        return daemon.start()

    yield build
    for daemon in daemons:
        daemon.close()


def test_orchestrator_with_meta_semantics(tmp_path):
    store = ResultStore(tmp_path / "store", backend="segment")
    orchestrator = Orchestrator(store=store)
    # A no-op merge hands back the same instance; a real one clones
    # with the store shared, leaving the original unstamped.
    assert orchestrator.with_meta({}) is orchestrator
    stamped = orchestrator.with_meta({"campaign": "camp-abc"})
    assert stamped is not orchestrator
    assert stamped.store is orchestrator.store
    assert stamped.meta["campaign"] == "camp-abc"
    assert "campaign" not in orchestrator.meta


def test_local_campaign_stamps_store_meta(mini_spec, tmp_path):
    store = ResultStore(tmp_path / "store", backend="segment")
    report = CampaignDriver(
        mini_spec, Orchestrator(store=store), tmp_path / "store"
    ).run()
    assert report.executed == report.total
    documents = list(store.documents())
    assert len(documents) == report.total
    for _fingerprint, document in documents:
        assert document["meta"]["campaign"] == mini_spec.campaign_id


def test_service_campaign_feeds_daemon_stats(
    mini_no_outputs, daemon_factory, tmp_path
):
    """A campaign runs on the daemon, and its ledger names the daemon."""
    spec = mini_no_outputs
    daemon = daemon_factory(daemon_id="svc-a")
    ledger_root = tmp_path / "ledger"
    with ServiceClient(daemon.url) as client:
        report = CampaignDriver(spec, client, ledger_root).run()
        assert report.executed == spec_total(spec)
        assert report.failed == 0
        assert client.with_meta({"campaign": spec.campaign_id}) is client
    # Service-path done records carry the daemon's identity.
    state = CampaignLedger.for_store(
        ledger_root, spec.campaign_id
    ).replay()
    assert state.complete
    for record in state.status.values():
        assert record["daemon"] == "svc-a"


def test_service_rerun_skips_via_daemon_lookup(
    mini_no_outputs, daemon_factory, tmp_path
):
    spec = mini_no_outputs
    daemon = daemon_factory()
    ledger_root = tmp_path / "ledger"
    with ServiceClient(daemon.url) as client:
        CampaignDriver(spec, client, ledger_root).run()
        # Verification hits the daemon's store over the wire: zero
        # executions, zero submissions.
        report = CampaignDriver(spec, client, ledger_root).run()
    assert report.skipped == report.total
    assert report.executed == 0 and report.warm == 0


def test_warm_service_campaign_counts_store_hits_as_warm(
    mini_no_outputs, daemon_factory, tmp_path
):
    """A fresh campaign over a warm daemon executes nothing.

    The daemon caches rendered replies; a computed run's reply must not
    be replayed for later store hits, or they would read as executed.
    """
    spec = mini_no_outputs
    daemon = daemon_factory()
    with ServiceClient(daemon.url) as client:
        cold = CampaignDriver(spec, client, tmp_path / "cold").run()
        warm = CampaignDriver(spec, client, tmp_path / "warm").run()
    assert cold.executed == spec_total(spec)
    assert warm.executed == 0
    assert warm.warm == spec_total(spec)
    state = CampaignLedger.for_store(
        tmp_path / "warm", spec.campaign_id
    ).replay()
    assert state.complete
    sources = {record["source"] for record in state.status.values()}
    assert sources and sources <= {"memory", "disk"}


def spec_total(spec) -> int:
    return len(spec.expand())
