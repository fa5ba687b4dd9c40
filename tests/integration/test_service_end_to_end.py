"""Acceptance: a sweep through the service equals the in-process run.

Starts a real daemon (segment store, worker pool), runs the scenario
study twice -- once through a :class:`ServiceClient`, once through a
local :class:`Orchestrator` on a separate root -- and diffs
everything: the analysis outcomes, the stores' fingerprint sets, and
every persisted document byte for byte (request descriptor, ledger
and meta alike).  Also exercises the CLI's ``--service`` path against
the same daemon.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.experiments.scenarios import run_scenarios
from repro.service import ExperimentDaemon, ServiceClient
from repro.sim.config import scaled_config


@pytest.fixture(scope="module")
def tiny_config():
    return scaled_config("tiny", seed=0).with_horizon(2)


def canonical_documents(
    store: ResultStore, expect_daemon: str | None = None
) -> dict[str, str]:
    """Store documents as canonical JSON, provenance normalized out.

    Daemon-recorded documents carry ``meta.daemon`` (which daemon
    executed the run); in-process ones do not.  Byte-identity is
    asserted on everything else; when ``expect_daemon`` is given,
    every document must carry exactly that provenance stamp.
    """
    canonical = {}
    for fingerprint, document in store.documents():
        document = dict(document)
        meta = dict(document.get("meta") or {})
        daemon = meta.pop("daemon", None)
        if expect_daemon is not None:
            assert daemon == expect_daemon, fingerprint
        if meta:
            document["meta"] = meta
        else:
            document.pop("meta", None)
        canonical[fingerprint] = json.dumps(document, sort_keys=True)
    return canonical


def test_scenario_sweep_is_byte_identical(tiny_config, tmp_path):
    service_store = ResultStore(tmp_path / "daemon", backend="segment")
    local_store = ResultStore(tmp_path / "local", backend="segment")
    daemon = ExperimentDaemon(
        Orchestrator(store=service_store, jobs=2)
    ).start()
    try:
        client = ServiceClient(daemon.url)
        remote_outcomes = run_scenarios(tiny_config, orchestrator=client)
        client.close()
    finally:
        daemon.close()
    local_outcomes = run_scenarios(
        tiny_config, orchestrator=Orchestrator(store=local_store, jobs=2)
    )

    # Identical analysis outcomes (dataclasses of floats -- exact).
    assert remote_outcomes == local_outcomes

    # Identical store contents: same fingerprints, same bytes (modulo
    # the daemon's provenance stamp, which must name the daemon).
    remote_docs = canonical_documents(
        service_store, expect_daemon=daemon.daemon_id
    )
    local_docs = canonical_documents(local_store)
    assert set(remote_docs) == set(local_docs)
    assert len(remote_docs) == 12  # 3 scenarios x 4 policies
    for fingerprint, document in local_docs.items():
        assert remote_docs[fingerprint] == document, fingerprint


def test_cli_service_path_matches_inprocess(tiny_config, tmp_path, capsys):
    daemon = ExperimentDaemon(
        Orchestrator(
            store=ResultStore(tmp_path / "cli-daemon", backend="segment"),
            jobs=2,
        )
    ).start()
    try:
        code = main(
            [
                "scenarios", "--scale", "tiny", "--horizon", "2",
                "--service", daemon.url, "--no-progress",
            ]
        )
        assert code == 0
        remote_out = capsys.readouterr().out
        code = main(
            ["scenarios", "--scale", "tiny", "--horizon", "2", "--no-progress"]
        )
        assert code == 0
        local_out = capsys.readouterr().out
        assert remote_out == local_out
    finally:
        daemon.close()
