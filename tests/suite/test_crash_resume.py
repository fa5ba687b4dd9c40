"""Crash drills: SIGKILL mid-campaign, then resume with zero re-runs.

The acceptance contract for the suite layer: a campaign killed hard
mid-flight and then resumed must (a) never re-execute a fingerprint
whose artifact already reached the store and (b) leave the store
byte-identical to an uninterrupted run of the same suite (the ledger
directory excluded -- it is the audit record *of* the two timelines,
so it legitimately differs).

Two drills: the in-process driver (``--store``) and a real ``repro
serve`` daemon subprocess killed under a live client (``--service``).
Both use the json store backend, whose atomic per-document files make
byte-level comparison meaningful.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.suite import CampaignDriver, CampaignLedger, load_suite

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

_LISTENING = re.compile(r"listening on (http://\S+) ")

#: Eight tiny runs: enough room to die in the middle.
SUITE = """
[suite]
name = "drill"
description = "crash-resume drill"

[matrix]
scale = "tiny"
horizon = 2
seeds = [0, 1]
"""

TOTAL = 8
KILL_AFTER = 3

#: Child driver: runs one campaign; in store mode it SIGKILLs itself
#: once KILL_AFTER artifacts have reached the store (mid-submit_many:
#: the rest of that lockstep group ran but was never stored, and the
#: next group has not started).  Service mode runs to whatever end the
#: daemon's fate dictates.
CHILD = """
import os, signal, sys

mode, suite_path, root = sys.argv[1:4]

from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.suite import CampaignDriver, load_suite

spec = load_suite(suite_path)
if mode == "store":
    consumer = Orchestrator(store=ResultStore(root, backend="json"))
else:
    from repro.service.client import ServiceClient
    consumer = ServiceClient(sys.argv[4])

driver = CampaignDriver(spec, consumer, root)
if mode == "store":
    kill_after = int(sys.argv[4])
    real_put = consumer.store.put
    seen = {"n": 0}

    def put(*args, **kwargs):
        if seen["n"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        seen["n"] += 1
        return real_put(*args, **kwargs)

    consumer.store.put = put
driver.run()
"""

#: Daemon wrapper for the service drill: ``repro serve`` that SIGKILLs
#: itself on its first store put past KILL_AFTER, so the kill lands
#: mid-campaign however fast the host computes the grid (a kill sent
#: by the test once KILL_AFTER documents appear can come after the
#: campaign has finished).
DAEMON = """
import os, signal, sys

from repro.cli import main
from repro.store import ResultStore

kill_after = int(sys.argv[1])
real_put = ResultStore.put
seen = {"n": 0}


def put(self, *args, **kwargs):
    if seen["n"] >= kill_after:
        os.kill(os.getpid(), signal.SIGKILL)
    seen["n"] += 1
    return real_put(self, *args, **kwargs)


ResultStore.put = put
sys.exit(main(sys.argv[2:]))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _store_files(root: pathlib.Path) -> dict[str, bytes]:
    """Relative path -> bytes for every store file, ledgers excluded."""
    files = {}
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if not path.is_file() or relative.parts[0] == "campaigns":
            continue
        files[str(relative)] = path.read_bytes()
    return files


def _reference_store(spec_path, tmp_path) -> dict[str, bytes]:
    """One uninterrupted in-process run of the suite, for comparison."""
    root = tmp_path / "reference-store"
    spec = load_suite(spec_path)
    store = ResultStore(root, backend="json")
    report = CampaignDriver(spec, Orchestrator(store=store), root).run()
    assert report.executed == TOTAL
    return _store_files(root)


@pytest.fixture
def suite_file(tmp_path):
    path = tmp_path / "drill.toml"
    path.write_text(SUITE)
    return path


@pytest.fixture
def child_script(tmp_path):
    path = tmp_path / "child.py"
    path.write_text(CHILD)
    return path


@pytest.fixture
def daemon_script(tmp_path):
    path = tmp_path / "daemon.py"
    path.write_text(DAEMON)
    return path


def test_sigkill_in_process_then_resume(suite_file, child_script, tmp_path):
    root = tmp_path / "killed-store"
    proc = subprocess.run(
        [
            sys.executable, str(child_script), "store",
            str(suite_file), str(root), str(KILL_AFTER),
        ],
        env=_env(),
        timeout=300,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

    # Exactly the pre-kill prefix reached the store; the ledger holds
    # the plans and the submitted batch but no terminal transitions.
    spec = load_suite(suite_file)
    survivors = {
        name for name in _store_files(root) if name.endswith(".json")
    }
    assert len(survivors) == KILL_AFTER
    state = CampaignLedger.for_store(root, spec.campaign_id).replay()
    assert len(state.planned) == TOTAL
    assert state.fingerprints("done") == []
    assert not state.complete

    # Resume: survivors resolve warm from the store, never re-execute.
    store = ResultStore(root, backend="json")
    report = CampaignDriver(
        spec, Orchestrator(store=store), root
    ).run(resume=True)
    assert report.executed == TOTAL - KILL_AFTER
    assert report.warm == KILL_AFTER
    assert report.skipped == 0 and report.failed == 0
    state = CampaignLedger.for_store(root, spec.campaign_id).replay()
    assert state.complete

    # The interrupted-then-resumed store is byte-identical to an
    # uninterrupted run's.
    assert _store_files(root) == _reference_store(suite_file, tmp_path)


class _DaemonProcess:
    """One ``repro serve`` subprocess bound to an ephemeral port; with a
    ``killer`` (the :data:`DAEMON` script) it SIGKILLs itself on its
    first store put past :data:`KILL_AFTER`."""

    def __init__(self, store_root, daemon_id, killer=None):
        launcher = (
            ["-m", "repro"] if killer is None
            else [str(killer), str(KILL_AFTER)]
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, *launcher, "serve",
                "--store", str(store_root),
                "--store-backend", "json",
                "--jobs", "1",
                "--port", "0",
                "--daemon-id", daemon_id,
            ],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = self._await_url(timeout_s=60.0)

    def _await_url(self, timeout_s):
        found: list[str] = []

        def read():
            for line in self.proc.stderr:
                match = _LISTENING.search(line)
                if match and not found:
                    found.append(match.group(1))

        threading.Thread(target=read, daemon=True).start()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if found:
                return found[0]
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}"
                )
            time.sleep(0.05)
        self.proc.terminate()
        raise RuntimeError("daemon did not report its URL in time")

    def close(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def test_sigkill_daemon_then_resume(
    suite_file, child_script, daemon_script, tmp_path
):
    from repro.service.client import ServiceClient

    root = tmp_path / "daemon-store"
    ledger_root = tmp_path / "client-ledger"
    daemon = _DaemonProcess(root, "drill-daemon", killer=daemon_script)
    child = None
    try:
        child = subprocess.Popen(
            [
                sys.executable, str(child_script), "service",
                str(suite_file), str(ledger_root), daemon.url,
            ],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # The daemon SIGKILLs itself once KILL_AFTER artifacts landed.
        assert daemon.proc.wait(timeout=120) == -signal.SIGKILL
        # The clientside driver dies with failed runs, nonzero.
        assert child.wait(timeout=120) != 0
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        daemon.close()

    spec = load_suite(suite_file)
    survivors = {
        name for name in _store_files(root) if name.endswith(".json")
    }
    assert len(survivors) == KILL_AFTER
    state = CampaignLedger.for_store(
        ledger_root, spec.campaign_id
    ).replay()
    assert len(state.planned) == TOTAL
    assert not state.complete

    # Resume against a restarted daemon on the same store root (same
    # identity: provenance meta must not fork the byte comparison).
    restarted = _DaemonProcess(root, "drill-daemon")
    try:
        with ServiceClient(restarted.url) as client:
            report = CampaignDriver(
                spec, client, ledger_root
            ).run(resume=True)
        assert report.failed == 0
        # Zero re-execution: only the missing fingerprints computed.
        assert report.executed == TOTAL - len(survivors)
        assert report.skipped + report.warm == len(survivors)
    finally:
        restarted.close()
    state = CampaignLedger.for_store(
        ledger_root, spec.campaign_id
    ).replay()
    assert state.complete

    # Byte-identical to an uninterrupted daemon campaign on a fresh
    # store root, same daemon identity.
    reference_root = tmp_path / "reference-daemon-store"
    reference = _DaemonProcess(reference_root, "drill-daemon")
    try:
        with ServiceClient(reference.url) as client:
            report = CampaignDriver(
                spec, client, tmp_path / "reference-ledger"
            ).run()
        assert report.executed == TOTAL
    finally:
        reference.close()
    assert _store_files(root) == _store_files(reference_root)
