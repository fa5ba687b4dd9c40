"""Campaign execution: drive a suite's run grid to completion, ledgered.

A *campaign* is one suite spec's expanded grid executed against one
result store, identified deterministically as
``<suite-name>-<suite-sha[:10]>`` -- re-running an unchanged spec
against the same store always addresses the same campaign (and the
same ledger), which is what makes ``repro suite resume`` safe after a
SIGKILL: the interrupted and uninterrupted timelines plan identical
fingerprints with identical store meta, so the stores converge
byte-identically.

The driver is deliberately a thin shell around the existing consumer
surface (:class:`~repro.experiments.orchestrator.Orchestrator` or
``ServiceClient`` -- anything with
``submit_many``/``as_done``/``lookup``): the ledger wraps execution,
it never replaces the store as the source of truth.  Resume trusts
the ledger only as a *hint* and verifies every ``done`` fingerprint
against the store before skipping it.
"""

from __future__ import annotations

import pathlib
import subprocess
import time
from dataclasses import dataclass
from typing import Callable

from repro.suite.ledger import CampaignLedger, CampaignState
from repro.suite.spec import SuiteRun, SuiteSpec

__all__ = [
    "CampaignDriver",
    "CampaignError",
    "CampaignReport",
    "campaign_status",
    "code_sha",
]


class CampaignError(RuntimeError):
    """A campaign-level refusal (wrong ledger state, failed runs)."""


#: Terminal-transition records buffered before one write+flush.
_FLUSH_BATCH = 64

#: Longest a buffered terminal transition may wait before flushing.
_FLUSH_INTERVAL_S = 0.25


def code_sha(root: str | pathlib.Path | None = None) -> str:
    """The repository HEAD sha for provenance, or ``unknown``.

    Suites run from installed checkouts, CI workspaces and bare
    containers alike, so a missing git (or a non-repo cwd) degrades to
    a sentinel rather than failing the campaign.
    """
    if root is None:
        # The checkout this code was imported from, not the cwd --
        # campaigns are routinely driven from scratch directories.
        root = pathlib.Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass
class CampaignReport:
    """What one driver invocation did, for rendering and tests."""

    campaign_id: str
    total: int
    skipped: int = 0  # ledger-done, store-verified
    warm: int = 0  # store hits not yet ledgered done
    executed: int = 0  # actually simulated this invocation
    failed: int = 0
    wall_s: float = 0.0

    def summary(self) -> str:
        """One status line: planned/skipped/warm/executed and wall time."""
        parts = [
            f"campaign {self.campaign_id}: {self.total} planned",
            f"{self.skipped} skipped",
            f"{self.warm} warm",
            f"{self.executed} executed",
        ]
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        parts.append(f"{self.wall_s:.1f}s")
        return ", ".join(parts)


def _daemon_identity(consumer) -> str:
    """The daemon id the ledger records for every run of a consumer.

    A ``ServiceClient`` runs everything on its daemon (the
    ``/healthz`` identity, else the URL); an in-process orchestrator
    records its ``meta.daemon`` stamp (``local`` if it has none).
    """
    url = getattr(consumer, "url", None)
    if url is not None:  # ServiceClient
        try:
            return consumer.ping().get("daemon_id", url)
        except Exception:
            return url
    meta = getattr(consumer, "meta", None) or {}
    return meta.get("daemon", "local")


class CampaignDriver:
    """Execute (or resume) one suite campaign against one consumer.

    Parameters
    ----------
    spec:
        The parsed suite spec.
    consumer:
        Orchestrator or ``ServiceClient``.  If it
        exposes ``with_meta``, runs are stamped with the campaign id
        (in-process: into every artifact's store meta envelope; a
        ``ServiceClient`` ignores it, as store meta is the daemon's).
    ledger_root:
        Directory whose ``campaigns/`` subdir holds the manifest --
        the store root for local runs, any scratch dir for ``--service``
        runs (the ledger is a client-side audit record either way).
    echo:
        Progress-line sink (``None`` silences).
    """

    def __init__(
        self,
        spec: SuiteSpec,
        consumer,
        ledger_root: str | pathlib.Path,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        self.spec = spec
        self.ledger_root = pathlib.Path(ledger_root)
        self.echo = echo or (lambda line: None)
        self.code_sha = code_sha()
        with_meta = getattr(consumer, "with_meta", None)
        if with_meta is not None:
            consumer = with_meta({"campaign": spec.campaign_id})
        self.consumer = consumer
        self._daemon_id = _daemon_identity(consumer)

    def ledger(self) -> CampaignLedger:
        """This campaign's ledger handle under the configured root."""
        return CampaignLedger.for_store(
            self.ledger_root, self.spec.campaign_id
        )

    # -- the run/resume core -----------------------------------------------

    def run(self, resume: bool = False) -> CampaignReport:
        """Execute the campaign (or what remains of it).

        A fresh ``run`` refuses to touch an existing *incomplete*
        ledger (the operator must say ``resume`` -- an explicit
        acknowledgement that a previous driver died); ``resume``
        refuses to start from nothing.  A complete campaign is
        idempotent under both verbs: nothing re-executes, outputs
        regenerate from the store.
        """
        ledger = self.ledger()
        state = ledger.replay()
        if resume and state.header is None:
            raise CampaignError(
                f"nothing to resume: no ledger for campaign "
                f"{self.spec.campaign_id!r} under {ledger.path.parent}"
            )
        if not resume and state.header is not None and not state.complete:
            raise CampaignError(
                f"campaign {self.spec.campaign_id!r} has an interrupted "
                f"ledger at {ledger.path} "
                f"({state.counts()['done']}/{len(state.planned)} done); "
                f"use 'repro suite resume' to continue it"
            )
        if state.suite_sha is not None and state.suite_sha != self.spec.sha256:
            raise CampaignError(
                f"ledger {ledger.path} was planned from suite sha "
                f"{state.suite_sha[:10]}, but {self.spec.path} now hashes "
                f"to {self.spec.sha256[:10]}; edited suites start a new "
                f"campaign (delete the stale ledger if it is abandoned)"
            )
        try:
            return self._execute(ledger, state)
        finally:
            ledger.close()

    def _execute(
        self, ledger: CampaignLedger, state: CampaignState
    ) -> CampaignReport:
        started = time.monotonic()
        runs = self.spec.expand()
        opening: list[dict] = [
            {
                "type": "campaign",
                "campaign": self.spec.campaign_id,
                "suite": self.spec.name,
                "suite_sha": self.spec.sha256,
                "suite_path": str(self.spec.path),
                "code_sha": self.code_sha,
                "total": len(runs),
                "time": time.time(),
            }
        ]
        plans = [
            {
                "fingerprint": run.fingerprint,
                "labels": run.labels,
                "pack_sha": run.request.pack.sha256,
            }
            for run in runs
            if run.fingerprint not in state.planned
        ]
        if plans:
            opening.append({"type": "plan_batch", "runs": plans})
        ledger.append_many(opening)

        report = CampaignReport(
            campaign_id=self.spec.campaign_id, total=len(runs)
        )
        pending: list[SuiteRun] = []
        for run in runs:
            record = state.status.get(run.fingerprint)
            if record is not None and record.get("status") == "done":
                # Ledger says done -- believe it only if the store
                # still holds the artifact (GC or a lost store root
                # must re-execute, not silently hole the campaign).
                if self.consumer.lookup(run.request, run.fingerprint):
                    report.skipped += 1
                    continue
            pending.append(run)
        if report.skipped:
            self.echo(
                f"{report.skipped} store-verified run(s) skipped"
            )

        if pending:
            self._drain(ledger, pending, report)
        report.wall_s = time.monotonic() - started
        if report.failed:
            raise CampaignError(
                f"{report.failed} run(s) failed; see {ledger.path}"
            )
        return report

    def _drain(
        self,
        ledger: CampaignLedger,
        pending: list[SuiteRun],
        report: CampaignReport,
    ) -> None:
        """Submit the pending tail and ledger every terminal transition.

        ``submitted`` records land before the batch is handed to the
        consumer, so a crash mid-execution leaves an honest trail (the
        run may or may not have reached the store; resume's store
        verification disambiguates).
        """
        # One submit_many call submits the whole batch at one instant,
        # so one batch record captures it -- and keeps the warm sweep's
        # bookkeeping to a single encode instead of one per run.
        ledger.append(
            {
                "type": "status_batch",
                "status": "submitted",
                "fingerprints": [run.fingerprint for run in pending],
                "time": time.time(),
            }
        )
        by_fp = {run.fingerprint: run for run in pending}
        futures = self.consumer.submit_many(
            [run.request for run in pending]
        )
        # Terminal transitions are batched adaptively: cold campaigns
        # (seconds per run) flush nearly per record, warm sweeps
        # (thousands of hits per second) amortize one envelope record
        # over up to _FLUSH_BATCH entries, with the batch-constant
        # provenance (suite/code sha) hoisted into the envelope.  A
        # crash loses at most the buffered tail, and a lost ``done``
        # merely re-submits on resume and resolves warm from the
        # store -- never a re-execution.  Failures land solo and
        # immediately: they are rare and worth the durability.
        def flush(entries: list[dict]) -> None:
            ledger.append(
                {
                    "type": "status_batch",
                    "status": "done",
                    "suite_sha": self.spec.sha256,
                    "code_sha": self.code_sha,
                    "records": entries,
                }
            )

        batch: list[dict] = []
        last_flush = time.monotonic()
        done = 0
        for future in self.consumer.as_done(futures):
            run = by_fp[future.fingerprint]
            error = future.exception()
            if error is not None:
                report.failed += 1
                ledger.append(
                    {
                        "type": "status",
                        "fingerprint": run.fingerprint,
                        "status": "failed",
                        "error": f"{type(error).__name__}: {error}",
                        "time": time.time(),
                    }
                )
                continue
            artifact = future.result()
            if artifact.source == "computed":
                report.executed += 1
            else:
                report.warm += 1
            batch.append(
                {
                    "fingerprint": run.fingerprint,
                    "source": artifact.source,
                    "elapsed_s": artifact.elapsed_s,
                    "daemon": self._daemon_id,
                    "engine": run.labels["engine"],
                    "pack_sha": run.request.pack.sha256,
                    "time": time.time(),
                }
            )
            done += 1
            if done % 25 == 0 or done == len(pending):
                self.echo(f"  {done}/{len(pending)} resolved")
            now = time.monotonic()
            if (
                len(batch) >= _FLUSH_BATCH
                or now - last_flush >= _FLUSH_INTERVAL_S
            ):
                flush(batch)
                batch = []
                last_flush = now
        if batch:
            flush(batch)


def campaign_status(
    root: str | pathlib.Path, spec: SuiteSpec | None = None
) -> list[CampaignState]:
    """Replayed state for every campaign under ``root`` (or one spec's)."""
    from repro.suite.ledger import list_campaigns

    if spec is not None:
        ledger = CampaignLedger.for_store(root, spec.campaign_id)
        return [ledger.replay()] if ledger.exists() else []
    return [ledger.replay() for ledger in list_campaigns(root)]
