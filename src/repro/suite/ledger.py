"""The campaign manifest: an append-only JSONL provenance ledger.

One file per campaign, living next to the result store
(``<root>/campaigns/<campaign-id>.jsonl``).  Every line is one JSON
record; the file is only ever appended to, so a crashed writer leaves
at worst a torn final line, which replay tolerates and drops (the
``FactLedger`` discipline from the related gps-genealogy repo: the
ledger is the authoritative event log, derived state is recomputed by
replay).

Record types, in the order a healthy campaign emits them::

    {"type": "campaign", "campaign": ..., "suite": ..., "suite_sha": ...,
     "code_sha": ..., "total": N, ...}          # exactly one header
    {"type": "plan_batch", "runs": [{"fingerprint": ..., "labels": {...},
     "pack_sha": ...}, ...]}                    # the planned grid
    {"type": "status_batch", "status": "submitted",
     "fingerprints": [...]}                     # one per submit_many call
    {"type": "status_batch", "status": "done", "suite_sha": ...,
     "code_sha": ..., "records": [{"fingerprint": ..., "source": ...,
     "elapsed_s": ..., "daemon": ..., "engine": ..., "pack_sha": ...,
     "time": ...}, ...]}                        # one per flush batch
    {"type": "status", "fingerprint": ..., "status": "failed",
     "error": ...}                              # failures land solo

Batch records exist for throughput: a 1k-run warm sweep resolves in
a couple hundred milliseconds, and per-run JSON lines would tax that
measurably (see ``benchmarks/bench_suite.py``).  Replay *unrolls*
every batch -- envelope fields (``status``, ``suite_sha``,
``code_sha``, ``time``) merge into each entry -- so folded state is
identical to what per-run ``plan``/``status`` records (also accepted)
would produce, and every done entry still carries its full
provenance.

Durability contract: records are flushed (not fsynced) per append.  A
power cut may lose the buffered tail, but every lost ``done`` merely
re-submits on resume and dedups against the store -- re-execution is
idempotent by construction (deterministic runs + content-addressed
store), so the ledger can stay cheap on the hot path.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import IO, Iterator

__all__ = [
    "CampaignLedger",
    "CampaignState",
    "LedgerError",
    "list_campaigns",
]

#: Subdirectory of the store root holding campaign ledgers.  Store
#: backends scan their own layouts (``*.json`` files, ``segments/``)
#: and ignore this directory, so ledgers ride next to the documents
#: they describe without perturbing any backend.
CAMPAIGNS_DIR = "campaigns"

#: Shared encoder for the write path.  Ledger records are flat dicts
#: built in-process, so circular-reference tracking is pure overhead;
#: key order is irrelevant to replay, so no sort either.  Together
#: these keep a 1k-run warm sweep's bookkeeping inside the
#: ``bench_suite`` overhead gate.
_encode = json.JSONEncoder(
    separators=(",", ":"), check_circular=False
).encode


class LedgerError(RuntimeError):
    """A structurally broken ledger (not a torn tail -- those heal)."""


@dataclass
class CampaignState:
    """Derived campaign state: the fold of one ledger's records.

    ``planned`` preserves planning order (dict insertion order);
    ``status`` keeps the *latest* status record per fingerprint, with
    ``done`` sticky -- a late ``failed`` from a racing duplicate never
    demotes a completed run.
    """

    path: str
    header: dict | None = None
    planned: dict[str, dict] = field(default_factory=dict)
    status: dict[str, dict] = field(default_factory=dict)
    torn_tail: bool = False

    @property
    def campaign_id(self) -> str | None:
        return self.header.get("campaign") if self.header else None

    @property
    def suite_sha(self) -> str | None:
        return self.header.get("suite_sha") if self.header else None

    def fingerprints(self, status: str) -> list[str]:
        """Planned fingerprints currently in ``status``, planning order."""
        if status == "planned":
            return [
                fp for fp in self.planned if fp not in self.status
            ]
        return [
            fp
            for fp in self.planned
            if self.status.get(fp, {}).get("status") == status
        ]

    def pending(self) -> list[str]:
        """Planned fingerprints not yet done, in planning order."""
        return [
            fp
            for fp in self.planned
            if self.status.get(fp, {}).get("status") != "done"
        ]

    def counts(self) -> dict:
        """Per-status tallies (total/planned/submitted/done/failed)."""
        counts = {
            "total": len(self.planned),
            "planned": 0,
            "submitted": 0,
            "done": 0,
            "failed": 0,
        }
        for fp in self.planned:
            record = self.status.get(fp)
            key = record["status"] if record else "planned"
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def complete(self) -> bool:
        return bool(self.planned) and not self.pending()

    def _fold(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "campaign":
            # Last header wins; resume appends a fresh header so the
            # ledger records every driver that touched the campaign.
            if (
                self.header is not None
                and record.get("campaign") != self.header.get("campaign")
            ):
                raise LedgerError(
                    f"{self.path}: ledger mixes campaigns "
                    f"{self.header.get('campaign')!r} and "
                    f"{record.get('campaign')!r}"
                )
            self.header = record
        elif kind == "plan":
            fp = record["fingerprint"]
            self.planned.setdefault(fp, record)
        elif kind == "plan_batch":
            for entry in record.get("runs", ()):
                self.planned.setdefault(
                    entry["fingerprint"], {"type": "plan", **entry}
                )
        elif kind == "status":
            self._fold_status(record["fingerprint"], record)
        elif kind == "status_batch":
            # Unroll to per-fingerprint status records: envelope
            # fields (status, shas, time) merge into each entry, entry
            # fields win, so downstream folding stays uniform.
            shared = {
                key: value
                for key, value in record.items()
                if key not in ("type", "fingerprints", "records")
            }
            for fp in record.get("fingerprints", ()):
                self._fold_status(
                    fp, {"type": "status", **shared, "fingerprint": fp}
                )
            for entry in record.get("records", ()):
                merged = {"type": "status", **shared, **entry}
                self._fold_status(merged["fingerprint"], merged)

    def _fold_status(self, fp: str, record: dict) -> None:
        current = self.status.get(fp)
        if current is not None and current.get("status") == "done":
            return  # done is terminal
        self.status[fp] = record


class CampaignLedger:
    """Append-only JSONL writer/replayer for one campaign manifest."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._handle: IO[str] | None = None

    @classmethod
    def for_store(
        cls, root: str | pathlib.Path, campaign_id: str
    ) -> "CampaignLedger":
        return cls(
            pathlib.Path(root) / CAMPAIGNS_DIR / f"{campaign_id}.jsonl"
        )

    def exists(self) -> bool:
        """Whether this campaign has ever written a ledger file."""
        return self.path.exists()

    # -- writing -----------------------------------------------------------

    def _open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, record: dict) -> None:
        """Append one record; flushed so readers see it immediately."""
        handle = self._open()
        handle.write(_encode(record) + "\n")
        handle.flush()

    def append_many(self, records: list[dict]) -> None:
        """Append a batch under one write+flush.

        The hot-path variant for records that land together anyway
        (the campaign header, the planned grid, a batch of
        ``submitted`` transitions): one syscall per batch instead of
        per record keeps ledger overhead off the warm sweep's critical
        path, with the same torn-tail crash contract.
        """
        if not records:
            return
        handle = self._open()
        handle.write(
            "".join(_encode(record) + "\n" for record in records)
        )
        handle.flush()

    def close(self) -> None:
        """Close the write handle (appends reopen it on demand)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replay ------------------------------------------------------------

    def records(self) -> Iterator[tuple[dict | None, bool]]:
        """Yield ``(record, torn)`` per line; a torn line yields (None, True).

        Only the *final* line may legitimately be torn (a crashed
        writer); a malformed line with records after it means the file
        was edited or corrupted, which replay reports as
        :class:`LedgerError`.
        """
        try:
            with open(self.path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    yield None, True
                    return
                raise LedgerError(
                    f"{self.path}:{number}: corrupt ledger record "
                    f"(not the final line, so not a torn tail)"
                ) from None
            yield record, False

    def replay(self) -> CampaignState:
        """Fold the ledger into a :class:`CampaignState` (torn-tail safe)."""
        state = CampaignState(path=str(self.path))
        for record, torn in self.records():
            if torn:
                state.torn_tail = True
                break
            state._fold(record)
        return state


def list_campaigns(root: str | pathlib.Path) -> list[CampaignLedger]:
    """Every campaign ledger under a store root, name order."""
    directory = pathlib.Path(root) / CAMPAIGNS_DIR
    if not directory.is_dir():
        return []
    return [
        CampaignLedger(path)
        for path in sorted(directory.glob("*.jsonl"))
    ]
