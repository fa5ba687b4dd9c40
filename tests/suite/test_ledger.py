"""Campaign ledger: append/replay round trips and crash tolerance."""

from __future__ import annotations

import json

import pytest

from repro.suite import CampaignLedger, LedgerError
from repro.suite.ledger import list_campaigns

FP = [f"{i:02d}" * 32 for i in range(8)]


def header(campaign="camp-0123456789"):
    return {
        "type": "campaign",
        "campaign": campaign,
        "suite": "camp",
        "suite_sha": "s" * 64,
        "code_sha": "c" * 40,
        "total": 2,
    }


def test_round_trip_plan_and_status(tmp_path):
    ledger = CampaignLedger.for_store(tmp_path, "camp-0123456789")
    with ledger:
        ledger.append(header())
        ledger.append_many(
            [
                {"type": "plan", "fingerprint": FP[0], "labels": {}},
                {"type": "plan", "fingerprint": FP[1], "labels": {}},
            ]
        )
        ledger.append(
            {"type": "status", "fingerprint": FP[0], "status": "submitted"}
        )
        ledger.append(
            {
                "type": "status",
                "fingerprint": FP[0],
                "status": "done",
                "source": "computed",
                "daemon": "local",
                "pack_sha": "p" * 64,
            }
        )
    state = ledger.replay()
    assert state.campaign_id == "camp-0123456789"
    assert state.suite_sha == "s" * 64
    assert list(state.planned) == [FP[0], FP[1]]
    assert state.fingerprints("done") == [FP[0]]
    assert state.fingerprints("planned") == [FP[1]]
    assert state.pending() == [FP[1]]
    assert not state.complete
    assert state.counts() == {
        "total": 2, "planned": 1, "submitted": 0, "done": 1, "failed": 0,
    }


def test_batch_records_unroll_to_per_run_state(tmp_path):
    """plan_batch/status_batch fold exactly like per-run records."""
    ledger = CampaignLedger.for_store(tmp_path, "camp-0123456789")
    with ledger:
        ledger.append(header())
        ledger.append(
            {
                "type": "plan_batch",
                "runs": [
                    {"fingerprint": FP[0], "labels": {"seed": 0},
                     "pack_sha": "p" * 64},
                    {"fingerprint": FP[1], "labels": {"seed": 1},
                     "pack_sha": "p" * 64},
                ],
            }
        )
        ledger.append(
            {
                "type": "status_batch",
                "status": "submitted",
                "fingerprints": [FP[0], FP[1]],
                "time": 1.0,
            }
        )
        ledger.append(
            {
                "type": "status_batch",
                "status": "done",
                "suite_sha": "s" * 64,
                "code_sha": "c" * 40,
                "records": [
                    {"fingerprint": FP[0], "source": "computed",
                     "daemon": "local", "engine": "slot",
                     "pack_sha": "p" * 64, "elapsed_s": 0.1, "time": 2.0},
                ],
            }
        )
    state = ledger.replay()
    assert list(state.planned) == [FP[0], FP[1]]
    assert state.planned[FP[0]]["labels"] == {"seed": 0}
    assert state.fingerprints("done") == [FP[0]]
    assert state.fingerprints("submitted") == [FP[1]]
    # Envelope provenance merges into each unrolled entry: every done
    # record carries its full audit trail after replay.
    done = state.status[FP[0]]
    assert done["suite_sha"] == "s" * 64
    assert done["code_sha"] == "c" * 40
    assert done["pack_sha"] == "p" * 64
    assert done["daemon"] == "local"
    assert done["engine"] == "slot"
    assert done["elapsed_s"] == 0.1
    # Entry fields beat envelope fields (the entry's own time wins).
    assert done["time"] == 2.0


def test_done_is_terminal(tmp_path):
    ledger = CampaignLedger.for_store(tmp_path, "camp-0123456789")
    with ledger:
        ledger.append(header())
        ledger.append({"type": "plan", "fingerprint": FP[0]})
        ledger.append(
            {
                "type": "status",
                "fingerprint": FP[0],
                "status": "done",
                "source": "computed",
            }
        )
        ledger.append(
            {
                "type": "status",
                "fingerprint": FP[0],
                "status": "failed",
                "error": "racing duplicate",
            }
        )
    state = ledger.replay()
    assert state.status[FP[0]]["status"] == "done"
    assert state.complete


def test_torn_final_line_heals(tmp_path):
    ledger = CampaignLedger.for_store(tmp_path, "camp-0123456789")
    with ledger:
        ledger.append(header())
        ledger.append({"type": "plan", "fingerprint": FP[0]})
    with open(ledger.path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "status", "fingerprint": "ab')  # crash
    state = ledger.replay()
    assert state.torn_tail
    assert list(state.planned) == [FP[0]]
    # A resumed driver appends past the torn tail; replay still works.
    with ledger:
        ledger.append({"type": "plan", "fingerprint": FP[1]})


def test_mid_file_corruption_is_an_error(tmp_path):
    ledger = CampaignLedger.for_store(tmp_path, "camp-0123456789")
    with ledger:
        ledger.append(header())
    with open(ledger.path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write(json.dumps({"type": "plan", "fingerprint": FP[0]}) + "\n")
    with pytest.raises(LedgerError, match="corrupt ledger record"):
        ledger.replay()


def test_mixed_campaigns_rejected(tmp_path):
    ledger = CampaignLedger.for_store(tmp_path, "camp-0123456789")
    with ledger:
        ledger.append(header("camp-0123456789"))
        ledger.append(header("other-9876543210"))
    with pytest.raises(LedgerError, match="mixes campaigns"):
        ledger.replay()


def test_replay_of_missing_ledger_is_empty(tmp_path):
    ledger = CampaignLedger.for_store(tmp_path, "never-created")
    assert not ledger.exists()
    state = ledger.replay()
    assert state.header is None and not state.planned


def test_list_and_remove_campaigns(tmp_path):
    for name in ("b-1111111111", "a-0000000000"):
        with CampaignLedger.for_store(tmp_path, name) as ledger:
            ledger.append(header(name))
    names = [led.path.stem for led in list_campaigns(tmp_path)]
    assert names == ["a-0000000000", "b-1111111111"]
    (tmp_path / "campaigns" / "a-0000000000.jsonl").unlink()
    assert [led.path.stem for led in list_campaigns(tmp_path)] == [
        "b-1111111111"
    ]


def test_ledger_dir_is_invisible_to_store_backends(tmp_path):
    """Ledgers ride inside the store root without perturbing scans."""
    from repro.experiments.orchestrator import ResultStore

    store = ResultStore(tmp_path, backend="json")
    with CampaignLedger.for_store(tmp_path, "camp-0123456789") as ledger:
        ledger.append(header())
    assert list(store.documents()) == []
