"""Output stage: figures/tables regenerate purely from the store."""

from __future__ import annotations

import json

import pytest

from repro.experiments.orchestrator import Orchestrator, ResultStore
from repro.experiments.scorecard import Scorecard
from repro.suite import CampaignDriver, OutputError, generate_outputs, parse_suite
from tests.suite.conftest import MINI


@pytest.fixture
def completed(mini_spec, tmp_path):
    store = ResultStore(tmp_path / "store", backend="segment")
    CampaignDriver(
        mini_spec, Orchestrator(store=store), tmp_path / "store"
    ).run()
    return mini_spec, store


def test_outputs_regenerate_from_store_only(completed, tmp_path):
    spec, store = completed
    out = tmp_path / "out"
    # A consumer that refuses to execute proves store purity: lookup
    # resolves everything, submit_many would explode.
    class LookupOnly:
        def __init__(self, inner):
            self.inner = inner

        def lookup(self, request, fingerprint):
            return self.inner.lookup(request, fingerprint)

        def submit_many(self, requests):
            raise AssertionError("output stage must never execute runs")

    files = generate_outputs(
        spec, LookupOnly(Orchestrator(store=store)), out
    )
    names = {f.rsplit("/", 1)[-1] for f in files}
    assert {"fig1.txt", "fig2.txt", "table1.txt", "MANIFEST.json"} <= names
    assert (out / "synthetic-slot" / "fig1.txt").read_text().strip()

    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["suite"] == spec.name
    assert manifest["suite_sha"] == spec.sha256
    assert manifest["campaign"] == spec.campaign_id
    cell = manifest["cells"]["synthetic-slot"]
    expanded = {r.fingerprint for r in spec.expand()}
    assert set(cell["fingerprints"].values()) <= expanded


def test_missing_artifact_is_an_error(mini_spec, tmp_path):
    store = ResultStore(tmp_path / "empty-store", backend="segment")
    with pytest.raises(OutputError, match="run the campaign first"):
        generate_outputs(
            mini_spec, Orchestrator(store=store), tmp_path / "out"
        )


def test_export_writes_csvs(completed, tmp_path):
    spec, store = completed
    out = tmp_path / "out"
    files = generate_outputs(spec, Orchestrator(store=store), out)
    csvs = [f for f in files if f.endswith(".csv")]
    assert csvs, "export = true must produce CSV files"


def test_outputs_without_scorecard_write_none(completed, tmp_path):
    spec, store = completed
    out = tmp_path / "out"
    files = generate_outputs(spec, Orchestrator(store=store), out)
    assert not [f for f in files if "scorecard" in f]
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert set(manifest["cells"]["synthetic-slot"]) == {
        "fingerprints", "files",
    }


def test_scorecard_reduces_each_seed_before_the_next(tmp_path, monkeypatch):
    """``scorecard = true`` scores every seed of the cell, and looks a
    seed's four runs up only after the previous seed is reduced."""
    text = MINI.replace("seeds = [0]", "seeds = [0, 1, 2]").split(
        "[outputs]"
    )[0] + "[outputs]\nscorecard = true\n"
    spec = parse_suite(text, "scorecard.toml")
    store = ResultStore(tmp_path / "store")
    CampaignDriver(spec, Orchestrator(store=store), tmp_path / "store").run()

    events = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def lookup(self, request, fingerprint):
            events.append(("lookup", request.resolved_config().seed))
            return self.inner.lookup(request, fingerprint)

    add = Scorecard.add

    def recorded_add(self, seed, results):
        events.append(("add", seed))
        return add(self, seed, results)

    monkeypatch.setattr(Scorecard, "add", recorded_add)
    out = tmp_path / "out"
    files = generate_outputs(
        spec, Recording(Orchestrator(store=store)), out
    )
    assert events == [
        event
        for seed in (0, 1, 2)
        for event in [("lookup", seed)] * 4 + [("add", seed)]
    ]
    assert sorted(files) == [
        "MANIFEST.json",
        "synthetic-slot/scorecard.json",
        "synthetic-slot/scorecard.txt",
    ]
    report = json.loads((out / "synthetic-slot" / "scorecard.json").read_text())
    assert report["seeds"] == [0, 1, 2]
    assert report["sign_total"] == 27
    assert all(len(row["values"]) == 3 for row in report["facts"])
    assert "sign agreement:" in (
        out / "synthetic-slot" / "scorecard.txt"
    ).read_text()
    manifest = json.loads((out / "MANIFEST.json").read_text())
    seeds = manifest["cells"]["synthetic-slot"]["scorecard_fingerprints"]
    assert sorted(seeds) == ["0", "1", "2"]
    expanded = {r.fingerprint for r in spec.expand()}
    assert {fp for runs in seeds.values() for fp in runs.values()} == expanded
