"""Golden pins of the tiny-scale headline numbers and scorecard.

``tiny_headlines.json`` holds :meth:`RunResult.headline` for
``scaled_config("tiny")`` x the four policies x seeds {0, 1} x engines
{slot, event}.  Entries are keyed by those labels, not by run
fingerprint, so a change that only re-keys the store leaves the pin
valid while any drift in the simulated numbers fails it.  Each seed
simulates once: its event runs are its slot runs plus their request
draw (:func:`~repro.sim.engine.with_requests`).
``tiny_scorecard.json`` holds the paper-claim scorecard
(:mod:`repro.experiments.scorecard`) of the same slot runs, so it
simulates nothing extra.

Floats compare at a relative tolerance of 1e-9, which absorbs last-ulp
differences between numpy builds; everything else compares exactly.
Bit-for-bit identity between implementations is the job of the oracle
tests, not of this file.

Run the module as a script to rewrite both files::

    PYTHONPATH=src python tests/golden/test_golden_headlines.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments.runner import default_policies
from repro.experiments.scorecard import Scorecard
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import run_policies, with_requests

GOLDEN = Path(__file__).with_name("tiny_headlines.json")
GOLDEN_SCORECARD = Path(__file__).with_name("tiny_scorecard.json")
SEEDS = (0, 1)
REL_TOL = 1e-9


def run_comparisons() -> dict[tuple[str, int], list]:
    """The four-policy comparison of every (engine, seed)."""
    event = EngineCoreConfig(kind="event")
    comparisons = {}
    for seed in SEEDS:
        runs = run_policies(scaled_config("tiny", seed=seed), default_policies())
        comparisons["slot", seed] = runs
        comparisons["event", seed] = [
            with_requests(run, seed, event) for run in runs
        ]
    return comparisons


@pytest.fixture(scope="module")
def comparisons():
    return run_comparisons()


def compute_headlines(comparisons) -> dict[str, dict]:
    """Headline of every (engine, seed, policy) run, keyed by label."""
    return {
        f"{engine}/seed={seed}/{result.policy_name}": result.headline()
        for (engine, seed), results in comparisons.items()
        for result in results
    }


def compute_scorecard(comparisons) -> dict:
    """The scorecard of the slot runs over :data:`SEEDS`."""
    scorecard = Scorecard()
    for seed in SEEDS:
        scorecard.add(seed, comparisons[("slot", seed)])
    return scorecard.report()


def _mismatch(expected, actual) -> bool:
    if isinstance(expected, float) and isinstance(actual, float):
        return not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)
    return type(expected) is not type(actual) or expected != actual


def _differences(expected, actual, path="scorecard"):
    """Every place where two JSON trees differ, one line each."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) ^ set(actual)):
            yield f"{path}.{key}: in only one of the two trees"
        for key in sorted(set(expected) & set(actual)):
            yield from _differences(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path}: golden has {len(expected)} items, now {len(actual)}"
        for index, (left, right) in enumerate(zip(expected, actual)):
            yield from _differences(left, right, f"{path}[{index}]")
    elif _mismatch(expected, actual):
        yield f"{path}: golden {expected!r}, now {actual!r}"


def test_tiny_scorecard_matches_golden(comparisons):
    golden = json.loads(GOLDEN_SCORECARD.read_text())
    # A JSON round trip, as the golden file went through one.
    current = json.loads(json.dumps(compute_scorecard(comparisons)))
    mismatches = list(_differences(golden, current))
    assert not mismatches, "\n".join(mismatches)


def test_tiny_headlines_match_golden(comparisons):
    golden = json.loads(GOLDEN.read_text())
    current = compute_headlines(comparisons)
    assert sorted(current) == sorted(golden)
    mismatches = [
        f"{label}.{field}: golden {expected!r}, now {current[label].get(field)!r}"
        for label, headline in golden.items()
        for field, expected in headline.items()
        if field not in current[label]
        or _mismatch(expected, current[label][field])
    ]
    mismatches += [
        f"{label}.{field}: not in the golden file"
        for label, headline in current.items()
        for field in headline
        if field not in golden[label]
    ]
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    runs = run_comparisons()
    for path, tree in (
        (GOLDEN, compute_headlines(runs)),
        (GOLDEN_SCORECARD, compute_scorecard(runs)),
    ):
        path.write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
