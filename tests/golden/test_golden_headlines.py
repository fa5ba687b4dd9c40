"""Golden pin of the tiny-scale headline numbers.

``tiny_headlines.json`` holds :meth:`RunResult.headline` for
``scaled_config("tiny")`` x the four policies x seeds {0, 1} x engines
{slot, event}.  Entries are keyed by those labels, not by run
fingerprint, so a change that only re-keys the store leaves the pin
valid while any drift in the simulated numbers fails it.

Floats compare at a relative tolerance of 1e-9, which absorbs last-ulp
differences between numpy builds; everything else compares exactly.
Bit-for-bit identity between implementations is the job of the oracle
tests, not of this file.

Run the module as a script to rewrite the file::

    PYTHONPATH=src python tests/golden/test_golden_headlines.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.experiments.runner import default_policies
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import run_policies

GOLDEN = Path(__file__).with_name("tiny_headlines.json")
SEEDS = (0, 1)
ENGINES = ("slot", "event")
REL_TOL = 1e-9


def compute_headlines() -> dict[str, dict]:
    """Headline of every (engine, seed, policy) run, keyed by label."""
    headlines = {}
    for engine in ENGINES:
        for seed in SEEDS:
            results = run_policies(
                scaled_config("tiny", seed=seed),
                default_policies(),
                engine=EngineCoreConfig(kind=engine),
            )
            for result in results:
                label = f"{engine}/seed={seed}/{result.policy_name}"
                headlines[label] = result.headline()
    return headlines


def _mismatch(expected, actual) -> bool:
    if isinstance(expected, float) and isinstance(actual, float):
        return not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)
    return type(expected) is not type(actual) or expected != actual


def test_tiny_headlines_match_golden():
    golden = json.loads(GOLDEN.read_text())
    current = compute_headlines()
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
    GOLDEN.write_text(
        json.dumps(compute_headlines(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
