"""BER process: support, probabilities, determinism."""

import numpy as np
import pytest

from repro.network.ber import BER_DISTRIBUTION, BERProcess


@pytest.fixture
def process() -> BERProcess:
    return BERProcess(seed=3)


def test_distribution_sums_to_one():
    assert sum(prob for _, prob in BER_DISTRIBUTION) == pytest.approx(1.0)


def test_paper_values_present():
    values = {value for value, _ in BER_DISTRIBUTION}
    assert values == {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}


def test_samples_from_support(process):
    rng = process.link_rng(0, 0, 1)
    draws = process.sample(rng, size=500)
    support = {value for value, _ in BER_DISTRIBUTION}
    assert set(np.unique(draws)) <= support


def test_sample_frequencies_match(process):
    rng = np.random.default_rng(0)
    draws = process.sample(rng, size=20_000)
    for value, prob in BER_DISTRIBUTION:
        frequency = float(np.mean(draws == value))
        assert frequency == pytest.approx(prob, abs=0.02)


def test_link_rng_deterministic(process):
    a = process.sample(process.link_rng(5, 0, 1), size=16)
    b = process.sample(process.link_rng(5, 0, 1), size=16)
    assert np.array_equal(a, b)


def test_different_links_differ(process):
    a = process.sample(process.link_rng(5, 0, 1), size=32)
    b = process.sample(process.link_rng(5, 0, 2), size=32)
    assert not np.array_equal(a, b)


def test_different_slots_differ(process):
    a = process.sample(process.link_rng(5, 0, 1), size=32)
    b = process.sample(process.link_rng(6, 0, 1), size=32)
    assert not np.array_equal(a, b)
