"""Bit-error-rate process for the wide-area links.

Section V-A: "Global links experience a BER that is chosen randomly
from the following distribution: 54% probability of 1e-6, 20% of 1e-5,
15% of 1e-4, 10% of 1e-3, and 1% of 1e-2."

BERs are drawn deterministically per (slot, link, step) so that every
policy compared in one experiment sees identical channel conditions.
"""

from __future__ import annotations

import numpy as np

from repro.seeding import rng_for

#: The paper's categorical BER distribution: (value, probability).
BER_DISTRIBUTION: tuple[tuple[float, float], ...] = (
    (1e-6, 0.54),
    (1e-5, 0.20),
    (1e-4, 0.15),
    (1e-3, 0.10),
    (1e-2, 0.01),
)

_BER_VALUES = np.array([value for value, _ in BER_DISTRIBUTION])
_BER_PROBS = np.array([prob for _, prob in BER_DISTRIBUTION])


class BERProcess:
    """Deterministic BER sampler for (slot, link) channels.

    Parameters
    ----------
    seed:
        Process root; two processes with the same seed produce the same
        channel realizations.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def link_rng(self, slot: int, src: int, dst: int) -> np.random.Generator:
        """RNG for one directed link during one slot."""
        return rng_for(self.seed, "ber", slot, src, dst)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw BER value(s) from the paper's distribution."""
        index = rng.choice(len(_BER_VALUES), size=size, p=_BER_PROBS)
        return _BER_VALUES[index]
