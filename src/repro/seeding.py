"""Deterministic hierarchical RNG derivation.

Every stochastic process in the library (traces, data volumes, BER,
weather) derives its generators from ``(root seed, tags...)`` tuples so
that runs are exactly reproducible and every placement policy compared
in one experiment sees the same realizations.  String tags are hashed
to 32-bit words because :class:`numpy.random.SeedSequence` only accepts
integer entropy; integer tags keep their low 32 bits.

:func:`rng_for` builds one generator per tuple.  Sites that need one
generator per pair or per row derive every tuple's PCG64 state at once
instead, with :func:`seed_states`: integer-array tags broadcast, and
numpy arithmetic emulates ``SeedSequence`` (pool size 4) and PCG64's
seeding step for step.  One derivation reads two ways, for all its
tuples or for a selection of them:

* :meth:`SeedStates.first_randoms` -- the first ``random()`` of each
  tuple's generator, with no generator built at all;
* :meth:`SeedStates.generators` -- each tuple's generator, in C order,
  by setting one reused PCG64's state (:func:`rngs_for` derives and
  reads all tuples this way).

So a site that tests each tuple's first uniform and draws more only
from the tuples that pass derives once.  Both readings equal
:func:`rng_for` bit for bit (``tests/test_seeding.py``).
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

#: ``SeedSequence`` hashing and mixing constants, from numpy's
#: ``bit_generator.pyx``.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

#: PCG64's 128-bit LCG multiplier, as 64-bit halves and the low half's
#: 32-bit limbs.
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645
_PCG_MULT_LO_LIMBS = (_PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32)

#: ``random()`` maps the top 53 bits of a 64-bit output to [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def _coerce(part: int | str) -> int:
    """Map a tag to a non-negative 32-bit integer, stably across runs."""
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "little")
    return operator.index(part) & _MASK32


def seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    """Build a :class:`~numpy.random.SeedSequence` from mixed tags."""
    if not parts:
        raise ValueError("at least one seed part required")
    return np.random.SeedSequence([_coerce(part) for part in parts])


def rng_for(*parts: int | str) -> np.random.Generator:
    """Deterministic generator for a tag tuple."""
    return np.random.default_rng(seed_sequence(*parts))


# -- batched seeding ----------------------------------------------------


def _entropy_words(parts) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The parts' broadcast shape, and each tag as a uint32 array.

    Str and integer tags become one-element arrays; integer arrays keep
    their low 32 bits.  Every word gets the same rank, at least 1, so
    the words broadcast while every intermediate stays an array (numpy
    scalars would warn on the wrapping multiplies).
    """
    if not parts:
        raise ValueError("at least one seed part required")
    words = []
    for part in parts:
        if isinstance(part, np.ndarray):
            if part.dtype.kind not in "iu":
                raise TypeError(f"array seed tags must be integer, not {part.dtype}")
            words.append(part.astype(np.uint32))
        else:
            words.append(np.array(_coerce(part), dtype=np.uint32))
    shape = np.broadcast_shapes(*(word.shape for word in words))
    rank = max(1, len(shape))
    return shape, [
        word.reshape((1,) * (rank - word.ndim) + word.shape) for word in words
    ]


def _add128(hi, lo, add_hi, add_lo):
    """``(hi, lo) + (add_hi, add_lo)`` mod 2**128."""
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, ``state * MULT + inc`` mod 2**128.

    ``lo * MULT_LO`` is the only full 128-bit product, built from 32-bit
    limbs; the cross terms ``hi * MULT_LO`` and ``lo * MULT_HI`` only
    reach the high word, where uint64 wrap-around is the modulus.
    """
    lo0, lo1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO_LIMBS
    p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    product_lo = (mid << 32) | (p00 & _MASK32)
    product_hi = (
        lo1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    )
    return _add128(product_hi, product_lo, inc_hi, inc_lo)


def _pcg64_states(parts):
    """Broadcast shape plus ``(state_hi, state_lo, inc_hi, inc_lo)``.

    The state of ``PCG64(SeedSequence(entropy))`` right after seeding,
    for every tuple.  ``SeedSequence`` runs the pool-4 hash of the first
    four words, the all-pairs mix and the extra-entropy rounds for
    words five and up; ``generate_state(4, np.uint64)`` hashes eight
    output words, paired little-endian into ``(seed_hi, seed_lo,
    seq_hi, seq_lo)``.  The hash constant's sequence does not depend
    on the data, so it runs in Python ints beside the array arithmetic.
    PCG64's ``pcg_setseq_128_srandom_r`` then sets ``inc = 2 * seq + 1``
    and ``state = (inc + seed) * MULT + inc``.
    """
    shape, words = _entropy_words(parts)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros((1,) * words[0].ndim, dtype=np.uint32)
    pool = [
        hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for index in range(8):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        halves[k] | (halves[k + 1] << 32) for k in range(0, 8, 2)
    )

    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    state = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return shape, state + (inc_hi, inc_lo)


class SeedStates:
    """Seeded PCG64 states, one per tag tuple, flat in C order.

    One derivation, read two ways, for every tuple or for a selection
    (``states[mask]``, ``states[positions]``): :meth:`first_randoms`
    and :meth:`generators`.
    """

    __slots__ = ("shape", "_halves")

    def __init__(self, shape: tuple[int, ...], halves) -> None:
        self.shape = shape
        #: ``(state_hi, state_lo, inc_hi, inc_lo)``, 1-D uint64 arrays.
        self._halves = halves

    def __getitem__(self, index) -> SeedStates:
        """The tuples a flat boolean mask or position array selects."""
        halves = tuple(half[index] for half in self._halves)
        return SeedStates(halves[0].shape, halves)

    def first_randoms(self) -> np.ndarray:
        """``rng_for(*t).random()`` of every tuple, in :attr:`shape`
        (0-d when no tag was an array): one more LCG step, then PCG64's
        XSL-RR output scaled from its top 53 bits."""
        hi, lo, inc_hi, inc_lo = self._halves
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: rotate (hi ^ lo) right by the top six bits.
        folded, rotation = hi ^ lo, hi >> 58
        output = (folded >> rotation) | (folded << ((64 - rotation) & 63))
        uniforms = (output >> 11).astype(np.float64) * _DOUBLE_SCALE
        return uniforms.reshape(self.shape)

    def generators(self):
        """Yield ``rng_for(*t)`` of every tuple, in order.

        Every item is the same :class:`~numpy.random.Generator`,
        reseeded through its PCG64's ``state`` setter, so each is valid
        until the next one is drawn.
        """
        hi, lo, inc_hi, inc_lo = (half.tolist() for half in self._halves)
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        for state_hi, state_lo, seq_hi, seq_lo in zip(hi, lo, inc_hi, inc_lo):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {
                    "state": state_hi << 64 | state_lo,
                    "inc": seq_hi << 64 | seq_lo,
                },
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator


def seed_states(*parts: int | str | np.ndarray) -> SeedStates:
    """The seeded state of every tuple ``t`` the parts broadcast to.

    Integer-array parts broadcast against each other; str and int parts
    are shared by every tuple.
    """
    shape, halves = _pcg64_states(parts)
    return SeedStates(shape, tuple(half.ravel() for half in halves))


def rngs_for(*parts: int | str | np.ndarray):
    """Yield ``rng_for(*t)`` for every tuple ``t`` the parts broadcast
    to, in C order (:meth:`SeedStates.generators`)."""
    return seed_states(*parts).generators()
