"""Deterministic RNG derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.seeding import rng_for, rngs_for, seed_sequence, seed_states


def test_same_tags_same_stream():
    a = rng_for(1, "x", 5).random(8)
    b = rng_for(1, "x", 5).random(8)
    assert np.array_equal(a, b)


def test_different_int_tags_differ():
    a = rng_for(1, "x", 5).random(8)
    b = rng_for(1, "x", 6).random(8)
    assert not np.array_equal(a, b)


def test_different_string_tags_differ():
    a = rng_for(1, "alpha").random(8)
    b = rng_for(1, "beta").random(8)
    assert not np.array_equal(a, b)


def test_string_hash_is_stable():
    # blake2s of "ber" must never change across runs/platforms.
    entropy = seed_sequence("ber").entropy
    assert entropy == seed_sequence("ber").entropy


def test_negative_ints_accepted():
    assert rng_for(-3, 0).random() == rng_for(-3, 0).random()


def test_empty_parts_rejected():
    with pytest.raises(ValueError):
        seed_sequence()
    with pytest.raises(ValueError):
        seed_states()


def test_order_matters():
    a = rng_for(1, 2).random(4)
    b = rng_for(2, 1).random(4)
    assert not np.array_equal(a, b)


def test_float_tags_rejected():
    # int() would truncate 2.7 to 2 and alias rng_for(1, 2)'s stream.
    with pytest.raises(TypeError):
        rng_for(1, 2.7)
    with pytest.raises(TypeError):
        seed_states(1, 2.0)
    with pytest.raises(TypeError):
        seed_states(1, np.array([2.0, 3.0]))
    with pytest.raises(TypeError):
        next(rngs_for(1, np.array([0.5])))


#: Scalar tags: str, and ints beyond both ends of the 32-bit range.
SCALAR_TAGS = st.one_of(
    st.text(max_size=5), st.integers(min_value=-(2**40), max_value=2**70)
)

#: Array tag dtypes; the 64-bit ones carry negatives and >= 2**32.
TAG_DTYPES = st.sampled_from([np.int64, np.uint64, np.int32, np.uint8])


def scalar_tuples(parts, shape):
    """Every broadcast tag tuple, in C order, as scalar tags."""
    columns = [
        np.broadcast_to(part, shape) if isinstance(part, np.ndarray) else None
        for part in parts
    ]
    for index in np.ndindex(*shape):
        yield tuple(
            part if column is None else column[index]
            for part, column in zip(parts, columns)
        )


class TestBatchedSeeding:
    """Both readings of one derivation, for every tuple and for a
    selection, and ``rngs_for``, equal ``rng_for`` per tuple."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_rng_for(self, data):
        # 1-6 parts: fewer than, exactly and more than the pool's four
        # words (five and up take SeedSequence's extra-entropy rounds).
        kinds = data.draw(
            st.lists(st.sampled_from(["scalar", "array"]), min_size=1, max_size=6)
        )
        arrays = kinds.count("array")
        shapes = iter(
            data.draw(
                hnp.mutually_broadcastable_shapes(
                    num_shapes=arrays, max_dims=2, min_side=0, max_side=3
                )
            ).input_shapes
            if arrays
            else ()
        )
        parts = []
        for kind in kinds:
            if kind == "scalar":
                parts.append(data.draw(SCALAR_TAGS))
            else:
                dtype = data.draw(TAG_DTYPES)
                parts.append(data.draw(hnp.arrays(dtype, next(shapes))))
        shape = np.broadcast_shapes(
            *(part.shape for part in parts if isinstance(part, np.ndarray))
        )
        states = seed_states(*parts)
        uniforms = states.first_randoms()
        assert uniforms.shape == shape
        size = data.draw(st.integers(0, 4))
        generators = rngs_for(*parts)
        tuples = list(scalar_tuples(parts, shape))
        for index, tags in zip(np.ndindex(*shape), tuples):
            assert uniforms[index] == rng_for(*tags).random()
            expected = rng_for(*tags)
            rng = next(generators)
            assert np.array_equal(rng.normal(size=size), expected.normal(size=size))
            assert rng.random() == expected.random()
        assert next(generators, None) is None
        # A selection reads the selected tuples, in the selection's order.
        flat = int(np.prod(shape))
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=flat, max_size=flat)),
            dtype=bool,
        )
        positions = np.array(
            data.draw(st.lists(st.integers(0, max(flat - 1, 0)), max_size=flat)),
            dtype=np.int64,
        )
        for selection in (mask, positions):
            picked = states[selection]
            chosen = np.arange(flat)[selection]
            assert picked.shape == chosen.shape
            selected = picked.generators()
            for position, uniform in zip(chosen, picked.first_randoms()):
                expected = rng_for(*tuples[position])
                assert uniform == expected.random()
                rng = next(selected)
                rng.random()
                assert rng.normal() == expected.normal()
            assert next(selected, None) is None
