"""Tests for repro.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_module
from repro.rng import BLOCK_SIZE, RngFactory, block_stream, derive_seed


def test_same_key_same_seed():
    assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)


def test_different_root_different_seed():
    assert derive_seed(7, "a") != derive_seed(8, "a")


def test_different_keys_different_seed():
    assert derive_seed(7, "a") != derive_seed(7, "b")


def test_key_path_not_concat_ambiguous():
    # ("ab", "c") must differ from ("a", "bc").
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_generator_reproducible():
    a = RngFactory(3).generator("x").random(5)
    b = RngFactory(3).generator("x").random(5)
    np.testing.assert_array_equal(a, b)


def test_generators_independent_streams():
    f = RngFactory(3)
    a = f.generator("x").random(100)
    b = f.generator("y").random(100)
    assert not np.allclose(a, b)


def test_generators_list():
    gens = RngFactory(1).generators("worker", 4)
    assert len(gens) == 4
    draws = [g.random() for g in gens]
    assert len(set(draws)) == 4


def test_generators_negative_count_rejected():
    with pytest.raises(ValueError):
        RngFactory(1).generators("w", -1)


def test_independent_from_explicit_seeds():
    gens = RngFactory.independent([5, 5])
    assert gens[0].random() == gens[1].random()


@given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
def test_derive_seed_in_64bit_range(root, key):
    seed = derive_seed(root, key)
    assert 0 <= seed < 2**64


# -- block streams ----------------------------------------------------------------


@given(
    seed=st.integers(0, 2**63),
    n=st.integers(1, 64),
    block=st.sampled_from([1, 2, 7, BLOCK_SIZE]),
    full_blocks=st.integers(0, 3),
    rest=st.integers(0, BLOCK_SIZE - 1),
)
@settings(max_examples=40, deadline=None)
def test_block_streams_equal_scalar_draws(seed, n, block, full_blocks, rest):
    """A block stream of ``random`` or ``integers(n)`` yields, as Python
    numbers, the values successive scalar calls on a generator with the
    same seed return, across refills and mid-block stops."""
    count = full_blocks * block + rest % block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK_SIZE", block)
        uniforms = block_stream(np.random.default_rng(seed).random)
        sites = block_stream(np.random.default_rng(seed).integers, n)
        drawn_uniforms = [next(uniforms) for _ in range(count)]
        drawn_sites = [next(sites) for _ in range(count)]
    scalar_uniforms, scalar_sites = np.random.default_rng(seed), np.random.default_rng(seed)
    assert drawn_uniforms == [scalar_uniforms.random() for _ in range(count)]
    assert drawn_sites == [int(scalar_sites.integers(n)) for _ in range(count)]
    assert all(type(u) is float for u in drawn_uniforms)
    assert all(type(s) is int for s in drawn_sites)


def test_block_stream_draws_nothing_until_read():
    """Building a stream leaves its generator untouched; the first read
    draws one whole block. A pool that never reads a stream (the
    one-object-per-job test oracle draws scalars from the same
    generators) must not find its generators advanced."""
    rng = np.random.default_rng(1)
    untouched = rng.bit_generator.state
    stream = block_stream(rng.random)
    assert rng.bit_generator.state == untouched
    next(stream)
    reference = np.random.default_rng(1)
    reference.random(BLOCK_SIZE)
    assert rng.bit_generator.state == reference.bit_generator.state
