"""`rng.stream` is `numpy.random.default_rng([seed, 0, round, tag])`,
and `rng.first_uniform` is its first `random()`, bit for bit, on the
word path and on the fallback alike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import rng as rngmod

WORD = 2**32
BLOCK = rngmod._BLOCK

# each purpose's draw, as its consumer makes it
DRAWS = {
    "adversary": lambda g: (g.integers(16), g.random(8)),
    "instance": lambda g: g.random(),
    "hints": lambda g: g.multinomial(40, np.full(16, 1 / 16)),
    "epsilons": lambda g: g.binomial([3, 0, 7, 1], 0.5),
    "hallucinate": lambda g: g.poisson(2.5, size=(8, 2)),
    "hedge": lambda g: g.choice(4, p=[0.1, 0.2, 0.3, 0.4]),
    "tie": lambda g: g.choice([1, 4, 6]),
    "verify": lambda g: (g.integers(0, 8, size=5), g.integers(-512, 513, size=4),
                         g.random(3)),
}
assert set(DRAWS) == set(rngmod._PURPOSES)


def assert_same_draw(seed, t, purpose):
    got = DRAWS[purpose](rngmod.stream(seed, t, purpose))
    want = DRAWS[purpose](np.random.default_rng(
        [seed, 0, t, rngmod.purpose_tag(purpose)]))
    if not isinstance(got, tuple):
        got, want = (got,), (want,)
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


EDGE_ROUNDS = [0, 1, 2, BLOCK, BLOCK + 1, WORD - BLOCK, WORD - 2, WORD - 1]


@given(st.integers(0, WORD - 1),
       st.integers(0, WORD - 1) | st.sampled_from(EDGE_ROUNDS),
       st.sampled_from(sorted(DRAWS)))
@settings(max_examples=200, deadline=None)
def test_same_draw_as_default_rng(seed, t, purpose):
    """The key's first call and its second, the next round, and the rounds
    on both sides of the block boundary that follows."""
    rngmod._block.cache_clear()
    last = ((t - 1) // BLOCK + 1) * BLOCK  # the last round of t's block
    for r in (t, t, t + 1, last, last + 1):
        if r < WORD:
            assert_same_draw(seed, r, purpose)


@pytest.mark.parametrize("purpose", sorted(DRAWS))
def test_every_round_of_a_game(purpose):
    """Round 0, then rounds 1..BLOCK+2 of one lane, as a game asks for them."""
    rngmod._block.cache_clear()
    for t in range(BLOCK + 3):
        assert_same_draw(20260823, t, purpose)


@given(st.integers(0, WORD - 1),
       st.integers(0, WORD - 1) | st.sampled_from(EDGE_ROUNDS),
       st.sampled_from(sorted(DRAWS)))
@settings(max_examples=200, deadline=None)
def test_first_uniform_is_the_streams_first_draw(seed, t, purpose):
    """The round, the next one, and the last round of its block and the
    first of the next, read from a fresh table and from a cached one."""
    rngmod._first_uniforms.cache_clear()
    last = ((t - 1) // BLOCK + 1) * BLOCK
    tag = rngmod.purpose_tag(purpose)
    for r in (t, t, t + 1, last, last + 1):
        if r < WORD:
            want = np.random.default_rng([seed, 0, r, tag]).random()
            assert rngmod.first_uniform(seed, r, purpose) == want


def test_first_uniform_reads_one_table_a_block():
    """Rounds 1..BLOCK of a game share one table; round BLOCK + 1 starts
    the next.  The words are not kept: the stream lanes' cache is untouched."""
    rngmod._block.cache_clear()
    rngmod._first_uniforms.cache_clear()
    for t in range(1, BLOCK + 2):
        rngmod.first_uniform(11, t, "instance")
    info = rngmod._first_uniforms.cache_info()
    assert (info.misses, info.hits) == (2, BLOCK - 1)
    assert rngmod._block.cache_info().currsize == 0


@pytest.mark.parametrize("seed, t", [(WORD, 5), (3, WORD), (2**64 - 1, WORD + 1)])
def test_keys_with_a_long_word_fall_back(seed, t):
    """SeedSequence splits a word >= 2**32 in two, so such keys go through
    default_rng every time and build no block."""
    rngmod._block.cache_clear()
    rngmod._first_uniforms.cache_clear()
    for purpose in sorted(DRAWS):
        tag = rngmod.purpose_tag(purpose)
        for _ in range(2):
            assert_same_draw(seed, t, purpose)
            assert (rngmod.first_uniform(seed, t, purpose)
                    == np.random.default_rng([seed, 0, t, tag]).random())
    assert rngmod._block.cache_info().misses == 0
    assert rngmod._first_uniforms.cache_info().misses == 0


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-1, WORD)])
def test_negative_words_raise_as_default_rng_does(key):
    for draw in (rngmod.stream, rngmod.first_uniform) * 2:
        with pytest.raises(ValueError, match="non-negative"):
            draw(*key, "instance")


def test_every_lane_reads_its_block():
    """Round 0 is the last row of block -1; rounds 1..BLOCK, a game of
    BLOCK rounds, share block 0."""
    rngmod._block.cache_clear()
    rngmod.stream(7, 0, "adversary")
    for t in range(1, BLOCK + 1):
        rngmod.stream(7, t, "instance")
    info = rngmod._block.cache_info()
    assert (info.misses, info.hits) == (2, BLOCK - 1)


def test_streams_are_fresh_generators():
    first = [rngmod.stream(4, 9, "hints").random(3) for _ in range(3)]
    np.testing.assert_array_equal(first[1], first[0])
    np.testing.assert_array_equal(first[2], first[0])


@pytest.mark.parametrize("seed, tag, block", [
    (0, 1, 0), (WORD - 1, 8, (WORD - 2) // BLOCK), (12345, 5, 7), (5, 2, -1)])
def test_block_rows_are_seed_sequence_state(seed, tag, block):
    """Row i of block b holds round b * BLOCK + 1 + i."""
    words = rngmod._block(seed, tag, block)
    assert words.dtype == np.uint64 and words.shape == (BLOCK, 4)
    for i in (0, 1, BLOCK // 2, BLOCK - 1):
        t = block * BLOCK + 1 + i
        if 0 <= t < WORD:
            want = np.random.SeedSequence([seed, 0, t, tag])
            np.testing.assert_array_equal(words[i], want.generate_state(4, np.uint64))
