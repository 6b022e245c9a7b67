"""Counter-based RNG streams.

All randomness in a run derives from a single 64-bit base seed via
`stream(seed, round, purpose)`.  Its definition is the generator
``numpy.random.default_rng([seed, 0, round, tag])``: a PCG64 keyed by
`SeedSequence` on the full tuple, whose second word is a fixed 0 (every
tracked output was drawn under this four-word layout).  Because each
(round, purpose) pair gets its own stream, adversary and learner
randomness never interleave, and the fresh-per-round requirement for
hint/label noise holds mechanically: round t's stream is disjoint from
every other round's.

A game asks for one stream per round of each (seed, purpose) lane.
`stream` computes `SeedSequence`'s hashing (the uint32 pool mixing and
``generate_state(4, uint64)``) for a block of rounds at once as numpy
vector ops, keeps the blocks in a small LRU cache and seeds each round's
PCG64 from its row of four words: the same generator, bit for bit, at
about a sixth of the cost.  Only a key with a word outside [0, 2**32),
which `SeedSequence` would split in two, goes through `default_rng`.
The word path relies on NumPy keeping `SeedSequence` and PCG64 seeding
stable, as its compatibility policy (NEP 19) promises;
``tests/test_rng.py`` is the guard.

Purpose tags used across the package:

===============  ==============================================
tag              consumer
===============  ==============================================
adversary        adversary label/instance choices
instance         harness draw of x_t from the committed dist
hints            Alg 1's Multinomial (instance, sign) cell counts
epsilons         Alg 3's Binomial sign split of the future hints
hallucinate      Alg 2's Poisson (instance, sign) cells
hedge            Hedge's sampling of a hypothesis
tie              seeded_random tie-breaking
verify           Monte Carlo lemma checks
===============  ==============================================
"""

from __future__ import annotations

import functools

import numpy as np

from .core import whole_number

_PURPOSES = {
    "adversary": 1,
    "instance": 2,
    "hints": 3,
    "epsilons": 4,
    "hallucinate": 5,
    "hedge": 6,
    "tie": 7,
    "verify": 8,
}

_WORD = 1 << 32
_BLOCK = 512  # rounds per block of seed words
# SeedSequence's hashing constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def purpose_tag(purpose: str) -> int:
    try:
        return _PURPOSES[purpose]
    except KeyError:
        raise ValueError(f"unknown RNG purpose {purpose!r}") from None


def stream(seed: int, round_idx: int = 0, purpose: str = "verify"):
    """Independent generator keyed by (seed, round, purpose):
    ``numpy.random.default_rng([seed, 0, round, tag])``."""
    seed = seed if type(seed) is int else whole_number("seed", seed)
    t = round_idx if type(round_idx) is int else whole_number("round", round_idx)
    tag = purpose_tag(purpose)  # 1..8
    if 0 <= seed < _WORD and 0 <= t < _WORD:
        block, row = divmod(t - 1, _BLOCK)
        words = _block(seed, tag, block)[row]
        return np.random.Generator(np.random.PCG64(_Words(words)))
    return np.random.default_rng([seed, 0, t, tag])


class _Words:
    """An `ISeedSequence` that hands PCG64 one precomputed row of seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the type itself, so the identity test decides at once
        assert n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64)
        return self.words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; each call advances the
    running hash constant."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult % _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))
    return hashmix


@functools.lru_cache(maxsize=16)  # 256 KB; a game of T <= _BLOCK reads at most five
def _block(seed: int, tag: int, block: int) -> np.ndarray:
    """The (_BLOCK, 4) uint64 words `SeedSequence([seed, 0, t, tag])`
    hands PCG64 for each round t = block * _BLOCK + 1, ..., (block + 1) *
    _BLOCK, computed as `SeedSequence` computes them, each step one vector
    op over all the rounds.  A game plays rounds 1..T, so one block serves
    a game of up to _BLOCK rounds.  The rounds are uint32 words: round 0
    is the last row of block -1, and no stream asks for a row whose round
    wraps."""
    # registered here, not at import: numpy.random loads on first use,
    # and set-up draws nothing
    np.random.bit_generator.ISeedSequence.register(_Words)
    u32 = np.uint32
    rounds = np.arange(_BLOCK, dtype=u32) + u32((block * _BLOCK + 1) % _WORD)
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(w) for w in (np.array([seed], u32), np.zeros(1, u32),
                                rounds, np.array([tag], u32))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = u32(_MIX_L) * pool[dst] - u32(_MIX_R) * hash_a(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))
    hash_b = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hash_b(pool[i % 4]) for i in range(8)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False  # every later stream of the block reads it
    return words
