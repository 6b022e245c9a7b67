"""Counter-based RNG streams.

All randomness in a run derives from a single 64-bit base seed via
`stream(seed, run, round, purpose)`, which keys an independent
`numpy` PCG64 generator on the full tuple.  Because each (run, round,
purpose) triple gets its own stream, adversary and learner randomness
never interleave, and the fresh-per-round requirement for hint/label
noise holds mechanically: round t's stream is disjoint from every
other round's.

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

import numpy as np

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


def purpose_tag(purpose: str) -> int:
    try:
        return _PURPOSES[purpose]
    except KeyError:
        raise ValueError(f"unknown RNG purpose {purpose!r}") from None


def stream(seed: int, run: int = 0, round_idx: int = 0, purpose: str = "verify"):
    """Independent generator keyed by (seed, run, round, purpose)."""
    return np.random.default_rng(
        [int(seed), int(run), int(round_idx), purpose_tag(purpose)])
