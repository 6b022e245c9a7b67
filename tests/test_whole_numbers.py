"""One whole-number rule: every round, count, seed and horizon that the
public API takes passes `core.whole_number` (lists: `core.whole_numbers`).

A whole float and a numpy integer act exactly as the int does; a
fraction, text and a boolean raise `InputError` instead of being cut to
an int, and so does a boolean inside a list.
"""

import numpy as np
import pytest

from smoothlab import rng as rngmod
from smoothlab.adversary import (
    Adversary,
    AdversaryKind,
    AdversarySpec,
    HintSchedule,
    cyclic_hint_schedule,
    full_domain_schedule,
    known_sequence_schedule,
    next_round,
)
from smoothlab.core import (
    ExampleMultiset,
    FiniteDomain,
    HypothesisClass,
    LossSpec,
    SmoothDistribution,
    check_round,
    count_table,
    make_partition_class,
)
from smoothlab.errors import InputError
from smoothlab.learner import Alg1Smoothed, FTL
from smoothlab.verify import coupling_montecarlo, generalization_gap_mc

_CLASS = make_partition_class(FiniteDomain(8), 2)
_LOSS = LossSpec.of("binary_indicator")
_SMOOTH = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH, delta=0.25)


def _coupling(**kw):
    call = dict(P=[0.5, 0.5], Q=[0.5, 0.5], sigma=0.5, m=2, trials=20,
                rng=np.random.default_rng(1)) | kw
    return coupling_montecarlo(**call).to_dict()


def _adversary_draws(adv):
    """The instances and labels of a game's first three rounds."""
    draws = []
    for t in (1, 2, 3):
        c, x = next_round(adv, t, rngmod.first_uniform(adv.seed, t, "instance"))
        draws.append((x, float(c.label_table[x]), c.label_table.tobytes()))
    return draws


# each public whole-number argument: what it yields at a given value
SCALARS = {
    "FTL.T": lambda v: FTL(_CLASS, _LOSS, T=v).T,
    "FTL.seed": lambda v: FTL(_CLASS, _LOSS, T=4, seed=v).seed,
    "HypothesisClass.declared_dim":
        lambda v: HypothesisClass(_CLASS.values, declared_dim=v).declared_dim,
    "Alg1Smoothed.K": lambda v: Alg1Smoothed(
        _CLASS, LossSpec.of("absolute"), T=4, sigma=1.0, K=v).K,
    "Adversary.T": lambda v: Adversary(_SMOOTH, _CLASS, T=v, seed=0).T,
    "Adversary.seed": lambda v: _adversary_draws(Adversary(_SMOOTH, _CLASS, T=4, seed=v)),
    "stream.seed": lambda v: rngmod.stream(v, 1, "hints").random(),
    "stream.round": lambda v: rngmod.stream(1, v, "hints").random(),
    "first_uniform.seed": lambda v: rngmod.first_uniform(v, 1, "instance"),
    "first_uniform.round": lambda v: rngmod.first_uniform(1, v, "instance"),
    "check_round": lambda v: check_round(v, 4),
    "coupling_montecarlo.m": lambda v: _coupling(m=v),
    "coupling_montecarlo.trials": lambda v: _coupling(trials=v),
    "generalization_gap_mc.trials": lambda v: generalization_gap_mc(
        _CLASS, SmoothDistribution.uniform(8), _CLASS.values[1], ExampleMultiset(),
        n=16.0, trials=v, rng=np.random.default_rng(2)).to_dict(),
    "example.instance": lambda v: ExampleMultiset([(v, 1.0)]).items(),
    "example.count": lambda v: ExampleMultiset([(0, 1.0, v)]).items(),
    "cyclic_hint_schedule.T": lambda v: cyclic_hint_schedule(v, [[0], [1]]).rows.tolist(),
    "full_domain_schedule.T": lambda v: full_domain_schedule(v, 3).rows.tolist(),
    "full_domain_schedule.domain_size":
        lambda v: full_domain_schedule(3, v).rows.tolist(),
}

# each public list of whole numbers: what it yields for a list holding v
LISTS = {
    "HintSchedule.rows": lambda v: HintSchedule([[v, 3]]).rows.tolist(),
    "known_sequence_schedule": lambda v: known_sequence_schedule([v, 3]).rows.tolist(),
    "cyclic_hint_schedule.blocks":
        lambda v: cyclic_hint_schedule(2, [[v, 3]]).rows.tolist(),
    "count_table": lambda v: count_table([[v, 3]]).tolist(),
}

WHOLE = [2.0, np.int64(2), np.float64(2.0)]
# in a list argument, each is the first entry of [v, 3]: numpy reads
# [True, 3] as the integers [1, 3]
NOT_WHOLE = [2.5, "2", True, np.True_]


@pytest.mark.parametrize("v", WHOLE, ids=repr)
@pytest.mark.parametrize("name", list(SCALARS) + list(LISTS))
def test_a_whole_number_acts_as_the_int(name, v):
    call = (SCALARS | LISTS)[name]
    assert call(v) == call(2)


@pytest.mark.parametrize("v", NOT_WHOLE, ids=repr)
@pytest.mark.parametrize("name", list(SCALARS) + list(LISTS))
def test_anything_else_raises(name, v):
    with pytest.raises(InputError):
        (SCALARS | LISTS)[name](v)
