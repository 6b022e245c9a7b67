"""Offline optimization oracles over enumerated hypothesis classes.

Two oracle flavors:

* ``erm`` — minimize the cumulative loss of a labeled multiset;
* ``mixed_opt`` — minimize a rescaled real-loss term over one multiset
  plus a linear hint term ``-y*h(x)/2`` over a second multiset.

Both are pure functions of their inputs except for an explicit
``OracleStats`` accumulator owned by one run.  Learners must touch the
hypothesis class only through these entry points.

Each objective evaluates the unchecked `core.loss_kernel` over the
distinct pairs of a multiset.  The arguments are checked once per call
instead: instances against the domain, and the +-1 checks of
`core.loss_eval` (`check_sign_args`) on the distinct labels and, under
the indicator loss with a class not built binary, on the class values
at the multiset's instances.  Labels were range-checked when they
entered the multiset and class values when the class was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ExampleMultiset,
    HypothesisClass,
    LossKind,
    LossSpec,
    check_sign_args,
    loss_kernel,
)
from .errors import InputError


@dataclass
class OracleStats:
    """Call and input-length accounting for one run."""

    call_count: int = 0
    total_input_length: int = 0
    max_input_length: int = 0
    final_call_count: int = 0

    def record(self, input_length: int, tag: str = "round") -> None:
        if tag == "final":
            self.final_call_count += 1
            return
        self.call_count += 1
        self.total_input_length += input_length
        self.max_input_length = max(self.max_input_length, input_length)


class TiePolicy(Enum):
    LOWEST_INDEX = "lowest_index"
    PREFER_NEGATIVE = "prefer_negative"
    SEEDED_RANDOM = "seeded_random"


OBJ_TOL = 1e-12


def _objective_table(
    hclass: HypothesisClass, S: ExampleMultiset, loss: LossSpec
) -> np.ndarray:
    """Vector of cumulative losses, one entry per hypothesis: the loss
    table over (hypothesis, distinct pair) dotted with the pair counts.
    The arguments are checked here, once per call (see the module
    docstring)."""
    xs, ys, counts = S.arrays()
    # xs is sorted, so its ends bound every instance
    if xs.size and (xs[0] < 0 or xs[-1] >= hclass.domain_size):
        raise InputError(f"multiset names an instance outside the domain "
                         f"of size {hclass.domain_size}")
    preds = hclass.values[:, xs]
    check_sign_args(loss, preds, ys, yhat_binary=hclass.binary)
    return loss_kernel(loss.kind, preds, ys) @ counts


_HINT_LOSS = LossSpec(LossKind.CENTERED_BINARY)


def _select(
    obj: np.ndarray,
    hclass: HypothesisClass,
    tie: TiePolicy,
    query_point: int | None,
    rng,
) -> int:
    best = obj.min()
    minimizers = np.flatnonzero(obj <= best + OBJ_TOL)
    if tie is TiePolicy.LOWEST_INDEX:
        return int(minimizers[0])
    if tie is TiePolicy.PREFER_NEGATIVE:
        if not hclass.binary:
            raise InputError("prefer_negative tie policy requires a binary class")
        if query_point is not None:
            neg = minimizers[hclass.values[minimizers, query_point] < 0]
            if neg.size:
                return int(neg[0])
        return int(minimizers[0])
    if tie is TiePolicy.SEEDED_RANDOM:
        if rng is None:
            raise InputError("seeded_random tie policy requires an rng")
        return int(rng.choice(minimizers))
    raise InputError(f"unknown tie policy {tie!r}")


def erm(
    hclass: HypothesisClass,
    S: ExampleMultiset,
    loss: LossSpec,
    tie: TiePolicy = TiePolicy.LOWEST_INDEX,
    stats: OracleStats | None = None,
    query_point: int | None = None,
    rng=None,
    tag: str = "round",
) -> tuple[int, float]:
    """Cumulative-loss minimizer over the class; empty S has value 0."""
    obj = _objective_table(hclass, S, loss)
    idx = _select(obj, hclass, tie, query_point, rng)
    if stats is not None:
        stats.record(S.logical_size, tag)
    return idx, float(obj[idx])


def mixed_opt(
    hclass: HypothesisClass,
    S_real: ExampleMultiset,
    S_bin: ExampleMultiset,
    loss: LossSpec,
    tie: TiePolicy = TiePolicy.LOWEST_INDEX,
    stats: OracleStats | None = None,
    query_point: int | None = None,
    rng=None,
    tag: str = "round",
) -> tuple[int, float]:
    """Minimize sum of l(h(x),y)/(2G) over S_real plus -y'h(x')/2 over S_bin."""
    obj = _objective_table(hclass, S_real, loss) / (2.0 * loss.lipschitz_G)
    obj += _objective_table(hclass, S_bin, _HINT_LOSS)
    idx = _select(obj, hclass, tie, query_point, rng)
    if stats is not None:
        stats.record(S_real.logical_size + S_bin.logical_size, tag)
    return idx, float(obj[idx])
