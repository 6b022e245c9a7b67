"""Offline optimization oracles over enumerated hypothesis classes.

Two oracle flavors:

* ``erm`` — minimize the cumulative loss of a labeled multiset;
* ``mixed_opt`` — minimize a rescaled real-loss term over one multiset
  plus a linear hint term ``-y*h(x)/2`` over a second multiset.

Both are pure functions of their inputs except for an explicit
``OracleStats`` accumulator owned by one run.  Learners must touch the
hypothesis class only through these entry points.

A multiset slot takes an ``OracleSession`` or one of its ``CountTable``
views; each exposes ``logical_size``, ``items()`` and ``objective``, so
every objective comes from a session.  A history record, such as the
multiset of `core`, reaches an oracle only as the seed of a session.

An ``OracleSession`` is one learner's history, kept incrementally.  It
builds the game-loss and centered hint-loss tables over the 2|X|
(instance, sign) cells once, checking every class value there with the
+-1 checks of `core.loss_eval` (`check_sign_args`), and keeps the
history as one (x, y) -> count dict beside the history objective;
`OracleSession.add` checks each example into both.  A round's (|X|, 2)
count table is checked when its ``CountTable`` is made, and its
objective is one matvec of a cell table, plus the history vector when
the view includes the history.

For a +-1 class under +-1 labels every term is an integer or a
half-integer, so the floats do not depend on the summation order;
otherwise they agree with a per-pair sum up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .core import (
    HypothesisClass,
    LossKind,
    LossSpec,
    check_example,
    check_query,
    check_sign_args,
    count_table,
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


_HINT_LOSS = LossSpec(LossKind.CENTERED_BINARY)

# the labels of the (instance, sign) cells: column 2x counts (x, -1),
# column 2x+1 counts (x, +1)
_CELL_SIGNS = np.array([-1.0, 1.0])


class OracleSession:
    """One learner's history, kept for its oracle calls.

    Holds the (|H|,) history objective under the learner's loss, the
    (|H|, 2|X|) game-loss and centered hint-loss tables over the
    (instance, sign) cells, built once, and the history itself as one
    (x, y) -> count dict.  The session stands in a multiset slot for the
    history, and a `CountTable` over it wraps a round's count table.
    Append-only: `add` is the one change.
    """

    def __init__(self, hclass: HypothesisClass, loss: LossSpec,
                 history: History | None = None):
        values = hclass.values
        # the tables hold every class value, so the class is checked here
        check_sign_args(loss, values, _CELL_SIGNS, yhat_binary=hclass.binary)
        self.hclass = hclass
        self.loss = loss
        self._counts: dict[tuple[int, float], int] = {}
        self._size = 0
        self._objective = np.zeros(len(hclass))
        self._tables = {kind: loss_kernel(kind, values[:, :, None], _CELL_SIGNS)
                        .reshape(len(hclass), -1)
                        for kind in {loss.kind, _HINT_LOSS.kind}}
        for (x, y), count in ([] if history is None else history.items()):
            self.add(x, y, count)

    def add(self, x: int, y: float, count: int = 1) -> None:
        """Add `count` copies of (x, y) to the history and its objective.
        A round's (int, +-1.0, 1) passes the checks without an array, and
        one copy adds its column without the `count * column` temporary
        (the same bits: 1 * v == v)."""
        x, y, count = check_example(x, y, count)
        if not 0 <= x < self.hclass.domain_size:
            raise InputError(f"instance {x} outside the domain of size "
                             f"{self.hclass.domain_size}")
        check_sign_args(self.loss, (), y, yhat_binary=True)
        self._counts[x, y] = self._counts.get((x, y), 0) + count
        if abs(y) == 1.0:
            column = self._tables[self.loss.kind][:, 2 * x + (y > 0)]
        else:
            column = loss_kernel(self.loss.kind, self.hclass.values[:, x], y)
        self._objective += column if count == 1 else count * column
        self._size += count

    @property
    def logical_size(self) -> int:
        return self._size

    def items(self) -> list[tuple[tuple[int, float], int]]:
        """((x, y), count) for each distinct pair, in first-seen order."""
        return list(self._counts.items())

    def _check_class(self, hclass: HypothesisClass) -> None:
        if hclass is not self.hclass:
            raise InputError("the session was built for another class")

    def _cell_table(self, hclass: HypothesisClass, loss: LossSpec) -> np.ndarray:
        self._check_class(hclass)
        if loss.kind not in self._tables:
            raise InputError(f"the session holds no {loss.kind.value} table")
        return self._tables[loss.kind]

    def objective(self, hclass: HypothesisClass, loss: LossSpec) -> np.ndarray:
        """The history objective; read-only to callers."""
        self._check_class(hclass)
        if loss.kind is not self.loss.kind:
            raise InputError(f"the session keeps its history under "
                             f"{self.loss.kind.value}, not {loss.kind.value}")
        return self._objective


class CountTable:
    """An (|X|, 2) (instance, sign) count table in a multiset slot, read
    through its session's cell tables, optionally with the session's
    history added.  The constructor checks the table and `_of` views one
    already checked, of total count `size` when the caller knows it."""

    def __new__(cls, session: OracleSession, cells, with_history: bool = False):
        return cls._of(session, count_table(cells, session.hclass.domain_size),
                       with_history)

    @classmethod
    def _of(cls, session: OracleSession, cells: np.ndarray,
            with_history: bool = False, size: int | None = None) -> "CountTable":
        """The view of a table `core.count_table` has already checked."""
        out = object.__new__(cls)
        out.session, out.cells, out.with_history = session, cells, with_history
        out._counts = cells.reshape(-1)
        out._size = int(out._counts.sum()) if size is None else size
        return out

    @property
    def logical_size(self) -> int:
        return self._size + (self.session.logical_size if self.with_history else 0)

    def items(self) -> list[tuple[tuple[int, float], int]]:
        """((x, y), count) for each distinct pair: the table's in (x, y)
        order, or with the history, merged into the session's."""
        merged = dict(self.session._counts) if self.with_history else {}
        nonzero = np.flatnonzero(self._counts)
        pairs = zip((nonzero // 2).tolist(), _CELL_SIGNS[nonzero % 2].tolist())
        for pair, count in zip(pairs, self._counts[nonzero].tolist()):
            merged[pair] = merged.get(pair, 0) + count
        return list(merged.items())

    def objective(self, hclass: HypothesisClass, loss: LossSpec) -> np.ndarray:
        # `.dot` skips the `@` ufunc's casting set-up, with the same bits
        obj = self.session._cell_table(hclass, loss).dot(self._counts)
        if self.with_history:
            obj += self.session.objective(hclass, loss)
        return obj


# what a multiset slot takes (see the module docstring)
Slot = OracleSession | CountTable


class History(Protocol):
    """What a session is seeded from: a slot or a `core` history record."""

    def items(self) -> list[tuple[tuple[int, float], int]]: ...


def _select(
    obj: np.ndarray,
    hclass: HypothesisClass,
    tie: TiePolicy,
    query_point: int | None,
    rng,
) -> int:
    """The chosen minimizer: the first index within OBJ_TOL of the
    minimum (LOWEST_INDEX), the first such one whose hypothesis is
    negative at the query point, else the first (PREFER_NEGATIVE), or a
    uniform draw among them (SEEDED_RANDOM).  PREFER_NEGATIVE reads the
    query point's row of the class's `negative_at` table, after the
    learners' query check (InputError unless it is a whole number in
    [0, |X|)).  The objective is finite, since class values and counts are
    checked on entry, so the mask of near-minimal indices always holds a
    True and `argmax` finds its first.
    """
    near = obj <= obj.min() + OBJ_TOL
    if tie is TiePolicy.LOWEST_INDEX:
        return int(near.argmax())
    if tie is TiePolicy.PREFER_NEGATIVE:
        if not hclass.binary:
            raise InputError("prefer_negative tie policy requires a binary class")
        if query_point is not None:
            x = check_query(query_point, hclass.domain_size)
            neg = near & hclass.negative_at[x]
            first = neg.argmax()
            if neg[first]:
                return int(first)
        return int(near.argmax())
    if tie is TiePolicy.SEEDED_RANDOM:
        if rng is None:
            raise InputError("seeded_random tie policy requires an rng")
        return int(rng.choice(np.flatnonzero(near)))
    raise InputError(f"unknown tie policy {tie!r}")


def erm(
    hclass: HypothesisClass,
    S: Slot,
    loss: LossSpec,
    tie: TiePolicy = TiePolicy.LOWEST_INDEX,
    stats: OracleStats | None = None,
    query_point: int | None = None,
    rng=None,
    tag: str = "round",
) -> tuple[int, float]:
    """Cumulative-loss minimizer over the class; empty S has value 0."""
    obj = S.objective(hclass, loss)
    idx = _select(obj, hclass, tie, query_point, rng)
    if stats is not None:
        stats.record(S.logical_size, tag)
    return idx, float(obj[idx])


def mixed_opt(
    hclass: HypothesisClass,
    S_real: Slot,
    S_bin: Slot,
    loss: LossSpec,
    tie: TiePolicy = TiePolicy.LOWEST_INDEX,
    stats: OracleStats | None = None,
    query_point: int | None = None,
    rng=None,
    tag: str = "round",
) -> tuple[int, float]:
    """Minimize sum of l(h(x),y)/(2G) over S_real plus -y'h(x')/2 over S_bin."""
    obj = S_real.objective(hclass, loss) / (2.0 * loss.lipschitz_G)
    obj += S_bin.objective(hclass, _HINT_LOSS)
    idx = _select(obj, hclass, tie, query_point, rng)
    if stats is not None:
        stats.record(S_real.logical_size + S_bin.logical_size, tag)
    return idx, float(obj[idx])
