"""Finite domains, hypothesis classes, losses, smooth distributions,
and labeled-example multisets.

Conventions used everywhere:

* the instance space is ``{0, ..., size-1}``;
* hypothesis values and labels live in ``[-1, 1]``, binary classes use
  exactly ``{-1.0, +1.0}``;
* a distribution is sigma-smooth iff every atom has mass at most
  ``1 / (sigma * size)`` (the subset condition reduces to singletons on
  a finite domain);
* the +-1 class builders are d-block sign classes: an instance -> block
  map (`equal_blocks`, shared with `support_alternating`) and one table
  of the 2^d sign patterns;
* every size, index, count, round, seed and horizon passes one rule,
  `whole_number` (lists: `whole_numbers`): 2.0 passes, 2.5, "2" and True do not;
* an ``ExampleMultiset`` is an (instance, label) -> count history
  record in first-seen order, built from (instance, label[, count])
  pairs; it is no oracle slot, but an ``oracle.OracleSession`` can be
  seeded from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, InputError

PROB_TOL = 1e-12

# exhaustive-search bounds for compute_vc_dimension
VC_MAX_DOMAIN = 16
VC_MAX_CLASS = 1024


@dataclass(frozen=True)
class FiniteDomain:
    """Instance space {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", whole_number("domain size", self.size))
        if self.size < 1:
            raise InputError(f"domain size must be >= 1, got {self.size}")


# the keys of a `HypothesisClass.to_json` document
_CLASS_DOC_KEYS = {"domain_size", "hypotheses", "declared_dim", "binary"}


class HypothesisClass:
    """An ordered finite set of hypotheses over a common domain.

    The value tables are held as a read-only (n_hypotheses, domain_size)
    float array so oracle objectives vectorize over the whole class.
    """

    def __init__(self, values, declared_dim: int, binary: bool = False):
        try:
            # numbers only: a float cast would read "1" as 1.0 and True as 1.0
            vals = np.asarray(values)
            numeric = vals.dtype.kind in "iuf"
        except ValueError:  # ragged nesting
            numeric = False
        if not numeric:
            raise InputError("hypothesis values must form a numeric table")
        vals = np.array(vals, dtype=float)
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise InputError("need a nonempty 2-D (hypothesis, domain) value table")
        if not np.all(np.abs(vals) <= 1.0):
            raise InputError("hypothesis values must lie in [-1, 1]")
        if binary and not np.all(np.abs(vals) == 1.0):
            raise InputError("binary class requires values in {-1, +1} exactly")
        self.declared_dim = whole_number("declared_dim", declared_dim)
        if self.declared_dim < 0:
            raise InputError("declared_dim must be nonnegative")
        vals.setflags(write=False)
        self.values = vals
        self.binary = bool(binary)

    def __len__(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def negative_at(self) -> np.ndarray:
        """The read-only (domain_size, n_hypotheses) table of `values.T < 0`:
        row x marks the hypotheses negative at x (built on first use)."""
        table = np.ascontiguousarray(self.values.T < 0)
        table.setflags(write=False)
        return table

    @property
    def domain_size(self) -> int:
        return self.values.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "domain_size": self.domain_size,
                "hypotheses": self.values.tolist(),
                "declared_dim": self.declared_dim,
                "binary": self.binary,
            }
        )

    @classmethod
    def from_json(cls, doc: str) -> "HypothesisClass":
        """The class of a `to_json` document: an object with exactly its
        keys, whole-number sizes and a true/false `binary`."""
        obj = json.loads(doc)
        if not isinstance(obj, dict):
            raise InputError(f"a class document must be an object, got {obj!r}")
        if set(obj) != _CLASS_DOC_KEYS:
            raise InputError(f"a class document needs exactly the keys "
                             f"{sorted(_CLASS_DOC_KEYS)}, got {sorted(obj)}")
        size, dim = (whole_number(k, obj[k]) for k in ("domain_size", "declared_dim"))
        if not isinstance(obj["binary"], bool):
            raise InputError(f"binary must be true or false, got {obj['binary']!r}")
        hclass = cls(obj["hypotheses"], dim, obj["binary"])
        if hclass.domain_size != size:
            raise InputError("hypothesis table width disagrees with domain_size")
        return hclass


class LossKind(Enum):
    BINARY_INDICATOR = "binary_indicator"
    CENTERED_BINARY = "centered_binary"
    ABSOLUTE = "absolute"
    SQUARED = "squared"

    # members are singletons, so identity serves as a C-level hash in
    # the per-round dict and set lookups (Enum's own hashes the name)
    __hash__ = object.__hash__


# the Lipschitz constant G of each loss in its prediction
_LIPSCHITZ_G = {
    LossKind.BINARY_INDICATOR: 0.5,
    LossKind.CENTERED_BINARY: 0.5,
    LossKind.ABSOLUTE: 0.5,
    LossKind.SQUARED: 1.0,
}

_BINARY_KINDS = {LossKind.BINARY_INDICATOR}  # predictions must be +-1
_SIGN_LABEL_KINDS = {LossKind.BINARY_INDICATOR, LossKind.CENTERED_BINARY}


@dataclass(frozen=True)
class LossSpec:
    kind: LossKind

    @property
    def lipschitz_G(self) -> float:
        return _LIPSCHITZ_G[self.kind]

    @property
    def binary_only(self) -> bool:
        return self.kind in _BINARY_KINDS

    @classmethod
    def of(cls, name: str) -> "LossSpec":
        return cls(LossKind(name))


def _check_range(v, name: str) -> None:
    # written so that NaN fails it
    if not (np.abs(np.asarray(v, dtype=float)) <= 1.0).all():
        raise InputError(f"{name} must lie in [-1, 1]")


def _check_pm1(v, name: str) -> None:
    """InputError unless every entry of `v` is exactly -1 or +1.  A
    Python float equal to either, a round's label, returns before the
    array check; every other input takes it (`_check_pm1_array`)."""
    if type(v) is float and (v == 1.0 or v == -1.0):
        return
    _check_pm1_array(v, name)


def _check_pm1_array(v, name: str) -> None:
    if (np.abs(np.asarray(v, dtype=float)) != 1.0).any():
        raise InputError(f"{name} must be exactly -1 or +1")


def check_sign_args(loss: LossSpec, yhat, y, *, yhat_binary: bool = False) -> None:
    """The +-1 checks of `loss_eval`: labels under the indicator and
    centered losses, predictions under the indicator loss unless the
    caller knows them to be +-1 (`yhat_binary`)."""
    if loss.binary_only and not yhat_binary:
        _check_pm1(yhat, "prediction")
    if loss.kind in _SIGN_LABEL_KINDS:
        _check_pm1(y, "label")


def loss_kernel(kind: LossKind, yhat: np.ndarray, y) -> np.ndarray:
    """The loss formula, elementwise and unchecked.  `loss_eval` checks
    its arguments first; an oracle session checks the class when it
    builds its tables and each example as it enters."""
    if kind is LossKind.BINARY_INDICATOR:
        return (1.0 - y * yhat) / 2.0
    if kind is LossKind.CENTERED_BINARY:
        return -y * yhat / 2.0
    if kind is LossKind.ABSOLUTE:
        return np.abs(yhat - y) / 2.0
    return (yhat - y) ** 2 / 4.0  # squared


def loss_eval(loss: LossSpec, yhat, y):
    """Evaluate the loss elementwise; `yhat` and `y` may be scalars or
    arrays that broadcast, e.g. a (hypothesis, pair) prediction table
    against a vector of labels.  Checks both arguments on every call:
    values in [-1, 1], and +-1 where the loss needs signs
    (`check_sign_args`)."""
    yhat = np.asarray(yhat, dtype=float)
    _check_range(yhat, "prediction")
    _check_range(y, "label")
    check_sign_args(loss, yhat, y)
    out = loss_kernel(loss.kind, yhat, y)
    return float(out) if out.ndim == 0 else out


def check_probs(probs, tol: float = PROB_TOL) -> np.ndarray:
    """`probs` as a float array; InputError unless it is a nonempty,
    nonnegative vector that sums to 1 within `tol`."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InputError("probs must be a nonempty vector")
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= tol):
        raise InputError("probs must be nonnegative and sum to 1")
    return p


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF that `Generator.choice(n, p=probs)` searches, computed
    with its arithmetic; read-only.  Its index for a uniform u is the
    number of entries <= u, `searchsorted(u, side="right")`; the last
    entry is x / x == 1.0 > u, so the index is always an atom
    (`verify._ratio_lookup` reads that atom's ratio from a bucket table)."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def check_sigma(sigma: float) -> None:
    """InputError unless 0 < sigma <= 1 (NaN fails it)."""
    if not (0.0 < sigma <= 1.0):
        raise InputError(f"sigma must be in (0, 1], got {sigma}")


def validate_smooth(probs, sigma: float, tol: float = PROB_TOL) -> bool:
    """True iff `probs` is a probability vector whose atoms obey the
    sigma-smooth singleton bound max_x p(x) <= 1/(sigma*|X|) + tol."""
    p = check_probs(probs, tol)
    check_sigma(sigma)
    return bool(p.max() <= 1.0 / (sigma * p.size) + tol)


@dataclass(frozen=True)
class SmoothDistribution:
    """A probability vector with a smoothness certificate sigma."""

    probs: tuple[float, ...]
    sigma: float

    def __post_init__(self) -> None:
        if not validate_smooth(self.probs, self.sigma):
            raise InputError(
                f"distribution is not {self.sigma}-smooth on {len(self.probs)} atoms"
            )

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def uniform(cls, size: int) -> "SmoothDistribution":
        return cls(tuple([1.0 / size] * size), 1.0)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_BOOL_TYPES = (bool, np.bool_)


def whole_numbers(values, name: str) -> np.ndarray:
    """`values` as an int array; InputError unless it holds whole numbers
    below 2^63 in magnitude only, not text or booleans (a list's entries
    are searched for booleans).  A signed integer array needs no check."""
    try:
        a = np.asarray(values)
        whole = a.dtype.kind == "i" or (  # NaN and +-inf fail the bound
            a.dtype.kind in "uf" and ((np.abs(a) < 2.0**63) & (a == np.floor(a))).all())
    except ValueError:  # ragged nesting
        whole = False
    if whole and a.ndim and not isinstance(values, np.ndarray):
        whole = not any(isinstance(v, _BOOL_TYPES)
                        for v in np.asarray(values, dtype=object).flat)
    if not whole:
        raise InputError(f"{name} must hold integers, got {values!r}")
    return np.asarray(a, dtype=int)


def whole_number(name: str, v) -> int:
    """`v` as an int; InputError unless it is one finite whole number, not
    text or a boolean (`2.0` passes; `2.5`, `"2"` and `True` do not).
    An exact int skips the array check."""
    if type(v) is int:
        return v
    a = whole_numbers(v, name)
    if a.ndim:
        raise InputError(f"{name} must be a whole number, got {v!r}")
    return int(a)


def check_round(t, T: int) -> int:
    """The round check of every learner's `predict` and the adversary: t as
    an int, InputError unless it is one whole number in 1..T."""
    r = t if type(t) is int else whole_number(f"round t={t!r}", t)
    if not 1 <= r <= T:
        raise InputError(f"round t={t!r} is not in 1..{T}")
    return r


def check_query(x_t, domain_size: int) -> int:
    """The query check of every learner's `predict` and the adversary's
    `observe`: x_t as an int, InputError unless it is one whole number in
    [0, |X|).  An exact int, the games' case, skips the call."""
    x = x_t if type(x_t) is int else whole_number("x_t", x_t)
    if not 0 <= x < domain_size:
        raise InputError(f"x_t={x_t!r} outside the domain of size {domain_size}")
    return x


def count_table(cells, rows: int | None = None) -> np.ndarray:
    """`cells` as an int (rows, 2) table of (instance, sign) counts;
    InputError unless it has that shape (any number of rows when `rows`
    is None) and holds nonnegative whole numbers."""
    cells = whole_numbers(cells, "cells")
    if (cells.ndim != 2 or cells.shape[1] != 2
            or (rows is not None and cells.shape[0] != rows)):
        raise InputError(f"cells must be a ({'|X|' if rows is None else rows}, 2) "
                         f"count table, got shape {cells.shape}")
    # the smallest entry is at argmin: no mask and `any` (argmin raises when empty)
    if cells.size and cells.item(cells.argmin()) < 0:
        raise InputError("cells must be a nonnegative count table")
    return cells


def check_example(x, y, count) -> tuple[int, float, int]:
    """(x, y, count) as (int, float, int); InputError unless x and count
    pass `whole_number`, count >= 1 and y is a real number in [-1, 1], not
    text or a boolean.  A round's example (exact-int x and count >= 1, an
    exact float y in [-1, 1]) is returned as it is; every other input
    takes the full check (`_check_example_full`)."""
    if (type(x) is int and type(y) is float and type(count) is int
            and count >= 1 and -1.0 <= y <= 1.0):
        return x, y, count
    return _check_example_full(x, y, count)


def _check_example_full(x, y, count) -> tuple[int, float, int]:
    xi = whole_number("an example's instance", x)
    ci = whole_number("an example's count", count)
    if ci < 1:
        raise InputError("multiset counts must be >= 1")
    try:
        yf = float(y)
    except (TypeError, ValueError):
        yf = None
    if (yf is None or isinstance(y, (str, bytes, *_BOOL_TYPES))
            or not -1.0 <= yf <= 1.0):
        raise InputError(f"label must be a real number in [-1, 1], got {y!r}")
    return xi, yf, ci


class ExampleMultiset:
    """Multiset of (instance, label) pairs: a history record, which an
    `oracle.OracleSession` can be seeded from.

    One (x, y) -> count dict in first-seen order, each example checked
    (`check_example`) when it enters.  The logical size is the sum of
    the counts, as is that of a session seeded from it.
    """

    __slots__ = ("_counts",)

    def __init__(self, pairs=()):
        self._counts: dict[tuple[int, float], int] = {}
        for x, y, *c in pairs:
            x, y, count = check_example(x, y, c[0] if c else 1)
            self._counts[x, y] = self._counts.get((x, y), 0) + count

    def add(self, x: int, y: float, count: int = 1) -> None:
        """Add `count` copies of (x, y)."""
        x, y, count = check_example(x, y, count)
        self._counts[x, y] = self._counts.get((x, y), 0) + count

    @property
    def logical_size(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return self.logical_size

    def items(self) -> list[tuple[tuple[int, float], int]]:
        """((x, y), count) for each distinct pair, in first-seen order."""
        return list(self._counts.items())


def equal_blocks(size: int, support_size: int, d: int) -> np.ndarray:
    """Instance -> block of d equal contiguous blocks of the first
    `support_size` of `size` instances, -1 off them; InputError unless
    d >= 1, 1 <= support_size <= size and d divides support_size."""
    support_size, d = whole_number("support_size", support_size), whole_number("d", d)
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    if not (1 <= support_size <= size):
        raise InputError(f"support_size {support_size} out of range 1..{size}")
    if support_size % d != 0:
        raise InputError(f"support size {support_size} not divisible by d={d}")
    block_of = np.full(size, -1)
    block_of[:support_size] = np.arange(support_size) // (support_size // d)
    return block_of


def _sign_table(block_of: np.ndarray, d: int) -> HypothesisClass:
    """The 2^d sign assignments to the blocks of `block_of` (instance ->
    block, -1 off every block, where the value is +1).  Row i gives block
    j the sign 1 - 2*((i >> (d-1-j)) & 1): the first block is the most
    significant and +1 comes before -1."""
    bits = (np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    signs = np.ones((2**d, d + 1))  # the last column serves block -1
    signs[:, :d] -= 2.0 * bits
    return HypothesisClass(signs[:, block_of], declared_dim=d, binary=True)


def make_partition_class(domain: FiniteDomain, d: int) -> HypothesisClass:
    """All 2^d sign assignments that are constant on each of d equal
    contiguous blocks of the domain."""
    return make_support_partition_class(domain, domain.size, d)


def make_shatter_class(domain: FiniteDomain, special) -> HypothesisClass:
    """All 2^d sign patterns on the given special points, +1 elsewhere."""
    special = [whole_number("special index", s) for s in special]
    if len(set(special)) != len(special):
        raise InputError("special indices must be distinct")
    if any(s < 0 or s >= domain.size for s in special):
        raise InputError("special index out of range")
    block_of = np.full(domain.size, -1)
    block_of[special] = np.arange(len(special))
    return _sign_table(block_of, len(special))


def make_support_partition_class(
    domain: FiniteDomain, support_size: int, d: int
) -> HypothesisClass:
    """All 2^d sign assignments constant on each of d equal contiguous
    blocks of the first `support_size` indices, +1 off the support."""
    block_of = equal_blocks(domain.size, support_size, d)
    return _sign_table(block_of, int(block_of.max()) + 1)


def compute_vc_dimension(hclass: HypothesisClass) -> int:
    """Brute-force VC dimension of the sign patterns of the class.

    Exhaustive over all subsets of the domain; capped at |X| <= 16 and
    |H| <= 1024.
    """
    n = hclass.domain_size
    if n > VC_MAX_DOMAIN or len(hclass) > VC_MAX_CLASS:
        raise CapacityError(
            f"instance too large for exhaustive search: |X|={n}, |H|={len(hclass)}"
        )
    signs = np.where(hclass.values >= 0, 1, -1)
    max_d = min(n, int(np.log2(len(hclass))) + 1)
    best = 0
    for m in range(1, max_d + 1):
        shattered = False
        for subset in itertools.combinations(range(n), m):
            patterns = {tuple(row) for row in signs[:, subset]}
            if len(patterns) == 2**m:
                shattered = True
                break
        if shattered:
            best = m
        else:
            break
    return best
