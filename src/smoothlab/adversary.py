"""Adaptive adversaries: smoothed and hint-constrained constructions.

An adversary commits, at the top of each round, to a distribution over
instances and a full label table; the realized instance's label is read
off that table only after the learner has predicted, which enforces
simultaneity: the adversary adapts to rounds up to t-1, not to the prediction.

Each commitment carries a certificate, a smoothness bound sigma or
containment in the promised hint multiset Z_t, checked once per distinct
commitment before any x_t is drawn from it: `Adversary` keeps each
commitment and its CDF under the key its kind names.  `next_round` draws
x_t by searching that CDF for the uniform it is given, the arithmetic of
`Generator.choice(n, p=probs)`, so given a stream's first `random()`
(`rng.first_uniform`) it draws the index `choice` draws from that
stream.  Both run the learners' round check.  Each kind is one maker in
`_KINDS`, and its docstring describes the kind.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (HypothesisClass, check_probs, check_query, check_round, choice_cdf,
                   equal_blocks, validate_smooth, whole_number, whole_numbers)
from .errors import ContractViolation, InputError
from . import rng as rngmod


class AdversaryKind(Enum):
    REALIZABLE_SMOOTH = "realizable_smooth"
    SUPPORT_ALTERNATING = "support_alternating"
    TRANSDUCTIVE_CYCLIC = "transductive_cyclic"
    CUSTOM_TABLE = "custom_table"


@dataclass(frozen=True)
class HintSchedule:
    """T multisets of size K, one per round, each promised to contain x_t."""

    rows: np.ndarray  # (T, K) integer array

    def __post_init__(self) -> None:
        rows = whole_numbers(self.rows, "hint schedule rows")
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InputError("hint schedule must be a T x K matrix with T,K >= 1")
        object.__setattr__(self, "rows", rows)

    @property
    def T(self) -> int:
        return self.rows.shape[0]

    @property
    def K(self) -> int:
        return self.rows.shape[1]

    def row(self, t: int) -> np.ndarray:
        """Hints for round t, one whole number in 1..T."""
        return self.rows[check_round(t, self.T) - 1]

    def check_fits(self, T: int, domain_size: int) -> None:
        """InputError unless the rows cover rounds 1..T, all in [0, domain_size)."""
        if self.T < T:
            raise InputError("hint schedule shorter than the horizon")
        if self.rows.min() < 0 or self.rows.max() >= domain_size:
            raise InputError("hint schedule names an instance outside the domain")


def known_sequence_schedule(xs) -> HintSchedule:
    """K=1 schedule equal to the true sequence: classical transduction."""
    return HintSchedule(whole_numbers(xs, "xs").reshape(-1, 1))


def cyclic_hint_schedule(T: int, blocks) -> HintSchedule:
    """Round t's hints are block (t-1) mod len(blocks); all blocks must
    share one size K."""
    blocks = [whole_numbers(b, "hint blocks") for b in blocks]
    if not blocks:
        raise InputError("need at least one block")
    K = blocks[0].size
    if any(b.size != K for b in blocks):
        raise InputError("all hint blocks must have equal size")
    rows = np.stack(blocks)[np.arange(whole_number("T", T)) % len(blocks)]
    return HintSchedule(rows)


def full_domain_schedule(T: int, domain_size: int) -> HintSchedule:
    """Vacuous hints: every row is the whole domain (K = |X|)."""
    domain = np.arange(whole_number("domain_size", domain_size))
    return HintSchedule(np.tile(domain, (whole_number("T", T), 1)))


@dataclass(frozen=True)
class AdversarySpec:
    kind: AdversaryKind
    sigma: float = 1.0
    d: int = 1
    delta: float = 0.5
    hint_schedule: HintSchedule | None = None
    xs: tuple[int, ...] | None = None  # custom_table fixed sequence
    ys: tuple[float, ...] | None = None  # custom_table fixed labels


@dataclass(frozen=True)
class RoundCommitment:
    """What the adversary fixes before seeing the prediction."""

    probs: np.ndarray  # distribution of x_t over the domain
    sigma: float | None  # smoothness certificate (None if hint-certified)
    hint_row: np.ndarray | None  # support certificate (None if smooth)
    label_table: np.ndarray  # committed label for every x

    def __post_init__(self) -> None:
        # read-only views: a reused commitment cannot be written through
        for name in ("probs", "hint_row", "label_table"):
            if getattr(self, name) is not None:
                view = np.asarray(getattr(self, name)).view()
                view.setflags(write=False)
                object.__setattr__(self, name, view)

    def check_contract(self) -> None:
        try:
            if self.sigma is None:
                check_probs(self.probs)
            elif not validate_smooth(self.probs, self.sigma):
                raise ContractViolation(
                    f"committed distribution violates its {self.sigma}-smoothness certificate"
                )
        except InputError as e:
            raise ContractViolation(f"committed distribution is invalid: {e}") from e
        if self.hint_row is not None:
            # containment as a mask over the domain; row entries outside
            # the domain cover nothing
            row = np.asarray(self.hint_row)
            allowed = np.zeros(self.probs.size, dtype=bool)
            allowed[row[(row >= 0) & (row < allowed.size)]] = True
            if ((self.probs > 0) & ~allowed).any():
                raise ContractViolation(
                    "committed distribution escapes the promised hint multiset"
                )
        if not (np.abs(self.label_table) <= 1.0).all():
            raise ContractViolation("committed labels leave [-1, 1]")


def biased_label_rule(h_star_values, delta: float, rng) -> np.ndarray:
    """Label table agreeing with h* independently w.p. 1/2 + delta."""
    if not (0.0 <= delta <= 0.5):
        raise InputError(f"delta must lie in [0, 1/2], got {delta}")
    h = np.asarray(h_star_values, dtype=float)
    agree = rng.random(h.size) < 0.5 + delta
    return np.where(agree, h, -h)


class Adversary:
    """Stateful adversary for one game run: `commit(t)` fixes round t's
    distribution and label table, and `observe(t, x_t, yhat_t, y_t)`
    feeds the realized round back to its kind's state."""

    def __init__(self, spec: AdversarySpec, hclass: HypothesisClass, T: int,
                 seed: int):
        self.hclass = hclass
        self.T = whole_number("T", T)
        self.seed = whole_number("seed", seed)
        self.domain_size = hclass.domain_size
        self._commit, self._key, self._observe = _KINDS[spec.kind](self, spec)
        # after the maker, so that custom_table names its own row rule
        if spec.hint_schedule is not None:
            spec.hint_schedule.check_fits(self.T, self.domain_size)
        # key -> (certified commitment, its CDF)
        self._commitments: dict = {}

    def _rng(self, t: int):
        return rngmod.stream(self.seed, t, "adversary")

    @functools.cached_property
    def h_star_index(self) -> int:
        """Target hypothesis of the realizable kinds, drawn from the round-0
        stream on first use, so that construction draws nothing."""
        return int(self._rng(0).integers(len(self.hclass)))

    def commit(self, t: int) -> RoundCommitment:
        """Fix round t's distribution and label table (before prediction)."""
        return self._commit(check_round(t, self.T))

    def _certified(self, t: int) -> tuple[RoundCommitment, np.ndarray]:
        """Round t's commitment and its CDF.  A commitment is built and
        its certificate checked when its key first appears; a repeated
        key reuses both."""
        t = check_round(t, self.T)
        key = self._key(t)
        entry = None if key is None else self._commitments.get(key)
        if entry is None:
            commitment = self.commit(t)
            commitment.check_contract()
            entry = commitment, choice_cdf(commitment.probs)
            if key is not None:
                self._commitments[key] = entry
        return entry

    def observe(self, t: int, x_t: int, yhat_t: float, y_t: float) -> None:
        """Feed back round t; x_t passes the learners' query check
        (`core.check_query`) first, so it cannot wrap around a table."""
        x_t = check_query(x_t, self.domain_size)
        if self._observe is not None:
            self._observe(x_t)


# maker(adversary, spec) runs a kind's load-time checks and returns its
# (commit(t), key(t), observe(x_t) or None); key(t) names everything round
# t's commitment depends on, or is None when it is built afresh each round
def realizable(adv: Adversary, spec: AdversarySpec, cyclic: bool = False):
    """`realizable_smooth`: h*'s labels, each flipped w.p. 1/2 - delta by
    the round's "adversary" stream when delta < 1/2, under the uniform
    distribution (sigma = 1) or, given a hint schedule, the multiset of
    round t's hints.  `transductive_cyclic` (`cyclic`) is this kind with
    a required schedule, labelling with h* at any delta."""
    schedule, n = spec.hint_schedule, adv.domain_size
    if cyclic and schedule is None:
        raise InputError("transductive_cyclic needs a hint schedule")
    if not cyclic and not 0.0 <= spec.delta <= 0.5:
        raise InputError(f"delta must lie in [0, 1/2], got {spec.delta}")
    fixed = cyclic or spec.delta == 0.5

    def commit(t):
        h_star = adv.hclass.values[adv.h_star_index]
        labels = h_star.copy() if fixed else biased_label_rule(h_star, spec.delta, adv._rng(t))
        if schedule is None:
            return RoundCommitment(np.full(n, 1.0 / n), 1.0, None, labels)
        row = schedule.rows[t - 1]  # t passed the round check
        return RoundCommitment(np.bincount(row, minlength=n) / row.size, None, row, labels)

    def key(t):
        if fixed:
            return () if schedule is None else schedule.rows[t - 1].tobytes()

    return commit, key, None


def support_alternating(adv: Adversary, spec: AdversarySpec):
    """The FTL-fooling instance, sigma-certified and so taking no hint
    schedule: uniform on `core.equal_blocks`' d blocks of the first
    ceil(sigma |X|) instances, a block labeled -1 after an odd number of
    visits and +1 otherwise; its key is the parities `observe` toggles."""
    if spec.hint_schedule is not None:
        raise InputError("support_alternating is sigma-certified and takes no hint schedule")
    raw = spec.sigma * adv.domain_size
    size = int(np.ceil(raw))
    if abs(raw - round(raw)) > 1e-9:
        warnings.warn(f"sigma*|X| = {raw} is non-integral; using support size {size}",
                      stacklevel=3)
    block_of = equal_blocks(adv.domain_size, size, spec.d)  # -1 off the support
    parity = bytearray(int(block_of.max()) + 1)  # visits to each block, mod 2
    probs = (block_of >= 0) / (block_of >= 0).sum()

    def commit(t):
        labels = np.append(np.where(np.frombuffer(parity, np.uint8), -1.0, 1.0), 1.0)[block_of]
        return RoundCommitment(probs, spec.sigma, None, labels)

    def observe(x_t):
        j = block_of[x_t]
        if j >= 0:
            parity[j] ^= 1

    return commit, lambda t: bytes(parity), observe


def custom_table(adv: Adversary, spec: AdversarySpec):
    """A fixed sequence: round t is a point mass on xs[t-1] labeled
    ys[t-1] everywhere, certified by its hint row (by [xs[t-1]] without
    a schedule), which must hold xs[t-1] for every t in 1..T."""
    if spec.xs is None or spec.ys is None or min(len(spec.xs), len(spec.ys)) < adv.T:
        raise InputError("custom_table needs xs and ys of length at least T")
    n, schedule = adv.domain_size, spec.hint_schedule
    xs = whole_numbers(spec.xs, "custom_table xs")
    if np.any((xs < 0) | (xs >= n)):
        raise InputError(f"custom_table xs leave the domain of size {n}")
    if not np.all(np.abs(np.asarray(spec.ys, dtype=float)) <= 1.0):
        raise InputError("custom_table ys must be finite and lie in [-1, 1]")
    rows = xs[:adv.T, None] if schedule is None else schedule.rows[:adv.T]
    if len(rows) < adv.T or not (rows == xs[:adv.T, None]).any(1).all():
        raise InputError("custom_table xs[t-1] must lie in hint row t for t = 1..T")

    def commit(t):
        x = int(xs[t - 1])
        probs = np.zeros(n)
        probs[x] = 1.0
        return RoundCommitment(probs, None, rows[t - 1], np.full(n, float(spec.ys[t - 1])))

    return commit, lambda t: None, None


_KINDS = {
    AdversaryKind.REALIZABLE_SMOOTH: realizable,
    AdversaryKind.SUPPORT_ALTERNATING: support_alternating,
    AdversaryKind.TRANSDUCTIVE_CYCLIC: functools.partial(realizable, cyclic=True),
    AdversaryKind.CUSTOM_TABLE: custom_table,
}


def next_round(adv: Adversary, t: int, u: float):
    """One protocol step: commit and sample x_t by the uniform u in [0, 1).

    Returns (commitment, x_t); round t's label is the commitment's
    `label_table[x_t]`, fixed before any prediction is made.  The
    commitment is certified before any x_t is drawn from it.
    """
    commitment, cdf = adv._certified(t)
    return commitment, int(cdf.searchsorted(u, side="right"))
