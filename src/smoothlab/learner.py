"""Online learners built on the offline oracles.

Implemented learners:

* ``Alg3Transductive`` — hint-aware prediction via two mixed-oracle
  calls per round: the difference of optimal values with the current
  instance labeled -1 vs +1, with doubled Rademacher-labeled copies of
  all future hints.
* ``Alg1Smoothed`` — the same rule against a smoothed adversary, with
  K(T-t) self-generated uniform hints refreshed every round.
* ``Alg2PoissonFTPL`` — proper binary FTPL with a Poisson-distributed
  number of hallucinated uniform samples; one ERM call per round.
* ``FTL`` — unperturbed ERM on history (negative control).
* ``HedgeLearner`` — exponential weights over the enumerated class
  (oracle-free baseline).

The oracle sees a perturbation only as a multiset, so each round draws
the (instance, sign) cell counts straight from their exact law instead
of drawing one sample at a time: a Multinomial over the 2|X| cells for
Alg 1 (`hint_cells`), a Binomial(c, 1/2) sign split of each future
instance count for Alg 3, and i.i.d. Poisson cells for Alg 2
(`hallucination_cells`).  A round therefore costs O(|X|) draws
whatever K, T or n.

Each learner owns one `OracleSession` holding its history and the
history objective, and passes the oracle the session and the round's
(|X|, 2) count table as a `CountTable` view, so no round builds a
multiset: an objective is the history vector plus one matvec.  The hint
learners hand their hint count table to `hint_difference_prediction`,
which makes both of the round's count tables from it.

Every `predict` runs `core.check_round` (t one whole number in 1..T)
and `core.check_query` (x_t one whole number in [0, |X|)), and T, the
seed and K pass `core.whole_number`: 2.0 passes, 2.5 and True do not.
FTL and Alg 2 predict with `erm_prediction`, as `verify`'s FTL check does.
Alg 3 also checks that x_t is in the round's hint multiset, in O(1),
from a (T, |X|) membership table built with its future hint counts.

All per-round randomness comes from counter-based streams keyed by
(seed, round, purpose), so each round's hint/label noise is fresh
and disjoint from every other round's.
"""

from __future__ import annotations

import math

import numpy as np

from .adversary import HintSchedule
from .core import (HypothesisClass, LossKind, LossSpec, check_query, check_round,
                   check_sigma, count_table, whole_number)
from .errors import CapacityError, ContractViolation, InputError
from .oracle import CountTable, OracleSession, OracleStats, TiePolicy, erm, mixed_opt
from . import rng as rngmod

PRED_TOL = 1e-9


def hint_count(T: int, sigma: float, c_K: float = 100.0) -> int:
    """Number of hints per future round: max(1, ceil(c_K * ln T / sigma));
    InputError unless T >= 1, 0 < sigma <= 1 and 0 < c_K < inf."""
    if T < 1:
        raise InputError("T must be >= 1")
    check_sigma(sigma)
    if not (0.0 < c_K < math.inf):
        raise InputError(f"c_K must be a positive real, got {c_K}")
    return max(1, int(math.ceil(c_K * math.log(T) / sigma)))


def default_n(T: int, sigma: float, domain_size: int, d: int) -> float:
    """Hallucination rate min{T/sqrt(sigma), T*sqrt(|X|/d)}."""
    if T < 1:
        raise InputError("T must be >= 1")
    check_sigma(sigma)
    if d < 1 or d > domain_size:
        raise InputError(f"need 1 <= d <= |X|, got d={d}, |X|={domain_size}")
    return min(T / math.sqrt(sigma), T * math.sqrt(domain_size / d))


class Learner:
    """Base class: owns the oracle session (history), oracle stats, and
    the game's RNG seed."""

    def __init__(self, hclass: HypothesisClass, loss: LossSpec, T: int,
                 seed: int = 0, tie: TiePolicy = TiePolicy.LOWEST_INDEX):
        self.hclass = hclass
        self.loss = loss
        self.T = whole_number("T", T)
        if self.T < 1:
            raise InputError(f"T must be >= 1, got {self.T}")
        self.seed = whole_number("seed", seed)
        self.tie = tie
        self.stats = OracleStats()
        self.session = OracleSession(hclass, loss)

    def _stream(self, t: int, purpose: str):
        return rngmod.stream(self.seed, t, purpose)

    def _tie_stream(self, t: int):
        """The round's "tie" stream, built only under the policy that reads it."""
        return self._stream(t, "tie") if self.tie is TiePolicy.SEEDED_RANDOM else None

    def predict(self, t: int, x_t: int) -> float:
        raise NotImplementedError

    def update(self, t: int, x_t: int, y_t: float) -> None:
        self.session.add(x_t, y_t)


def hint_cells(m: int, domain_size: int, rng) -> np.ndarray:
    """(|X|, 2) count table of m i.i.d. uniform hints with independent
    Rademacher labels: one Multinomial(m, uniform over the 2|X|
    (instance, sign) cells) draw.  Column 0 counts label -1, column 1
    label +1."""
    cells = np.full(2 * domain_size, 1.0 / (2 * domain_size))
    return rng.multinomial(m, cells).reshape(domain_size, 2)


def hallucination_cells(n: float, domain_size: int, rng) -> np.ndarray:
    """(|X|, 2) count table of Poi(n) uniform samples with independent
    Rademacher labels: i.i.d. Poisson(n/(2|X|)) cells."""
    if n < 0:
        raise InputError(f"Poisson mean must be nonnegative, got {n}")
    return rng.poisson(n / (2 * domain_size), size=(domain_size, 2))


def hint_difference_prediction(session: OracleSession, cells, x_t: int,
                               stats: OracleStats | None) -> float:
    """The prediction rule of the hint-based learners (Algs 1 and 3).

    yhat_t = OPT(history; S+S+{(x_t,-1)}) - OPT(history; S+S+{(x_t,+1)})
    where the history is the session's and S is the round's
    Rademacher-labeled hint multiset, given as its (|X|, 2) (instance,
    sign) count table `cells`; each mixed-oracle call sees two copies of
    every hint plus the query point, and the two count tables differ in
    one cell.  Only the optimal values enter, so the oracle's tie policy
    cannot change the prediction and the calls use the default one.
    """
    hclass, loss = session.hclass, session.loss
    doubled = 2 * count_table(cells, hclass.domain_size)
    x_t = check_query(x_t, hclass.domain_size)
    lo, hi = doubled, doubled.copy()
    lo[x_t, 0] += 1
    hi[x_t, 1] += 1
    # both tables derive from the checked one, so they enter unchecked, and
    # both hold 2 * |S| + 1 counts, so the second view takes the first's size
    lo = CountTable._of(session, lo)
    hi = CountTable._of(session, hi, size=lo.logical_size)
    _, v_minus = mixed_opt(hclass, session, lo, loss, stats=stats)
    _, v_plus = mixed_opt(hclass, session, hi, loss, stats=stats)
    yhat = v_minus - v_plus
    if abs(yhat) > 1.0 + PRED_TOL:
        raise ContractViolation(f"prediction {yhat} escaped [-1, 1]")
    return float(min(1.0, max(-1.0, yhat)))


def erm_prediction(hclass, slot, loss, x_t, tie, stats, rng) -> float:
    """The ERM learners' rule: the value at x_t, after the query check, of
    the hypothesis `erm` picks over `slot` with x_t as its query point."""
    x_t = check_query(x_t, hclass.domain_size)
    idx, _ = erm(hclass, slot, loss, tie=tie, stats=stats, query_point=x_t, rng=rng)
    return float(hclass.values[idx, x_t])


class Alg3Transductive(Learner):
    """Hint-aware learner for the K-hint transductive setting."""

    def __init__(self, hclass, loss, T, hint_schedule: HintSchedule,
                 seed=0, tie=TiePolicy.LOWEST_INDEX):
        super().__init__(hclass, loss, T, seed, tie)
        if hint_schedule is None:
            raise InputError("hint-based learner requires a hint schedule")
        T, X = self.T, hclass.domain_size
        hint_schedule.check_fits(T, X)
        rows = hint_schedule.rows[:T]
        # _future_counts[t] = instance counts of rows[t:T], the hints of
        # rounds t+1..T; the extra last row is all zeros
        codes = np.repeat(np.arange(T), rows.shape[1]) * X + rows.reshape(-1)
        per_round = np.bincount(codes, minlength=(T + 1) * X).reshape(T + 1, X)
        self._future_counts = per_round[::-1].cumsum(axis=0)[::-1]
        # _in_row[t - 1, x]: does round t's hint multiset hold x
        self._in_row = per_round[:T] > 0

    def predict(self, t: int, x_t: int) -> float:
        t, X = check_round(t, self.T), self.hclass.domain_size
        x = whole_number("x_t", x_t)
        # an instance outside the domain is in no hint multiset; the range
        # is checked first so that x_t = -1 cannot wrap around the table
        if not (0 <= x < X and self._in_row[t - 1, x]):
            raise ContractViolation(f"x_t={x_t} not in the round-{t} hint multiset")
        return hint_difference_prediction(
            self.session, self._hints_for_round(t), x, self.stats)

    def _hints_for_round(self, t: int) -> np.ndarray:
        """Independent Rademacher labels on the future hints: the +1 count
        of an instance with c future hints is Binomial(c, 1/2)."""
        c = self._future_counts[t]
        plus = self._stream(t, "epsilons").binomial(c, 0.5)
        cells = np.empty((c.size, 2), dtype=plus.dtype)
        cells[:, 1] = plus
        np.subtract(c, plus, out=cells[:, 0])
        return cells


class Alg1Smoothed(Learner):
    """Smoothed-adversary learner: self-generates K(T-t) fresh uniform
    hints with fresh Rademacher labels every round."""

    def __init__(self, hclass, loss, T, sigma: float, K: int | None = None,
                 c_K: float = 100.0, max_hints_per_round: int | None = None,
                 seed=0, tie=TiePolicy.LOWEST_INDEX):
        super().__init__(hclass, loss, T, seed, tie)
        check_sigma(sigma)
        self.K = hint_count(self.T, sigma, c_K) if K is None else whole_number("K", K)
        if self.K < 1:
            raise InputError("K must be >= 1")
        m = self.K * (self.T - 1)  # round 1 draws the most hints
        if max_hints_per_round is not None and m > max_hints_per_round:
            raise CapacityError(f"round 1 needs {m} hints, above the cap {max_hints_per_round}")

    def predict(self, t: int, x_t: int) -> float:
        t = check_round(t, self.T)
        return hint_difference_prediction(
            self.session, self._hints_for_round(t), x_t, self.stats)

    def _hints_for_round(self, t: int) -> np.ndarray:
        """The round's (|X|, 2) (instance, sign) hint count table."""
        return hint_cells(self.K * (self.T - t), self.hclass.domain_size,
                          self._stream(t, "hints"))


class Alg2PoissonFTPL(Learner):
    """Proper Poissonized FTPL for binary classes: ERM over history plus
    Poi(n) hallucinated uniform samples with random +-1 labels."""

    def __init__(self, hclass, loss, T, n: float, seed=0,
                 tie=TiePolicy.LOWEST_INDEX):
        if not hclass.binary:
            raise InputError("Poissonized FTPL requires a binary class")
        if loss.kind is not LossKind.BINARY_INDICATOR:
            raise InputError("Poissonized FTPL requires the binary indicator loss")
        if n < 0:
            raise InputError("n must be nonnegative")
        super().__init__(hclass, loss, T, seed, tie)
        self.n = float(n)
        self.last_hallucination_count = 0

    def predict(self, t: int, x_t: int) -> float:
        t = check_round(t, self.T)
        cells = hallucination_cells(self.n, self.hclass.domain_size,
                                    self._stream(t, "hallucinate"))
        # Poisson draws are whole and nonnegative, so the table enters unchecked
        S = CountTable._of(self.session, cells, with_history=True)
        self.last_hallucination_count = S._size
        return erm_prediction(self.hclass, S, self.loss, x_t, self.tie, self.stats,
                              self._tie_stream(t))


class FTL(Learner):
    """Follow-the-leader: unperturbed ERM on the history."""

    def __init__(self, hclass, loss, T, seed=0, tie=TiePolicy.LOWEST_INDEX):
        if tie is TiePolicy.PREFER_NEGATIVE and not hclass.binary:
            raise InputError("prefer_negative tie policy requires a binary class")
        super().__init__(hclass, loss, T, seed, tie)

    def predict(self, t: int, x_t: int) -> float:
        t = check_round(t, self.T)
        return erm_prediction(self.hclass, self.session, self.loss, x_t, self.tie,
                              self.stats, self._tie_stream(t))


class HedgeLearner(Learner):
    """Exponential weights over the enumerated class; no oracle calls.

    Predicts with a hypothesis sampled from the current weights and
    exposes the full weight vector for analysis.
    """

    def __init__(self, hclass, loss, T, eta: float | None = None,
                 seed=0, tie=TiePolicy.LOWEST_INDEX):
        super().__init__(hclass, loss, T, seed, tie)
        if eta is None:
            # ln 2 on a one-hypothesis class, whose every rate plays the same
            eta = math.sqrt(8.0 * math.log(max(len(hclass), 2)) / self.T)
        if eta <= 0:
            raise InputError("Hedge learning rate must be positive")
        self.eta = float(eta)

    @property
    def weights(self) -> np.ndarray:
        """Normalized exp(-eta * cumulative loss), shifted by the smallest
        loss so no weight underflows to zero for all; the cumulative
        losses are the session's history objective."""
        losses = self.session.objective(self.hclass, self.loss)
        w = np.exp(-self.eta * (losses - losses.min()))
        return w / w.sum()

    def predict(self, t: int, x_t: int) -> float:
        t = check_round(t, self.T)
        x_t = check_query(x_t, self.hclass.domain_size)
        rng = self._stream(t, "hedge")
        idx = int(rng.choice(len(self.hclass), p=self.weights))
        return float(self.hclass.values[idx, x_t])
