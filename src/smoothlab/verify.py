"""Executable numerical checks of the supporting lemmas.

Covers:

* the coupling procedure that extracts, from m draws of a base
  distribution Q, one sample whose conditional law is exactly a target
  P with bounded likelihood ratio dP/dQ <= 1/sigma, by Monte Carlo over
  row ranges, one thread per usable CPU, whose blocks read the one-shot
  draws from advanced PCG64 copies, so the report is identical at any
  CPU count; each draw's acceptance ratio comes from a bucket table;
* exact total-variation and chi-square computations for the
  product-Poisson hallucination model and its single-shift mixtures;
* regularized Rademacher complexity and its monotonicity in the
  dataset, both by exact enumeration;
* the transductive relaxation of Algs 1 and 3, exact, for many
  histories over the same hints from one enumeration;
* exact admissibility checks of the hint-difference prediction rule on
  tiny enumerable instances (with follow-the-leader as the negative
  control), one relaxation call and one sign-count table per round;
* the eta/beta budget formulas and a Monte Carlo generalization-gap
  estimate.

Each check has one implementation.  An exact check above its
enumeration cap raises `CapacityError` instead of switching to Monte
Carlo (Rademacher's cap is 2^16 +1-count vectors, whatever |Z|), and
exact results carry a rigorous truncation error bound instead of a
statistical tolerance.  A Poisson mean or a budget's n that is not
finite raises `InputError`, as does a count (T, K, an instance) that is
not a whole number in `core.whole_number`'s sense.

`run_suite` holds the named suites behind ``smoothlab verify``.  Neither
``import smoothlab`` nor the CLI's game subcommands import this module,
and scipy is used only by the Poisson TV/chi-square checks, which import
``scipy.special`` on their first call, so importing this module does not
load it.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import numbers
from collections import Counter
from fractions import Fraction
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import HintSchedule
from .core import (
    FiniteDomain,
    HypothesisClass,
    LossSpec,
    SmoothDistribution,
    check_probs,
    check_sigma,
    choice_cdf,
    loss_eval,
    make_partition_class,
    usable_cpus,
    whole_number,
    whole_numbers,
)
from .errors import CapacityError, InputError
from .oracle import CountTable, History, OracleSession, Slot, TiePolicy, erm
from . import learner as learnermod, rng as rngmod

TRUNC_TAIL = 1e-12
EXACT_RADEMACHER_VECTORS = 1 << 16  # +1-count vectors prod(c_z + 1) of one enumeration
ADMISSIBILITY_CAPS = {"domain": 4, "T": 5, "K": 2, "class": 8}
COUPLING_BLOCK = 1 << 16  # draws of each kind alive across coupling_montecarlo's threads
COUPLING_BUCKETS = 1 << 16  # most buckets of coupling_montecarlo's ratio table
_SIGNS = np.array([-1.0, 1.0])  # the labels y_t of an admissibility round


@dataclass
class VerificationReport:
    """Outcome of one lemma check."""

    name: str
    mode: str  # "exact" or "monte_carlo"
    measured: dict
    bound: float | None
    tolerance: float
    trials: int | None
    passed: bool
    details: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte_carlo"):
            raise InputError(f"unknown report mode {self.mode!r}")
        if self.mode == "exact" and self.trials is not None:
            raise InputError("exact reports carry no trial count")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "measured": {k: float(v) for k, v in self.measured.items()},
            "bound": None if self.bound is None else float(self.bound),
            "tolerance": float(self.tolerance),
            "trials": self.trials,
            "passed": bool(self.passed),
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# ---------------------------------------------------------------------------
# Coupling (bounded likelihood ratio -> exact conditional law)
# ---------------------------------------------------------------------------

def _buckets(atoms: int) -> int:
    """G, the bucket count of `_ratio_lookup`'s table: a power of two of
    at least 64 buckets per atom, capped at COUPLING_BUCKETS."""
    return min(1 << (atoms.bit_length() + 6), COUPLING_BUCKETS)


def _ratio_lookup(cdf: np.ndarray, ratio: np.ndarray):
    """`u -> ratio[cdf.searchsorted(u, side="right")]` on arrays of
    uniforms in [0, 1), through a table of G = `_buckets` buckets.

    G is a power of two, so u * G is exact and bucket j = int(u * G) holds
    exactly the u in [j/G, (j+1)/G).  A bucket whose lowest and highest u
    fall on one atom holds that atom's ratio; one that an atom boundary
    crosses holds NaN (atoms inside it may have other ratios), and only
    the u in such buckets (at most one per CDF entry) take the exact
    searchsorted.  Above COUPLING_BUCKETS / 64 atoms more of them do."""
    G = _buckets(cdf.size)
    edges = np.arange(G + 1) / G
    lo = cdf.searchsorted(edges[:-1], side="right")
    hi = cdf.searchsorted(np.nextafter(edges[1:], 0.0), side="right")
    table = np.where(lo == hi, ratio[lo], np.nan)

    def lookup(u: np.ndarray) -> np.ndarray:
        r = table.take(np.multiply(u, G, out=np.empty(u.shape, np.intp),
                                   casting="unsafe"))
        exact = np.flatnonzero(np.isnan(r))
        r.ravel()[exact] = ratio[cdf.searchsorted(u.ravel()[exact], side="right")]
        return r
    return lookup


def _coupling_rows(cdf: np.ndarray, lookup, streams, m: int, rows: int,
                   n: int) -> tuple[int, np.ndarray]:
    """(successes, per-atom counts of the picks) of n coupling rows, drawn
    `rows` rows at a time from `streams` (choice uniforms, acceptance
    uniforms, keys).  Only numpy runs here, so worker threads can call it."""
    successes, counts = 0, np.zeros(cdf.size, dtype=np.int64)
    for start in range(0, n, rows):
        shape = (min(rows, n - start), m)
        u = streams[0].random(shape)
        r = lookup(u)
        rejected = streams[1].random(shape) >= r
        keys = streams[2].random(shape)
        # r is freed after keys is drawn: freed before, its pages can go
        # back to the OS (malloc trims the heap top) and keys would fault
        # them in again
        del r
        # uniform pick among accepted entries per row: the argmax of the
        # keys, each rejected key moved from [0, 1) down to [-1, 0) and
        # each accepted one left as drawn (x - 0.0 == x)
        np.subtract(keys, rejected, out=keys)
        pick = keys.argmax(axis=1)
        pick += np.arange(0, keys.size, m)  # flat index of each row's pick
        pick = pick[keys.ravel()[pick] >= 0.0]  # rows with an accepted draw
        successes += pick.size
        counts += np.bincount(cdf.searchsorted(u.ravel()[pick], side="right"),
                              minlength=cdf.size)
    return successes, counts


def coupling_montecarlo(P, Q, sigma: float, m: int, trials: int, rng,
                        tv_tol: float = 0.02) -> VerificationReport:
    """Estimate Pr[E^c] and the conditional law of X_I given E.

    Passes when the empirical failure rate sits inside the 4-sigma
    binomial band around (1-sigma)^m and the TV distance between the
    empirical conditional law of X_I and P is at most `tv_tol`.

    The draws are those of N = trials * m `choice(p=Q)` uniforms, then N
    acceptance uniforms, then N keys, from `rng` as (trials, m) arrays.
    Each is one double, one 64-bit output, so with a PCG64-family `rng`
    any range of rows starting at row lo reads its draws from copies of
    the bit generator advanced by k * N + lo * m for k = 0, 1, 2
    (`PCG64.advance`, with streams stable under NEP 19), and `rng` ends
    advanced by 3N with its pending 32-bit half kept.  The rows are split
    into W contiguous ranges, one per thread, with W the CPUs the process
    may use (`usable_cpus`) capped by the number of COUPLING_BLOCK-draw
    blocks; a call of one block runs inline.  Each thread draws blocks of
    COUPLING_BLOCK / W draws of each kind, so memory stays a few MB, and
    returns integer sums, so the report is the same bit for bit at any W.
    Other bit generators draw all rows at once from `rng`.  A uniform's
    atom is `choice`'s, the number of CDF entries <= u; its acceptance
    ratio comes from a bucket table built once per call (`_ratio_lookup`,
    exact), and only each successful row's pick has its atom looked up.
    """
    if not isinstance(rng, np.random.Generator):
        raise InputError(f"rng must be a numpy.random.Generator, got {rng!r}")
    m, trials = whole_number("m", m), whole_number("trials", trials)
    if not (m >= 1 and trials >= 1):
        raise InputError(f"m and trials must be >= 1, got {m}, {trials}")
    if not (isinstance(tv_tol, numbers.Real) and 0.0 <= tv_tol < math.inf):
        raise InputError(f"tv_tol must be finite and >= 0, got {tv_tol!r}")
    P, Q = check_probs(P), check_probs(Q)
    if P.size != Q.size:
        raise InputError("P and Q must have the same length")
    check_sigma(sigma)
    if np.any((P > 0) & (sigma * P > Q + 1e-12)):
        raise InputError("likelihood ratio dP/dQ exceeds 1/sigma on the support")
    cdf = choice_cdf(Q)
    lookup = _ratio_lookup(cdf, np.divide(sigma * P, Q, out=np.zeros_like(P),
                                          where=Q > 0))
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        successes, counts = _coupling_rows(cdf, lookup, [rng] * 3, m, trials, trials)
    else:
        def advanced(k: int):  # a copy of bits moved on by k doubles
            clone = copy.deepcopy(bits)
            return clone.advance(k)

        def streams(lo: int) -> list:  # the three kinds of draw from row lo on
            return [np.random.Generator(advanced(k * trials * m + lo * m))
                    for k in range(3)]
        blocks = -(-trials // max(1, COUPLING_BLOCK // m))
        workers = min(usable_cpus(), blocks)
        rows = max(1, COUPLING_BLOCK // (workers * m))
        if workers == 1:
            successes, counts = _coupling_rows(cdf, lookup, streams(0), m, rows, trials)
        else:
            # imported here: `import smoothlab.verify` starts no pool
            from concurrent.futures import ThreadPoolExecutor
            edges = [trials * w // workers for w in range(workers + 1)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = [pool.submit(_coupling_rows, cdf, lookup, streams(lo), m,
                                     rows, hi - lo)
                         for lo, hi in zip(edges, edges[1:])]
                parts = [part.result() for part in parts]
            successes = sum(s for s, _ in parts)
            counts = sum(c for _, c in parts)
        state = bits.state  # its 32-bit buffer stays as it was
        state["state"] = advanced(3 * trials * m).state["state"]
        bits.state = state
    fail_rate = 1.0 - successes / trials
    fail_exact = (1.0 - sigma) ** m
    band = 4.0 * math.sqrt(max(fail_exact * (1 - fail_exact), 1e-300) / trials)
    emp = counts / max(successes, 1)
    tv = 0.5 * np.abs(emp - P).sum()

    passed = (abs(fail_rate - fail_exact) <= band) and (tv <= tv_tol)
    return VerificationReport(
        name="coupling_montecarlo",
        mode="monte_carlo",
        measured={
            "fail_rate": fail_rate,
            "fail_exact": fail_exact,
            "fail_band": band,
            "conditional_tv": tv,
        },
        bound=tv_tol,
        tolerance=tv_tol,
        trials=trials,
        passed=bool(passed),
        details=f"m={m}, sigma={sigma}",
    )


# ---------------------------------------------------------------------------
# Regularized Rademacher complexity and monotonicity
# ---------------------------------------------------------------------------

def _instances(hclass: HypothesisClass, Z) -> np.ndarray:
    """Z as domain indices; InputError unless each is one."""
    Z = whole_numbers(Z, "Z").reshape(-1)
    if np.any((Z < 0) | (Z >= hclass.domain_size)):
        raise InputError(f"Z leaves the domain of size {hclass.domain_size}")
    return Z


def _rademacher_args(hclass: HypothesisClass, Z, phi) -> tuple[np.ndarray, np.ndarray]:
    """Z as domain indices and phi as one finite real per hypothesis."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (len(hclass),) or not np.all(np.isfinite(phi)):
        raise InputError("phi must assign one finite real to each hypothesis")
    return _instances(hclass, Z), phi


def _sign_counts(Z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The +1-count vectors of the Rademacher signs on Z.

    A sum sum_i eps_i f(z_i) depends on the signs only through each
    distinct instance's count k_z of +1 signs, so the 2^|Z| assignments
    collapse to the count vectors k in prod_z [0..c_z].  Returns the
    distinct instances in order of first appearance, their multiplicities
    c, the count vectors as rows (the last instance's count fastest) and
    the number prod_z C(c_z, k_z) of assignments behind each, from one
    binomial row per instance; distinct Z is the case c_z = 1, where the
    rows are the assignments; `CapacityError` above EXACT_RADEMACHER_VECTORS.
    """
    tally = Counter(Z.tolist())  # in first-seen order
    zs = np.array(list(tally), dtype=int)
    counts = np.array(list(tally.values()), dtype=int)
    dims = tuple(c + 1 for c in tally.values())
    if math.prod(dims) > EXACT_RADEMACHER_VECTORS:
        raise CapacityError(f"|Z|={len(Z)} has {math.prod(dims)} sign count vectors")
    ks = np.indices(dims).reshape(len(dims), -1 if dims else 1).T
    # every weight is at most 2^|Z|, so int64 holds them below |Z| = 63
    weights = np.ones(len(ks), dtype=np.int64 if len(Z) < 63 else object)
    for j, c in enumerate(tally.values()):
        weights *= np.array([math.comb(c, k) for k in range(c + 1)], weights.dtype)[ks[:, j]]
    return zs, counts, ks, weights


def _rademacher_exact(vals, phi, Z):
    """E_eps[sup_h{sum_i eps_i h(z_i) + phi(h)}] over all 2^|Z| sign
    assignments, exactly: a Fraction for phi of shape (H,), and an object
    array of J, one per row, for phi of shape (J, H).

    The enumeration runs over the count vectors of `_sign_counts`: each
    adds its weight times the supremum at the per-instance sign sums
    2k_z - c_z.  Every finite float is an integer times a power of two,
    so the value table and phi are scaled to one common power of two and
    the enumeration runs on integers (int64 when the bound on every
    partial sum allows, Python ints otherwise); nothing is rounded, and a
    Fraction normalises, so no row's value depends on the other rows.
    """
    zs, counts, ks, weights = _sign_counts(Z)
    m, H = len(Z), phi.shape[-1]
    ratios = [v.as_integer_ratio()
              for v in vals.T[zs].ravel().tolist() + phi.ravel().tolist()]
    scale = max(den for _, den in ratios)  # every den is a power of two
    nums = [num * (scale // den) for num, den in ratios]
    # int64 where it provably holds every partial sum, else Python ints
    bound = max(map(abs, nums)) * (m + 1) << m
    ints = np.array(nums, dtype=np.int64 if bound < 1 << 63 else object)
    sums = (2 * ks - counts) @ ints[:len(zs) * H].reshape(-1, H)
    sups = (sums + ints[len(zs) * H:].reshape(-1, 1, H)).max(axis=2)  # (J, vectors)
    out = [Fraction(int(total), scale << m) for total in (sups @ weights).tolist()]
    return out[0] if phi.ndim == 1 else np.array(out, dtype=object)


def rademacher_estimate(hclass: HypothesisClass, Z, phi) -> float:
    """E_eps[ sup_h { sum_i eps_i h(z_i) + phi(h) } ], exactly: the 2^|Z|
    sign assignments are enumerated through their per-instance +1 counts
    (at most EXACT_RADEMACHER_VECTORS of them) and the exact value is
    rounded once."""
    Z, phi = _rademacher_args(hclass, Z, phi)
    return float(_rademacher_exact(hclass.values, phi, Z))


def monotonicity_check(hclass: HypothesisClass, Z, phi, x: int) -> VerificationReport:
    """Exact check that the regularized complexity grows when x is appended
    to Z: both values come from the exact enumeration that the estimate and
    the relaxations run, so the zero-tolerance comparison has no rounding."""
    Zx, phi = _rademacher_args(hclass, np.append(Z, whole_number("x", x)), phi)
    # the larger set first: it carries the capacity check
    after = _rademacher_exact(hclass.values, phi, Zx)
    before = _rademacher_exact(hclass.values, phi, Zx[:-1])
    return VerificationReport(
        name="rademacher_monotonicity",
        mode="exact",
        measured={"before": float(before), "after": float(after)},
        bound=None,
        tolerance=0.0,
        trials=None,
        passed=bool(before <= after),
        details=f"|Z|={Zx.size - 1}, x={x}",
    )


# ---------------------------------------------------------------------------
# The transductive relaxation
# ---------------------------------------------------------------------------

def transductive_relaxation(hclass: HypothesisClass, history: Slot,
                            loss: LossSpec, hints) -> float:
    """Rel = 2G E_eps sup_h {sum_z eps_z h(z) - L(h, history)/(2G)} over the
    future hints Z, exactly, with G = loss.lipschitz_G; any history slot."""
    return _relaxations(hclass, loss, [history], hints)[0]


def _relaxations(hclass: HypothesisClass, loss: LossSpec, slots, hints) -> list[float]:
    """`transductive_relaxation` of each history slot over the same hints,
    from one enumeration of their sign counts."""
    G = loss.lipschitz_G
    phi = np.array([-slot.objective(hclass, loss) / (2.0 * G) for slot in slots])
    return [2.0 * G * float(v) for v in
            _rademacher_exact(hclass.values, phi, _instances(hclass, hints))]


# ---------------------------------------------------------------------------
# Admissibility on tiny enumerable instances
# ---------------------------------------------------------------------------

def smooth_polytope_vertices(domain_size: int, sigma: float) -> list[np.ndarray]:
    """Extreme points of {D : D(x) <= 1/(sigma*|X|) for all x}.

    For integral sigma*|X| = k these are the uniform distributions over
    k-subsets; otherwise each vertex puts the cap on floor(sigma*|X|)
    atoms and the remainder on one more.
    """
    domain_size = FiniteDomain(domain_size).size
    if domain_size > 12:
        raise CapacityError("vertex enumeration capped at |X| <= 12")
    check_sigma(sigma)
    cap = 1.0 / (sigma * domain_size)
    k = sigma * domain_size
    out = []
    if abs(k - round(k)) < 1e-9:
        k = int(round(k))
        for subset in itertools.combinations(range(domain_size), k):
            v = np.zeros(domain_size)
            v[list(subset)] = cap
            out.append(v)
        return out
    m = int(math.floor(k))
    rem = 1.0 - m * cap
    for subset in itertools.combinations(range(domain_size), m):
        for b in range(domain_size):
            if b in subset:
                continue
            v = np.zeros(domain_size)
            v[list(subset)] = cap
            v[b] = rem
            out.append(v)
    return out


def admissibility_check(learner_kind: str, hclass: HypothesisClass,
                        loss: LossSpec, hint_schedule,
                        tie: TiePolicy = TiePolicy.PREFER_NEGATIVE,
                        tol: float = 1e-12) -> VerificationReport:
    """Exact per-round admissibility of a learner against the
    hint-based (transductive) relaxation.

    Enumerates every history (instances from the hint rows, labels in
    {-1,+1}), the full Rademacher assignment of the learner's internal
    randomness, and the point masses of the hint support, and reports
    the minimum slack

        Rel(s_{1:t-1}) - max_{x in Z_t} max_{y in {-1,+1}}
            { E_{yhat ~ Q_t} l(yhat, y) + Rel(s_{1:t-1} + (x,y)) }

    together with the final-round identity Rel(s_{1:T}) = -inf_h L.

    Both read a prefix only through its history objective, whose terms
    are integers or half-integers here, so each distinct history (its
    (|X|, 2) count table) is visited once per round, with one session,
    and named by its first prefix in (xs, ys) order.  A round builds its
    hints' sign-count law and its query row once, and computes Rel of
    every history it reaches with one `_relaxations` call.
    """
    T = hint_schedule.T
    if (hclass.domain_size > ADMISSIBILITY_CAPS["domain"]
            or T > ADMISSIBILITY_CAPS["T"] or hint_schedule.K > ADMISSIBILITY_CAPS["K"]
            or len(hclass) > ADMISSIBILITY_CAPS["class"]):
        raise CapacityError("instance exceeds the exact-enumeration caps")
    if not hclass.binary:
        raise CapacityError("exact admissibility check requires a binary class")
    if learner_kind not in ("alg3", "ftl"):
        raise InputError(f"unsupported learner kind {learner_kind!r}")
    if tie is TiePolicy.SEEDED_RANDOM:
        raise InputError("the exact check needs a deterministic tie policy")
    rows = hint_schedule.rows

    # count-table bytes -> (table, Rel, first prefix (xs, ys)) of each
    # history before round t
    empty = np.zeros((hclass.domain_size, 2), dtype=int)
    base = OracleSession(hclass, loss)
    histories = {empty.tobytes():
                 (empty, _relaxations(hclass, loss, [base], rows.reshape(-1))[0], ((), ()))}
    min_slack, worst = math.inf, ""
    for t in range(1, T + 1):
        future = rows[t:T].reshape(-1)  # the hints of rounds t+1..T
        law = _hint_law(future, hclass.domain_size)
        queries = list(np.unique(rows[t - 1]))
        reached: dict = {}  # grown-table bytes -> (table, first prefix)
        moves = []  # (Rel before, prefix, [(E loss, grown key)]) per history
        for table, rel_prev, (xs, ys) in histories.values():
            session = OracleSession(hclass, loss, CountTable._of(base, table))
            steps = []
            for x_t in queries:
                yhats, probs = _learner_action_distribution(
                    learner_kind, session, law, int(x_t), tie)
                losses = loss_eval(loss, np.array(yhats)[:, None], _SIGNS).T.tolist()
                for y_t, column in zip((-1.0, 1.0), losses):
                    grown = table.copy()
                    grown[x_t, int(y_t > 0)] += 1
                    prefix = (xs + (x_t,), ys + (y_t,))
                    key = grown.tobytes()
                    reached[key] = (grown, min(reached.get(key, (grown, prefix))[1], prefix))
                    steps.append((sum(p * l for p, l in zip(probs, column)), key))
            moves.append((rel_prev, (xs, ys), steps))
        rels = dict(zip(reached, _relaxations(
            hclass, loss, [CountTable._of(base, grown) for grown, _ in reached.values()],
            future)))
        best = min((rel_prev - max(exp_loss + rels[key] for exp_loss, key in steps), prefix)
                   for rel_prev, prefix, steps in moves)
        if best[0] < min_slack:
            min_slack, (xs, ys) = best
            worst = f"t={t}, xs={xs}, ys={ys}"
        histories = {key: (grown, rels[key], first)
                     for key, (grown, first) in reached.items()}

    # condition 2 over the full sequences' histories
    cond2_gap = float(max(
        abs(rel_T + CountTable._of(base, table).objective(hclass, loss).min())
        for table, rel_T, _ in histories.values()))
    passed = (min_slack >= -tol) and (abs(cond2_gap) <= tol)
    return VerificationReport(
        name=f"admissibility_{learner_kind}",
        mode="exact",
        measured={"min_slack": min_slack, "condition2_gap": cond2_gap},
        bound=0.0,
        tolerance=tol,
        trials=None,
        passed=bool(passed),
        details=worst,
    )


def _hint_law(future_hints, domain_size: int) -> tuple[np.ndarray, list[float]]:
    """The (instance, sign) count table of the hints under each +1-count
    vector of their Rademacher signs, and the vector's share of the 2^m
    assignments."""
    zs, counts, ks, weights = _sign_counts(future_hints)
    cells = np.zeros((len(ks), domain_size, 2), dtype=int)
    cells[:, zs, 0] = counts - ks
    cells[:, zs, 1] = ks
    assignments = 1 << len(future_hints)
    return cells, [weight / assignments for weight in weights.tolist()]


def _learner_action_distribution(kind, session, law, x_t, tie):
    """Exact law of yhat_t after the session's history, as its values and
    their probabilities; `law` is `_hint_law` of the round's future hints."""
    if kind == "ftl":
        return [learnermod.erm_prediction(session.hclass, session, session.loss, x_t,
                                          tie, None, None)], [1.0]
    # one prediction of the production rule per +1-count vector of the
    # hints' Rademacher signs, with the hints counted into the table it takes
    cells, probs = law
    return [learnermod.hint_difference_prediction(session, table, x_t, None)
            for table in cells], probs


# ---------------------------------------------------------------------------
# Poisson TV / chi-square machinery
# ---------------------------------------------------------------------------

class ExactValue(NamedTuple):
    """An exactly computed quantity with a rigorous truncation bound."""

    value: float
    error_bound: float


def _poisson_support(lam: float, tail: float = TRUNC_TAIL) -> tuple[np.ndarray, np.ndarray]:
    """Values 0..M covering all but `tail` of Poi(lam), with their pmf.

    The arithmetic is `scipy.stats.poisson`'s, bit for bit: M is two past
    its ppf at 1 - tail/4 (the least k with pdtr(k, lam) >= q, found from
    ceil(pdtrik(q, lam))) and the pmf is exp(k ln lam - ln k! - lam).
    """
    if lam == 0:
        return np.array([0]), np.array([1.0])
    # imported here: only the Poisson checks use scipy
    from scipy.special import gammaln, pdtr, pdtrik, xlogy
    q = 1.0 - tail / 4.0
    ppf = math.ceil(pdtrik(q, lam))
    if ppf > 0 and pdtr(ppf - 1.0, lam) >= q:
        ppf -= 1
    ks = np.arange(ppf + 3)
    return ks, np.exp(xlogy(ks, lam) - gammaln(ks + 1) - lam)


def _positive(name: str, v: float) -> float:
    """v; InputError unless it is finite and > 0 (NaN and +-inf fail)."""
    if not 0.0 < v < math.inf:
        raise InputError(f"{name} must be positive and finite, got {v!r}")
    return v


def _probs_on(D: SmoothDistribution, domain_size: int) -> np.ndarray:
    """D's probabilities; InputError unless D has one per domain point."""
    if len(D.probs) != domain_size:
        raise InputError("distribution size disagrees with the domain")
    return D.array


def tv_exact_poisson(n: float, domain_size: int, D: SmoothDistribution) -> ExactValue:
    """Exact TV between the product-Poisson hallucination law P and the
    mixture E_{x* ~ D}[Q_{x*}] that shifts coordinate (x*, y(x*)) by one.

    Coordinates are i.i.d. Poi(n/2|X|), so no labeling y changes the TV;
    only the |X| coordinates matched by y enter the likelihood ratio, so

        TV = (1/2) E_P | sum_x D(x) * (2|X| n_{y(x)}(x) / n) - 1 |.

    Atoms of equal weight enter only through their sum, so the positive
    atoms are grouped by weight: a group of m atoms of weight w is one
    Poi(m n/2|X|) coordinate with coefficient 2|X| w/n.  Uniform D is a
    single Poi(n/2) and all-distinct weights are one atom per group.  The
    groups are enumerated with per-group tails below 1e-12, and the
    returned error bound covers the truncated mass of both P and Q.
    """
    if domain_size > 4:
        raise CapacityError("exact Poisson TV capped at |X| <= 4")
    weights = _probs_on(D, domain_size)
    if not math.isfinite(n):
        raise InputError(f"n must be finite, got {n!r}")
    if n <= 0:
        # Poi(0) is the point mass at zero; its unit shift is disjoint.
        return ExactValue(1.0, 0.0)

    w, m = np.unique(weights[weights > 0], return_counts=True)
    coeffs = w * (2.0 * domain_size) / n
    supports = [_poisson_support(n * k / (2.0 * domain_size)) for k in m.tolist()]

    mass = np.array([pmf.sum() for _, pmf in supports])
    covered_P = float(np.prod(mass))
    # Under Q_{x*} the group of x* needs one more unit of support.
    shifted = np.array([pmf[:-1].sum() for _, pmf in supports])
    covered_Q = covered_P * float((w * m) @ (shifted / mass))
    err = 0.5 * ((1.0 - covered_P) + (1.0 - covered_Q))

    # accumulate the partial sums over all but the last group
    sums = np.zeros(1)
    probs = np.ones(1)
    for c, (ks, pmf) in zip(coeffs[:-1], supports[:-1]):
        sums = (sums[:, None] + c * ks[None, :]).reshape(-1)
        probs = (probs[:, None] * pmf[None, :]).reshape(-1)
    total = 0.0
    c_last, (ks, pmf) = coeffs[-1], supports[-1]
    for k, p in zip(ks, pmf):
        total += p * float(probs @ np.abs(sums + c_last * k - 1.0))
    return ExactValue(0.5 * total, float(err))


def chi2_mixture(n: float, domain_size: int, D: SmoothDistribution) -> float:
    """Closed-form chi-square divergence chi^2(E_{x*~D}[Q_{x*}], P)
    = (2|X|/n) * sum_x D(x)^2 for the product-Poisson model."""
    n = _positive("n", n)
    p = _probs_on(D, domain_size)
    return float((2.0 * domain_size / n) * (p @ p))


def chi2_mixture_direct(n: float, domain_size: int, D: SmoothDistribution) -> float:
    """The same divergence via truncated numerical evaluation of the
    mixture identity E_{x1,x2 ~ D}[E_P(Q_{x1} Q_{x2} / P^2)] - 1."""
    n = _positive("n", n)
    p = _probs_on(D, domain_size)
    lam = n / (2.0 * domain_size)
    c = 2.0 * domain_size / n
    ks, pmf = _poisson_support(lam, tail=1e-14)
    first = float(pmf @ (c * ks))           # E[c N]
    second = float(pmf @ (c * ks) ** 2)     # E[(c N)^2]
    collision = float(p @ p)
    return collision * second + (1.0 - collision) * first ** 2 - 1.0


def shifted_poisson_tv(lam: float) -> float:
    """Exact TV between Poi(lam) and its unit right-shift."""
    if not 0.0 <= lam < math.inf:
        raise InputError(f"lambda must be nonnegative and finite, got {lam!r}")
    if lam == 0:
        return 1.0
    # TV(P, shift(P)) = sum_k max(P(k) - P(k-1), 0); the pmf ratio
    # P(k)/P(k-1) = lam/k crosses 1 at k = lam, so the positive part
    # telescopes to P(floor(lam)) and the truncated sum is exact up to
    # the enumeration tail.
    ks, pmf = _poisson_support(lam, tail=1e-14)
    shifted = np.concatenate([[0.0], pmf[:-1]])
    return float(np.clip(pmf - shifted, 0.0, None).sum())


# ---------------------------------------------------------------------------
# Budget formulas
# ---------------------------------------------------------------------------

def eta_budget(n: float, sigma: float, d: int, T: int, c: float = 1.0) -> float:
    """Per-round stability budget
    1/sqrt(n*sigma) + c*sqrt(d ln T/(n*sigma)) + n*sigma/(4T^2 ln T) + e^{-n/8}."""
    n, T = _positive("n", n), whole_number("T", T)
    if T < 2:
        raise InputError("T must be >= 2")
    check_sigma(sigma)
    ns = n * sigma
    lnT = math.log(T)
    return (1.0 / math.sqrt(ns) + c * math.sqrt(d * lnT / ns)
            + ns / (4.0 * T * T * lnT) + math.exp(-n / 8.0))


def beta_budget(T: int, K: int, sigma: float) -> float:
    """Coupling failure budget 10*T*K*(1-sigma)^K."""
    T, K = whole_number("T", T), whole_number("K", K)
    if T < 1 or K < 1:
        raise InputError("T and K must be >= 1")
    check_sigma(sigma)
    return 10.0 * T * K * (1.0 - sigma) ** K


# ---------------------------------------------------------------------------
# Generalization gap (Monte Carlo)
# ---------------------------------------------------------------------------

def generalization_gap_mc(hclass: HypothesisClass, D: SmoothDistribution,
                          label_table, history: History, n: float,
                          trials: int, rng, T: int = 2, c: float = 1.0,
                          tie: TiePolicy = TiePolicy.LOWEST_INDEX) -> VerificationReport:
    """Monte Carlo estimate of the modified generalization error
    E[L(h', s') - L(h', s)] with h' the ERM trained on
    history + hallucination + {s}, against the stated budget."""
    if not hclass.binary:
        raise InputError("generalization check requires a binary class")
    try:
        count, horizon = whole_number("trials", trials), whole_number("T", T)
    except InputError:
        count = horizon = 0
    if not (0.0 < n < math.inf and count >= 1 and horizon >= 1):
        raise InputError("need a finite n > 0, an integer trials >= 1 and an integer "
                         f"T >= 1, got {n!r}, {trials!r}, {T!r}")
    trials, T = count, horizon
    label_table = np.asarray(label_table, dtype=float)
    if label_table.shape != (hclass.domain_size,) or not np.all(np.abs(label_table) == 1.0):
        raise InputError("label_table must hold -1 or +1 for each of the |X| instances")
    # one double per draw, as the scalar `rng.choice(|X|, p=D)` spends it
    cdf = choice_cdf(_probs_on(D, hclass.domain_size))
    loss = LossSpec.of("binary_indicator")
    session = OracleSession(hclass, loss, history)
    gaps = np.zeros(trials)
    for i in range(trials):
        cells = learnermod.hallucination_cells(n, hclass.domain_size, rng)
        x_t = int(cdf.searchsorted(rng.random(), side="right"))
        x_p = int(cdf.searchsorted(rng.random(), side="right"))
        y_t, y_p = float(label_table[x_t]), float(label_table[x_p])
        cells[x_t, int(y_t > 0)] += 1  # the sample s joins the hallucinations
        idx, _ = erm(hclass, CountTable._of(session, cells, with_history=True), loss,
                     tie=tie, rng=rng)
        h = hclass.values[idx]
        # centered loss L(h,(x,y)) = -y h(x)/2
        gaps[i] = (-y_p * h[x_p] / 2.0) - (-y_t * h[x_t] / 2.0)
    mean = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    lnT = math.log(max(T, 2))
    budget = (c * math.sqrt(hclass.declared_dim * lnT / (n * D.sigma))
              + n * D.sigma / (4.0 * T * T * lnT) + math.exp(-n / 8.0))
    passed = mean <= budget + 3.0 * stderr
    return VerificationReport(
        name="generalization_gap",
        mode="monte_carlo",
        measured={"gap": mean, "stderr": stderr},
        bound=budget,
        tolerance=3.0 * stderr,
        trials=trials,
        passed=bool(passed),
        details=f"n={n}, sigma={D.sigma}, d={hclass.declared_dim}",
    )


# ---------------------------------------------------------------------------
# The CLI suite (`smoothlab verify --suite NAME`)
# ---------------------------------------------------------------------------

def run_suite(suite: str) -> list[VerificationReport]:
    """The reports of one named suite: `all`, `coupling`, `tv`, `chi2`,
    `monotonicity`, `shifted`, `admissibility` or `budgets`.  `all` runs
    every check in that order, from one stream drawn in that order."""
    reports: list[VerificationReport] = []
    rng = rngmod.stream(20260823, purpose="verify")

    if suite in ("all", "coupling"):
        size = 10
        base = np.full(size, 1.0 / size)
        sigma = 0.3
        cap = 1.0 / (sigma * size)
        P = np.full(size, (1.0 - cap) / (size - 1))
        P[0] = cap
        reports.append(coupling_montecarlo(P, base, sigma, m=20,
                                           trials=100_000, rng=rng))

    if suite in ("all", "tv"):
        for size in (2, 3):
            for n in (4, 16, 64):
                D = SmoothDistribution.uniform(size)
                tv = tv_exact_poisson(n, size, D)
                bound = 1.0 / math.sqrt(n * D.sigma)
                reports.append(VerificationReport(
                    name="tv_poisson_mixture", mode="exact",
                    measured={"tv": tv.value, "trunc_error": tv.error_bound},
                    bound=bound, tolerance=1e-9, trials=None,
                    passed=bool(tv.value <= bound + tv.error_bound + 1e-9),
                    details=f"|X|={size}, n={n}, D=uniform"))

    if suite in ("all", "chi2"):
        for size in (2, 3):
            for n in (4, 16):
                D = SmoothDistribution.uniform(size)
                closed = chi2_mixture(n, size, D)
                direct = chi2_mixture_direct(n, size, D)
                tv = tv_exact_poisson(n, size, D)
                ok = (abs(closed - direct) <= 1e-9
                      and tv.value <= math.sqrt(closed / 2.0) + tv.error_bound)
                reports.append(VerificationReport(
                    name="chi2_mixture_identity", mode="exact",
                    measured={"closed": closed, "direct": direct, "tv": tv.value},
                    bound=math.sqrt(closed / 2.0), tolerance=1e-9, trials=None,
                    passed=bool(ok), details=f"|X|={size}, n={n}"))

    if suite in ("all", "monotonicity"):
        hclass = make_partition_class(FiniteDomain(8), 2)
        worst = None
        ok = True
        for i in range(50):
            Z = rng.integers(0, 8, size=int(rng.integers(0, 6)))
            phi = rng.integers(-512, 513, size=len(hclass)) / 1024.0
            x = int(rng.integers(0, 8))
            rep = monotonicity_check(hclass, Z, phi, x)
            ok = ok and rep.passed
            if not rep.passed:
                worst = rep.details
        reports.append(VerificationReport(
            name="rademacher_monotonicity_batch", mode="exact",
            measured={"instances": 50.0}, bound=None, tolerance=0.0,
            trials=None, passed=bool(ok), details=worst or "50 random instances"))

    if suite in ("all", "shifted"):
        ok = True
        worst = 0.0
        for lam in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            tv = shifted_poisson_tv(lam)
            bound = math.sqrt(1.0 / (2.0 * lam))
            ok = ok and tv <= bound + 1e-12
            worst = max(worst, tv - bound)
        reports.append(VerificationReport(
            name="shifted_poisson_tv", mode="exact",
            measured={"max_excess": worst}, bound=0.0, tolerance=1e-12,
            trials=None, passed=bool(ok), details="lambda in powers of 2 up to 256"))

    if suite in ("all", "admissibility"):
        hclass = make_partition_class(FiniteDomain(2), 1)
        loss = LossSpec.of("absolute")
        schedule = HintSchedule(np.zeros((2, 1), dtype=int))
        alg3 = admissibility_check("alg3", hclass, loss, schedule)
        reports.append(alg3)
        ftl = admissibility_check("ftl", hclass, loss, schedule)
        reports.append(VerificationReport(
            name="admissibility_ftl_negative_control", mode="exact",
            measured=ftl.measured, bound=0.0, tolerance=ftl.tolerance,
            trials=None, passed=bool(not ftl.passed),
            details="follow-the-leader must violate the per-round condition"))

    if suite in ("all", "budgets"):
        eta = eta_budget(16, 1.0, 1, 3, 1.0)
        beta = beta_budget(10, 5, 0.5)
        ok = abs(eta - 1.05191) <= 1e-4 and abs(beta - 15.625) <= 1e-9
        reports.append(VerificationReport(
            name="budget_fixtures", mode="exact",
            measured={"eta": eta, "beta": beta}, bound=None, tolerance=1e-4,
            trials=None, passed=bool(ok),
            details="eta(16,1,1,3,1) and beta(10,5,0.5) hand fixtures"))

    if not reports:
        raise InputError(f"unknown verification suite {suite!r}")
    return reports
