"""Learners: budgets, perturbation count laws, prediction rules, baselines."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import core, oracle
from smoothlab import learner as learnermod
from smoothlab import rng as rngmod
from smoothlab.adversary import HintSchedule, cyclic_hint_schedule, full_domain_schedule
from smoothlab.core import (
    ExampleMultiset,
    FiniteDomain,
    HypothesisClass,
    LossSpec,
    loss_eval,
    make_partition_class,
    make_shatter_class,
)
from smoothlab.errors import CapacityError, ContractViolation, InputError
from smoothlab.learner import (
    Alg1Smoothed,
    Alg2PoissonFTPL,
    Alg3Transductive,
    FTL,
    HedgeLearner,
    default_n,
    hallucination_cells,
    hint_cells,
    hint_count,
    hint_difference_prediction,
)
from smoothlab.oracle import CountTable, OracleSession, TiePolicy, mixed_opt


class TestBudgets:
    def test_hint_count_fixtures(self):
        assert hint_count(8, 1.0, 100.0) == 208
        assert hint_count(2, 0.5, 100.0) == 139
        assert hint_count(1, 0.5, 100.0) == 1  # floor at 1 when ln T = 0

    def test_hint_count_scales_inverse_sigma(self):
        # up to ceiling slack: K(sigma/10) >= 10 * (K(sigma) - 1)
        assert hint_count(100, 0.01) >= 10 * (hint_count(100, 0.1) - 1)

    def test_default_n_fixtures(self):
        assert default_n(100, 0.25, 1024, 4) == pytest.approx(200.0)
        assert default_n(64, 1 / 64, 256, 1) == pytest.approx(512.0)

    def test_default_n_takes_min(self):
        # T/sqrt(sigma) = 100, T*sqrt(|X|/d) = 10*sqrt(2) < 100
        assert default_n(10, 0.01, 2, 1) == pytest.approx(10 * math.sqrt(2))

    @pytest.mark.parametrize("c_K", [0.0, -5.0, math.inf, math.nan])
    def test_hint_count_needs_a_positive_finite_c_K(self, c_K):
        """c_K <= 0 used to give K = 1 without a word."""
        with pytest.raises(InputError, match="c_K must be a positive real"):
            hint_count(4, 1.0, c_K)

    def test_input_validation(self):
        with pytest.raises(InputError):
            hint_count(0, 0.5)
        with pytest.raises(InputError):
            hint_count(4, 0.0)
        with pytest.raises(InputError):
            default_n(4, 0.5, 4, 5)


def _poisson_chi2(draws: np.ndarray, mean: float) -> tuple[float, float]:
    """Chi-square statistic of integer draws against the Poi(mean) PMF,
    and its 0.999 critical value (bins with expected count >= 5)."""
    lo = max(0, int(mean - 4 * math.sqrt(mean)))
    hi = int(mean + 4 * math.sqrt(mean))
    edges = list(range(lo, hi + 1))
    obs = np.array(
        [(draws < edges[0]).sum()]
        + [(draws == k).sum() for k in edges]
        + [(draws > edges[-1]).sum()], dtype=float)
    pmf = scipy.stats.poisson.pmf(edges, mean)
    exp = np.concatenate((
        [scipy.stats.poisson.cdf(edges[0] - 1, mean)],
        pmf,
        [scipy.stats.poisson.sf(edges[-1], mean)])) * draws.size
    keep = exp >= 5
    chi2 = ((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum()
    return chi2, scipy.stats.chi2.ppf(0.999, df=keep.sum() - 1)


def _binomial_chi2(draws: np.ndarray, n: int, p: float) -> tuple[float, float]:
    """Chi-square statistic of draws against Binomial(n, p), tail bins
    merged until each expected count is >= 5, and its 0.999 critical value."""
    obs = np.bincount(draws, minlength=n + 1).astype(float)
    exp = scipy.stats.binom.pmf(np.arange(n + 1), n, p) * draws.size
    obs_b, exp_b = [0.0], [0.0]
    for o, e in zip(obs, exp):
        if exp_b[-1] >= 5:
            obs_b.append(0.0)
            exp_b.append(0.0)
        obs_b[-1] += o
        exp_b[-1] += e
    if exp_b[-1] < 5 and len(exp_b) > 1:
        obs_b[-2] += obs_b.pop()
        exp_b[-2] += exp_b.pop()
    obs_b, exp_b = np.array(obs_b), np.array(exp_b)
    chi2 = ((obs_b - exp_b) ** 2 / exp_b).sum()
    return chi2, scipy.stats.chi2.ppf(0.999, df=obs_b.size - 1)


def _per_sample_cells(m: int, domain_size: int, rng) -> np.ndarray:
    """Reference for the count draws: m uniform instances with
    independent Rademacher signs, drawn one sample at a time and counted
    into the (|X|, 2) table the learners use."""
    xs = rng.integers(0, domain_size, size=m)
    plus = rng.integers(0, 2, size=m)
    return np.bincount(xs * 2 + plus, minlength=2 * domain_size).reshape(domain_size, 2)


class TestPoissonSampler:
    """Alg 2's hallucination law: i.i.d. Poisson(n/(2|X|)) cells, whose
    total is Poi(n)."""

    @pytest.mark.parametrize("mean", [4.0, 50.0])
    def test_goodness_of_fit(self, mean, rng):
        """Chi-square GOF of each cell and of the total against the exact PMF."""
        size = 4
        cells = np.array([hallucination_cells(2 * size * mean, size, rng)
                          for _ in range(5000)])
        chi2, crit = _poisson_chi2(cells.reshape(-1), mean)
        assert chi2 < crit
        totals = np.array([hallucination_cells(mean, size, rng).sum()
                           for _ in range(20000)])
        chi2, crit = _poisson_chi2(totals, mean)
        assert chi2 < crit

    def test_mean_zero(self, rng):
        assert not hallucination_cells(0.0, 4, rng).any()

    def test_negative_rejected(self, rng):
        with pytest.raises(InputError):
            hallucination_cells(-1.0, 4, rng)

    def test_mean_and_variance_large(self, rng):
        draws = np.array([hallucination_cells(200.0, 8, rng).sum()
                          for _ in range(20000)])
        assert abs(draws.mean() - 200.0) < 4 * math.sqrt(200.0 / draws.size) * math.sqrt(200)
        assert abs(draws.var() / 200.0 - 1.0) < 0.05


def _hints(learner, t):
    """Round t's hint count table as a `CountTable` view."""
    return CountTable(learner.session, learner._hints_for_round(t))


class TestHintCountLaws:
    def test_alg1_total_is_exactly_k_future_rounds(self, partition8):
        learner = Alg1Smoothed(partition8, LossSpec.of("absolute"),
                               T=40, sigma=0.5, K=7, seed=3)
        for t in (40, 1, 17, 39):
            assert _hints(learner, t).logical_size == 7 * (40 - t)

    def test_alg1_cell_matches_per_sample_reference(self, rng):
        """Two-sample chi-square on the (x=0, +1) cell: Multinomial(m,
        uniform over 2|X| cells) against m per-sample draws."""
        m, size, draws = 40, 4, 20000
        counts = np.array([hint_cells(m, size, rng)[0, 1] for _ in range(draws)])
        reference = np.array([_per_sample_cells(m, size, rng)[0, 1]
                              for _ in range(draws)])
        assert counts.sum() > 0
        top = m + 1
        table = np.array([np.bincount(counts, minlength=top),
                          np.bincount(reference, minlength=top)], dtype=float)
        table = table[:, table.sum(axis=0) >= 10]
        chi2, _, df, _ = scipy.stats.chi2_contingency(table)
        assert chi2 < scipy.stats.chi2.ppf(0.999, df=df)

    def test_alg3_totals_are_future_bincount(self, partition8, rng):
        T, K = 12, 5
        rows = rng.integers(0, 8, size=(T, K))
        learner = Alg3Transductive(partition8, LossSpec.of("absolute"), T,
                                   HintSchedule(rows), seed=2)
        for t in (T, 3, 1, 7):  # out of order: a pure function of t
            totals = np.zeros(8, dtype=int)
            for (x, _), c in _hints(learner, t).items():
                totals[x] += c
            np.testing.assert_array_equal(
                totals, np.bincount(rows[t:T].reshape(-1), minlength=8))

    def test_alg3_signs_are_binomial(self, partition8):
        """The +1 count of an instance with c future hints is Binomial(c, 1/2)."""
        future = [0] * 9 + [1] * 4 + [2]
        sched = HintSchedule([future, future])
        plus = {0: [], 1: [], 2: []}
        for seed in range(4000):
            learner = Alg3Transductive(partition8, LossSpec.of("absolute"), 2,
                                       sched, seed=seed)
            hints = dict(_hints(learner, 1).items())
            for x in plus:
                plus[x].append(hints.get((x, 1.0), 0))
        for x, c in ((0, 9), (1, 4), (2, 1)):
            chi2, crit = _binomial_chi2(np.array(plus[x]), c, 0.5)
            assert chi2 < crit


def _reference_hint_prediction(hclass, history, cells, x_t, loss):
    """Reference for the hint rule: lo and hi each built by the pair
    constructor over the round's doubled hint counts plus (x_t, -1) or
    (x_t, +1).  Returns (yhat, lo, hi)."""
    doubled = [(x, (-1.0, 1.0)[sign], 2 * int(c))
               for (x, sign), c in np.ndenumerate(cells) if c]
    lo = ExampleMultiset(doubled + [(x_t, -1.0)])
    hi = ExampleMultiset(doubled + [(x_t, 1.0)])
    real = OracleSession(hclass, loss, history)
    hint_loss = LossSpec.of("centered_binary")
    _, v_minus = mixed_opt(hclass, real, OracleSession(hclass, hint_loss, lo), loss)
    _, v_plus = mixed_opt(hclass, real, OracleSession(hclass, hint_loss, hi), loss)
    return float(min(1.0, max(-1.0, v_minus - v_plus))), lo, hi


@st.composite
def hint_rule_instances(draw):
    """A binary or real-valued class, absolute or squared loss, a history
    with +-1 or real labels, a hint count table (rows may be zero) and a
    query point."""
    binary = draw(st.booleans())
    size = draw(st.integers(1, 5))
    n_h = draw(st.integers(1, 6))
    value = st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1, 1)
    vals = draw(st.lists(st.lists(value, min_size=size, max_size=size),
                         min_size=n_h, max_size=n_h))
    hclass = HypothesisClass(vals, declared_dim=0, binary=binary)
    loss = LossSpec.of(draw(st.sampled_from(["absolute", "squared"])))
    history = ExampleMultiset(draw(st.lists(
        st.tuples(st.integers(0, size - 1),
                  st.sampled_from([-1.0, 1.0]) | st.floats(-1, 1),
                  st.integers(1, 3)), max_size=6)))
    cells = np.array(draw(st.lists(
        st.lists(st.integers(0, 4), min_size=2, max_size=2),
        min_size=size, max_size=size)), dtype=int).reshape(size, 2)
    x_t = draw(st.integers(0, size - 1))
    if draw(st.booleans()):
        cells[x_t] = 0  # a query point with no hints
    return hclass, loss, history, cells, x_t


class TestHintDifferenceRule:
    """`hint_difference_prediction` on a session and a count table
    against the multiset-based reference construction: the same float
    for a +-1 class under +-1 labels, where every term is an integer or
    a half-integer, and the same up to rounding otherwise."""

    @given(hint_rule_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, instance):
        hclass, loss, history, cells, x_t = instance
        seen = []

        def recording(hc, S_real, S_bin, loss_, **kwargs):
            seen.append(S_bin)
            return mixed_opt(hc, S_real, S_bin, loss_, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learnermod, "mixed_opt", recording)
            yhat = hint_difference_prediction(
                OracleSession(hclass, loss, history), cells, x_t, None)
        ref, lo, hi = _reference_hint_prediction(hclass, history, cells,
                                                 x_t, loss)
        if hclass.binary and all(abs(y) == 1.0 for (_, y), _ in history.items()):
            assert yhat == ref
        else:
            assert abs(yhat - ref) <= 1e-12
        assert len(seen) == 2
        for got, want in zip(seen, (lo, hi)):
            assert dict(got.items()) == dict(want.items())
            assert got.logical_size == want.logical_size
            assert got.cells.dtype.kind == "i"

    def test_checks_the_table_once(self, partition8, monkeypatch):
        """The two tables the oracle sees derive from the checked one."""
        calls = []

        def counting(*args):
            calls.append(args)
            return core.count_table(*args)

        monkeypatch.setattr(learnermod, "count_table", counting)
        monkeypatch.setattr(oracle, "count_table", counting)
        hint_difference_prediction(OracleSession(partition8, LossSpec.of("absolute")),
                                   np.ones((8, 2), dtype=int), 3, None)
        assert len(calls) == 1

    def test_leaves_the_table_unchanged(self, partition8):
        cells = np.arange(16).reshape(8, 2)
        hint_difference_prediction(
            OracleSession(partition8, LossSpec.of("absolute")), cells, 3, None)
        np.testing.assert_array_equal(cells, np.arange(16).reshape(8, 2))

    @pytest.mark.parametrize("x_t", [-1, 8, 100])
    def test_rejects_query_outside_domain(self, partition8, x_t):
        with pytest.raises(InputError, match="outside the domain"):
            hint_difference_prediction(
                OracleSession(partition8, LossSpec.of("absolute")),
                np.zeros((8, 2), dtype=int), x_t, None)

    @pytest.mark.parametrize("x_t", [0.9, 2.5, "3", True, [3]])
    def test_rejects_non_integral_query(self, partition8, x_t):
        """x_t = 0.9 used to be truncated to instance 0 and predicted for."""
        with pytest.raises(InputError, match="x_t"):
            hint_difference_prediction(
                OracleSession(partition8, LossSpec.of("absolute")),
                np.zeros((8, 2), dtype=int), x_t, None)

    def test_accepts_a_whole_float_query(self, partition8):
        session = OracleSession(partition8, LossSpec.of("absolute"))
        cells = np.ones((8, 2), dtype=int)
        assert (hint_difference_prediction(session, cells, 3.0, None)
                == hint_difference_prediction(session, cells, np.int64(3), None))

    @pytest.mark.parametrize("shape", [(8, 3), (7, 2), (9, 2), (16,), (8, 2, 1)])
    def test_rejects_wrong_shape_table(self, partition8, shape):
        with pytest.raises(InputError, match="count table"):
            hint_difference_prediction(
                OracleSession(partition8, LossSpec.of("absolute")),
                np.zeros(shape, dtype=int), 0, None)


class TestAlg3:
    def test_checks_the_round_once_a_prediction(self, partition8, monkeypatch):
        calls = []
        check = learnermod.check_round
        monkeypatch.setattr(learnermod, "check_round",
                            lambda t, T: calls.append(t) or check(t, T))
        learner = Alg3Transductive(partition8, LossSpec.of("absolute"), 2,
                                   full_domain_schedule(2, 8))
        learner.predict(1, 3)
        assert calls == [1]

    def test_requires_a_schedule(self, partition8):
        """Without a schedule it used to raise a raw AttributeError."""
        with pytest.raises(InputError, match="requires a hint schedule"):
            Alg3Transductive(partition8, LossSpec.of("absolute"), 4, None)

    def test_singleton_class_predicts_h(self):
        hclass = HypothesisClass([[1.0, -1.0]], declared_dim=0, binary=True)
        sched = full_domain_schedule(2, 2)
        learner = Alg3Transductive(hclass, LossSpec.of("absolute"), 2, sched)
        # With a single hypothesis, OPT(.; B+(x,-1)) - OPT(.; B+(x,+1))
        # = h(x)/2 - (-h(x)/2) = h(x).
        assert learner.predict(1, 0) == 1.0
        assert learner.predict(1, 1) == -1.0

    def test_last_round_no_hints(self, const_class):
        """At t = T the hint multiset is empty: yhat is the plain label-flip
        difference of ERM values."""
        sched = full_domain_schedule(1, 2)
        learner = Alg3Transductive(const_class, LossSpec.of("absolute"), 1, sched)
        # empty history, class {+1, -1}: both optima are -1/2, so yhat = 0
        assert learner.predict(1, 0) == 0.0

    def test_rejects_off_hint_instance(self, const_class):
        sched = HintSchedule([[0]])
        learner = Alg3Transductive(const_class, LossSpec.of("absolute"), 1, sched)
        with pytest.raises(ContractViolation):
            learner.predict(1, 1)

    def test_rejects_instance_missing_from_row(self, partition8):
        sched = cyclic_hint_schedule(4, [np.arange(4), np.arange(4, 8)])
        learner = Alg3Transductive(partition8, LossSpec.of("absolute"), 4, sched)
        with pytest.raises(ContractViolation, match="round-1 hint multiset"):
            learner.predict(1, 5)
        learner.predict(2, 5)

    @pytest.mark.parametrize("x_t", [-1, 8])
    def test_rejects_instance_outside_domain(self, partition8, x_t):
        """Round 2's row holds |X| - 1 = 7, which x_t = -1 must not read."""
        sched = cyclic_hint_schedule(4, [np.arange(4), np.arange(4, 8)])
        learner = Alg3Transductive(partition8, LossSpec.of("absolute"), 4, sched)
        with pytest.raises(ContractViolation, match="round-2 hint multiset"):
            learner.predict(2, x_t)
        learner.predict(2, 7)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 3).flatmap(lambda K: st.lists(
        st.lists(st.integers(0, 7), min_size=K, max_size=K), min_size=1, max_size=4)))
    def test_membership_and_signs_match_the_schedule(self, rows):
        """predict accepts x exactly when x is in round t's row, and each
        round's sign table is (c - plus, plus) for the Binomial(c, 1/2)
        plus counts of the future hint counts c."""
        T = len(rows)
        learner = Alg3Transductive(make_partition_class(FiniteDomain(8), 2),
                                   LossSpec.of("absolute"), T, HintSchedule(rows),
                                   seed=3)
        for t in range(1, T + 1):
            for x in range(8):
                if x in rows[t - 1]:
                    learner.predict(t, x)
                else:
                    with pytest.raises(ContractViolation):
                        learner.predict(t, x)
            c = np.bincount(np.ravel(rows[t:]).astype(int), minlength=8)
            plus = rngmod.stream(3, t, "epsilons").binomial(c, 0.5)
            got, want = learner._hints_for_round(t), np.stack((c - plus, plus), axis=1)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    def test_rejects_short_schedule(self, const_class):
        sched = HintSchedule([[0]])
        with pytest.raises(InputError):
            Alg3Transductive(const_class, LossSpec.of("absolute"), 2, sched)

    def test_rejects_schedule_outside_domain(self, const_class):
        for row in ([2], [-1]):
            with pytest.raises(InputError):
                Alg3Transductive(const_class, LossSpec.of("absolute"), 1,
                                 HintSchedule([row]))

    def test_two_calls_per_round(self, partition8):
        sched = full_domain_schedule(4, 8)
        learner = Alg3Transductive(partition8, LossSpec.of("binary_indicator"), 4, sched)
        for t in range(1, 5):
            y = learner.predict(t, 0)
            learner.update(t, 0, 1.0)
        assert learner.stats.call_count == 8

    def test_prediction_in_range_fuzz(self, partition8, rng):
        sched = cyclic_hint_schedule(6, [np.arange(4), np.arange(4, 8)])
        learner = Alg3Transductive(partition8, LossSpec.of("binary_indicator"),
                                   6, sched, seed=5)
        for t in range(1, 7):
            x = int(rng.choice(sched.row(t)))
            yhat = learner.predict(t, x)
            assert -1.0 <= yhat <= 1.0
            learner.update(t, x, float(rng.choice([-1.0, 1.0])))

    def test_deterministic_replay(self, partition8):
        sched = full_domain_schedule(5, 8)
        preds = []
        for _ in range(2):
            learner = Alg3Transductive(partition8, LossSpec.of("binary_indicator"),
                                       5, sched, seed=11)
            run = []
            for t in range(1, 6):
                run.append(learner.predict(t, t % 8))
                learner.update(t, t % 8, 1.0)
            preds.append(run)
        assert preds[0] == preds[1]


class TestAlg1:
    def test_hint_volume_and_calls(self, partition8):
        learner = Alg1Smoothed(partition8, LossSpec.of("binary_indicator"),
                               T=4, sigma=1.0, K=3, seed=2)
        assert _hints(learner, 1).logical_size == 3 * (4 - 1)
        assert _hints(learner, 4).logical_size == 0
        learner.predict(1, 0)
        assert learner.stats.call_count == 2

    def test_default_K(self, partition8):
        learner = Alg1Smoothed(partition8, LossSpec.of("binary_indicator"),
                               T=8, sigma=1.0)
        assert learner.K == hint_count(8, 1.0)

    def test_capacity_cap(self, partition8):
        learner = Alg1Smoothed(partition8, LossSpec.of("binary_indicator"),
                               T=10, sigma=0.01, max_hints_per_round=100)
        with pytest.raises(CapacityError):
            learner.predict(1, 0)

    def test_fresh_hints_each_round(self, partition8):
        learner = Alg1Smoothed(partition8, LossSpec.of("binary_indicator"),
                               T=3, sigma=1.0, K=50, seed=9)
        def hints(t):
            return dict(_hints(learner, t).items())
        h1, h1_again, h2 = hints(1), hints(1), hints(2)
        assert h1 == h1_again  # same round -> same stream
        assert h1 != h2       # different round -> fresh stream

    def test_prediction_in_range(self, partition8, rng):
        learner = Alg1Smoothed(partition8, LossSpec.of("binary_indicator"),
                               T=6, sigma=0.5, K=4, seed=3)
        for t in range(1, 7):
            x = int(rng.integers(8))
            assert -1.0 <= learner.predict(t, x) <= 1.0
            learner.update(t, x, float(rng.choice([-1.0, 1.0])))


class TestAlg2:
    @pytest.mark.parametrize("n", [-1.0, -1e-9])
    def test_rejects_a_negative_rate(self, partition8, n):
        with pytest.raises(InputError, match="n must be nonnegative"):
            Alg2PoissonFTPL(partition8, LossSpec.of("binary_indicator"), 4, n=n)

    def test_requires_binary_class_and_loss(self, real_class, const_class):
        with pytest.raises(InputError):
            Alg2PoissonFTPL(real_class, LossSpec.of("absolute"), 4, n=2.0)
        with pytest.raises(InputError):
            Alg2PoissonFTPL(const_class, LossSpec.of("absolute"), 4, n=2.0)

    def test_proper_predictions(self, partition8, rng):
        learner = Alg2PoissonFTPL(partition8, LossSpec.of("binary_indicator"),
                                  T=10, n=5.0, seed=4)
        for t in range(1, 11):
            x = int(rng.integers(8))
            yhat = learner.predict(t, x)
            assert yhat in (-1.0, 1.0)
            learner.update(t, x, float(rng.choice([-1.0, 1.0])))
        assert learner.stats.call_count == 10

    def test_n_zero_is_ftl(self, partition8, rng):
        a2 = Alg2PoissonFTPL(partition8, LossSpec.of("binary_indicator"),
                             T=6, n=0.0, seed=7)
        ftl = FTL(partition8, LossSpec.of("binary_indicator"), T=6, seed=7)
        for t in range(1, 7):
            x = int(rng.integers(8))
            assert a2.predict(t, x) == ftl.predict(t, x)
            y = float(rng.choice([-1.0, 1.0]))
            a2.update(t, x, y)
            ftl.update(t, x, y)

    def test_input_length_is_history_plus_hallucinations(self, partition8):
        learner = Alg2PoissonFTPL(partition8, LossSpec.of("binary_indicator"),
                                  T=20, n=12.0, seed=1)
        lengths, expected = [], []
        for t in range(1, 21):
            before = learner.stats.total_input_length
            learner.predict(t, t % 8)
            lengths.append(learner.stats.total_input_length - before)
            expected.append((t - 1) + learner.last_hallucination_count)
            learner.update(t, t % 8, 1.0)
        assert lengths == expected

    def test_deterministic_replay(self, partition8):
        runs = []
        for _ in range(2):
            learner = Alg2PoissonFTPL(partition8, LossSpec.of("binary_indicator"),
                                      T=8, n=6.0, seed=13)
            out = []
            for t in range(1, 9):
                out.append(learner.predict(t, t % 8))
                learner.update(t, t % 8, -1.0)
            runs.append(out)
        assert runs[0] == runs[1]


class TestFTL:
    def test_follows_majority(self, const_class):
        learner = FTL(const_class, LossSpec.of("binary_indicator"), T=4)
        learner.update(1, 0, 1.0)
        learner.update(2, 1, 1.0)
        learner.update(3, 0, -1.0)
        assert learner.predict(4, 0) == 1.0

    def test_one_call_per_round(self, const_class):
        learner = FTL(const_class, LossSpec.of("binary_indicator"), T=3)
        for t in range(1, 4):
            learner.predict(t, 0)
        assert learner.stats.call_count == 3

    @pytest.mark.parametrize("kind", ["ftl", "alg2"])
    def test_predicts_with_the_erm_rule(self, partition8, monkeypatch, kind):
        """FTL and Alg 2 share one prediction rule, `erm_prediction`."""
        monkeypatch.setattr(learnermod, "erm_prediction",
                            lambda hclass, slot, loss, x_t, *rest: 0.25 * x_t)
        assert TestQueryCheck._learner(kind, partition8).predict(1, 2) == 0.5


class TestTieStream:
    """The "tie" stream is built only under the policy that reads it."""

    @pytest.mark.parametrize("kind", ["ftl", "alg2"])
    @pytest.mark.parametrize("tie, per_round", [
        (TiePolicy.PREFER_NEGATIVE, 0), (TiePolicy.SEEDED_RANDOM, 1)])
    def test_streams_by_purpose(self, partition8, monkeypatch, kind, tie, per_round):
        purposes = []
        real = rngmod.stream

        def counting(*args):
            purposes.append(args[2])
            return real(*args)

        monkeypatch.setattr(rngmod, "stream", counting)
        loss = LossSpec.of("binary_indicator")
        learner = (FTL(partition8, loss, T=6, seed=3, tie=tie) if kind == "ftl"
                   else Alg2PoissonFTPL(partition8, loss, T=6, n=4.0, seed=3, tie=tie))
        for t in range(1, 7):
            learner.predict(t, t % 8)
            learner.update(t, t % 8, 1.0)
        assert purposes.count("tie") == 6 * per_round
        assert purposes.count("hallucinate") == (6 if kind == "alg2" else 0)


class TestQueryCheck:
    """Every learner's predict runs the query check of the hint rule."""

    KINDS = ["ftl", "alg2", "hedge", "alg1", "alg3"]

    @staticmethod
    def _learner(kind, hclass):
        T, indicator = 4, LossSpec.of("binary_indicator")
        absolute = LossSpec.of("absolute")
        return {
            "ftl": lambda: FTL(hclass, indicator, T),
            "alg2": lambda: Alg2PoissonFTPL(hclass, indicator, T, n=4.0),
            "hedge": lambda: HedgeLearner(hclass, indicator, T),
            "alg1": lambda: Alg1Smoothed(hclass, absolute, T, sigma=1.0, K=2),
            "alg3": lambda: Alg3Transductive(
                hclass, absolute, T, full_domain_schedule(T, hclass.domain_size)),
        }[kind]()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("x_t", [0.9, "3", True])
    def test_rejects_non_whole_query(self, partition8, kind, x_t):
        with pytest.raises(InputError, match="x_t"):
            self._learner(kind, partition8).predict(1, x_t)

    @pytest.mark.parametrize("kind", ["ftl", "alg2", "hedge", "alg1"])
    @pytest.mark.parametrize("x_t", [-1, 8])
    def test_rejects_query_outside_domain(self, partition8, kind, x_t):
        """FTL, Alg 2 and Hedge used to predict for instance 7 at -1 and
        raise a raw IndexError at 8.  Alg 3 reports both as off-hint
        (`TestAlg3.test_rejects_instance_outside_domain`)."""
        with pytest.raises(InputError, match="outside the domain"):
            self._learner(kind, partition8).predict(1, x_t)

    @pytest.mark.parametrize("kind", KINDS)
    def test_accepts_a_whole_query(self, partition8, kind):
        want = self._learner(kind, partition8).predict(1, 3)
        for x_t in (3.0, np.int64(3)):
            assert self._learner(kind, partition8).predict(1, x_t) == want



class TestRoundCheck:
    """Every learner's predict runs the round check: t is an integer in
    1..T.  Alg 3 used to read round T's hint row at t = 0, Alg 1 raised
    numpy's raw ValueError at t = T + 1, and FTL predicted at 1.5 and True."""

    @pytest.mark.parametrize("kind", TestQueryCheck.KINDS)
    @pytest.mark.parametrize("t", [0, 5, 1.5, True, np.True_, -1],
                             ids=["0", "T+1", "1.5", "True", "np.True_", "-1"])
    def test_rejects_a_bad_round(self, partition8, kind, t):
        learner = TestQueryCheck._learner(kind, partition8)  # T = 4
        with pytest.raises(InputError, match="round t="):
            learner.predict(t, 3)
        assert learner.stats.call_count == 0

    @pytest.mark.parametrize("kind", TestQueryCheck.KINDS)
    def test_accepts_an_integer_round(self, partition8, kind):
        for t in (1, 4):
            want = TestQueryCheck._learner(kind, partition8).predict(t, 3)
            for whole in (np.int64(t), float(t)):
                got = TestQueryCheck._learner(kind, partition8).predict(whole, 3)
                assert got == want

    @pytest.mark.parametrize("make", [FTL, HedgeLearner])
    def test_zero_rounds_rejected(self, partition8, make):
        """T = 0 leaves no round to check; FTL and Hedge used to build."""
        with pytest.raises(InputError, match="T must be >= 1"):
            make(partition8, LossSpec.of("binary_indicator"), 0)

    def test_alg3_round_zero_on_a_cyclic_schedule(self, partition8):
        """The case that used to predict 1.0: rows 0..3 and 4..7, T = 4;
        instance 5 is only in the hints of rounds 2 and 4."""
        schedule = cyclic_hint_schedule(4, [range(4), range(4, 8)])
        learner = Alg3Transductive(partition8, LossSpec.of("absolute"), 4, schedule)
        with pytest.raises(InputError, match="round t=0"):
            learner.predict(0, 5)
        assert learner.stats.call_count == 0


class TestHedge:
    def test_weight_fixture(self, const_class):
        """After one round of losses (0, 1) at eta = ln 2, weights are
        (2/3, 1/3)."""
        learner = HedgeLearner(const_class, LossSpec.of("binary_indicator"),
                               T=4, eta=math.log(2.0))
        learner.update(1, 0, 1.0)  # h=+1 loses 0, h=-1 loses 1
        np.testing.assert_allclose(learner.weights, [2 / 3, 1 / 3])

    def test_empirical_regret_bound(self, const_class, rng):
        """Expected-loss regret of Hedge stays below sqrt(T ln|H| / 2)."""
        T = 400
        learner = HedgeLearner(const_class, LossSpec.of("binary_indicator"), T=T)
        loss = LossSpec.of("binary_indicator")
        total, best = 0.0, np.zeros(2)
        for t in range(1, T + 1):
            x = int(rng.integers(2))
            y = float(rng.choice([-1.0, 1.0], p=[0.3, 0.7]))
            total += learner.weights @ loss_eval(
                loss, const_class.values[:, x], y)
            best += [0.0 if y == 1.0 else 1.0, 0.0 if y == -1.0 else 1.0]
            learner.update(t, x, y)
        assert total - best.min() <= math.sqrt(T * math.log(2) / 2) + 1e-9

    def test_rejects_bad_eta(self, const_class):
        with pytest.raises(InputError):
            HedgeLearner(const_class, LossSpec.of("binary_indicator"), T=4, eta=0.0)

    def test_one_hypothesis_class_plays(self):
        """The default rate sqrt(8 ln|H| / T) reads ln 2 at |H| = 1, so a
        one-hypothesis class plays instead of failing its positivity check."""
        single = make_shatter_class(FiniteDomain(8), [])
        assert len(single) == 1
        hedge = HedgeLearner(single, LossSpec.of("binary_indicator"), T=8, seed=1)
        assert hedge.eta == math.sqrt(8.0 * math.log(2) / 8)
        assert hedge.predict(1, 3) == single.values[0, 3]

    def test_weights_are_shifted_exponential_weights(self, partition8):
        """`weights` is exp(-eta (L - min L)), normalized, with L the
        session's history objective; the shift keeps the weights defined
        when every cumulative loss is large."""
        loss = LossSpec.of("binary_indicator")
        hedge = HedgeLearner(partition8, loss, T=4, eta=0.5)
        hedge.update(1, 0, 1.0)
        hedge.update(2, 5, -1.0)
        L = (loss_eval(loss, partition8.values[:, 0], 1.0)
             + loss_eval(loss, partition8.values[:, 5], -1.0))
        np.testing.assert_array_equal(hedge.session.objective(partition8, loss), L)
        w = np.exp(-0.5 * (L - L.min()))
        np.testing.assert_array_equal(hedge.weights, w / w.sum())
        # one of (0, +1) and (0, -1) costs every hypothesis exactly 1, so
        # 5000 copies of each shift every loss by 5000, and exp(-0.5 *
        # 5000) underflows to 0
        hedge.session.add(0, 1.0, 5000)
        hedge.session.add(0, -1.0, 5000)
        np.testing.assert_array_equal(hedge.session.objective(partition8, loss),
                                      L + 5000.0)
        np.testing.assert_array_equal(hedge.weights, w / w.sum())


def test_stream_key_layout(partition8):
    """Every stream is keyed by the four words (seed, 0, round, purpose
    tag); the tracked outputs were all drawn under this layout."""
    learner = Alg2PoissonFTPL(partition8, LossSpec.of("binary_indicator"),
                              T=4, n=4.0, seed=5)
    expected = np.random.default_rng([5, 0, 1, 5]).random(4)
    np.testing.assert_array_equal(rngmod.stream(5, 1, "hallucinate").random(4),
                                  expected)
    np.testing.assert_array_equal(learner._stream(1, "hallucinate").random(4),
                                  expected)
