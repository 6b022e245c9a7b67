"""Lemma checks: coupling, Rademacher, relaxations, Poisson TV/chi2, budgets."""

import itertools
import json
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import learner, verify
from smoothlab import rng as rngmod
from smoothlab.adversary import (HintSchedule, cyclic_hint_schedule,
                                 full_domain_schedule, known_sequence_schedule)
from smoothlab.core import (
    ExampleMultiset,
    FiniteDomain,
    HypothesisClass,
    LossSpec,
    SmoothDistribution,
    choice_cdf,
    make_partition_class,
    make_shatter_class,
)
from smoothlab.errors import CapacityError, InputError
from smoothlab.oracle import CountTable, OracleSession, TiePolicy, erm
from smoothlab.verify import (
    VerificationReport,
    admissibility_check,
    beta_budget,
    chi2_mixture,
    chi2_mixture_direct,
    coupling_montecarlo,
    eta_budget,
    generalization_gap_mc,
    monotonicity_check,
    rademacher_estimate,
    shifted_poisson_tv,
    smooth_polytope_vertices,
    transductive_relaxation,
    tv_exact_poisson,
)


class TestVerificationReport:
    def test_exact_forbids_trials(self):
        with pytest.raises(InputError):
            VerificationReport("x", "exact", {}, None, 0.0, 100, True)

    def test_json_roundtrip(self):
        r = VerificationReport("x", "monte_carlo", {"a": 1.0}, 2.0, 0.1, 10, True)
        doc = json.loads(r.to_json())
        assert doc["name"] == "x" and doc["passed"] is True
        assert doc["measured"]["a"] == 1.0

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            VerificationReport("x", "guess", {}, None, 0.0, None, True)


class TestCoupling:
    def test_ratio_violation_rejected(self, rng):
        P = np.array([0.9, 0.1])
        Q = np.array([0.1, 0.9])
        with pytest.raises(InputError, match="likelihood ratio"):
            coupling_montecarlo(P, Q, 0.5, m=3, trials=10, rng=rng)

    @pytest.mark.parametrize("args", [
        dict(trials=0),
        dict(m=0),
        dict(m=2.5),
        dict(trials=True),
        dict(P=[0.6, 0.6]),
        dict(P=[0.5 + 1e-9, 0.5 - 2e-9]),
        dict(Q=[0.5, 0.6]),
        dict(P=[1.0, 0.0], Q=[1.5, -0.5]),
        dict(Q=[0.25, 0.25, 0.5]),
        dict(P=[[0.5, 0.5]]),
        dict(tv_tol=float("nan")),
        dict(tv_tol=-0.01),
        dict(tv_tol=float("inf")),
        dict(rng=None),
        dict(rng=np.random.RandomState(0)),
    ], ids=["trials-0", "m-0", "m-float", "trials-bool", "P-sum", "P-sum-1e-9",
            "Q-sum", "Q-negative", "length", "P-2d", "tol-nan", "tol-negative",
            "tol-inf", "rng-none", "rng-legacy"])
    def test_bad_arguments_rejected(self, rng, args):
        call = dict(P=[0.5, 0.5], Q=[0.5, 0.5], sigma=0.5, m=3, trials=10, rng=rng)
        call.update(args)
        with pytest.raises(InputError):
            coupling_montecarlo(**call)

    def test_select_accepts_with_sigma_when_P_equals_Q(self, rng):
        """With P = Q each draw is accepted with probability sigma, so
        the selection fails with probability (1 - sigma)^m."""
        P = Q = np.full(4, 0.25)
        report = coupling_montecarlo(P, Q, 0.3, m=5, trials=20000, rng=rng)
        assert abs(report.measured["fail_rate"] - 0.7 ** 5) < 0.01

    def test_montecarlo_passes_smooth_pair(self, rng):
        # P uniform over half the domain, Q uniform: dP/dQ = 2 = 1/sigma
        P = np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0])
        Q = np.full(8, 0.125)
        report = coupling_montecarlo(P, Q, 0.5, m=10, trials=20000, rng=rng)
        assert report.passed
        assert report.measured["fail_exact"] == pytest.approx(0.5 ** 10)

    def test_montecarlo_flags_wrong_target(self, rng):
        """Negative control: selection towards P compared against a
        different reference must fail the conditional-TV gate."""
        P = np.array([0.5, 0.5, 0.0, 0.0])
        Q = np.full(4, 0.25)
        report = coupling_montecarlo(P, Q, 0.5, m=8, trials=5000, rng=rng)
        # rebuild the report against the wrong reference by hand
        wrong_tv = 0.5 * np.abs(np.array([0.25] * 4) - P).sum()
        assert report.passed and wrong_tv > report.tolerance


def _coupling_reference(P, Q, sigma, m, trials, rng, tv_tol=0.02):
    """Reference: the one-shot body of `coupling_montecarlo`, holding all
    three (trials, m) arrays at once."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    xs = rng.choice(P.size, size=(trials, m), p=Q)
    accept = rng.random((trials, m)) < sigma * P[xs] / Q[xs]
    success = accept.any(axis=1)
    keys = np.where(accept, rng.random((trials, m)), -1.0)
    picked = xs[np.arange(trials), np.argmax(keys, axis=1)]
    selected = picked[success]
    fail_rate = 1.0 - success.mean()
    fail_exact = (1.0 - sigma) ** m
    band = 4.0 * math.sqrt(max(fail_exact * (1 - fail_exact), 1e-300) / trials)
    emp = np.bincount(selected, minlength=P.size) / max(selected.size, 1)
    tv = 0.5 * np.abs(emp - P).sum()
    return VerificationReport(
        name="coupling_montecarlo", mode="monte_carlo",
        measured={"fail_rate": fail_rate, "fail_exact": fail_exact,
                  "fail_band": band, "conditional_tv": tv},
        bound=tv_tol, tolerance=tv_tol, trials=trials,
        passed=bool((abs(fail_rate - fail_exact) <= band) and (tv <= tv_tol)),
        details=f"m={m}, sigma={sigma}")


@st.composite
def coupling_pairs(draw):
    """(P, Q, sigma) with dP/dQ <= 1/sigma: Q with zero atoms (leading,
    trailing or inside) outside P's support, and P = Q w / <Q, w>."""
    n = draw(st.integers(1, 48))
    q = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]),
                               min_size=n, max_size=n)))
    q[draw(st.integers(0, n - 1))] += 1.0  # one positive atom at least
    Q = q / q.sum()
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    w[np.argmax(Q)] = 1.0
    P = Q * w / (Q @ w)
    sigma = float((Q @ w) * draw(st.floats(0.05, 1.0)))
    return P, Q, sigma


def _block_rows(m, workers=1):
    """Rows of one block of a worker when `workers` threads share the
    COUPLING_BLOCK draws of each kind."""
    return max(1, verify.COUPLING_BLOCK // (workers * m))


def _normalized(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


# 1,000 atoms; 999 tiny atoms crowding the first or the last bucket of the
# ratio table next to one atom holding nearly all the mass
_ATOMS_1000 = _normalized(np.random.default_rng(1000).random(1000))
_CROWDED_LOW = _normalized([1e-9] * 999 + [1.0])
_CROWDED_HIGH = _normalized([1.0] + [1e-9] * 999)


@st.composite
def cdfs(draw):
    """choice_cdf of weights with zero atoms (leading, interior, trailing),
    hence duplicate entries, and tiny atoms that crowd one bucket."""
    n = draw(st.integers(1, 64))
    w = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, 1e-300, 1e-12, 1e-6, 0.1, 1.0, 1e3]),
        min_size=n, max_size=n)))
    w[draw(st.integers(0, n - 1))] += 1.0
    return choice_cdf(w / w.sum())


def _probes(cdf):
    """Every CDF entry and bucket edge j/G with both float neighbours,
    0.0 and the largest double below 1, kept to [0, 1)."""
    G = verify._buckets(cdf.size)
    u = np.concatenate([cdf, np.arange(G + 1) / G, [0.0, 1.0]])
    u = np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0)])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


def _atom_lookup(cdf):
    """`verify._ratio_lookup` with each atom's index as its ratio, so it
    must return `searchsorted(side="right")` as floats."""
    return verify._ratio_lookup(cdf, np.arange(cdf.size, dtype=float))


class TestGuidedSearch:
    """`verify._ratio_lookup`, the bucket table plus its exact fix-up,
    against `searchsorted(side="right")`."""

    @given(cdfs())
    @settings(max_examples=200, deadline=None)
    def test_equals_searchsorted_right(self, cdf):
        u = _probes(cdf)
        got = _atom_lookup(cdf)(u)
        assert got.tolist() == cdf.searchsorted(u, side="right").tolist()

    @pytest.mark.parametrize("probs", [[1.0], [0.0, 1.0, 0.0], _ATOMS_1000,
                                       _CROWDED_LOW, _CROWDED_HIGH],
                             ids=["one-atom", "zero-atoms", "1000-atoms",
                                  "crowded-low", "crowded-high"])
    def test_fixed_cdfs(self, probs):
        cdf = choice_cdf(np.asarray(probs, dtype=float))
        lookup, u = _atom_lookup(cdf), _probes(cdf)
        assert lookup(u).tolist() == cdf.searchsorted(u, side="right").tolist()
        u = np.random.default_rng(0).random((500, 20))  # a block's shape
        assert (lookup(u) == cdf.searchsorted(u, side="right")).all()

    def test_bucket_of_three_atoms_with_ratios_a_b_a(self):
        """Atoms 0, 1 and 2 share a bucket and its two ends fall on atoms 0
        and 2, whose ratios are equal; atom 1 inside has ratio 0 (P = 0),
        so the bucket must take the exact path, not atom 0's ratio."""
        Q = np.array([0.2971, 0.003, 0.6999])
        P = np.array([0.2971, 0.0, 0.6999]) / 0.997
        sigma = 0.5
        cdf = choice_cdf(Q)
        G = verify._buckets(Q.size)
        assert int(cdf[0] * G) == int(cdf[1] * G)  # both boundaries in one bucket
        ratio = np.divide(sigma * P, Q)
        assert ratio[0] == ratio[2] != ratio[1]
        u = np.array([cdf[0], 0.5 * (cdf[0] + cdf[1])])  # inside atom 1
        assert verify._ratio_lookup(cdf, ratio)(u).tolist() == [ratio[1]] * 2
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        trials = 2 * _block_rows(7) + 3
        got = coupling_montecarlo(P, Q, sigma, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(P, Q, sigma, 7, trials, want_rng)
        assert got_rng.random() == want_rng.random()

    def test_more_atoms_than_buckets(self):
        """Above the cap of COUPLING_BUCKETS buckets most buckets take the
        exact path; the lookup and the report stay exact."""
        n = verify.COUPLING_BUCKETS + 5
        assert verify._buckets(n) == verify.COUPLING_BUCKETS
        Q = _normalized(np.random.default_rng(n).random(n))
        cdf = choice_cdf(Q)
        u = _probes(cdf)
        assert _atom_lookup(cdf)(u).tolist() == cdf.searchsorted(u, side="right").tolist()
        P = Q * np.linspace(0.5, 1.0, n)
        P /= P.sum()
        sigma = float(0.9 * (Q / P).min())
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        trials = _block_rows(7) + 1
        got = coupling_montecarlo(P, Q, sigma, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(P, Q, sigma, 7, trials, want_rng)
        assert got_rng.random() == want_rng.random()


class TestCouplingBlocks:
    """The blocked kernel against the one-shot reference, bit for bit."""

    @given(coupling_pairs(), st.integers(1, 40), st.sampled_from(range(5)),
           st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]))
    @settings(max_examples=60, deadline=None)
    def test_equals_one_shot_reference(self, pair, m, where, seed, buffered,
                                       bit_generator):
        P, Q, sigma = pair
        B = _block_rows(m)
        trials = (1, B - 1, B, B + 1, 2 * B + 3)[where]
        got_rng = np.random.Generator(bit_generator(seed))
        want_rng = np.random.Generator(bit_generator(seed))
        if buffered:  # a pending 32-bit half survives the call
            got_rng.integers(10, dtype=np.uint32)
            want_rng.integers(10, dtype=np.uint32)
        got = coupling_montecarlo(P, Q, sigma, m=m, trials=trials, rng=got_rng)
        want = _coupling_reference(P, Q, sigma, m, trials, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
    def test_generators_without_advance(self, bit_generator):
        P = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        Q = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
        got_rng = np.random.Generator(bit_generator(3))
        want_rng = np.random.Generator(bit_generator(3))
        trials = _block_rows(7) + 1
        got = coupling_montecarlo(P, Q, 0.5, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(P, Q, 0.5, 7, trials, want_rng)
        assert got_rng.random() == want_rng.random()

    def test_precomputed_lane_stream(self):
        """`rng.stream` seeds its PCG64s from precomputed words, as
        `verify --suite all` gets them; the copies must advance those too."""
        P = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        Q = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
        got_rng = rngmod.stream(19_190_019, purpose="verify")
        assert isinstance(got_rng.bit_generator.seed_seq, rngmod._Words)
        got_rng.random(3)  # a state other than the seeded one
        want_rng = np.random.Generator(np.random.PCG64())
        want_rng.bit_generator.state = got_rng.bit_generator.state
        trials = 2 * _block_rows(7) + 3
        got = coupling_montecarlo(P, Q, 0.5, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(P, Q, 0.5, 7, trials, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("Q", [_ATOMS_1000, _CROWDED_LOW, _CROWDED_HIGH],
                             ids=["1000-atoms", "crowded-low", "crowded-high"])
    @pytest.mark.parametrize("trials", [1, _block_rows(7) + 1, 2 * _block_rows(7) + 3],
                             ids=["one-row", "two-blocks", "three-blocks"])
    def test_large_and_crowded_cdfs(self, Q, trials):
        """The ratio table on 1,000 atoms and on CDFs whose entries crowd
        one bucket, across block boundaries."""
        P = Q * np.linspace(0.5, 1.0, Q.size)
        P /= P.sum()
        sigma = float(0.9 * (Q[P > 0] / P[P > 0]).min())
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = coupling_montecarlo(P, Q, sigma, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(P, Q, sigma, 7, trials, want_rng)
        assert got_rng.random() == want_rng.random()

    def test_peak_memory_is_a_few_blocks(self):
        size, sigma = 10, 0.3
        cap = 1.0 / (sigma * size)
        P = np.full(size, (1.0 - cap) / (size - 1))
        P[0] = cap
        Q = np.full(size, 1.0 / size)
        tracemalloc.start()
        try:
            coupling_montecarlo(P, Q, sigma, m=20, trials=100_000,
                                rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


# Q with a leading zero atom; P on two of Q's atoms, where dP/dQ = 2
_P5 = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
_Q5 = np.array([0.0, 0.25, 0.25, 0.25, 0.25])


@pytest.fixture(params=[1, 2, 3], ids=["W1", "W2", "W3"])
def workers(request, monkeypatch):
    """The CPUs `coupling_montecarlo` may use, forced to 1, 2 or 3."""
    monkeypatch.setattr(verify, "usable_cpus", lambda: request.param)
    return request.param


def _split_edges(W):
    """Trials at block edges (one block runs inline, B + 1 is two) and
    around 2W one-worker blocks, where each of W workers takes exactly
    two blocks of _block_rows(7, W) rows."""
    B, BW = _block_rows(7), _block_rows(7, W)
    return [1, B, B + 1, 2 * W * BW - 1, 2 * W * BW, 2 * W * BW + 1, 2 * B + 3]


class TestCouplingThreads:
    """The rows split over W threads against the one-shot reference, bit
    for bit, at W = 1, 2 and 3 whatever the CPUs of the host."""

    @pytest.mark.parametrize("where", range(7))
    @pytest.mark.parametrize("buffered", [False, True], ids=["plain", "buffered"])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_equals_one_shot_reference(self, workers, where, buffered, bit_generator):
        trials = _split_edges(workers)[where]
        got_rng = np.random.Generator(bit_generator(where))
        want_rng = np.random.Generator(bit_generator(where))
        if buffered:  # a pending 32-bit half survives the call
            got_rng.integers(10, dtype=np.uint32)
            want_rng.integers(10, dtype=np.uint32)
        got = coupling_montecarlo(_P5, _Q5, 0.5, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(_P5, _Q5, 0.5, 7, trials, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()

    def test_precomputed_lane_stream(self, workers):
        """The precomputed-words stream of `rng.stream`, advanced per worker."""
        got_rng = rngmod.stream(19_190_023, purpose="verify")
        assert isinstance(got_rng.bit_generator.seed_seq, rngmod._Words)
        got_rng.random(3)
        want_rng = np.random.Generator(np.random.PCG64())
        want_rng.bit_generator.state = got_rng.bit_generator.state
        trials = 2 * _block_rows(7) + 3
        got = coupling_montecarlo(_P5, _Q5, 0.5, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(_P5, _Q5, 0.5, 7, trials, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()

    def test_suite_report_at_any_worker_count(self, workers, monkeypatch):
        """The CLI's coupling report (2 * 10^6 draws) is the same at every W."""
        got = verify.run_suite("coupling")
        monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
        assert got == verify.run_suite("coupling")

    @pytest.mark.parametrize("W", [2, 3])
    def test_threads_end_with_the_call(self, monkeypatch, W):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(verify, "usable_cpus", lambda: W)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: (started.append(self), start(self))[1])
        before = threading.active_count()
        coupling_montecarlo(_P5, _Q5, 0.5, m=7, trials=3 * _block_rows(7),
                            rng=np.random.default_rng(1))
        assert 1 <= len(started) <= W
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in started)

    def test_one_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(verify, "usable_cpus", lambda: 3)

        def no_thread(self):
            raise AssertionError("a one-block call started a thread")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
        trials = _block_rows(7)
        got = coupling_montecarlo(_P5, _Q5, 0.5, m=7, trials=trials, rng=got_rng)
        assert got == _coupling_reference(_P5, _Q5, 0.5, 7, trials, want_rng)


def _rademacher_reference(vals, phi, Z) -> Fraction:
    """Reference: the 2^|Z| enumeration one assignment at a time in
    Fraction arithmetic (floats are exact rationals, so no rounding)."""
    m = len(Z)
    table = [[Fraction(vals[h, z]) for z in Z] for h in range(vals.shape[0])]
    phi_f = [Fraction(p) for p in phi]
    total = Fraction(0)
    for code in range(1 << m):
        signs = [1 if (code >> i) & 1 else -1 for i in range(m)]
        total += max(
            sum((s * row[i] for i, s in enumerate(signs)), start=phi_f[h])
            for h, row in enumerate(table))
    return total / (1 << m)


def _mean_abs_walk(m: int) -> float:
    """E|eps_1 + ... + eps_m| = m C(m-1, floor((m-1)/2)) / 2^(m-1), correctly
    rounded; m C(m, m/2) / 2^m for even m, and E|S_(2n-1)| = E|S_2n|."""
    return m * math.comb(m - 1, (m - 1) // 2) / 2 ** (m - 1)


# dyadic k/1024 values mixed with magnitudes from 1e-300 to 1e300
_PHI_ENTRY = st.one_of(
    st.integers(-4096, 4096).map(lambda k: k / 1024),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-300, 1e300)).map(
        lambda t: t[0] * t[1]),
)


class TestRademacher:
    def test_exact_fixture_two_points(self, const_class):
        """sup_h(eps1 h + eps2 h) = |eps1 + eps2|, so the mean is 1."""
        assert rademacher_estimate(const_class, [0, 1], np.zeros(2)) == 1.0

    def test_exact_fixture_single_point(self, const_class):
        assert rademacher_estimate(const_class, [0], np.zeros(2)) == 1.0

    def test_empty_Z_returns_phi_max(self, const_class):
        assert rademacher_estimate(const_class, [], np.array([-2.0, 3.0])) == 3.0

    def test_phi_shifts_supremum(self, const_class):
        # large phi on h=+1 makes it always optimal: E[eps1 + phi] = phi
        val = rademacher_estimate(const_class, [0], np.array([10.0, -10.0]))
        assert val == 10.0

    def test_capacity_and_validation(self, const_class):
        """The cap counts +1-count vectors, prod_z (c_z + 1) <= 2^16, not
        points: 17 distinct points are 2^17 vectors, 17 copies of one 18."""
        const17 = HypothesisClass([[1.0] * 17, [-1.0] * 17], declared_dim=1, binary=True)
        with pytest.raises(CapacityError):
            rademacher_estimate(const17, list(range(17)), np.zeros(2))
        assert rademacher_estimate(const_class, [0] * 17, np.zeros(2)) == _mean_abs_walk(17)
        with pytest.raises(InputError):
            rademacher_estimate(const_class, [0], np.zeros(3))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_reference(self, data):
        """The one exact enumerator equals the Fraction reference exactly,
        and the exact estimate is its correctly rounded float."""
        binary = data.draw(st.booleans())
        n_h = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(1, 5))
        entry = st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1, 1)
        vals = data.draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                                  min_size=n_h, max_size=n_h))
        hclass = HypothesisClass(vals, declared_dim=0, binary=binary)
        Z = data.draw(st.lists(st.integers(0, size - 1), max_size=8))
        phi = np.array(data.draw(st.lists(_PHI_ENTRY, min_size=n_h, max_size=n_h)))
        ref = _rademacher_reference(hclass.values, phi, Z)
        assert verify._rademacher_exact(hclass.values, phi, np.array(Z, dtype=int)) == ref
        assert rademacher_estimate(hclass, Z, phi) == float(ref)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_repeated_Z_matches_reference(self, data):
        """Z with repeated instances: the count-vector enumeration equals
        the sign-by-sign Fraction reference exactly."""
        binary = data.draw(st.booleans())
        n_h = data.draw(st.integers(1, 5))
        size = data.draw(st.integers(1, 4))
        entry = st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1, 1)
        vals = np.array(data.draw(st.lists(
            st.lists(entry, min_size=size, max_size=size), min_size=n_h, max_size=n_h)))
        reps = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
        counts = data.draw(st.lists(st.integers(2, 4), min_size=len(reps),
                                    max_size=len(reps)))
        Z = [z for z, c in zip(reps, counts) for _ in range(c)][:9]
        Z = data.draw(st.permutations(Z))
        phi = np.array(data.draw(st.lists(_PHI_ENTRY, min_size=n_h, max_size=n_h)))
        got = verify._rademacher_exact(vals, phi, np.array(Z, dtype=int))
        assert got == _rademacher_reference(vals, phi, Z)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_rows_equal_one_row_calls(self, data):
        """phi of shape (J, H) gives, row for row, the value of the one-row
        call exactly, whichever of int64 and Python ints either call
        enumerates on: a row of huge or tiny magnitudes moves the whole
        batch past the int64 bound while a dyadic row alone stays below."""
        binary = data.draw(st.booleans())
        n_h = data.draw(st.integers(1, 5))
        size = data.draw(st.integers(1, 4))
        entry = st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1, 1)
        vals = np.array(data.draw(st.lists(
            st.lists(entry, min_size=size, max_size=size), min_size=n_h, max_size=n_h)))
        Z = np.array(data.draw(st.lists(st.integers(0, size - 1), max_size=8)), dtype=int)
        phi = np.array(data.draw(st.lists(
            st.lists(_PHI_ENTRY, min_size=n_h, max_size=n_h), min_size=1, max_size=6)))
        got = verify._rademacher_exact(vals, phi, Z)
        assert got.shape == (len(phi),)
        assert list(got) == [verify._rademacher_exact(vals, row, Z) for row in phi]

    @pytest.mark.parametrize("phi_scale", [2.0 ** 52, 2.0 ** 55, 2.0 ** 56, 2.0 ** 62],
                             ids=["2^52", "2^55", "2^56", "2^62"])
    def test_exact_across_the_int64_bound(self, phi_scale):
        """Values near the int64 limit, on both sides of the bound that
        chooses int64 or Python ints, stay exact."""
        vals = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]]) * phi_scale
        phi = np.array([phi_scale, -phi_scale])
        Z = [0, 1, 1, 2, 0]
        got = verify._rademacher_exact(vals, phi, np.array(Z))
        assert got == _rademacher_reference(vals, phi, Z)

    def test_count_vectors_and_weights(self):
        """Distinct instances in first-seen order; one row per +1-count
        vector, the last instance fastest, weighted by prod C(c, k)."""
        zs, counts, ks, weights = verify._sign_counts(np.array([3, 1, 3]))
        assert zs.tolist() == [3, 1] and counts.tolist() == [2, 1]
        assert ks.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]]
        assert weights.tolist() == [1, 1, 2, 2, 1, 1]
        zs, counts, ks, weights = verify._sign_counts(np.array([], dtype=int))
        assert ks.shape == (1, 0) and weights.tolist() == [1]

    def test_weights_past_int64(self):
        """From |Z| = 63 a weight can pass 2^63, so the weights are Python
        ints: 40 copies each of two instances give C(40, 20)^2 ~ 2^74."""
        _, _, ks, weights = verify._sign_counts(np.array([0, 1] * 40))
        assert len(ks) == 41 ** 2 and weights.dtype == object
        assert sum(weights) == 2 ** 80 and max(weights) == math.comb(40, 20) ** 2
        _, _, _, weights = verify._sign_counts(np.array([0, 1, 2] * 20 + [3, 3]))
        assert weights.dtype == np.int64 and int(weights.sum()) == 2 ** 62

    def test_cap_counts_vectors(self):
        """2^16 count vectors are enumerated, one more raises."""
        Z = np.repeat(np.arange(4), 15)  # 16^4 = 2^16 vectors
        assert len(verify._sign_counts(Z)[2]) == verify.EXACT_RADEMACHER_VECTORS
        with pytest.raises(CapacityError):
            verify._sign_counts(np.append(Z, 4))

    @pytest.mark.parametrize("Z, phi", [
        ([-1], np.zeros(2)),
        ([2], np.zeros(2)),
        ([0], np.array([np.nan, 0.0])),
        ([0], np.array([np.inf, 0.0])),
        ([0], np.array([0.0, -np.inf])),
    ], ids=["exact-negative-index", "exact-index-past-domain", "exact-nan-phi",
            "exact-inf-phi", "exact-neg-inf-phi"])
    def test_estimate_rejects_bad_input(self, const_class, Z, phi):
        with pytest.raises(InputError):
            rademacher_estimate(const_class, Z, phi)

    @pytest.mark.parametrize("Z, phi, x", [
        ([-1], np.zeros(2), 0),
        ([2], np.zeros(2), 0),
        ([0], np.zeros(2), -1),
        ([0], np.zeros(2), 2),
        ([0], np.array([np.nan, 0.0]), 1),
        ([0], np.array([np.inf, 0.0]), 1),
        ([0], np.array([1e308, -np.inf]), 1),
    ], ids=["negative-index", "index-past-domain", "negative-x", "x-past-domain",
            "nan-phi", "inf-phi", "neg-inf-phi"])
    def test_monotonicity_rejects_bad_input(self, const_class, Z, phi, x):
        with pytest.raises(InputError):
            monotonicity_check(const_class, Z, phi, x)

    def test_callers_reach_the_exact_enumerator(self, const_class, monkeypatch):
        """The exact estimate, the monotonicity check and the admissibility
        check all run `verify._rademacher_exact`: shifting its value by
        -|Z| changes all three outputs."""
        sched = HintSchedule([[0], [0]])
        loss = LossSpec.of("absolute")

        def outputs():
            return (rademacher_estimate(const_class, [0, 1], np.zeros(2)),
                    monotonicity_check(const_class, [0], np.zeros(2), 1).to_dict(),
                    admissibility_check("alg3", const_class, loss, sched).to_dict())

        real = outputs()
        exact = verify._rademacher_exact
        monkeypatch.setattr(verify, "_rademacher_exact",
                            lambda vals, phi, Z: exact(vals, phi, Z) - len(Z))
        fake = outputs()
        assert fake[0] == real[0] - 2
        assert real[1]["passed"] and not fake[1]["passed"]
        assert fake[2]["measured"] != real[2]["measured"]

    def test_monotonicity_random_instances(self, rng):
        for _ in range(50):
            size = int(rng.integers(2, 6))
            n_h = int(rng.integers(1, 9))
            vals = rng.choice([-1.0, 1.0], size=(n_h, size))
            hclass = HypothesisClass(vals, declared_dim=0, binary=True)
            Z = rng.integers(0, size, size=int(rng.integers(0, 7)))
            phi = rng.normal(size=n_h)
            report = monotonicity_check(hclass, Z, phi, int(rng.integers(size)))
            assert report.passed and report.mode == "exact"
            assert report.measured["before"] <= report.measured["after"]


class TestRelaxations:
    def test_transductive_matches_rademacher(self, const_class):
        loss = LossSpec.of("absolute")
        history = OracleSession(const_class, loss, ExampleMultiset([(0, 1.0)]))
        got = transductive_relaxation(const_class, history, loss, [1])
        # history losses: h=+1 -> 0, h=-1 -> |(-1)-1|/2 = 1; phi = -loss/(2G)
        # = (0, -1).  E_eps sup_h{eps h + phi} = (max(1, -2) + max(-1, 0))/2
        expect = 2 * 0.5 * 0.5 * (max(1, -2) + max(-1, 0))
        assert got == pytest.approx(expect)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_relaxations_equal_per_history(self, data):
        """`_relaxations` over J histories equals, row for row and exactly,
        `transductive_relaxation` of each history alone and the Fraction
        reference, on binary and real-valued classes, random histories
        and hints with repeats.  Values k/2^58 put a history that reads
        them past the int64 bound, and the batch with it, while the empty
        history, always in the batch, may stay below it alone."""
        binary = data.draw(st.booleans())
        n_h = data.draw(st.integers(1, 5))
        size = data.draw(st.integers(1, 4))
        entry = st.sampled_from([-1.0, 1.0]) if binary else st.one_of(
            st.floats(-1, 1), st.integers(-8, 8).map(lambda k: k * 2.0 ** -58))
        hclass = HypothesisClass(data.draw(st.lists(
            st.lists(entry, min_size=size, max_size=size), min_size=n_h, max_size=n_h)),
            declared_dim=0, binary=binary)
        kinds = ["absolute", "squared"] + (["binary_indicator"] if binary else [])
        loss = LossSpec.of(data.draw(st.sampled_from(kinds)))
        label = st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1, 1)
        example = st.tuples(st.integers(0, size - 1), label, st.integers(1, 3))
        slots = []
        for examples in data.draw(st.lists(st.lists(example, max_size=5),
                                           min_size=1, max_size=6)) + [[]]:
            session = OracleSession(hclass, loss)
            for x, y, count in examples:
                session.add(x, y, count)
            slots.append(session)
        hints = data.draw(st.lists(st.integers(0, size - 1), max_size=8))
        got = verify._relaxations(hclass, loss, slots, hints)
        G = loss.lipschitz_G
        assert got == [transductive_relaxation(hclass, slot, loss, hints) for slot in slots]
        assert got == [2.0 * G * float(_rademacher_reference(
            hclass.values, -slot.objective(hclass, loss) / (2.0 * G), hints))
            for slot in slots]

    def test_transductive_capacity(self, const_class):
        """Repeated hints are exact up to 2^16 +1-count vectors, whatever
        their number; 17 distinct hints (2^17 vectors) raise like every
        other exact check, with no Monte Carlo fallback."""
        loss = LossSpec.of("absolute")
        empty = OracleSession(const_class, loss, ExampleMultiset())
        # E|eps_1 + ... + eps_16| = 16 C(16, 8) / 2^16, and 2G = 1
        assert transductive_relaxation(const_class, empty, loss,
                                       [0] * 16) == 16 * math.comb(16, 8) / 2 ** 16
        for m in (16, 17, 200):
            assert transductive_relaxation(const_class, empty, loss,
                                           [0] * m) == _mean_abs_walk(m)
        const17 = HypothesisClass([[1.0] * 17, [-1.0] * 17], declared_dim=1, binary=True)
        with pytest.raises(CapacityError):
            transductive_relaxation(const17, OracleSession(const17, loss), loss,
                                    list(range(17)))


class TestSmoothPolytope:
    def test_sigma_one_is_uniform(self):
        vs = smooth_polytope_vertices(4, 1.0)
        assert len(vs) == 1
        np.testing.assert_allclose(vs[0], 0.25)

    def test_integral_case(self):
        vs = smooth_polytope_vertices(4, 0.5)
        assert len(vs) == 6  # C(4, 2) half-uniform supports
        for v in vs:
            assert v.sum() == pytest.approx(1.0)
            assert np.flatnonzero(v).size == 2 and v.max() == 0.5

    def test_fractional_case(self):
        vs = smooth_polytope_vertices(3, 0.5)
        cap = 1.0 / (0.5 * 3)
        for v in vs:
            assert v.sum() == pytest.approx(1.0)
            assert v.max() <= cap + 1e-12

    def test_capacity(self):
        with pytest.raises(CapacityError):
            smooth_polytope_vertices(13, 1.0)

    @pytest.mark.parametrize("size", [0, -2, 2.5, True, "4"])
    def test_size_follows_the_domain_rule(self, size):
        """0 used to raise ZeroDivisionError and 2.5 a raw TypeError."""
        with pytest.raises(InputError, match="domain size"):
            smooth_polytope_vertices(size, 1.0)

    def test_whole_float_size_is_the_int_size(self):
        for a, b in zip(smooth_polytope_vertices(4.0, 0.5), smooth_polytope_vertices(4, 0.5)):
            np.testing.assert_array_equal(a, b)


def _longer_admissibility_instances():
    """(class, schedule) pairs with T in {4, 5}, K <= 2 and |X| <= 4,
    repeated rows included."""
    const2 = HypothesisClass([[1.0, 1.0], [-1.0, -1.0]], declared_dim=1,
                             binary=True)
    classes = {
        2: [const2, make_shatter_class(FiniteDomain(2), [0, 1])],
        3: [make_shatter_class(FiniteDomain(3), [0]),
            make_shatter_class(FiniteDomain(3), [0, 2])],
        4: [make_partition_class(FiniteDomain(4), 2),
            make_shatter_class(FiniteDomain(4), [1, 3])],
    }
    schedules = {
        2: [HintSchedule([[0]] * 5), HintSchedule([[0, 1]] * 4),
            cyclic_hint_schedule(5, [[0], [1]]),
            HintSchedule([[0, 1], [0, 0], [1, 1], [0, 1]])],
        3: [HintSchedule([[0, 2]] * 4), cyclic_hint_schedule(5, [[0], [2], [1]]),
            HintSchedule([[0, 1], [1, 2], [0, 2], [0, 2]])],
        4: [HintSchedule([[0, 1]] * 4), cyclic_hint_schedule(4, [[0, 1], [2, 3]]),
            cyclic_hint_schedule(5, [[1], [3]]), HintSchedule([[0, 3]] * 5)],
    }
    return [(hclass, sched) for size, hclasses in classes.items()
            for hclass in hclasses for sched in schedules[size]]


class TestAdmissibility:
    def test_alg3_passes_tiny_instance(self, const_class):
        sched = HintSchedule([[0], [0]])
        report = admissibility_check("alg3", const_class,
                                     LossSpec.of("absolute"), sched)
        assert report.passed
        assert report.measured["min_slack"] >= -1e-12
        assert abs(report.measured["condition2_gap"]) <= 1e-12

    def test_drives_the_learners_rule(self, const_class, monkeypatch):
        """The check runs the rule the learners run: replacing it by a
        constant changes the learner and the report alike."""
        sched = HintSchedule([[0], [0]])
        loss = LossSpec.of("absolute")
        real = admissibility_check("alg3", const_class, loss, sched)
        calls = []

        def constant(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(learner, "hint_difference_prediction", constant)
        fake = admissibility_check("alg3", const_class, loss, sched)
        assert calls
        assert real.passed and not fake.passed
        assert fake.measured["min_slack"] < real.measured["min_slack"]
        alg3 = learner.Alg3Transductive(const_class, loss, 2, sched)
        assert alg3.predict(1, 0) == 1.0

    def test_relaxation_computed_once_per_history(self, monkeypatch):
        """At T=3, K=2 the check reads Rel at 169 (round, history) points
        but computes it once per distinct (round, multiset): 1 + 4 + 16 +
        40 = 61 rows, condition 2 included, in one batched call a round."""
        hclass = make_shatter_class(FiniteDomain(4), [0, 1, 2])
        sched = cyclic_hint_schedule(3, [np.arange(2), np.arange(2, 4)])
        loss = LossSpec.of("absolute")
        seen, calls = [], []
        real = verify._relaxations

        def counting(hclass, loss, slots, hints):
            # the hints are the K = 2 rows of rounds t+1..T
            calls.append(len(slots))
            seen.extend((3 - len(hints) // 2, tuple(slot.items())) for slot in slots)
            return real(hclass, loss, slots, hints)

        monkeypatch.setattr(verify, "_relaxations", counting)
        report = admissibility_check("alg3", hclass, loss, sched)
        assert report.passed
        assert calls == [1, 4, 16, 40]
        assert len(seen) == len(set(seen)) == 61
        assert sorted(t for t, _ in set(seen)) == [0] + [1] * 4 + [2] * 16 + [3] * 40

    @pytest.mark.parametrize("future", [[0], [1, 0], [0, 0], [2, 0, 2],
                                        [1, 1, 1, 0], [2, 3, 2, 3, 2]],
                             ids=lambda f: "-".join(map(str, f)))
    def test_alg3_action_law_matches_sign_by_sign(self, future, monkeypatch):
        """The count-level law of yhat_t equals the law from one
        prediction per Rademacher sign vector, exactly, with one
        prediction per count vector."""
        hclass = make_shatter_class(FiniteDomain(4), [0, 1, 2])
        loss = LossSpec.of("absolute")
        history = ExampleMultiset([(0, 1.0), (3, -1.0), (3, 1.0)])
        future = np.array(future)
        x_t = 1
        session = OracleSession(hclass, loss, history)
        expect = {}
        for plus in itertools.product((0, 1), repeat=future.size):
            cells = np.bincount(2 * future + np.array(plus, dtype=int),
                                minlength=8).reshape(4, 2)
            yhat = learner.hint_difference_prediction(session, cells, x_t, None)
            expect[yhat] = expect.get(yhat, 0.0) + 0.5 ** future.size

        calls = []
        rule = learner.hint_difference_prediction
        monkeypatch.setattr(learner, "hint_difference_prediction",
                            lambda *a: calls.append(a) or rule(*a))
        preds = verify._learner_action_distribution(
            "alg3", session, verify._hint_law(future, 4), x_t, TiePolicy.PREFER_NEGATIVE)
        got = {}
        for yhat, p in zip(*preds):
            got[yhat] = got.get(yhat, 0.0) + p
        assert got == expect
        _, counts = np.unique(future, return_counts=True)
        assert len(calls) == np.prod(counts + 1)

    @pytest.mark.parametrize("kind", ["alg3", "ftl"])
    @pytest.mark.parametrize("sched, sessions", [
        (cyclic_hint_schedule(3, [np.arange(2), np.arange(2, 4)]), 1 + 4 + 16),
        (HintSchedule([[0, 1]] * 3), 1 + 4 + 10),
    ], ids=["cyclic", "repeated"])
    def test_one_session_per_history(self, monkeypatch, kind, sched, sessions):
        """One session per distinct history before each round: with a
        repeated row, different orders reach one multiset (1 + 4 + 10).
        One more, empty, is the base that the count tables are read
        through."""
        built = []

        class Counting(OracleSession):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(verify, "OracleSession", Counting)
        hclass = make_shatter_class(FiniteDomain(4), [0, 1, 2])
        admissibility_check(kind, hclass, LossSpec.of("absolute"), sched)
        assert len(built) == 1 + sessions

    @pytest.mark.parametrize("hclass, sched", _longer_admissibility_instances())
    def test_alg3_admissible_and_ftl_violates_at_t_4_5(self, hclass, sched):
        """Past criterion 5's T <= 3: alg3 keeps every per-round inequality
        and the terminal identity, and follow-the-leader breaks one."""
        loss = LossSpec.of("absolute")
        alg3 = admissibility_check("alg3", hclass, loss, sched)
        assert alg3.passed
        assert alg3.measured["min_slack"] >= -1e-12
        assert abs(alg3.measured["condition2_gap"]) <= 1e-12
        ftl = admissibility_check("ftl", hclass, loss, sched)
        assert not ftl.passed and ftl.measured["min_slack"] < -0.1

    def test_ftl_negative_control(self, const_class):
        sched = HintSchedule([[0], [0]])
        report = admissibility_check("ftl", const_class,
                                     LossSpec.of("absolute"), sched)
        assert not report.passed
        assert report.measured["min_slack"] < -0.1

    def test_ftl_law_runs_the_learners_erm_rule(self, const_class, monkeypatch):
        """The exact FTL check predicts with `learner.erm_prediction`, the
        rule FTL.predict runs, not a copy of it."""
        calls = []
        rule = learner.erm_prediction

        def counting(hclass, slot, loss, x_t, tie, stats, rng):
            calls.append((x_t, tie))
            return rule(hclass, slot, loss, x_t, tie, stats, rng)
        monkeypatch.setattr(learner, "erm_prediction", counting)
        sched = HintSchedule([[0], [1]])
        admissibility_check("ftl", const_class, LossSpec.of("absolute"), sched)
        # round 1 from the empty history, round 2 from its two histories
        assert calls == [(x, TiePolicy.PREFER_NEGATIVE) for x in (0, 1, 1)]

    def test_caps_enforced(self, partition8):
        sched = full_domain_schedule(2, 8)
        with pytest.raises(CapacityError):
            admissibility_check("alg3", partition8,
                                LossSpec.of("binary_indicator"), sched)

    def test_unknown_kind(self, const_class):
        sched = HintSchedule([[0]])
        with pytest.raises(InputError):
            admissibility_check("hedge", const_class,
                                LossSpec.of("absolute"), sched)

    @pytest.mark.parametrize("kind", ["alg3", "ftl"])
    def test_seeded_random_rejected(self, const_class, kind):
        sched = HintSchedule([[0], [0]])
        with pytest.raises(InputError, match="deterministic tie policy"):
            admissibility_check(kind, const_class, LossSpec.of("absolute"),
                                sched, tie=TiePolicy.SEEDED_RANDOM)


def _tv_reference(n, domain_size, D):
    """The per-atom enumeration: every positive atom is its own
    Poi(n/2|X|) coordinate, with the error bound of both truncations."""
    lam = n / (2.0 * domain_size)
    weights = np.asarray(D.probs, dtype=float)
    coeffs = weights[weights > 0] * (2.0 * domain_size / n)
    ks, pmf = verify._poisson_support(lam)
    covered_P = pmf.sum() ** coeffs.size
    covered_Q = pmf[:-1].sum() * pmf.sum() ** (coeffs.size - 1)
    sums, probs = np.zeros(1), np.ones(1)
    for c in coeffs[:-1]:
        sums = (sums[:, None] + c * ks[None, :]).reshape(-1)
        probs = (probs[:, None] * pmf[None, :]).reshape(-1)
    total = sum(p * float(probs @ np.abs(sums + coeffs[-1] * k - 1.0))
                for k, p in zip(ks, pmf))
    return 0.5 * total, 0.5 * ((1.0 - covered_P) + (1.0 - covered_Q))


def _tv_cases():
    """(|X|, n, D) over uniform, polytope-vertex and Dirichlet D."""
    rng = np.random.default_rng(14)
    for size in (2, 3, 4):
        Ds = [SmoothDistribution.uniform(size)]
        Ds += [SmoothDistribution(v, 0.5) for v in smooth_polytope_vertices(size, 0.5)[:2]]
        for _ in range(2):
            p = rng.dirichlet(np.ones(size) * 2.0)
            Ds.append(SmoothDistribution(p, 1.0 / (size * float(p.max()))))
        for n in (4.0, 16.0, 64.0) + ((256.0,) if size <= 3 else ()):
            for D in Ds:
                yield size, n, D


class TestPoissonTv:
    def test_reduces_to_shifted_poisson_single_atom(self):
        """A point-mass mixing distribution shifts one fixed coordinate,
        so the TV equals the unit-shift TV of Poi(n/2|X|)."""
        D = SmoothDistribution((1.0, 0.0), 0.5)
        got = tv_exact_poisson(16.0, 2, D)
        assert got.value == pytest.approx(shifted_poisson_tv(4.0), abs=1e-10)

    def test_uniform_merges_coordinates(self):
        """Uniform D sums the |X| matched coordinates into one Poi(n/2),
        so the TV equals the unit-shift TV of Poi(n/2)."""
        got = tv_exact_poisson(16.0, 2, SmoothDistribution.uniform(2))
        assert got.value == pytest.approx(shifted_poisson_tv(8.0), abs=1e-10)

    def test_truncation_error_tiny(self):
        got = tv_exact_poisson(64.0, 3, SmoothDistribution.uniform(3))
        assert got.error_bound < 1e-9

    def test_n_zero_is_disjoint(self):
        assert tv_exact_poisson(0.0, 2, SmoothDistribution.uniform(2)).value == 1.0

    def test_bound_one_over_sqrt_n_sigma(self):
        for n in (4.0, 16.0, 64.0):
            for size, sigma in ((2, 1.0), (3, 0.5), (4, 0.25)):
                vs = smooth_polytope_vertices(size, sigma)
                D = SmoothDistribution(vs[0], sigma)
                got = tv_exact_poisson(n, size, D)
                assert got.value <= 1.0 / math.sqrt(n * sigma) + got.error_bound

    def test_capacity(self):
        with pytest.raises(CapacityError):
            tv_exact_poisson(4.0, 5, SmoothDistribution.uniform(5))

    def test_matches_per_atom_enumeration(self):
        """Grouping equal atoms moves the TV by no more than the two
        truncation bounds together."""
        for size, n, D in _tv_cases():
            got = tv_exact_poisson(n, size, D)
            ref, ref_err = _tv_reference(n, size, D)
            assert abs(got.value - ref) <= got.error_bound + ref_err, (size, n, D)
            assert got.error_bound <= 1e-9

    @pytest.mark.parametrize("n", [4.0, 16.0, 64.0, 256.0])
    def test_uniform_is_one_poisson_whatever_the_domain(self, n):
        """Uniform D is a single Poi(n/2) group, so |X| = 2, 3 and 4 give
        the same bits."""
        got = {tv_exact_poisson(n, size, SmoothDistribution.uniform(size))
               for size in (2, 3, 4)}
        assert len(got) == 1


# every Poisson mean the suite, criteria 2-3 and the benchmark reach: each
# group of m atoms of an |X|-point domain, the chi-square check's n/2|X|,
# the shifted-TV means, and fractional and tiny means
_POISSON_MEANS = sorted(
    {n * m / (2.0 * size) for n in (4.0, 16.0, 64.0, 256.0)
     for size in (2, 3, 4) for m in range(1, size + 1)}
    | set(range(1, 257)) | {0.5, 1.0, 4.0, 8.0, 17.3, 1024.0, 1e-3, 1.0 / 3.0})


class TestPoissonSupport:
    @pytest.mark.parametrize("tail", [verify.TRUNC_TAIL, 1e-14])
    def test_matches_scipy_stats_bit_for_bit(self, tail):
        """The end of the support is two past poisson.ppf(1 - tail/4) and
        the pmf is poisson.pmf, bit for bit."""
        for lam in _POISSON_MEANS:
            ks, pmf = verify._poisson_support(lam, tail)
            M = int(scipy.stats.poisson.ppf(1.0 - tail / 4.0, lam)) + 2
            assert ks.tolist() == list(range(M + 1)), lam
            assert pmf.tobytes() == scipy.stats.poisson.pmf(ks, lam).tobytes(), lam

    def test_zero_mean_is_a_point_mass(self):
        ks, pmf = verify._poisson_support(0.0)
        assert ks.tolist() == [0] and pmf.tolist() == [1.0]


class TestChiSquare:
    def test_uniform_fixture(self):
        # (2|X|/n) * sum (1/|X|)^2 = 2/n
        assert chi2_mixture(8.0, 4, SmoothDistribution.uniform(4)) == pytest.approx(0.25)

    def test_closed_form_matches_direct(self):
        for size in (2, 3):
            for n in (4.0, 16.0, 64.0):
                for v in smooth_polytope_vertices(size, 0.5):
                    D = SmoothDistribution(v, 0.5)
                    closed = chi2_mixture(n, size, D)
                    direct = chi2_mixture_direct(n, size, D)
                    assert abs(closed - direct) <= 1e-9

    def test_tv_below_sqrt_half_chi2(self):
        for n in (4.0, 16.0, 64.0):
            D = SmoothDistribution.uniform(3)
            tv = tv_exact_poisson(n, 3, D)
            chi2 = chi2_mixture(n, 3, D)
            assert tv.value <= math.sqrt(chi2 / 2.0) + tv.error_bound

    def test_decreasing_in_n(self):
        D = SmoothDistribution.uniform(2)
        vals = [chi2_mixture(n, 2, D) for n in (2.0, 8.0, 32.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_n_validation(self):
        with pytest.raises(InputError):
            chi2_mixture(0.0, 2, SmoothDistribution.uniform(2))

    @pytest.mark.parametrize("check", [chi2_mixture, chi2_mixture_direct, tv_exact_poisson])
    def test_rejects_distribution_of_another_size(self, check):
        """The chi-square forms used to return 0.75 for a 2-atom D on |X| = 3;
        all three Poisson checks share tv_exact_poisson's size rule."""
        with pytest.raises(InputError, match="disagrees with the domain"):
            check(4.0, 3, SmoothDistribution.uniform(2))


class TestShiftedPoissonTv:
    def test_lambda_zero(self):
        assert shifted_poisson_tv(0.0) == 1.0

    def test_equals_mode_pmf(self):
        for lam in (0.5, 1.0, 4.0, 8.0, 17.3):
            expect = scipy.stats.poisson.pmf(math.floor(lam), lam)
            assert shifted_poisson_tv(lam) == pytest.approx(expect, abs=1e-12)

    def test_bound(self):
        for lam in (1.0, 4.0, 64.0, 1024.0):
            assert shifted_poisson_tv(lam) <= math.sqrt(1.0 / (2.0 * lam))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            shifted_poisson_tv(-1.0)


class TestBudgets:
    def test_eta_terms(self):
        n, sigma, d, T, c = 16.0, 1.0, 1, 3, 1.0
        expect = (1 / 4 + math.sqrt(math.log(3) / 16)
                  + 16 / (36 * math.log(3)) + math.exp(-2.0))
        assert eta_budget(n, sigma, d, T, c) == pytest.approx(expect, rel=1e-12)

    def test_eta_validation(self):
        with pytest.raises(InputError):
            eta_budget(0.0, 1.0, 1, 3)
        with pytest.raises(InputError):
            eta_budget(4.0, 1.0, 1, 1)

    def test_beta_fixtures(self):
        assert beta_budget(10, 5, 0.5) == pytest.approx(15.625)
        assert beta_budget(100, 100, 0.1) == pytest.approx(1e5 * 0.9 ** 100)

    def test_beta_decreases_in_K_eventually(self):
        assert beta_budget(100, 2000, 0.1) < beta_budget(100, 100, 0.1)


def _gengap_reference(hclass, D, label_table, history, n, trials, rng, T=2,
                     tie=TiePolicy.LOWEST_INDEX):
    """Reference: the body of `generalization_gap_mc` that drew x_t and
    x_p with `rng.choice(|X|, p=D)`."""
    loss = LossSpec.of("binary_indicator")
    session = OracleSession(hclass, loss, history)
    gaps = np.zeros(trials)
    for i in range(trials):
        cells = learner.hallucination_cells(n, hclass.domain_size, rng)
        x_t = int(rng.choice(hclass.domain_size, p=D.array))
        x_p = int(rng.choice(hclass.domain_size, p=D.array))
        y_t, y_p = float(label_table[x_t]), float(label_table[x_p])
        cells[x_t, int(y_t > 0)] += 1
        idx, _ = erm(hclass, CountTable(session, cells, with_history=True), loss,
                     tie=tie, rng=rng)
        h = hclass.values[idx]
        gaps[i] = (-y_p * h[x_p] / 2.0) - (-y_t * h[x_t] / 2.0)
    mean = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    lnT = math.log(max(T, 2))
    budget = (math.sqrt(hclass.declared_dim * lnT / (n * D.sigma))
              + n * D.sigma / (4.0 * T * T * lnT) + math.exp(-n / 8.0))
    return VerificationReport(
        name="generalization_gap", mode="monte_carlo",
        measured={"gap": mean, "stderr": stderr}, bound=budget,
        tolerance=3.0 * stderr, trials=trials,
        passed=bool(mean <= budget + 3.0 * stderr),
        details=f"n={n}, sigma={D.sigma}, d={hclass.declared_dim}")


class TestGeneralizationGap:
    @pytest.mark.parametrize("D, tie, history", [
        (SmoothDistribution.uniform(8), TiePolicy.LOWEST_INDEX, []),
        (SmoothDistribution((0.25, 0.0, 0.2, 0.15, 0.1, 0.1, 0.1, 0.1), 0.5),
         TiePolicy.LOWEST_INDEX, [(2, 1.0), (6, -1.0)]),
        (SmoothDistribution((0.0, 0.25, 0.25, 0.15, 0.1, 0.0, 0.25, 0.0), 0.5),
         TiePolicy.SEEDED_RANDOM, [(0, 1.0), (7, -1.0)]),
    ], ids=["uniform", "non-uniform", "seeded-random-ties"])
    def test_equals_choice_reference(self, partition8, D, tie, history):
        """Each instance is drawn from one CDF with one double, as the
        scalar `rng.choice(p=D)` drew it: the report and the caller's
        next draw are unchanged.  The labels are no hypothesis, and each
        D weighs the class's two blocks unequally, so every draw counts."""
        labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        got_rng, want_rng = np.random.default_rng(23), np.random.default_rng(23)
        got = generalization_gap_mc(partition8, D, labels, ExampleMultiset(history),
                                    6.0, 300, got_rng, T=8, tie=tie)
        want = _gengap_reference(partition8, D, labels, ExampleMultiset(history),
                                 6.0, 300, want_rng, T=8, tie=tie)
        assert got == want
        assert got_rng.random() == want_rng.random()

    def test_rejects_distribution_of_another_size(self, partition8, rng):
        with pytest.raises(InputError, match="disagrees with the domain"):
            generalization_gap_mc(partition8, SmoothDistribution.uniform(7),
                                  partition8.values[1], ExampleMultiset(), 16.0, 10, rng)

    @pytest.mark.parametrize("labels", [[1.0, -1.0, 1.0], [1.0] * 20, [[1.0] * 8]],
                             ids=["short", "long", "2-d"])
    def test_rejects_label_table_of_another_shape(self, partition8, rng, labels):
        """A 3-entry table used to raise a raw IndexError and a 20-entry one
        was accepted; the table must have shape (|X|,)."""
        with pytest.raises(InputError, match="label_table"):
            generalization_gap_mc(partition8, SmoothDistribution.uniform(8), labels,
                                  ExampleMultiset(), 16.0, 10, rng)

    def test_realizable_case_passes(self, partition8, rng):
        D = SmoothDistribution.uniform(8)
        labels = partition8.values[1]
        report = generalization_gap_mc(partition8, D, labels,
                                       ExampleMultiset(), n=16.0,
                                       trials=2000, rng=rng, T=8)
        assert report.passed
        assert report.bound > 0.0
        assert report.mode == "monte_carlo"

    @pytest.mark.parametrize("n, trials", [(0.0, 10), (16.0, 0)],
                             ids=["n-zero", "no-trials"])
    def test_rejects_empty_budget(self, partition8, rng, n, trials):
        with pytest.raises(InputError):
            generalization_gap_mc(partition8, SmoothDistribution.uniform(8),
                                  partition8.values[1], ExampleMultiset(),
                                  n=n, trials=trials, rng=rng)

    @pytest.mark.parametrize("trials", [10.5, True, np.bool_(True), "10"],
                             ids=["float", "bool", "numpy-bool", "text"])
    def test_rejects_non_integer_trials(self, partition8, rng, trials):
        """`trials` follows `coupling_montecarlo`'s rule: a whole number >= 1,
        not a bool; these used to escape as a raw numpy TypeError or run."""
        with pytest.raises(InputError, match="integer trials"):
            generalization_gap_mc(partition8, SmoothDistribution.uniform(8),
                                  partition8.values[1], ExampleMultiset(),
                                  n=16.0, trials=trials, rng=rng)

    @pytest.mark.parametrize("trials", [np.float64(10.0), 10.0, np.int64(10)],
                             ids=["numpy-float", "float", "numpy-int"])
    def test_accepts_whole_trials(self, partition8, trials):
        """A whole float or a numpy integer plays the report of trials=10."""
        def report(trials):
            return generalization_gap_mc(
                partition8, SmoothDistribution.uniform(8), partition8.values[1],
                ExampleMultiset(), n=16.0, trials=trials,
                rng=np.random.default_rng(3)).to_dict()
        assert report(trials) == report(10)

    def test_requires_binary(self, real_class, rng):
        with pytest.raises(InputError):
            generalization_gap_mc(real_class, SmoothDistribution.uniform(1),
                                  [1.0], ExampleMultiset(), 4.0, 10, rng)

    def test_rejects_labels_other_than_signs(self, partition8, rng):
        for bad in (0.5, math.nan):
            labels = partition8.values[1].copy()
            labels[3] = bad
            with pytest.raises(InputError):
                generalization_gap_mc(partition8, SmoothDistribution.uniform(8),
                                      labels, ExampleMultiset(), 16.0, 10, rng)

    def test_seeded_random_runs_and_replays(self, partition8):
        """The tie stream is the check's own rng, so a fixed rng replays."""
        def report():
            return generalization_gap_mc(
                partition8, SmoothDistribution.uniform(8), partition8.values[1],
                ExampleMultiset([(0, 1.0), (7, -1.0)]), 6.0, 50,
                np.random.default_rng(4), T=8, tie=TiePolicy.SEEDED_RANDOM)
        first = report()
        assert first.trials == 50 and math.isfinite(first.measured["gap"])
        assert first.to_json() == report().to_json()

    def test_sample_joins_the_hallucinations(self, partition8):
        """Each trial's ERM input is history + hallucinations + {s}: the
        report matches a loop that merges the three multisets."""
        D, labels = SmoothDistribution.uniform(8), partition8.values[2]
        past = [(0, 1.0, 1), (5, -1.0, 3)]
        loss = LossSpec.of("binary_indicator")
        rng = np.random.default_rng(11)
        gaps = []
        for _ in range(200):
            cells = learner.hallucination_cells(6.0, 8, rng)
            x_t, x_p = (int(rng.choice(8, p=D.array)) for _ in range(2))
            hallucinated = [(x, (-1.0, 1.0)[sign], c)
                            for (x, sign), c in np.ndenumerate(cells) if c]
            S = ExampleMultiset(past + hallucinated + [(x_t, labels[x_t], 1)])
            h = partition8.values[erm(partition8, OracleSession(partition8, loss, S),
                                      loss)[0]]
            gaps.append(-labels[x_p] * h[x_p] / 2 + labels[x_t] * h[x_t] / 2)
        report = generalization_gap_mc(partition8, D, labels, ExampleMultiset(past),
                                       6.0, 200, np.random.default_rng(11), T=8)
        assert report.measured["gap"] == float(np.mean(gaps))


@pytest.mark.parametrize("call", [
    lambda h: rademacher_estimate(h, [0.9], np.zeros(len(h))),
    lambda h: monotonicity_check(h, [0], np.zeros(len(h)), 0.5),
    lambda h: transductive_relaxation(h, OracleSession(h, LossSpec.of("absolute")),
                                      LossSpec.of("absolute"), [0.5]),
    lambda h: known_sequence_schedule([0.5, 1.7]),
    lambda h: cyclic_hint_schedule(2, [[0.5, 1.5]]),
    lambda h: OracleSession(h, LossSpec.of("absolute")).add(0.9, 1.0),
    lambda h: OracleSession(h, LossSpec.of("absolute")).add(1, 1.0, 2.7),
    lambda h: ExampleMultiset().add(0.9, 1.0),
    lambda h: ExampleMultiset().add(1, 1.0, 2.7),
], ids=["rademacher_Z", "monotonicity_x", "relaxation_hints", "known_sequence", "cyclic_blocks", "session_add_instance", "session_add_count",
        "multiset_add_instance", "multiset_add_count"])
def test_non_integral_instances_rejected(const_class, call):
    """An instance index that is not a whole number raises instead of
    being truncated to a neighbouring instance."""
    with pytest.raises(InputError, match="must hold integers"):
        call(const_class)


_D2 = SmoothDistribution.uniform(2)


def _gengap(h, n=16.0, T=2):
    return generalization_gap_mc(h, SmoothDistribution.uniform(8), h.values[1],
                                 ExampleMultiset(), n, 3, np.random.default_rng(0), T=T)


@pytest.mark.parametrize("call", [
    lambda h: tv_exact_poisson(math.nan, 2, _D2),
    lambda h: tv_exact_poisson(math.inf, 2, _D2),
    lambda h: tv_exact_poisson(-math.inf, 2, _D2),
    lambda h: shifted_poisson_tv(math.nan),
    lambda h: shifted_poisson_tv(math.inf),
    lambda h: chi2_mixture(math.nan, 2, _D2),
    lambda h: chi2_mixture(math.inf, 2, _D2),
    lambda h: chi2_mixture_direct(math.nan, 2, _D2),
    lambda h: chi2_mixture_direct(math.inf, 2, _D2),
    lambda h: eta_budget(math.nan, 0.5, 1, 4),
    lambda h: eta_budget(math.inf, 0.5, 1, 4),
    lambda h: _gengap(h, n=math.inf),
], ids=["tv-nan", "tv-inf", "tv-neg-inf", "shifted-nan", "shifted-inf", "chi2-nan",
        "chi2-inf", "chi2-direct-nan", "chi2-direct-inf", "eta-nan", "eta-inf",
        "gengap-inf"])
def test_non_finite_poisson_means_rejected(partition8, call):
    """These raised a raw ValueError (NaN to integer, or numpy's `lam value
    too large`) or returned nan, inf or 0.0 (chi2_mixture at n = inf)."""
    with pytest.raises(InputError, match="finite"):
        call(partition8)


@pytest.mark.parametrize("call", [
    lambda h: beta_budget(10, True, 0.5),
    lambda h: beta_budget(2.5, 3, 0.5),
    lambda h: eta_budget(16, 0.5, 1, 2.5),
    lambda h: _gengap(h, T=0),
    lambda h: _gengap(h, T=2.5),
    lambda h: _gengap(h, T=True),
    lambda h: monotonicity_check(h, [0], np.zeros(len(h)), True),
], ids=["beta-bool-K", "beta-fractional-T", "eta-fractional-T", "gengap-T-zero",
        "gengap-fractional-T", "gengap-bool-T", "monotonicity-bool-x"])
def test_whole_number_parameters(partition8, call):
    """`core.whole_number`'s rule: these returned a value (beta 50.0 and
    9.375, monotonicity at x = 1) or died with ZeroDivisionError (T = 0)."""
    with pytest.raises(InputError):
        call(partition8)
