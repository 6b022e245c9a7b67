"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a single `[acceptance N] <name>: PASS|FAIL` line (run
pytest with -s, enabled by default in pyproject) and then asserts, so a
red run still reports every criterion's verdict.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from smoothlab.adversary import HintSchedule, cyclic_hint_schedule
from smoothlab.core import (
    FiniteDomain,
    HypothesisClass,
    LossSpec,
    SmoothDistribution,
    make_partition_class,
    make_shatter_class,
    usable_cpus,
)
from smoothlab.harness import (
    ExperimentConfig,
    SCHEMA_VERSION,
    fit_scaling,
    run_experiment,
    run_game,
)
from smoothlab.learner import Alg1Smoothed, Alg3Transductive, hint_count
from smoothlab.verify import (
    admissibility_check,
    beta_budget,
    chi2_mixture,
    chi2_mixture_direct,
    coupling_montecarlo,
    eta_budget,
    monotonicity_check,
    smooth_polytope_vertices,
    tv_exact_poisson,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def config(**kw) -> ExperimentConfig:
    base = {"schema_version": SCHEMA_VERSION, "experiment_id": "acceptance",
            "tie_policy": "prefer_negative", "loss": "binary_indicator"}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def seed_means(configs: list[ExperimentConfig]) -> list[float]:
    """Each config's mean regret over its seeds in seed order, with every
    game played through one `run_experiment` call on all usable CPUs."""
    transcripts, _ = run_experiment(configs, usable_cpus())
    means, start = [], 0
    for c in configs:
        own = transcripts[start:start + len(c.seeds)]
        start += len(own)
        means.append(float(np.mean([tr.regret for tr in own])))
    return means


def smooth_family(size: int, rng) -> list[SmoothDistribution]:
    """Five sigma-smooth distributions per domain size, each certified at
    its tightest sigma = 1/(|X| * max atom)."""
    out = [SmoothDistribution.uniform(size)]
    vs = smooth_polytope_vertices(size, 0.5)
    out.append(SmoothDistribution(vs[0], 0.5))
    out.append(SmoothDistribution(vs[-1], 0.5))
    while len(out) < 5:
        p = rng.dirichlet(np.ones(size) * 2.0)
        sigma = 1.0 / (size * float(p.max()))
        out.append(SmoothDistribution(p, sigma))
    return out


def test_criterion_1_coupling():
    """Lemma check: selection from uniform draws reproduces the target
    law exactly, with failure rate (1-sigma)^m."""
    t0 = time.perf_counter()
    size, sigma, m = 10, 0.3, 20
    Q = np.full(size, 1.0 / size)
    cap = 1.0 / (sigma * size)
    P1 = np.full(size, (1.0 - cap) / (size - 1))
    P1[0] = cap  # one atom at the smoothness cap
    P2 = np.zeros(size)
    P2[:4] = [cap, cap, cap, 1.0 - 3 * cap]  # three capped atoms
    rng = np.random.default_rng(20260823)
    reports = [coupling_montecarlo(P, Q, sigma, m=m, trials=100_000, rng=rng)
               for P in (P1, P2)]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 30.0
    detail = "; ".join(
        f"fail_rate={r.measured['fail_rate']:.2e} "
        f"(exact {r.measured['fail_exact']:.2e} +- {r.measured['fail_band']:.1e}), "
        f"cond_tv={r.measured['conditional_tv']:.4f}" for r in reports)
    report(1, "coupling selection", ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_2_tv_bound():
    """Exact product-Poisson mixture TV stays below 1/sqrt(n*sigma)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked, worst_margin, max_err = 0, math.inf, 0.0
    ok = True
    for size in (2, 3, 4):
        for D in smooth_family(size, rng):
            for n in (4.0, 16.0, 64.0, 256.0):
                tv = tv_exact_poisson(n, size, D)
                bound = 1.0 / math.sqrt(n * D.sigma)
                ok = ok and (tv.value <= bound + tv.error_bound)
                ok = ok and tv.error_bound <= 1e-9
                worst_margin = min(worst_margin, bound - tv.value)
                max_err = max(max_err, tv.error_bound)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(2, "Poisson mixture TV bound", ok,
           f"{checked} cases, min margin {worst_margin:.4f}, "
           f"max truncation {max_err:.1e}; {elapsed:.1f}s")


def test_criterion_3_chi2_identity():
    """Closed-form chi-square equals the direct truncated evaluation and
    dominates the TV via sqrt(chi2/2)."""
    ok = True
    max_gap, worst_tv_margin = 0.0, math.inf
    for size in (2, 3):
        Ds = [SmoothDistribution.uniform(size)]
        Ds += [SmoothDistribution(v, 0.5)
               for v in smooth_polytope_vertices(size, 0.5)]
        for D in Ds:
            for n in (4.0, 16.0, 64.0):
                closed = chi2_mixture(n, size, D)
                direct = chi2_mixture_direct(n, size, D)
                tv = tv_exact_poisson(n, size, D)
                max_gap = max(max_gap, abs(closed - direct))
                margin = math.sqrt(closed / 2.0) - tv.value
                worst_tv_margin = min(worst_tv_margin, margin)
                ok = ok and abs(closed - direct) <= 1e-9
                ok = ok and tv.value <= math.sqrt(closed / 2.0) + tv.error_bound
    report(3, "chi-square identity and TV domination", ok,
           f"max closed-vs-direct gap {max_gap:.1e}, "
           f"min sqrt(chi2/2)-TV margin {worst_tv_margin:.4f}")


def test_criterion_4_monotonicity():
    """Regularized Rademacher complexity never decreases when a point is
    added, checked in exact rational arithmetic (zero tolerance)."""
    rng = np.random.default_rng(20260823)
    failures = 0
    for _ in range(500):
        size = int(rng.integers(2, 7))
        n_h = int(rng.integers(1, 9))
        vals = rng.choice([-1.0, 1.0], size=(n_h, size))
        hclass = HypothesisClass(vals, declared_dim=0, binary=True)
        Z = rng.integers(0, size, size=int(rng.integers(0, 6)))
        phi = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=n_h)
        rep = monotonicity_check(hclass, Z, phi, int(rng.integers(size)))
        failures += not rep.passed
    report(4, "Rademacher monotonicity", failures == 0,
           f"500 random instances, {failures} violations, zero tolerance")


def _tiny_admissibility_instances():
    """Every (class, schedule) pair within T <= 3, K <= 2, |X| <= 4 from
    a curated generator grid of binary classes and hint schedules."""
    const2 = HypothesisClass([[1.0, 1.0], [-1.0, -1.0]],
                             declared_dim=1, binary=True)
    classes = {
        2: [const2, make_partition_class(FiniteDomain(2), 1),
            make_shatter_class(FiniteDomain(2), [0, 1])],
        3: [make_shatter_class(FiniteDomain(3), [0]),
            make_shatter_class(FiniteDomain(3), [0, 2])],
        4: [make_partition_class(FiniteDomain(4), 2),
            make_partition_class(FiniteDomain(4), 1),
            make_shatter_class(FiniteDomain(4), [1, 3])],
    }
    schedules = {
        2: [HintSchedule([[0]] * T) for T in (1, 2, 3)]
           + [cyclic_hint_schedule(T, [np.array([0, 1])]) for T in (2, 3)]
           + [HintSchedule([[0], [1], [0]])],
        3: [HintSchedule([[0], [2]]),
            HintSchedule([[0, 1], [1, 2], [0, 2]])],
        4: [cyclic_hint_schedule(3, [np.arange(2), np.arange(2, 4)]),
            HintSchedule([[0], [3]]),
            HintSchedule([[0, 1], [2, 3]])],
    }
    for size, hclasses in classes.items():
        for hclass in hclasses:
            for sched in schedules[size]:
                yield hclass, sched


def test_criterion_5_admissibility():
    """The hint-difference rule satisfies the per-round relaxation
    inequality exactly on every tiny instance; the terminal relaxation
    equals minus the best-in-hindsight loss; follow-the-leader is the
    violating negative control."""
    loss = LossSpec.of("absolute")
    min_slack, max_gap, count = math.inf, 0.0, 0
    ok = True
    for hclass, sched in _tiny_admissibility_instances():
        rep = admissibility_check("alg3", hclass, loss, sched)
        min_slack = min(min_slack, rep.measured["min_slack"])
        max_gap = max(max_gap, abs(rep.measured["condition2_gap"]))
        ok = ok and rep.passed
        count += 1
    ok = ok and min_slack >= -1e-12 and max_gap <= 1e-12
    const2 = HypothesisClass([[1.0, 1.0], [-1.0, -1.0]],
                             declared_dim=1, binary=True)
    ftl = admissibility_check("ftl", const2, loss,
                              HintSchedule([[0], [0]]))
    ok = ok and (not ftl.passed) and ftl.measured["min_slack"] < -1e-6
    report(5, "relaxation admissibility", ok,
           f"{count} instances, min slack {min_slack:.2e}, "
           f"max terminal gap {max_gap:.2e}, "
           f"negative-control slack {ftl.measured['min_slack']:.3f}")


# SHA-256 of criterion 5's reports, alg3 then ftl per instance, one JSON
# line each
CRITERION_5_REPORTS_SHA256 = (
    "04c23b5261f1f96471972025662f8aad66a7a790dfab382628d16fe728a3bb55")


def test_criterion_5_reports_are_pinned():
    """Every admissibility report over criterion 5's grid, byte for byte:
    slacks, gaps and the prefix that names the worst history."""
    loss = LossSpec.of("absolute")
    lines = [admissibility_check(kind, hclass, loss, sched).to_json()
             for hclass, sched in _tiny_admissibility_instances()
             for kind in ("alg3", "ftl")]
    assert len(lines) == 62
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CRITERION_5_REPORTS_SHA256


def test_criterion_6_oracle_accounting():
    """Exact per-run oracle call counts (2T for the hint learners, T for
    Poissonized FTPL) and FTPL input length (t-1)+n on average."""
    ok = True
    details = []
    klass = {"kind": "partition", "domain_size": 8, "d": 2}
    c3 = config(learner="alg3", adversary="transductive_cyclic", T=32,
                loss="absolute", sigma=1.0, seeds=[0],
                hints={"kind": "cyclic", "K": 4}, **{"class": klass})
    c1 = config(learner="alg1", adversary="realizable_smooth", T=32,
                loss="absolute", sigma=1.0, K=2, seeds=[0], **{"class": klass})
    n = 16.0
    c2 = config(learner="alg2", adversary="realizable_smooth", T=64,
                sigma=1.0, n=n, seeds=[0], **{"class": klass})
    for name, cfg, want in (("alg3", c3, 64), ("alg1", c1, 64), ("alg2", c2, 64)):
        counts = {run_game(cfg, s).oracle_calls for s in range(3)}
        ok = ok and counts == {want}
        details.append(f"{name}={sorted(counts)} (want {want})")

    diffs = []
    for s in range(5):
        tr = run_game(c2, s)
        diffs.extend(r.oracle_input_len - (r.t - 1) - n for r in tr.rounds)
    mean_diff = float(np.mean(diffs))
    band = 3.0 * math.sqrt(n / len(diffs))  # Poisson variance = n
    ok = ok and abs(mean_diff) <= band
    report(6, "oracle call and input-length accounting", ok,
           f"{'; '.join(details)}; input-length mean offset "
           f"{mean_diff:+.3f} within +-{band:.3f} (3-sigma CLT)")


def test_criterion_7_prediction_range():
    """Hint-difference predictions never leave [-1, 1] across 10^4
    fuzzed rounds of random classes, losses, and histories."""
    rng = np.random.default_rng(31)
    rounds = 0
    worst = 0.0
    for g in range(1000):
        size = int(rng.integers(2, 7))
        n_h = int(rng.integers(1, 7))
        vals = rng.choice([-1.0, 1.0], size=(n_h, size))
        hclass = HypothesisClass(vals, declared_dim=0, binary=True)
        loss = LossSpec.of(["absolute", "squared"][g % 2])
        T = 10
        if g % 2 == 0:
            learner = Alg1Smoothed(hclass, loss, T,
                                   sigma=float(rng.uniform(0.3, 1.0)),
                                   K=int(rng.integers(1, 3)), seed=g)
            rows = None
        else:
            rows = rng.integers(0, size, size=(T, int(rng.integers(1, 3))))
            learner = Alg3Transductive(hclass, loss, T,
                                       HintSchedule(rows), seed=g)
        for t in range(1, T + 1):
            x = int(rng.integers(size)) if rows is None else int(rng.choice(rows[t - 1]))
            yhat = learner.predict(t, x)  # raises if |yhat| > 1 + 1e-9
            worst = max(worst, abs(yhat))
            learner.update(t, x, float(rng.choice([-1.0, 1.0])))
            rounds += 1
    report(7, "prediction range", rounds == 10_000 and worst <= 1.0,
           f"{rounds} fuzzed rounds, max |yhat| = {worst:.6f}")


def test_criterion_8_ftl_vs_ftpl_separation():
    """On the alternating-labels smooth instance, unperturbed FTL is
    fooled every revisit while Poissonized FTPL is not."""
    t0 = time.perf_counter()
    T = 512
    base = config(learner="ftl", adversary="support_alternating", T=T,
                  sigma=0.25, d=2, seeds=list(range(20)),
                  **{"class": {"kind": "support_partition", "domain_size": 64,
                               "support_size": 16, "d": 2}})
    a2 = base.with_overrides(learner="alg2")  # default n = min(T/sqrt(sigma), ...)
    ftl_mean, a2_mean = seed_means([base, a2])
    elapsed = time.perf_counter() - t0
    ok = ftl_mean >= 0.4 * T and a2_mean <= 0.15 * T and elapsed < 300.0
    report(8, "FTL vs Poissonized FTPL separation", ok,
           f"FTL {ftl_mean / T:.3f}T (need >= 0.4T), "
           f"FTPL {a2_mean / T:.3f}T (need <= 0.15T); {elapsed:.0f}s")


def test_criterion_9_sublinear_scaling():
    """Regret grows sublinearly on realizable smooth instances: fitted
    exponent in [0.3, 0.75] and regret/T strictly decreasing."""
    t0 = time.perf_counter()
    Ts = [128, 256, 512, 1024]
    klass = {"kind": "partition", "domain_size": 64, "d": 4}
    learners = (("alg2", "binary_indicator", {}),
                ("alg3", "absolute", {"hints": {"kind": "cyclic", "K": 4}}))
    # both T grids, all 160 games, through one runner call
    all_means = seed_means([
        config(learner=learner, adversary="realizable_smooth",
               loss=loss, T=T, sigma=0.25, d=4,
               seeds=list(range(20)), **{"class": klass}, **extra)
        for learner, loss, extra in learners for T in Ts])
    ok = True
    details = []
    for i, (learner, _, _) in enumerate(learners):
        means = all_means[i * len(Ts):(i + 1) * len(Ts)]
        fit = fit_scaling(Ts, means)
        rates = [m / T for m, T in zip(means, Ts)]
        decreasing = all(a > b for a, b in zip(rates, rates[1:]))
        ok = ok and 0.3 <= fit.alpha <= 0.75 and decreasing
        details.append(f"{learner}: alpha={fit.alpha:.3f}, "
                       f"regret/T={['%.3f' % r for r in rates]}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    report(9, "sublinear regret scaling", ok,
           f"{'; '.join(details)}; {elapsed:.0f}s")


def test_criterion_10_budget_formulas():
    """Budget formulas reproduce the hand fixtures and the coupling
    failure budget beta*T stays below 1 at the default hint count."""
    eta = eta_budget(16, 1.0, 1, 3, 1.0)
    # The hand fixture 0.25 + 0.26207 + 0.40450 + 0.13534 = 1.05191 sums
    # terms that were individually rounded to 5 decimals, so it carries
    # about 2e-5 of rounding error; the tolerance is widened to 5e-5.
    eta_ok = abs(eta - 1.05191) <= 5e-5
    beta_ok = (abs(beta_budget(10, 5, 0.5) - 15.625) <= 1e-9
               and abs(beta_budget(100, 100, 0.1) - 1e5 * 0.9 ** 100) <= 1e-9)
    worst = 0.0
    grid_ok = True
    for T in np.unique(np.geomspace(2, 10_000, 40).astype(int)):
        for sigma in np.geomspace(1e-3, 1.0, 40):
            K = hint_count(int(T), float(sigma), 100.0)
            bT = beta_budget(int(T), K, float(sigma)) * T
            worst = max(worst, bT)
            grid_ok = grid_ok and bT < 1.0
    ok = eta_ok and beta_ok and grid_ok
    report(10, "eta/beta budget formulas", ok,
           f"eta={eta:.7f} (fixture 1.05191 +-5e-5), beta fixtures exact, "
           f"max beta*T on grid = {worst:.2e} < 1")


def test_criterion_11_determinism():
    """Re-running any (config, seed) reproduces byte-identical CSV and
    transcripts."""
    klass = {"kind": "partition", "domain_size": 8, "d": 2}
    configs = [
        config(learner="alg2", adversary="realizable_smooth", T=32,
               sigma=1.0, n=8.0, seeds=[0, 1, 2], **{"class": klass}),
        config(learner="alg3", adversary="transductive_cyclic", loss="absolute",
               T=16, sigma=1.0, seeds=[0, 1], hints={"kind": "cyclic", "K": 4},
               **{"class": klass}),
        config(learner="ftl", adversary="support_alternating", T=32,
               sigma=0.5, d=2, seeds=[3],
               **{"class": {"kind": "support_partition", "domain_size": 8,
                            "support_size": 4, "d": 2}}),
    ]
    ok = True
    for c in configs:
        t1, csv1 = run_experiment([c], 1)
        t2, csv2 = run_experiment([c], 1)
        ok = ok and csv1 == csv2
        ok = ok and all(a.to_json() == b.to_json() for a, b in zip(t1, t2))
    report(11, "byte-identical determinism", ok,
           f"{len(configs)} configs re-run: CSV and transcripts identical")
