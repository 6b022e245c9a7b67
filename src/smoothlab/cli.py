"""Command-line interface.

Subcommands:

* ``run <config.json>`` — play every seed of one experiment, emit CSV;
* ``sweep <config.json>`` — grid over T/sigma/K/n values in the
  config's ``sweep`` block, one CSV with all rows;
* ``verify [--suite NAME]`` — run the lemma-check suite, emit a JSON
  array of reports, exit 2 on any failure;
* ``fit <csv>`` — fit the regret-vs-T scaling exponent from a CSV.

Exit codes: 0 success, 1 config/input error, 2 verification failure,
3 capacity abort.  Loading a config checks each key's declared type and
resolves it, and a sweep loads every grid point first, so a config error
exits 1 before the first game, with or without ``--jobs``.  The
``SMOOTHLAB_OUT`` environment variable overrides the output directory.
"""

from __future__ import annotations

import argparse
import csv as csvmod
import json
import math
import os
import sys

import numpy as np

from . import verify as V
from .adversary import HintSchedule
from .core import (
    FiniteDomain,
    LossSpec,
    SmoothDistribution,
    make_partition_class,
)
from .errors import CapacityError, FitError, InputError
from .harness import ExperimentConfig, fit_scaling, run_experiment
from . import rng as rngmod

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_CAPACITY = 3

OUT_ENV = "SMOOTHLAB_OUT"


def _resolve_out(path: str | None, default_name: str) -> str | None:
    env_dir = os.environ.get(OUT_ENV)
    if path is None:
        if env_dir is None:
            return None
        return os.path.join(env_dir, default_name)
    if env_dir is not None and not os.path.isabs(path):
        return os.path.join(env_dir, path)
    return path


def _load_config(path: str, seed_base: int) -> ExperimentConfig:
    with open(path) as f:
        config = ExperimentConfig.from_json(f.read())
    if seed_base:
        config = config.with_overrides(
            seeds=tuple(s + seed_base for s in config.seeds))
    return config


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as f:
            f.write(text)
        print(f"wrote {out}")


def cmd_run(args) -> int:
    config = _load_config(args.config, args.seed_base)
    _, csv_text = run_experiment(config, args.jobs)
    out = _resolve_out(args.out or config.out, f"{config.experiment_id}.csv")
    _write(csv_text, out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config, args.seed_base)
    if not config.sweep:
        raise InputError("config has no sweep block")
    grids = [(k, config.sweep[k]) for k in sorted(config.sweep)]
    points = [{}]
    for key, values in grids:
        points = [dict(p, **{key: v}) for p in points for v in values]
    # every grid point is loaded, and so checked, before any is played
    subs = [config.with_overrides(sweep=None, **point) for point in points]
    lines: list[str] = []
    for i, sub in enumerate(subs):
        _, text = run_experiment(sub, args.jobs)
        body = text.splitlines()
        lines.extend(body if i == 0 else body[1:])
    out = _resolve_out(args.out or config.out, f"{config.experiment_id}_sweep.csv")
    _write("\n".join(lines) + "\n", out)
    return EXIT_OK


def _suite_reports(suite: str) -> list[V.VerificationReport]:
    reports: list[V.VerificationReport] = []
    rng = rngmod.stream(20260823, purpose="verify")

    if suite in ("all", "coupling"):
        size = 10
        base = np.full(size, 1.0 / size)
        sigma = 0.3
        cap = 1.0 / (sigma * size)
        P = np.full(size, (1.0 - cap) / (size - 1))
        P[0] = cap
        reports.append(V.coupling_montecarlo(P, base, sigma, m=20,
                                             trials=100_000, rng=rng))

    if suite in ("all", "tv"):
        for size in (2, 3):
            for n in (4, 16, 64):
                D = SmoothDistribution.uniform(size)
                tv = V.tv_exact_poisson(n, size, D)
                bound = 1.0 / math.sqrt(n * D.sigma)
                reports.append(V.VerificationReport(
                    name="tv_poisson_mixture", mode="exact",
                    measured={"tv": tv.value, "trunc_error": tv.error_bound},
                    bound=bound, tolerance=1e-9, trials=None,
                    passed=bool(tv.value <= bound + tv.error_bound + 1e-9),
                    details=f"|X|={size}, n={n}, D=uniform"))

    if suite in ("all", "chi2"):
        for size in (2, 3):
            for n in (4, 16):
                D = SmoothDistribution.uniform(size)
                closed = V.chi2_mixture(n, size, D)
                direct = V.chi2_mixture_direct(n, size, D)
                tv = V.tv_exact_poisson(n, size, D)
                ok = (abs(closed - direct) <= 1e-9
                      and tv.value <= math.sqrt(closed / 2.0) + tv.error_bound)
                reports.append(V.VerificationReport(
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
            rep = V.monotonicity_check(hclass, Z, phi, x)
            ok = ok and rep.passed
            if not rep.passed:
                worst = rep.details
        reports.append(V.VerificationReport(
            name="rademacher_monotonicity_batch", mode="exact",
            measured={"instances": 50.0}, bound=None, tolerance=0.0,
            trials=None, passed=bool(ok), details=worst or "50 random instances"))

    if suite in ("all", "shifted"):
        ok = True
        worst = 0.0
        for lam in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            tv = V.shifted_poisson_tv(lam)
            bound = math.sqrt(1.0 / (2.0 * lam))
            ok = ok and tv <= bound + 1e-12
            worst = max(worst, tv - bound)
        reports.append(V.VerificationReport(
            name="shifted_poisson_tv", mode="exact",
            measured={"max_excess": worst}, bound=0.0, tolerance=1e-12,
            trials=None, passed=bool(ok), details="lambda in powers of 2 up to 256"))

    if suite in ("all", "admissibility"):
        hclass = make_partition_class(FiniteDomain(2), 1)
        loss = LossSpec.of("absolute")
        schedule = HintSchedule(np.zeros((2, 1), dtype=int))
        alg3 = V.admissibility_check("alg3", hclass, loss, schedule)
        reports.append(alg3)
        ftl = V.admissibility_check("ftl", hclass, loss, schedule)
        reports.append(V.VerificationReport(
            name="admissibility_ftl_negative_control", mode="exact",
            measured=ftl.measured, bound=0.0, tolerance=ftl.tolerance,
            trials=None, passed=bool(not ftl.passed),
            details="follow-the-leader must violate the per-round condition"))

    if suite in ("all", "budgets"):
        eta = V.eta_budget(16, 1.0, 1, 3, 1.0)
        beta = V.beta_budget(10, 5, 0.5)
        ok = abs(eta - 1.05191) <= 1e-4 and abs(beta - 15.625) <= 1e-9
        reports.append(V.VerificationReport(
            name="budget_fixtures", mode="exact",
            measured={"eta": eta, "beta": beta}, bound=None, tolerance=1e-4,
            trials=None, passed=bool(ok),
            details="eta(16,1,1,3,1) and beta(10,5,0.5) hand fixtures"))

    if not reports:
        raise InputError(f"unknown verification suite {suite!r}")
    return reports


def cmd_verify(args) -> int:
    reports = _suite_reports(args.suite)
    doc = json.dumps([r.to_dict() for r in reports], indent=2)
    out = _resolve_out(args.out, "verify_report.json")
    _write(doc + "\n", out)
    failures = [r.name for r in reports if not r.passed]
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_fit(args) -> int:
    with open(args.csv) as f:
        rows = list(csvmod.DictReader(f))
    agg = [(float(r["T"]), float(r["regret"])) for r in rows
           if r.get("seed") == "mean"]
    if not agg:
        by_T: dict[float, list[float]] = {}
        for r in rows:
            by_T.setdefault(float(r["T"]), []).append(float(r["regret"]))
        agg = [(T, float(np.mean(v))) for T, v in sorted(by_T.items())]
    Ts = [a for a, _ in agg]
    regrets = [b for _, b in agg]
    fit = fit_scaling(Ts, regrets)
    print(json.dumps({
        "alpha": fit.alpha, "intercept": fit.intercept,
        "r_squared": fit.r_squared, "excluded_T": list(fit.excluded),
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothlab",
        description="Oracle-efficient online learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="grid sweep over T/sigma/K/n")
    p_sweep.add_argument("config")
    for p in (p_run, p_sweep):
        p.add_argument("--seed-base", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the lemma-check suite")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--out", default=None)

    p_fit = sub.add_parser("fit", help="fit regret-vs-T scaling from a CSV")
    p_fit.add_argument("csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify,
                "fit": cmd_fit}
    try:
        return handlers[args.command](args)
    except CapacityError as e:
        print(f"capacity abort: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InputError, FitError, FileNotFoundError, KeyError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
