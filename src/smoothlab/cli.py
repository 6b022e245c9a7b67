"""Command-line interface.

Subcommands:

* ``run <config.json>`` — play every seed of one experiment, emit CSV;
* ``sweep <config.json>`` — play every point of the config's ``sweep``
  block (`ExperimentConfig.grid`), one CSV with all rows;
* ``verify [--suite NAME]`` — run `smoothlab.verify.run_suite`, emit a
  JSON array of reports, exit 2 on any failure;
* ``fit <csv>`` — fit the regret-vs-T scaling exponent from a CSV's
  mean rows (`harness.fit_csv`).

This module parses arguments, reads configs and writes files; ``run``
and ``sweep`` share one handler, which plays through one
`harness.run_experiment` call.

Exit codes: 0 success, 1 config/input error, 2 verification failure,
3 capacity abort.  Loading a config checks each key's declared type and
resolves it, and a sweep loads every grid point first, so a config error
exits 1 before the first game, with or without ``--jobs``.  The
``SMOOTHLAB_OUT`` environment variable overrides the output directory.
Only ``verify`` imports `smoothlab.verify`, so ``run``, ``sweep`` and
``fit`` never load the lemma checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapacityError, FitError, InputError
from .harness import ExperimentConfig, fit_csv, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_CAPACITY = 3

OUT_ENV = "SMOOTHLAB_OUT"


def _resolve_out(path: str | None, default_name: str) -> str | None:
    env_dir = os.environ.get(OUT_ENV)
    if env_dir is None or (path is not None and os.path.isabs(path)):
        return path
    return os.path.join(env_dir, default_name if path is None else path)


def _load_config(path: str, seed_base: int) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_json(f.read(), seed_base)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as f:
            f.write(text)
        print(f"wrote {out}")


def cmd_play(args) -> int:
    """`run` plays the config, `sweep` every point of its sweep block."""
    config = _load_config(args.config, args.seed_base)
    sweep = args.command == "sweep"
    if sweep and not config.sweep:
        raise InputError("config has no sweep block")
    _, csv_text = run_experiment(config.grid() if sweep else [config], args.jobs)
    name = f"{config.experiment_id}{'_sweep' if sweep else ''}.csv"
    _write(csv_text, _resolve_out(args.out or config.out, name))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # the lemma checks load only for this subcommand
    reports = verify.run_suite(args.suite)
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
        fit = fit_csv(f.read())
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
    handlers = {"run": cmd_play, "sweep": cmd_play, "verify": cmd_verify,
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
