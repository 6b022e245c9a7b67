"""Workload definitions and the per-job correctness gate.

A workload is a fixed list of jobs split into two parts, ``a`` and ``b``,
that are timed separately.  Every job calls smoothlab only through its
public entry points: ``smoothlab.cli.main`` for games and the CLI verify
suite, and public ``smoothlab.verify`` functions for the larger checks.
A job returns the bytes it produced (hashed for information) and a list
of gate failures (empty when the job is correct).

The modules ``smoothlab.cli`` and ``smoothlab.verify`` are looked up at
call time, so wrappers installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import smoothlab.cli
import smoothlab.verify
from smoothlab.adversary import cyclic_hint_schedule
from smoothlab.core import (
    ExampleMultiset,
    FiniteDomain,
    LossSpec,
    SmoothDistribution,
    make_partition_class,
    make_shatter_class,
)

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# oracle calls per round made by each learner the workloads run
CALLS_PER_ROUND = {"ftl": 1, "alg2": 1, "alg3": 2, "alg1": 2}


@dataclass(frozen=True)
class Job:
    name: str
    part: str  # "a" or "b": which timed half of the workload
    run: Callable[[int, Path], tuple[bytes, list[str]]]  # (seed, out_dir)
    learner: str | None = None  # game jobs only
    rounds: int = 0  # game rounds played per job
    config: Path | None = None  # experiment config, parsed at set-up


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]

    @property
    def configs(self) -> list[Path]:
        return [job.config for job in self.jobs if job.config is not None]

    def parts(self) -> list[tuple[str, list[Job]]]:
        """The jobs grouped into their consecutive parts, in order."""
        return [(part, list(jobs))
                for part, jobs in itertools.groupby(self.jobs, lambda j: j.part)]


def _quiet_cli(argv: list[str]) -> int:
    """Call the CLI with its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return smoothlab.cli.main(argv)


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------

def expected_mean_input_len(cfg: dict) -> float | None:
    """Exact mean oracle input length per call, or None where it is random.

    FTL sees the history, (T-1)/2 on average.  The hint learners see the
    history, two copies of K hints for each future round and the query
    point: (T-1)(1+2K)/2 + 1 on average.
    """
    T = cfg["T"]
    learner = cfg["learner"]
    if learner == "ftl":
        return (T - 1) / 2
    if learner == "alg3":
        K = cfg["hints"]["K"]
    elif learner == "alg1":
        K = cfg.get("K") or max(1, math.ceil(
            cfg.get("c_K", 100.0) * math.log(T) / cfg["sigma"]))
    else:
        return None
    return (T - 1) * (1 + 2 * K) / 2 + 1


def game_gate(cfg: dict, rc: int, csv_text: str, min_regret_share=None,
              max_regret_share=None) -> list[str]:
    """Failures of one `smoothlab run` job, judged from its exit code and CSV."""
    if rc != 0:
        return [f"exit code {rc}"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    per_seed = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    if len(per_seed) != len(cfg["seeds"]) or len(means) != 1:
        return [f"expected {len(cfg['seeds'])} seed rows and one mean row"]
    T = cfg["T"]
    calls = CALLS_PER_ROUND[cfg["learner"]] * T
    mean_len = expected_mean_input_len(cfg)
    failures = []
    for r in per_seed:
        if int(r["oracle_calls"]) != calls:
            failures.append(f"seed {r['seed']}: oracle_calls "
                            f"{r['oracle_calls']} != {calls}")
        if mean_len is not None and float(r["mean_input_len"]) != mean_len:
            failures.append(f"seed {r['seed']}: mean_input_len "
                            f"{r['mean_input_len']} != {mean_len}")
    regret = float(means[0]["regret"])
    if min_regret_share is not None and regret < min_regret_share * T:
        failures.append(f"seed-mean regret {regret} < {min_regret_share}T")
    if max_regret_share is not None and regret > max_regret_share * T:
        failures.append(f"seed-mean regret {regret} > {max_regret_share}T")
    return failures


def game_job(path: Path, part: str, **bands) -> Job:
    """One `smoothlab run` of a config; --seed-base is the workload seed."""
    cfg = json.loads(path.read_text())

    def run(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
        out = out_dir / f"{cfg['experiment_id']}.csv"
        rc = _quiet_cli(["run", str(path), "--seed-base", str(seed),
                         "--jobs", "1", "--out", str(out)])
        data = out.read_bytes() if rc == 0 else b""
        return data, game_gate(cfg, rc, data.decode(), **bands)

    return Job(cfg["experiment_id"], part, run, learner=cfg["learner"],
               rounds=cfg["T"] * len(cfg["seeds"]), config=path)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------

def _report_bytes(*reports) -> bytes:
    return "\n".join(r.to_json() for r in reports).encode()


def _failed(*reports) -> list[str]:
    return [f"{r.name} failed: {r.details}" for r in reports if not r.passed]


def verify_suite_gate(rc: int, doc: str) -> list[str]:
    """Every report of `smoothlab verify --suite all` passes.

    The CLI already encodes the FTL negative control as a report that
    passes only when FTL violates admissibility.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    reports = json.loads(doc)
    failures = [f"{r['name']} failed" for r in reports if not r["passed"]]
    if not any(r["name"] == "admissibility_ftl_negative_control"
               for r in reports):
        failures.append("suite lacks the FTL negative control")
    return failures


def _cli_verify_suite(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
    out = out_dir / "verify_report.json"
    rc = _quiet_cli(["verify", "--suite", "all", "--out", str(out)])
    data = out.read_bytes() if rc == 0 else b""
    return data, verify_suite_gate(rc, data.decode())


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _monotonicity(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
    rng = _rng(seed, 1)
    hclass = make_partition_class(FiniteDomain(8), 2)
    Z = rng.integers(0, 8, size=12)
    phi = rng.integers(-512, 513, size=len(hclass)) / 1024.0
    rep = smoothlab.verify.monotonicity_check(hclass, Z, phi,
                                              int(rng.integers(8)))
    return _report_bytes(rep), _failed(rep)


def _tv_poisson(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
    D = SmoothDistribution.uniform(4)
    values, failures = [], []
    for n in (16, 64, 256):
        tv = smoothlab.verify.tv_exact_poisson(float(n), 4, D)
        bound = 1.0 / math.sqrt(n * D.sigma)
        values.append([float(tv.value), float(tv.error_bound)])
        if not tv.value <= bound + tv.error_bound + 1e-9:
            failures.append(f"tv {tv.value} above 1/sqrt(n sigma) at n={n}")
    return json.dumps(values).encode(), failures


def _admissibility(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
    """Both learners at the exact-enumeration caps |X|=4, T=3, K=2, |H|=8."""
    hclass = make_shatter_class(FiniteDomain(4), [0, 1, 2])
    schedule = cyclic_hint_schedule(3, [np.arange(2), np.arange(2, 4)])
    loss = LossSpec.of("absolute")
    alg3 = smoothlab.verify.admissibility_check("alg3", hclass, loss, schedule)
    ftl = smoothlab.verify.admissibility_check("ftl", hclass, loss, schedule)
    failures = _failed(alg3)
    if ftl.passed:
        failures.append("FTL negative control passed admissibility")
    return _report_bytes(alg3, ftl), failures


def _generalization_gap(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
    hclass = make_partition_class(FiniteDomain(8), 2)
    rep = smoothlab.verify.generalization_gap_mc(
        hclass, SmoothDistribution.uniform(8), hclass.values[1],
        ExampleMultiset(), n=256.0, trials=1000, rng=_rng(seed, 2), T=8)
    return _report_bytes(rep), _failed(rep)


def _coupling(seed: int, out_dir: Path) -> tuple[bytes, list[str]]:
    size, sigma = 10, 0.3
    base = np.full(size, 1.0 / size)
    cap = 1.0 / (sigma * size)
    P = np.full(size, (1.0 - cap) / (size - 1))
    P[0] = cap
    rep = smoothlab.verify.coupling_montecarlo(P, base, sigma, m=20,
                                               trials=100_000, rng=_rng(seed, 3))
    return _report_bytes(rep), _failed(rep)


WORKLOADS = {
    "ftpl-erm": Workload("ftpl-erm", (
        game_job(CONFIG_DIR / "ftpl-erm-ftl.json", "a", min_regret_share=0.4),
        game_job(CONFIG_DIR / "ftpl-erm-alg2.json", "b", max_regret_share=0.15),
    )),
    "hint-mixed": Workload("hint-mixed", (
        game_job(CONFIG_DIR / "hint-mixed-alg3.json", "a"),
        game_job(CONFIG_DIR / "hint-mixed-alg1.json", "b"),
    )),
    "verify-lemmas": Workload("verify-lemmas", (
        Job("verify.suite", "a", _cli_verify_suite),
        Job("verify.monotonicity", "a", _monotonicity),
        Job("verify.tv", "a", _tv_poisson),
        Job("verify.admissibility", "a", _admissibility),
        Job("verify.gengap", "b", _generalization_gap),
        Job("verify.coupling", "b", _coupling),
    )),
}
