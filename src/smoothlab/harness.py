"""Game loop, experiment configuration, CSV assembly, scaling fits.

The per-round protocol enforced by `run_game`:

1. the adversary commits to a distribution over instances and a full
   label table (hashed into the transcript before any prediction);
2. the harness samples x_t from the committed distribution and checks
   the smoothness or hint-support certificate;
3. the learner predicts;
4. the label is revealed from the committed table and the loss recorded.

A constructed `ExperimentConfig` is resolved: its class, hint schedule
and `d` are built once, and one probe call of `players(seed)`, which
builds each game's (adversary, learner), raises every config error at load.

Everything is deterministic given (config, seed): all randomness flows
through counter-based streams, and persisted artifacts contain only
deterministic fields.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .adversary import (
    Adversary,
    AdversaryKind,
    AdversarySpec,
    HintSchedule,
    cyclic_hint_schedule,
    full_domain_schedule,
    known_sequence_schedule,
    next_round,
)
from .core import (
    FiniteDomain,
    HypothesisClass,
    LossKind,
    LossSpec,
    loss_eval,
    make_partition_class,
    make_shatter_class,
    make_support_partition_class,
    whole_numbers,
)
from .errors import FitError, InputError
from .learner import (
    Alg1Smoothed,
    Alg2PoissonFTPL,
    Alg3Transductive,
    DoublingMeta,
    FTL,
    HedgeLearner,
    Learner,
    default_n,
)
from .oracle import TiePolicy, erm
from . import rng as rngmod

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "experiment_id", "learner", "adversary", "class", "T", "sigma", "K",
    "d", "n", "c_K", "tie_policy", "seed", "regret", "total_loss",
    "bih_loss", "oracle_calls", "mean_input_len", "wall_ms",
    "regret_stderr",
]

_KNOWN_KEYS = {
    "schema_version", "experiment_id", "learner", "adversary", "class",
    "loss", "T", "sigma", "K", "d", "n", "c_K", "tie_policy", "seeds",
    "hints", "delta", "out", "custom_xs", "custom_ys",
    "sigma_min", "sigma_max", "max_hints_per_round", "sweep",
}

_KNOWN_CLASS_KEYS = {"kind", "domain_size", "d", "special", "support_size", "json"}
_KNOWN_HINT_KEYS = {"kind", "K"}

_LEARNERS = {"alg1", "alg2", "alg3", "ftl", "hedge", "doubling"}


@dataclass(frozen=True)
class RoundRecord:
    t: int
    x: int
    yhat: float
    y: float
    loss: float
    oracle_calls: int
    oracle_input_len: int

    def to_dict(self) -> dict:
        return {
            "t": self.t, "x": self.x, "yhat": self.yhat, "y": self.y,
            "loss": self.loss, "oracle_calls": self.oracle_calls,
            "oracle_input_len": self.oracle_input_len,
        }


@dataclass
class Transcript:
    rounds: list[RoundRecord]
    total_loss: float
    bih_loss: float
    regret: float
    oracle_calls: int
    total_input_length: int
    max_input_length: int
    final_call_count: int
    seed: int
    config_hash: str
    label_rule_hash: str

    def to_dict(self) -> dict:
        return {
            "rounds": [r.to_dict() for r in self.rounds],
            "total_loss": self.total_loss,
            "bih_loss": self.bih_loss,
            "regret": self.regret,
            "oracle_calls": self.oracle_calls,
            "total_input_length": self.total_input_length,
            "max_input_length": self.max_input_length,
            "final_call_count": self.final_call_count,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "label_rule_hash": self.label_rule_hash,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    learner: str
    adversary: str
    class_spec: dict
    loss: str
    T: int
    sigma: float
    seeds: tuple[int, ...]
    K: int | None = None
    d: int | None = None
    n: float | None = None
    c_K: float = 100.0
    tie_policy: str = "lowest_index"
    hints: dict | None = None
    delta: float = 0.5
    out: str | None = None
    custom_xs: tuple[int, ...] | None = None
    custom_ys: tuple[float, ...] | None = None
    sigma_min: float | None = None
    sigma_max: float | None = None
    max_hints_per_round: int | None = None
    sweep: dict | None = None
    # resolved once at load; none of them enters to_dict or the hash
    hclass: HypothesisClass = field(init=False, compare=False, repr=False)
    schedule: HintSchedule | None = field(init=False, compare=False, repr=False)
    resolved_d: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.learner not in _LEARNERS:
            raise InputError(f"unknown learner {self.learner!r}")
        for key, kind in (("adversary", AdversaryKind), ("loss", LossKind),
                          ("tie_policy", TiePolicy)):
            if getattr(self, key) not in {k.value for k in kind}:
                raise InputError(f"unknown {key} {getattr(self, key)!r}; expected "
                                 f"one of {sorted(k.value for k in kind)}")
        if self.T < 0:
            raise InputError("T must be nonnegative")
        if not (0.0 < self.sigma <= 1.0):
            raise InputError(f"sigma must be in (0, 1], got {self.sigma}")
        if not self.seeds:
            raise InputError("need at least one seed")
        if self.hints is not None and set(self.hints) - _KNOWN_HINT_KEYS:
            raise InputError(f"unknown hint keys {set(self.hints) - _KNOWN_HINT_KEYS}")
        if set(self.class_spec) - _KNOWN_CLASS_KEYS:
            raise InputError(
                f"unknown class keys {set(self.class_spec) - _KNOWN_CLASS_KEYS}")
        if self.learner in ("alg1", "alg3") and self.loss == "binary_indicator":
            raise InputError(
                f"{self.learner} predicts in [-1, 1] and needs a real-valued loss; "
                "use 'absolute', which on +-1 labels is the expected indicator "
                "loss of randomized rounding")
        hclass = build_class(self.class_spec)
        object.__setattr__(self, "hclass", hclass)
        object.__setattr__(self, "resolved_d",
                           hclass.declared_dim if self.d is None else self.d)
        object.__setattr__(self, "schedule",
                           build_hint_schedule(self, hclass.domain_size))
        if self.T >= 1:
            # build one game's players now, so their checks fail at load
            self.players(self.seeds[0])

    def players(self, seed: int, run: int = 0) -> tuple[Adversary, Learner]:
        """A fresh (adversary, learner) pair for one game."""
        hclass, schedule, d, T = self.hclass, self.schedule, self.resolved_d, self.T
        adversary = Adversary(AdversarySpec(
            kind=AdversaryKind(self.adversary), sigma=self.sigma, d=d,
            delta=self.delta, hint_schedule=schedule, xs=self.custom_xs,
            ys=self.custom_ys), hclass, T, seed, run)
        common = dict(seed=seed, run=run, tie=TiePolicy(self.tie_policy))
        loss = LossSpec.of(self.loss)
        if self.learner == "alg3":
            if schedule is None:
                raise InputError("hint-based learner requires a hint schedule")
            learner = Alg3Transductive(hclass, loss, T, schedule, **common)
        elif self.learner == "alg1":
            learner = Alg1Smoothed(hclass, loss, T, sigma=self.sigma, K=self.K,
                                   c_K=self.c_K,
                                   max_hints_per_round=self.max_hints_per_round,
                                   **common)
        elif self.learner == "alg2":
            n = self.n if self.n is not None else default_n(
                T, self.sigma, hclass.domain_size, max(1, d))
            learner = Alg2PoissonFTPL(hclass, loss, T, n=n, **common)
        elif self.learner == "ftl":
            learner = FTL(hclass, loss, T, **common)
        elif self.learner == "hedge":
            learner = HedgeLearner(hclass, loss, T, **common)
        else:
            if self.sigma_min is None or self.sigma_max is None:
                raise InputError("doubling learner needs sigma_min and sigma_max")
            learner = DoublingMeta(hclass, loss, T, self.sigma_min, self.sigma_max,
                                   d=d, **common)
        return adversary, learner

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        unknown = set(obj) - _KNOWN_KEYS
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise InputError(
                f"unsupported schema_version {obj.get('schema_version')!r}")
        kwargs = dict(
            experiment_id=obj["experiment_id"],
            learner=obj["learner"],
            adversary=obj["adversary"],
            class_spec=obj["class"],
            loss=obj["loss"],
            T=int(whole_numbers(obj["T"], "T")),
            sigma=float(obj["sigma"]),
            seeds=tuple(whole_numbers(obj["seeds"], "seeds").tolist()),
        )
        for key in ("c_K", "tie_policy", "hints", "delta", "out",
                    "sigma_min", "sigma_max", "sweep"):
            if key in obj and obj[key] is not None:
                kwargs[key] = obj[key]
        for key in ("K", "d", "max_hints_per_round"):
            if obj.get(key) is not None:
                kwargs[key] = int(whole_numbers(obj[key], key))
        if obj.get("n") is not None:
            kwargs["n"] = float(obj["n"])
        if obj.get("custom_xs") is not None:
            kwargs["custom_xs"] = tuple(whole_numbers(obj["custom_xs"],
                                                      "custom_xs").tolist())
        if obj.get("custom_ys") is not None:
            kwargs["custom_ys"] = tuple(float(y) for y in obj["custom_ys"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, doc: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(doc))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "learner": self.learner,
            "adversary": self.adversary,
            "class": self.class_spec,
            "loss": self.loss,
            "T": self.T,
            "sigma": self.sigma,
            "seeds": list(self.seeds),
            "K": self.K, "d": self.d, "n": self.n, "c_K": self.c_K,
            "tie_policy": self.tie_policy,
            "hints": self.hints, "delta": self.delta, "out": self.out,
            "custom_xs": None if self.custom_xs is None else list(self.custom_xs),
            "custom_ys": None if self.custom_ys is None else list(self.custom_ys),
            "sigma_min": self.sigma_min, "sigma_max": self.sigma_max,
            "max_hints_per_round": self.max_hints_per_round,
            "sweep": self.sweep,
        }

    def config_hash(self) -> str:
        doc = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A new config through `from_dict`, so it is checked and resolved
        like a loaded one; keys are the JSON keys."""
        return ExperimentConfig.from_dict(self.to_dict() | kwargs)


def build_class(spec: dict) -> HypothesisClass:
    kind = spec.get("kind")
    if kind == "partition":
        return make_partition_class(FiniteDomain(spec["domain_size"]), spec["d"])
    if kind == "shatter":
        return make_shatter_class(FiniteDomain(spec["domain_size"]), spec["special"])
    if kind == "support_partition":
        return make_support_partition_class(
            FiniteDomain(spec["domain_size"]), spec["support_size"], spec["d"])
    if kind == "json":
        return HypothesisClass.from_json(spec["json"])
    raise InputError(f"unknown class kind {kind!r}")


def build_hint_schedule(config: ExperimentConfig, domain_size: int) -> HintSchedule | None:
    if config.T == 0:  # an empty game needs no schedule
        return None
    if config.hints is None:
        if config.adversary == "custom_table" and config.custom_xs is not None:
            return known_sequence_schedule(config.custom_xs[:config.T])
        return None
    kind = config.hints["kind"]
    if kind == "cyclic":
        K = int(whole_numbers(config.hints.get("K") or config.K or 1, "hints.K"))
        if domain_size % K != 0:
            raise InputError(f"domain size {domain_size} not divisible by K={K}")
        blocks = [np.arange(j * K, (j + 1) * K) for j in range(domain_size // K)]
        return cyclic_hint_schedule(config.T, blocks)
    if kind == "known":
        if config.custom_xs is None:
            raise InputError("known-sequence hints require custom_xs")
        return known_sequence_schedule(config.custom_xs[:config.T])
    if kind == "full":
        return full_domain_schedule(config.T, domain_size)
    raise InputError(f"unknown hint kind {kind!r}")


def run_game(config: ExperimentConfig, seed: int, run: int = 0) -> Transcript:
    """Play one T-round game and return its full transcript."""
    if config.T == 0:
        return Transcript([], 0.0, 0.0, 0.0, 0, 0, 0, 0, seed,
                          config.config_hash(), hashlib.sha256(b"").hexdigest()[:16])
    loss = LossSpec.of(config.loss)
    adversary, learner = config.players(seed, run)

    rounds: list[RoundRecord] = []
    label_hash = hashlib.sha256()
    total_loss = 0.0
    prev_calls = 0
    prev_len = 0
    for t in range(1, config.T + 1):
        commitment, x_t, label_rule = next_round(
            adversary, t, rngmod.stream(seed, run, t, "instance"))
        # the label rule is committed (hashed) before the prediction
        label_hash.update(commitment.label_table.tobytes())
        yhat = learner.predict(t, x_t)
        y_t = label_rule(x_t)
        loss_val = loss_eval(loss, yhat, y_t)
        learner.update(t, x_t, y_t)
        adversary.observe(t, x_t, yhat, y_t)
        total_loss += loss_val
        rounds.append(RoundRecord(
            t=t, x=x_t, yhat=float(yhat), y=y_t, loss=float(loss_val),
            oracle_calls=learner.stats.call_count - prev_calls,
            oracle_input_len=learner.stats.total_input_length - prev_len,
        ))
        prev_calls = learner.stats.call_count
        prev_len = learner.stats.total_input_length

    # only the optimal value is read, so the default tie policy serves
    _, bih_loss = erm(config.hclass, learner.history, loss, stats=learner.stats,
                      tag="final")
    return Transcript(
        rounds=rounds,
        total_loss=float(total_loss),
        bih_loss=float(bih_loss),
        regret=float(total_loss - bih_loss),
        oracle_calls=learner.stats.call_count,
        total_input_length=learner.stats.total_input_length,
        max_input_length=learner.stats.max_input_length,
        final_call_count=learner.stats.final_call_count,
        seed=seed,
        config_hash=config.config_hash(),
        label_rule_hash=label_hash.hexdigest()[:16],
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def _csv_row(config: ExperimentConfig, d: int, seed, regret, total_loss,
             bih_loss, oracle_calls, mean_input_len, regret_stderr="") -> str:
    # wall_ms is always 0, so re-runs are byte-identical
    vals = [
        config.experiment_id, config.learner, config.adversary,
        config.class_spec.get("kind", "json"), config.T, config.sigma,
        config.K if config.K is not None else "", d,
        config.n if config.n is not None else "", config.c_K,
        config.tie_policy, seed, regret, total_loss, bih_loss, oracle_calls,
        mean_input_len, 0.0, regret_stderr,
    ]
    return ",".join(_fmt(v) for v in vals)


def _worker_count(jobs: int, n_seeds: int) -> int:
    """Processes used for `jobs` requested workers: never more than the
    seeds to play or the CPUs available."""
    return min(jobs, n_seeds, os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig,
                   jobs: int) -> tuple[list[Transcript], str]:
    """Run every seed, over a process pool when more than one worker is
    useful, and return the transcripts with the CSV text (per-seed rows
    sorted by seed, then one aggregate row with mean regret and its
    standard error).  Writes no file."""
    seeds = sorted(config.seeds)
    workers = _worker_count(jobs, len(seeds))
    if workers > 1:
        # imported here: it loads multiprocessing, which a one-worker run
        # never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            transcripts = list(pool.map(run_game, [config] * len(seeds), seeds))
    else:
        transcripts = [run_game(config, seed) for seed in seeds]
    d = config.resolved_d
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    regrets = []
    for tr in transcripts:
        mean_len = tr.total_input_length / max(tr.oracle_calls, 1)
        out.write(_csv_row(config, d, tr.seed, tr.regret, tr.total_loss,
                           tr.bih_loss, tr.oracle_calls, mean_len) + "\n")
        regrets.append(tr.regret)
    mean_regret = float(np.mean(regrets))
    stderr = (float(np.std(regrets, ddof=1) / math.sqrt(len(regrets)))
              if len(regrets) > 1 else 0.0)
    out.write(_csv_row(config, d, "mean", mean_regret, "", "", "", "",
                       regret_stderr=stderr) + "\n")
    return transcripts, out.getvalue()


@dataclass(frozen=True)
class FitResult:
    alpha: float
    intercept: float
    r_squared: float
    excluded: tuple[int, ...]


def fit_scaling(Ts, mean_regrets) -> FitResult:
    """Least-squares fit of ln(mean regret) against ln(T).

    Rows with nonpositive regret are excluded (with a warning via the
    result's `excluded` field); fitting needs >= 3 surviving T values.
    """
    Ts = np.asarray(Ts, dtype=float)
    rs = np.asarray(mean_regrets, dtype=float)
    if Ts.shape != rs.shape:
        raise InputError("Ts and regrets must align")
    keep = rs > 0
    excluded = tuple(int(t) for t in Ts[~keep])
    Ts, rs = Ts[keep], rs[keep]
    if np.unique(Ts).size < 3:
        raise FitError("need at least 3 distinct T values with positive regret")
    lx, ly = np.log(Ts), np.log(rs)
    alpha, intercept = np.polyfit(lx, ly, 1)
    pred = alpha * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(float(alpha), float(intercept), r2, excluded)
