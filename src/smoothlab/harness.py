"""Game loop, experiment configuration, the experiment runner, scaling fits.

The per-round protocol enforced by `run_game`:

1. the adversary commits to a distribution over instances and a full
   label table (hashed into the transcript before any prediction);
2. the smoothness or hint-support certificate is checked, once per
   distinct commitment and before any x_t is drawn from it, and the
   harness samples x_t from the committed distribution;
3. the learner predicts;
4. the label is revealed from the committed table and the loss recorded.

Each round logs one tuple (t, x_t, prediction, label, loss and the
learner's cumulative oracle calls and input length); the game builds its
columnar round log, `Transcript.rounds`, once at its end, each round's
oracle counts being differences of the cumulative ones.

Each `ExperimentConfig` field declares its JSON key and the loader that
checks and converts its value (`_key`); loading, `to_dict`, the key
checks and the CSV row all derive from these declarations, and the
`class` and `hints` blocks take the keys their `kind` names.  A
constructed `ExperimentConfig` is resolved: its class, hint schedule
and `d` are built once, and every config (T >= 1) probes one game's
`players` (the adversary, then the learner by `_LEARNERS`) at load.

`run_experiment` plays the games of a list of configs over one process
pool and writes their one CSV; `fit_csv` fits that CSV's mean rows.

Everything is deterministic given (config, seed): all randomness flows
through counter-based streams, and persisted artifacts contain only
deterministic fields.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields

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
    check_sigma,
    check_sign_args,
    loss_kernel,
    make_partition_class,
    make_shatter_class,
    make_support_partition_class,
    usable_cpus,
    whole_number,
)
from .errors import FitError, InputError
from .learner import (
    Alg1Smoothed,
    Alg2PoissonFTPL,
    Alg3Transductive,
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


def _real(key: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise InputError(f"{key} must be a finite real number, got {v!r}")
    return float(v)


def _text(key: str, v) -> str:
    if not isinstance(v, str):
        raise InputError(f"{key} must be a string, got {v!r}")
    return v


def _one_of(*names: str):
    def load(key: str, v) -> str:
        if not isinstance(v, str) or v not in names:
            raise InputError(f"unknown {key} {v!r}; expected one of {sorted(names)}")
        return v
    return load


def _list(load, nonempty: bool = False):
    def load_list(key: str, v) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise InputError(f"{key} must be a list, got {v!r}")
        if nonempty and not v:
            raise InputError(f"{key} must list at least one value")
        return tuple(load(key, x) for x in v)
    return load_list


def _seeds(key: str, v) -> tuple[int, ...]:
    seeds = _list(whole_number)(key, v)
    if seeds and min(seeds) < 0:
        raise InputError(f"{key} must be nonnegative, got {list(seeds)}")
    return seeds


def _object(key: str, v, loaders: dict, required=()) -> dict:
    """`v` with each key `k` passed through its loader as `key.k` (as `k`
    when `key` is empty, for the config itself); a null value counts as
    an absent key."""
    if not isinstance(v, dict):
        raise InputError(f"{key} must be an object, got {v!r}")
    given = {k: x for k, x in v.items() if x is not None}
    unknown, missing = set(v) - set(loaders), set(required) - set(given)
    if unknown:
        raise InputError(f"{key or 'config'} takes keys {sorted(loaders)}, "
                         f"not {sorted(unknown)}")
    if missing:
        raise InputError(f"{key or 'config'} needs keys {sorted(missing)}")
    return {k: loaders[k](f"{key}.{k}" if key else k, x) for k, x in given.items()}


def _kinds(table: dict, optional=()):
    """Loader of a block whose `kind` picks from `table` the loaders of
    its other keys, each required unless named in `optional`."""
    def load(key: str, v) -> dict:
        kind = v.get("kind") if isinstance(v, dict) else None
        loaders = table[_one_of(*table)(f"{key} kind", kind)]
        return _object(key, v, loaders | {"kind": _text}, set(loaders) - set(optional))
    return load


# each class kind: the loaders of its keys and the maker of its class
_CLASS_KINDS = {
    "partition": (
        {"domain_size": whole_number, "d": whole_number},
        lambda s: make_partition_class(FiniteDomain(s["domain_size"]), s["d"])),
    "shatter": (
        {"domain_size": whole_number, "special": _list(whole_number)},
        lambda s: make_shatter_class(FiniteDomain(s["domain_size"]), s["special"])),
    "support_partition": (
        {"domain_size": whole_number, "support_size": whole_number, "d": whole_number},
        lambda s: make_support_partition_class(
            FiniteDomain(s["domain_size"]), s["support_size"], s["d"])),
    "json": ({"json": _text}, lambda s: HypothesisClass.from_json(s["json"])),
}


# each learner's maker (config, loss, seed=, tie=) -> Learner
_LEARNERS = {
    "alg1": lambda c, loss, **kw: Alg1Smoothed(
        c.hclass, loss, c.T, sigma=c.sigma, K=c.K, c_K=c.c_K,
        max_hints_per_round=c.max_hints_per_round, **kw),
    "alg2": lambda c, loss, **kw: Alg2PoissonFTPL(c.hclass, loss, c.T, n=default_n(
        c.T, c.sigma, c.hclass.domain_size, c.resolved_d) if c.n is None else c.n, **kw),
    "alg3": lambda c, loss, **kw: Alg3Transductive(c.hclass, loss, c.T, c.schedule, **kw),
    "ftl": lambda c, loss, **kw: FTL(c.hclass, loss, c.T, **kw),
    "hedge": lambda c, loss, **kw: HedgeLearner(c.hclass, loss, c.T, **kw),
}


def _key(load, default=MISSING, *, json_key: str | None = None):
    """A config field read from `json_key` (default: the field's name)
    through `load(key, value)`, which raises InputError naming the key."""
    return field(default=default, metadata={"load": load, "key": json_key})


# the round log's columns; the oracle counts are the learner's in that round
ROUND_DTYPE = np.dtype([("t", np.int64), ("x", np.int64), ("yhat", float), ("y", float),
                        ("loss", float), ("oracle_calls", np.int64),
                        ("oracle_input_len", np.int64)])


@dataclass(eq=False)
class Transcript:
    rounds: np.ndarray  # the round log, one ROUND_DTYPE record per round
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
        """Every field, the round log as one {column: value} dict per round."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["rounds"] = [dict(zip(ROUND_DTYPE.names, r)) for r in self.rounds.tolist()]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str = _key(_text)
    learner: str = _key(_one_of(*_LEARNERS))
    adversary: str = _key(_one_of(*(k.value for k in AdversaryKind)))
    class_spec: dict = _key(_kinds({k: keys for k, (keys, _) in _CLASS_KINDS.items()}),
                            json_key="class")
    loss: str = _key(_one_of(*(k.value for k in LossKind)))
    T: int = _key(whole_number)
    sigma: float = _key(_real)
    seeds: tuple[int, ...] = _key(_seeds)
    K: int | None = _key(whole_number, None)
    d: int | None = _key(whole_number, None)
    n: float | None = _key(_real, None)
    c_K: float = _key(_real, 100.0)
    tie_policy: str = _key(_one_of(*(k.value for k in TiePolicy)), "lowest_index")
    hints: dict | None = _key(_kinds(
        {"cyclic": {"K": whole_number}, "known": {}, "full": {}}, optional={"K"}), None)
    delta: float = _key(_real, 0.5)
    out: str | None = _key(_text, None)
    custom_xs: tuple[int, ...] | None = _key(_list(whole_number), None)
    custom_ys: tuple[float, ...] | None = _key(_list(_real), None)
    max_hints_per_round: int | None = _key(whole_number, None)
    sweep: dict | None = _key(lambda key, v: _object(key, v, {
        k: _list(_FIELDS[k].metadata["load"], nonempty=True)
        for k in ("T", "sigma", "K", "n")}), None)
    # resolved once at load; none of them enters to_dict or the hash
    hclass: HypothesisClass = field(init=False, compare=False, repr=False)
    schedule: HintSchedule | None = field(init=False, compare=False, repr=False)
    resolved_d: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.T < 1:
            raise InputError(f"T must be >= 1, got {self.T}")
        check_sigma(self.sigma)
        if not self.seeds:
            raise InputError("need at least one seed")
        if self.d is not None and self.d < 1:
            raise InputError(f"d must be >= 1, got {self.d}")
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
        # build one game's players now, so their checks fail at load
        self.players(self.seeds[0])
        if self.custom_ys is not None:  # the labels a game would reveal
            check_sign_args(LossSpec.of(self.loss), (), self.custom_ys, yhat_binary=True)
        # a key no player reads would enter the CSV as if it shaped the
        # games, and a swept one would write identical games; a key is set
        # when it differs from its default (to_dict writes every key)
        alg1 = self.learner == "alg1"
        reads = {"n": self.learner == "alg2", "c_K": alg1 and self.K is None,
                 "K": alg1 or self.hints == {"kind": "cyclic"}, "max_hints_per_round": alg1}
        set_keys = [k for k in reads if getattr(self, k) != _FIELDS[k].default]
        for what, keys in (("config sets", set_keys), ("sweep varies", self.sweep or ())):
            unread = sorted(k for k in keys if not reads.get(k, True))
            if unread:
                raise InputError(f"{what} {unread}, which no player of this config reads")

    def players(self, seed: int) -> tuple[Adversary, Learner]:
        """A fresh (adversary, learner) pair for one game."""
        adversary = Adversary(AdversarySpec(
            kind=AdversaryKind(self.adversary), sigma=self.sigma, d=self.resolved_d,
            delta=self.delta, hint_schedule=self.schedule, xs=self.custom_xs,
            ys=self.custom_ys), self.hclass, self.T, seed)
        return adversary, _LEARNERS[self.learner](
            self, LossSpec.of(self.loss), seed=seed, tie=TiePolicy(self.tie_policy))

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise InputError(f"a config must be an object, got {obj!r}")
        unknown = set(obj) - set(_FIELDS) - {"schema_version"}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise InputError(
                f"unsupported schema_version {obj.get('schema_version')!r}")
        doc = _object("", {k: v for k, v in obj.items() if k != "schema_version"},
                      {k: f.metadata["load"] for k, f in _FIELDS.items()},
                      [k for k, f in _FIELDS.items() if f.default is MISSING])
        return cls(**{_FIELDS[k].name: v for k, v in doc.items()})

    @classmethod
    def from_json(cls, doc: str, seed_base: int = 0) -> "ExperimentConfig":
        """The config `doc` holds, every seed shifted by `seed_base`: the
        seeds pass their checks as given, then the shifted config loads
        once (and a shift that makes a seed negative fails there)."""
        obj = json.loads(doc)
        if seed_base and isinstance(obj, dict) and obj.get("seeds") is not None:
            obj["seeds"] = [s + seed_base for s in _seeds("seeds", obj["seeds"])]
        return cls.from_dict(obj)

    def to_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION}
        for key, f in _FIELDS.items():
            v = getattr(self, f.name)
            doc[key] = list(v) if isinstance(v, tuple) else v
        return doc

    def config_hash(self) -> str:
        doc = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A new config through `from_dict`, so it is checked and resolved
        like a loaded one; keys are the JSON keys."""
        return ExperimentConfig.from_dict(self.to_dict() | kwargs)

    def grid(self) -> list["ExperimentConfig"]:
        """The config at each point of the `sweep` block, keys sorted and the
        last key varying fastest, each loaded (and so checked) here."""
        keys = sorted(self.sweep or {})
        return [self.with_overrides(sweep=None, **dict(zip(keys, point)))
                for point in itertools.product(*(self.sweep[k] for k in keys))]


# every field a config file sets, by its JSON key
_FIELDS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig) if f.init}


def build_class(spec: dict) -> HypothesisClass:
    _, make = _CLASS_KINDS[_one_of(*_CLASS_KINDS)("class kind", spec.get("kind"))]
    return make(spec)


def build_hint_schedule(config: ExperimentConfig, domain_size: int) -> HintSchedule | None:
    if config.hints is None:
        if config.adversary == "custom_table" and config.custom_xs is not None:
            return known_sequence_schedule(config.custom_xs[:config.T])
        return None
    kind = config.hints["kind"]
    if kind == "cyclic":
        K = config.hints.get("K", config.K)
        K = 1 if K is None else K
        if K < 1:
            raise InputError(f"cyclic hints need K >= 1, got K={K}")
        if domain_size % K != 0:
            raise InputError(f"domain size {domain_size} not divisible by K={K}")
        blocks = [np.arange(j * K, (j + 1) * K) for j in range(domain_size // K)]
        return cyclic_hint_schedule(config.T, blocks)
    if kind == "known":
        if config.custom_xs is None:
            raise InputError("known-sequence hints require custom_xs")
        return known_sequence_schedule(config.custom_xs[:config.T])
    return full_domain_schedule(config.T, domain_size)


def run_game(config: ExperimentConfig, seed: int) -> Transcript:
    """Play one T-round game and return its full transcript."""
    loss = LossSpec.of(config.loss)
    adversary, learner = config.players(seed)
    stats = learner.stats

    # per round: t, x, yhat, y, loss and the cumulative oracle counters
    log = []
    label_hash = hashlib.sha256()
    total_loss = 0.0
    for t in range(1, config.T + 1):
        commitment, x_t = next_round(adversary, t, rngmod.stream(seed, t, "instance"))
        # the label table is committed (hashed) before the prediction
        label_hash.update(commitment.label_table.tobytes())
        yhat = learner.predict(t, x_t)
        y_t = float(commitment.label_table[x_t])
        # unchecked: yhat's class and y_t were checked where they entered
        loss_val = loss_kernel(loss.kind, yhat, y_t)
        learner.update(t, x_t, y_t)
        adversary.observe(t, x_t, yhat, y_t)
        total_loss += loss_val
        log.append((t, x_t, yhat, y_t, loss_val, stats.call_count,
                    stats.total_input_length))
    rounds = np.array(log, dtype=ROUND_DTYPE)
    for column in ("oracle_calls", "oracle_input_len"):  # per round, not cumulative
        rounds[column] = np.diff(rounds[column], prepend=0)

    # only the optimal value is read, so the default tie policy serves
    _, bih_loss = erm(config.hclass, learner.session, loss, stats=stats, tag="final")
    return Transcript(
        rounds=rounds,
        total_loss=float(total_loss),
        bih_loss=float(bih_loss),
        regret=float(total_loss - bih_loss),
        oracle_calls=stats.call_count,
        total_input_length=stats.total_input_length,
        max_input_length=stats.max_input_length,
        final_call_count=stats.final_call_count,
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


def _csv_row(config: ExperimentConfig, **cols) -> str:
    # wall_ms is always 0, so re-runs are byte-identical
    # a column the config and `cols` leave out is blank
    vals = config.to_dict() | {"class": config.class_spec["kind"],
                               "d": config.resolved_d, "wall_ms": 0.0} | cols
    return ",".join(_fmt(vals.get(c)) for c in CSV_COLUMNS)


def _worker_count(jobs: int, n_games: int) -> int:
    """Processes used for `jobs` (whole, >= 1) requested workers: never
    more than the games to play or the CPUs this process may run on."""
    if whole_number("jobs", jobs) < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    return min(int(jobs), n_games, usable_cpus())


def run_experiment(configs: list[ExperimentConfig],
                   jobs: int) -> tuple[list[Transcript], str]:
    """Play every seed of every config, over one process pool when more
    than one worker is useful.  Return the transcripts (config by config,
    seeds sorted) and the CSV text: one header, then per config its
    per-seed rows and a mean row with the regret's standard error; writes no file."""
    games = [(c, seed) for c in configs for seed in sorted(c.seeds)]
    workers = _worker_count(jobs, len(games))
    if workers > 1:
        # imported here: it loads multiprocessing, which a one-worker run
        # never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            transcripts = list(pool.map(run_game, *zip(*games)))
    else:
        transcripts = [run_game(c, seed) for c, seed in games]
    lines = [",".join(CSV_COLUMNS)]
    played = iter(transcripts)
    for config in configs:
        own = list(itertools.islice(played, len(config.seeds)))
        lines += [_csv_row(config, seed=tr.seed, regret=tr.regret, total_loss=tr.total_loss,
                           bih_loss=tr.bih_loss, oracle_calls=tr.oracle_calls,
                           mean_input_len=tr.total_input_length / max(tr.oracle_calls, 1))
                  for tr in own]
        regrets = [tr.regret for tr in own]
        stderr = (float(np.std(regrets, ddof=1) / math.sqrt(len(regrets)))
                  if len(regrets) > 1 else 0.0)
        lines.append(_csv_row(config, seed="mean", regret=float(np.mean(regrets)),
                              regret_stderr=stderr))
    return transcripts, "\n".join(lines) + "\n"


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


def fit_csv(text: str) -> FitResult:
    """`fit_scaling` over the mean rows of a `run_experiment` CSV."""
    means = [r for r in csv.DictReader(text.splitlines()) if r.get("seed") == "mean"]
    if not means:
        raise FitError("the CSV has no mean rows (seed = mean), the only rows fit reads")
    return fit_scaling([float(r["T"]) for r in means], [float(r["regret"]) for r in means])
