"""Span tracer that wraps smoothlab's public functions from outside.

A span is ``[name, start, end, parent, game]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``game`` names the game the
span belongs to (``learner/seed``), or is None outside games.  Spans are
kept in memory and written as JSON lines by `Tracer.write`.

`Tracer.install` rebinds each traced function wherever a smoothlab
module holds it, and wraps methods on their classes; `Tracer.uninstall`
puts the originals back, and `Tracer.installed` does both around a
block.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import smoothlab.adversary as adversary
import smoothlab.cli as cli
import smoothlab.core as core
import smoothlab.harness as harness
import smoothlab.learner as learner
import smoothlab.oracle as oracle
import smoothlab.rng as rng
import smoothlab.verify as verify
from smoothlab.errors import ContractViolation

# span name -> per-layer metric that receives the span's self time
SELF_MS = {
    "bench.pass": "bench.self_ms",
    "cli.main": "cli.self_ms",
    "harness.run_experiment": "harness.csv_ms",
    "harness.run_game": "harness.game.self_ms",
    "adversary.commit": "adversary.commit.ms",
    "adversary.certificate": "adversary.certificate.ms",
    "adversary.observe": "adversary.observe.ms",
    "rng.stream": "rng.stream.ms",
    "learner.predict": "learner.predict.self_ms",
    "learner.update": "learner.update.ms",
    "oracle.erm": "oracle.erm.ms",
    "oracle.mixed_opt": "oracle.mixed_opt.ms",
    "verify.suite": "verify.suite.ms",
    "verify.coupling": "verify.coupling.ms",
    "verify.tv": "verify.tv.ms",
    "verify.monotonicity": "verify.monotonicity.ms",
    "verify.admissibility": "verify.admissibility.ms",
    "verify.gengap": "verify.gengap.ms",
}

# span name -> per-layer metric that receives the number of spans
SPAN_COUNTS = {
    "harness.run_game": "harness.game.count",
    "rng.stream": "rng.stream.count",
    "oracle.erm": "oracle.erm.count",
    "oracle.mixed_opt": "oracle.mixed_opt.count",
}

# counters kept by the wrappers themselves
COUNTERS = (
    "adversary.certificate.fail",
    "learner.perturb.size",
    "oracle.input_len",
    "oracle.distinct_pairs",
    "core.loss_eval.count",
    "core.multiset_add.count",
)

# public functions and methods to trace: (owner, attribute, span name)
_FUNCTIONS = (
    (cli, "main", "cli.main"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "run_game", "harness.run_game"),
    (rng, "stream", "rng.stream"),
    (oracle, "erm", "oracle.erm"),
    (oracle, "mixed_opt", "oracle.mixed_opt"),
    (cli, "cmd_verify", "verify.suite"),
    (verify, "coupling_montecarlo", "verify.coupling"),
    (verify, "tv_exact_poisson", "verify.tv"),
    (verify, "monotonicity_check", "verify.monotonicity"),
    (verify, "admissibility_check", "verify.admissibility"),
    (verify, "generalization_gap_mc", "verify.gengap"),
)
_METHODS = (
    (adversary.Adversary, "commit", "adversary.commit"),
    (adversary.RoundCommitment, "check_contract", "adversary.certificate"),
    (adversary.Adversary, "observe", "adversary.observe"),
    (learner.FTL, "predict", "learner.predict"),
    (learner.Alg2PoissonFTPL, "predict", "learner.predict"),
    (learner.Alg3Transductive, "predict", "learner.predict"),
    (learner.Alg1Smoothed, "predict", "learner.predict"),
    (learner.Learner, "update", "learner.update"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, game: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if game is None and parent >= 0:
            game = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), 0.0, parent, game])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _timed(self, fn, name, game_of=None, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.open(name, game_of(*args, **kwargs) if game_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(*args, **kwargs)
            return out
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that read counts from call arguments ----------------------

    def _erm_sizes(self, hclass, S, *args, **kwargs):
        self.counts["oracle.input_len"] += S.logical_size
        self.counts["oracle.distinct_pairs"] += len(S.items())

    def _mixed_sizes(self, hclass, S_real, S_bin, *args, **kwargs):
        self.counts["oracle.input_len"] += S_real.logical_size + S_bin.logical_size
        self.counts["oracle.distinct_pairs"] += len(S_real.items()) + len(S_bin.items())
        if self._current() == "learner.predict":
            self.counts["learner.perturb.size"] += S_bin.logical_size

    def _hallucinations(self, learner_obj, *args, **kwargs):
        self.counts["learner.perturb.size"] += learner_obj.last_hallucination_count

    def _certificate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(commitment):
            try:
                return fn(commitment)
            except ContractViolation:
                counts["adversary.certificate.fail"] += 1
                raise
        return self._timed(wrapper, "adversary.certificate")

    # -- installation ----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace `original` in every smoothlab module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "smoothlab"
                                   or mod_name.startswith("smoothlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original, True))
                    setattr(mod, attr, replacement)

    def _set_method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__.get(attr), attr in cls.__dict__))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        hooks = {
            "oracle.erm": {"before": self._erm_sizes},
            "oracle.mixed_opt": {"before": self._mixed_sizes},
            "harness.run_game": {
                "game_of": lambda config, seed, *a, **k: f"{config.learner}/{seed}"},
        }
        for owner, attr, name in _FUNCTIONS:
            fn = getattr(owner, attr)
            self._rebind(fn, self._timed(fn, name, **hooks.get(name, {})))
        for cls, attr, name in _METHODS:
            fn = getattr(cls, attr)
            if name == "adversary.certificate":
                wrapped = self._certificate(fn)
            elif cls is learner.Alg2PoissonFTPL:
                wrapped = self._timed(fn, name, after=self._hallucinations)
            else:
                wrapped = self._timed(fn, name)
            self._set_method(cls, attr, wrapped)
        self._rebind(core.loss_eval,
                     self._counted(core.loss_eval, "core.loss_eval.count"))
        self._set_method(core.ExampleMultiset, "add", self._counted(
            core.ExampleMultiset.add, "core.multiset_add.count"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced passes."""
        totals = {metric: 0.0 for metric in SELF_MS.values()}
        totals.update({metric: 0 for metric in SPAN_COUNTS.values()})
        totals.update({key: 0 for key in COUNTERS})
        for span, self_s in zip(self.spans, self.self_times()):
            totals[SELF_MS[span[0]]] += self_s * 1000.0
            if span[0] in SPAN_COUNTS:
                totals[SPAN_COUNTS[span[0]]] += 1
        totals.update(self.counts)
        out = {k: v / passes for k, v in totals.items()}
        logical = totals["oracle.input_len"]
        out["oracle.distinct_ratio"] = (totals["oracle.distinct_pairs"] / logical
                                        if logical else 0.0)
        out["trace.root_ms"] = self.root_seconds() * 1000.0 / passes
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, game in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent,
                                    "game": game}) + "\n")
