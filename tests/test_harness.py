"""Game loop, experiment configs, CSV output, scaling fits, CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothlab
from smoothlab import harness, verify
from smoothlab import learner as learnermod
from smoothlab.core import ExampleMultiset
from smoothlab.cli import EXIT_CAPACITY, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from smoothlab.errors import FitError, InputError
from smoothlab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    SCHEMA_VERSION,
    Transcript,
    build_class,
    _worker_count,
    build_hint_schedule,
    fit_scaling,
    run_experiment,
    run_game,
)
from smoothlab.verify import VerificationReport


def config_doc(**overrides) -> dict:
    """The unit config as a JSON object, not yet loaded."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": "unit",
        "learner": "alg2",
        "adversary": "realizable_smooth",
        "class": {"kind": "partition", "domain_size": 8, "d": 2},
        "loss": "binary_indicator",
        "T": 12,
        "sigma": 1.0,
        "seeds": [0, 1],
        "n": 6.0,
    }
    obj.update(overrides)
    return obj


def base_config(**overrides):
    return ExperimentConfig.from_dict(config_doc(**overrides))


def json_class(hypotheses, **keys) -> dict:
    """A `json` class block over a 2-point domain with these hypotheses,
    and any document key replaced by `keys`."""
    return {"kind": "json", "json": json.dumps(
        {"domain_size": 2, "hypotheses": hypotheses, "declared_dim": 1,
         "binary": True} | keys)}


class TestExperimentConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            base_config(typo_key=1)
        with pytest.raises(InputError, match="record_timing"):
            base_config(record_timing=True)

    def test_schema_version_checked(self):
        with pytest.raises(InputError):
            base_config(schema_version=99)

    def test_json_roundtrip_stable_hash(self):
        c = base_config()
        back = ExperimentConfig.from_json(json.dumps(c.to_dict()))
        assert back == c
        assert back.config_hash() == c.config_hash()

    def test_overrides_change_hash(self):
        c = base_config()
        assert c.with_overrides(T=24).config_hash() != c.config_hash()

    def test_validation(self):
        with pytest.raises(InputError):
            base_config(learner="mystery")
        with pytest.raises(InputError):
            base_config(sigma=0.0)
        with pytest.raises(InputError):
            base_config(seeds=[])
        for doc in ("[]", "5"):
            with pytest.raises(InputError, match="must be an object"):
                ExperimentConfig.from_json(doc)

    def test_alg3_needs_hints(self):
        with pytest.raises(InputError):
            base_config(learner="alg3")

    _ALG1 = {"learner": "alg1", "loss": "absolute"}

    @pytest.mark.parametrize("key, bad, whole, loaded, rest", [
        ("T", 2.7, 12.0, 12, {}),
        ("seeds", [0.9, 1.5], [0.0, 1.0], (0, 1), {}),
        ("custom_xs", [1.5, 2.9], [1.0, 2.0], (1, 2), {}),
        ("K", 2.7, 2.0, 2, _ALG1),
        ("d", 2.5, 2.0, 2, {}),
        ("max_hints_per_round", 1e3 + 0.5, 1e3, 1000, _ALG1),
    ], ids=["T", "seeds", "custom_xs", "K", "d", "max_hints_per_round"])
    def test_non_integral_integers_rejected(self, key, bad, whole, loaded, rest):
        with pytest.raises(InputError, match=f"{key} must hold integers"):
            base_config(**{key: bad}, **rest)
        assert getattr(base_config(**{key: whole}, **rest), key) == loaded

    def test_non_integral_hint_K_rejected(self):
        alg3 = dict(learner="alg3", adversary="transductive_cyclic",
                    loss="absolute")
        with pytest.raises(InputError, match="hints.K must hold integers"):
            base_config(hints={"kind": "cyclic", "K": 2.5}, **alg3)
        assert base_config(hints={"kind": "cyclic", "K": 2.0}, **alg3).schedule.K == 2

    def test_whole_float_class_d_loads_as_int(self):
        c = base_config(**{"class": {"kind": "partition", "domain_size": 8, "d": 2.0}})
        assert c.class_spec["d"] == 2 and type(c.class_spec["d"]) is int
        assert len(c.hclass) == 4

    def test_tracked_configs_load_round_trip_and_keep_their_hash(self):
        configs = Path(__file__).parents[1] / "perfbench" / "configs"
        hashes = {}
        for path in sorted(configs.glob("*.json")):
            c = ExperimentConfig.from_json(path.read_text())
            assert ExperimentConfig.from_dict(c.to_dict()) == c
            hashes[path.stem] = c.config_hash()
        assert hashes == {
            "ftpl-erm-alg2": "c071c73851506739",
            "ftpl-erm-ftl": "55f7439dc100eb18",
            "hint-mixed-alg1": "197b2d70d1aa2c79",
            "hint-mixed-alg3": "01a558439c1a4d83",
        }

    def test_grid_order(self):
        """Keys sorted, the last key varying fastest, no sweep block left."""
        c = base_config(sweep={"T": [4, 8], "sigma": [0.5, 1.0, 0.25]})
        want = [(4, 0.5), (4, 1.0), (4, 0.25), (8, 0.5), (8, 1.0), (8, 0.25)]
        assert [(g.T, g.sigma) for g in c.grid()] == want
        assert all(g.sweep is None and g.seeds == c.seeds for g in c.grid())

    def test_grid_checks_every_point(self):
        with pytest.raises(InputError, match="T"):
            base_config(sweep={"T": [4, -1]}).grid()

    def test_resolved_once_at_load(self):
        c = base_config(d=None)
        assert len(c.hclass) == 4 and c.resolved_d == 2 and c.schedule is None
        assert "hclass" not in c.to_dict() and "hclass" not in repr(c)
        assert c == ExperimentConfig.from_dict(c.to_dict())

    @pytest.mark.parametrize("learner", ["alg2", "ftl"])
    def test_class_of_declared_dim_zero_loads(self, learner):
        """Only an explicit `d` key must be >= 1; a one-hypothesis class
        declares dimension 0 and plays (alg2 with its n given)."""
        c = base_config(learner=learner, **{"class": json_class([[1, 1]], declared_dim=0)})
        assert c.resolved_d == 0
        _, csv_text = run_experiment([c], 1)
        d = CSV_COLUMNS.index("d")
        assert {row.split(",")[d] for row in csv_text.strip().split("\n")[1:]} == {"0"}

    def test_players_are_fresh_pairs(self):
        c = base_config()
        (a1, l1), (a2, l2) = c.players(0), c.players(0)
        assert a1 is not a2 and l1 is not l2
        assert l1.session is not l2.session
        assert a1.h_star_index == a2.h_star_index

    @pytest.mark.parametrize("tie", ["random", "", "LOWEST_INDEX"])
    def test_unknown_tie_policy_rejected(self, tie):
        with pytest.raises(InputError, match="tie_policy"):
            base_config(tie_policy=tie)

    @pytest.mark.parametrize("learner", ["alg1", "alg3"])
    def test_hint_learner_rejects_indicator_loss(self, learner):
        with pytest.raises(InputError, match="absolute"):
            base_config(learner=learner, adversary="transductive_cyclic",
                        hints={"kind": "cyclic", "K": 2})


class TestBuilders:
    def test_build_class_kinds(self):
        assert len(build_class({"kind": "partition", "domain_size": 6, "d": 3})) == 8
        assert len(build_class({"kind": "shatter", "domain_size": 4,
                                "special": [0, 2]})) == 4
        c = build_class({"kind": "support_partition", "domain_size": 8,
                         "support_size": 2, "d": 2})
        assert len(c) == 4
        with pytest.raises(InputError):
            build_class({"kind": "mystery"})

    def test_cyclic_hint_schedule(self):
        c = base_config(learner="alg3", adversary="transductive_cyclic",
                        hints={"kind": "cyclic", "K": 4}, loss="absolute")
        sched = build_hint_schedule(c, 8)
        assert sched.K == 4 and sched.T == 12
        np.testing.assert_array_equal(sched.row(1), [0, 1, 2, 3])

    def test_cyclic_divisibility(self):
        with pytest.raises(InputError, match="not divisible by K=3"):
            base_config(learner="alg3", adversary="transductive_cyclic",
                        hints={"kind": "cyclic", "K": 3}, loss="absolute")

    @pytest.mark.parametrize("hints, top, K", [
        ({"kind": "cyclic"}, None, 1), ({"kind": "cyclic"}, 4, 4),
        ({"kind": "cyclic", "K": 2}, 4, 2), ({"kind": "cyclic", "K": None}, 2, 2)])
    def test_cyclic_K_falls_back_only_when_absent(self, hints, top, K):
        """The block size is the hints' K, else the top-level K, else 1."""
        c = base_config(learner="alg3", adversary="transductive_cyclic",
                        hints=hints, K=top, loss="absolute")
        assert c.schedule.K == K

    def test_no_hints_returns_none(self):
        assert build_hint_schedule(base_config(), 8) is None

    def test_full_hints_through_a_config(self):
        c = base_config(learner="alg3", adversary="transductive_cyclic",
                        hints={"kind": "full"}, loss="absolute", T=3)
        assert c.schedule.T == 3
        np.testing.assert_array_equal(c.schedule.rows, np.tile(np.arange(8), (3, 1)))
        assert len(run_game(c, 0).rounds) == 3

    def test_known_hints_through_a_config(self):
        xs, ys = [5, 0, 7, 7], [1.0, -1.0, -1.0, 1.0]
        c = base_config(learner="alg3", adversary="custom_table", loss="absolute",
                        hints={"kind": "known"}, T=3, custom_xs=xs, custom_ys=ys)
        np.testing.assert_array_equal(c.schedule.rows, [[5], [0], [7]])
        assert run_game(c, 0).rounds["x"].tolist() == xs[:3]


class TestRunGame:
    def test_transcript_shape_and_regret_identity(self):
        tr = run_game(base_config(), seed=0)
        assert len(tr.rounds) == 12
        assert tr.regret == pytest.approx(tr.total_loss - tr.bih_loss)
        assert tr.total_loss == pytest.approx(tr.rounds["loss"].sum())
        assert tr.oracle_calls == 12 and tr.final_call_count == 1

    def test_alg3_two_calls_per_round(self):
        c = base_config(learner="alg3", adversary="transductive_cyclic",
                        hints={"kind": "cyclic", "K": 4}, n=None,
                        loss="absolute")
        tr = run_game(c, seed=3)
        assert tr.oracle_calls == 2 * 12
        assert (tr.rounds["oracle_calls"] == 2).all()

    def test_deterministic_replay_byte_identical(self):
        c = base_config()
        a = run_game(c, seed=5).to_json()
        b = run_game(c, seed=5).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        c = base_config()
        assert run_game(c, seed=0).to_json() != run_game(c, seed=1).to_json()

    def test_T_zero(self, tmp_path, capsys, monkeypatch):
        """T = 0 used to load without the players' probe and play empty
        games; it is a config error in `run` and at any sweep point."""
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        with pytest.raises(InputError, match="T must be >= 1, got 0"):
            base_config(T=0)
        cfg = tmp_path / "config.json"
        for command, doc in (("run", config_doc(T=0)),
                             ("sweep", config_doc(sweep={"T": [4, 0]}))):
            cfg.write_text(json.dumps(doc))
            assert main([command, str(cfg)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "T must be >= 1" in err

    def test_label_rule_hash_commits_before_prediction(self):
        """Same config and seed give the same committed-label hash; a
        different adversary target (seed) gives a different one."""
        c = base_config()
        assert run_game(c, 0).label_rule_hash == run_game(c, 0).label_rule_hash
        # seeds 0 and 2 draw different target hypotheses for this class
        assert run_game(c, 0).label_rule_hash != run_game(c, 2).label_rule_hash

    def test_realizable_regret_nonnegative(self):
        for seed in range(3):
            assert run_game(base_config(T=24), seed).regret >= -1e-9


# a T=16 game of each oracle learner, and its oracle calls per round
_ORACLE_GAMES = {
    "ftl": ({"learner": "ftl", "n": None}, 1),
    "alg2": ({}, 1),
    "alg1": ({"learner": "alg1", "loss": "absolute", "K": 2, "n": None}, 2),
    "alg3": ({"learner": "alg3", "adversary": "transductive_cyclic",
              "hints": {"kind": "cyclic", "K": 4}, "loss": "absolute",
              "n": None}, 2),
}


class TestOracleBoundary:
    """The learners reach the class only through `erm` and `mixed_opt`,
    seen here the way an outside tracer sees them: wrapped where
    `smoothlab.learner` binds them."""

    @pytest.mark.parametrize("learner", sorted(_ORACLE_GAMES))
    def test_calls_and_input_lengths(self, monkeypatch, learner):
        overrides, per_round = _ORACLE_GAMES[learner]
        calls, sizes = [], []

        def traced(fn, slots):
            def wrapper(hclass, *args, **kwargs):
                for S in args[:slots]:
                    assert isinstance(S.items(), list)
                    sizes.append(S.logical_size)
                calls.append(fn.__name__)
                return fn(hclass, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(learnermod, "erm", traced(learnermod.erm, 1))
        monkeypatch.setattr(learnermod, "mixed_opt",
                            traced(learnermod.mixed_opt, 2))
        tr = run_game(base_config(T=16, **overrides), seed=1)
        assert len(calls) == per_round * 16 == tr.oracle_calls
        assert set(calls) == {"erm" if per_round == 1 else "mixed_opt"}
        assert sum(sizes) == tr.total_input_length

    @pytest.mark.parametrize("case", sorted(_ORACLE_GAMES) + ["verify_suite_all"])
    def test_no_round_builds_a_multiset(self, monkeypatch, case):
        """Once the players exist, no round or final call builds or adds
        to a multiset record: the oracles see sessions and count tables.
        Nor does any check of the verify suite."""
        def forbidden(*args, **kwargs):
            raise AssertionError("a multiset record was built")

        def forbid():
            for name in ("__init__", "add"):
                monkeypatch.setattr(ExampleMultiset, name, forbidden)

        if case == "verify_suite_all":
            forbid()
            assert all(report.passed for report in verify.run_suite("all"))
            return

        def forbid_then_round(*args):
            forbid()
            return next_round(*args)

        next_round = harness.next_round
        monkeypatch.setattr(harness, "next_round", forbid_then_round)
        overrides, per_round = _ORACLE_GAMES[case]
        tr = run_game(base_config(T=16, **overrides), seed=1)
        assert tr.oracle_calls == per_round * 16


class TestRunExperiment:
    def test_class_resolved_once(self, monkeypatch):
        c = base_config(seeds=[0, 1, 2])
        calls = []
        real = harness.build_class
        monkeypatch.setattr(harness, "build_class",
                            lambda spec: calls.append(spec) or real(spec))
        run_experiment([c], 1)
        assert calls == []

    def test_csv_shape(self):
        _, csv_text = run_experiment([base_config()], 1)
        lines = csv_text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 + 1  # header, two seeds, aggregate
        agg = lines[-1].split(",")
        assert agg[CSV_COLUMNS.index("seed")] == "mean"
        assert float(agg[-1]) >= 0.0  # regret_stderr

    def test_aggregate_mean(self):
        transcripts, csv_text = run_experiment([base_config()], 1)
        agg = csv_text.strip().split("\n")[-1].split(",")
        mean = float(agg[CSV_COLUMNS.index("regret")])
        assert mean == pytest.approx(np.mean([t.regret for t in transcripts]))

    def test_wall_ms_column_always_zero(self):
        _, csv_text = run_experiment([base_config()], 1)
        col = CSV_COLUMNS.index("wall_ms")
        rows = csv_text.strip().split("\n")[1:]
        assert [row.split(",")[col] for row in rows] == ["0"] * 3

    def test_rerun_byte_identical(self):
        c = base_config()
        assert run_experiment([c], 1)[1] == run_experiment([c], 1)[1]

    def test_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment([base_config(out="res.csv")], 1)
        assert list(tmp_path.iterdir()) == []

    def test_configs_share_one_header(self):
        """Several configs: one header, then each config's rows exactly as
        a run of that config alone writes them, in the order given."""
        a, b = base_config(T=6, seeds=[2, 0]), base_config(learner="ftl", seeds=[5])
        transcripts, text = run_experiment([a, b], 2)
        body_a, body_b = (run_experiment([c], 1)[1].splitlines(True)[1:] for c in (a, b))
        assert text == ",".join(CSV_COLUMNS) + "\n" + "".join(body_a + body_b)
        assert [(tr.seed, len(tr.rounds)) for tr in transcripts] == [(0, 6), (2, 6), (5, 12)]

    def test_one_pool_for_every_config(self, monkeypatch):
        """Three one-seed configs at jobs=2 play over one 2-worker pool (a
        pool per config would hold one worker each and play serially)."""
        import concurrent.futures

        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        configs = [base_config(T=T, seeds=[0]) for T in (4, 6, 8)]
        assert run_experiment(configs, 2)[1] == run_experiment(configs, 1)[1]
        assert pools == [2]

    def test_worker_count_clamped(self, monkeypatch):
        """Clamped to the CPUs in the affinity mask, not the machine's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _worker_count(10_000, 5) == 2
        assert _worker_count(10_000, 1) == 1
        assert _worker_count(1, 5) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _worker_count(10_000, 5) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(10_000, 5) == 1

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, True], ids=repr)
    def test_jobs_must_be_a_whole_number_of_at_least_one(self, monkeypatch, jobs):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        with pytest.raises(InputError, match="jobs"):
            run_experiment([base_config()], jobs)


class TestFitScaling:
    def test_recovers_exact_power_law(self):
        Ts = [64, 128, 256, 512]
        regrets = [3.0 * T ** 0.5 for T in Ts]
        fit = fit_scaling(Ts, regrets)
        assert fit.alpha == pytest.approx(0.5, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_excludes_nonpositive(self):
        fit = fit_scaling([32, 64, 128, 256], [-1.0, 8.0, 11.3, 16.0])
        assert fit.excluded == (32,)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_scaling([64, 128], [8.0, 11.3])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            fit_scaling([1, 2, 3], [1.0, 2.0])


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(**overrides).to_dict()
                                   | {"schema_version": SCHEMA_VERSION}))
        return str(path)

    @staticmethod
    def _loaded_after(module, steps, tmp_path):
        """Run `steps` (Python statements) one by one in a fresh interpreter;
        return whether `module` was loaded after each, and the exit codes."""
        script = "\n".join(
            ["import json, sys", "seen, rcs = [], []"]
            + [f"{step}\nseen.append({module!r} in sys.modules)" for step in steps]
            + ["print(json.dumps([seen, rcs]))"])
        env = dict(os.environ, PYTHONPATH=str(Path(smoothlab.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=tmp_path, env=env, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_games_never_load_scipy(self, tmp_path):
        """Only verify's Poisson checks use scipy, so a game's process must
        not load it."""
        cfg = self._write_config(tmp_path, learner="ftl", T=4, n=None)
        seen, rcs = self._loaded_after("scipy", [
            "import smoothlab",
            "import smoothlab.cli",
            f"rcs.append(smoothlab.cli.main(['run', {cfg!r}, '--out', 'out.csv']))",
        ], tmp_path)
        assert rcs == [EXIT_OK]
        assert seen == [False, False, False]

    def test_games_never_load_verify(self, tmp_path):
        """The lemma checks load only for `verify`: import, config loading,
        `run`, `sweep` and `fit` leave `smoothlab.verify` unloaded."""
        cfg = self._write_config(tmp_path, learner="ftl", T=4, n=None,
                                 sweep={"T": [4, 8, 16]})
        seen, rcs = self._loaded_after("smoothlab.verify", [
            "import smoothlab",
            "import smoothlab.cli",
            f"smoothlab.cli.ExperimentConfig.from_json(open({cfg!r}).read())",
            f"rcs.append(smoothlab.cli.main(['run', {cfg!r}, '--out', 'out.csv']))",
            f"rcs.append(smoothlab.cli.main(['sweep', {cfg!r}, '--out', 'sweep.csv']))",
            "rcs.append(smoothlab.cli.main(['fit', 'sweep.csv']))",
            "rcs.append(smoothlab.cli.main(['verify', '--suite', 'budgets', "
            "'--out', 'budgets.json']))",
        ], tmp_path)
        assert rcs == [EXIT_OK] * 4
        assert seen == [False] * 6 + [True]

    def test_loading_a_config_never_loads_numpy_random(self, tmp_path):
        """NumPy 2 loads numpy.random on first use; import and config
        loading (the set-up every run pays) draw nothing, so leave it
        unloaded."""
        cfg = self._write_config(tmp_path, learner="ftl", T=4, n=None)
        seen, rcs = self._loaded_after("numpy.random", [
            "import smoothlab.cli",
            f"smoothlab.cli.ExperimentConfig.from_json(open({cfg!r}).read())",
            f"rcs.append(smoothlab.cli.main(['run', {cfg!r}, '--out', 'out.csv']))",
        ], tmp_path)
        assert rcs == [EXIT_OK]
        assert seen == [False, False, True]

    def test_one_worker_never_loads_the_process_pool(self, tmp_path):
        """concurrent.futures.process loads multiprocessing, which only
        --jobs > 1 uses."""
        cfg = self._write_config(tmp_path, learner="ftl", T=4, n=None)
        seen, rcs = self._loaded_after("concurrent.futures.process", [
            "import smoothlab.cli",
            f"rcs.append(smoothlab.cli.main(['run', {cfg!r}, '--jobs', '1', "
            "'--out', 'out.csv']))",
        ], tmp_path)
        assert rcs == [EXIT_OK]
        assert seen == [False, False]

    def test_importing_verify_never_loads_the_thread_pool(self, tmp_path):
        """`coupling_montecarlo` imports concurrent.futures only on a call
        that splits its rows over threads; a one-block call does not."""
        seen, _ = self._loaded_after("concurrent.futures", [
            "import smoothlab.verify as verify",
            "verify.coupling_montecarlo([0.5, 0.5], [0.5, 0.5], 0.5, m=3, "
            "trials=10, rng=verify.np.random.default_rng(0))",
        ], tmp_path)
        assert seen == [False, False]

    def test_verify_tv_loads_scipy_on_first_use(self, tmp_path):
        seen, rcs = self._loaded_after("scipy", [
            "import smoothlab.cli",
            "rcs.append(smoothlab.cli.main(['verify', '--suite', 'tv', "
            "'--out', 'tv.json']))",
        ], tmp_path)
        assert rcs == [EXIT_OK]
        assert seen == [False, True]

    @pytest.mark.parametrize("module, loaded", [("scipy.special", True),
                                                 ("scipy.stats", False)])
    def test_verify_suite_loads_scipy_special_not_stats(self, tmp_path, module, loaded):
        """The Poisson checks use scipy.special's arithmetic directly;
        scipy.stats, several times larger, is never loaded."""
        seen, rcs = self._loaded_after(module, [
            "import smoothlab.cli",
            "rcs.append(smoothlab.cli.main(['verify', '--suite', 'all', "
            "'--out', 'all.json']))",
        ], tmp_path)
        assert rcs == [EXIT_OK]
        assert seen == [False, loaded]

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out.csv")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        lines = open(out).read().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == 4

    def test_run_matches_library(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out.csv")
        main(["run", cfg, "--out", out])
        capsys.readouterr()
        assert open(out).read() == run_experiment([base_config()], 1)[1]

    def test_seed_base_offsets(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out.csv")
        main(["run", cfg, "--seed-base", "100", "--out", out])
        capsys.readouterr()
        text = open(out).read()
        assert ",100," in text and ",101," in text

    def _assert_jobs_identical(self, tmp_path, capsys, **overrides):
        cfg = self._write_config(tmp_path, **overrides)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["run", cfg, "--out", out1])
        main(["run", cfg, "--jobs", "2", "--out", out2])
        capsys.readouterr()
        assert open(out1).read() == open(out2).read()

    def test_jobs_parallel_identical(self, tmp_path, capsys):
        self._assert_jobs_identical(tmp_path, capsys)

    @pytest.mark.parametrize("overrides", [
        {"learner": "alg1", "loss": "absolute", "K": 2},
        {"learner": "hedge", "loss": "squared"}])
    def test_jobs_parallel_identical_per_loss(self, tmp_path, capsys, overrides):
        """Workers receive the config, and its loss kind, pickled."""
        self._assert_jobs_identical(tmp_path, capsys, **overrides)

    def test_sweep(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, sweep={"T": [4, 8]})
        out, out2 = str(tmp_path / "sweep.csv"), str(tmp_path / "sweep2.csv")
        assert main(["sweep", cfg, "--out", out]) == EXIT_OK
        assert main(["sweep", cfg, "--jobs", "2", "--out", out2]) == EXIT_OK
        capsys.readouterr()
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 1 + 2 * 3  # one header, 3 rows per grid point
        assert sum(line.startswith("experiment_id") for line in lines) == 1
        assert open(out2).read() == open(out).read()

    def test_sweep_without_block_is_config_error(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["sweep", cfg]) == EXIT_CONFIG

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == EXIT_CONFIG

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = base_config().to_dict()
        doc["mystery"] = 1
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_verify_budgets_suite(self, tmp_path, capsys):
        out = str(tmp_path / "verify.json")
        assert main(["verify", "--suite", "budgets", "--out", out]) == EXIT_OK
        capsys.readouterr()
        reports = json.loads(open(out).read())
        assert reports and all(r["passed"] for r in reports)

    def test_verify_all_suite(self, tmp_path, capsys):
        out = str(tmp_path / "verify.json")
        assert main(["verify", "--suite", "all", "--out", out]) == EXIT_OK
        capsys.readouterr()
        reports = json.loads(open(out).read())
        assert reports and all(r["passed"] for r in reports)
        assert any(r["name"] == "admissibility_ftl_negative_control"
                   for r in reports)

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "mystery"]) == EXIT_CONFIG

    def test_fit_subcommand(self, tmp_path, capsys):
        rows = [",".join(CSV_COLUMNS)]
        for T in (64, 128, 256):
            vals = {c: "" for c in CSV_COLUMNS}
            vals |= {"experiment_id": "f", "learner": "alg2", "T": str(T),
                     "seed": "mean", "regret": str(2.0 * T ** 0.5)}
            rows.append(",".join(vals[c] for c in CSV_COLUMNS))
        path = tmp_path / "fit.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == pytest.approx(0.5, abs=1e-9)

    def test_fit_without_mean_rows_is_an_error(self, tmp_path, capsys):
        """fit reads only mean rows; a CSV of per-seed rows used to be
        re-averaged per T, a second rule for the mean row."""
        cfg = self._write_config(tmp_path, sweep={"T": [4, 8, 12]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines(True)
        out.write_text("".join(line for line in lines if ",mean," not in line))
        capsys.readouterr()
        assert main(["fit", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no mean rows" in err and "distinct T" not in err

    def test_fit_reads_a_sweep_csv(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, sweep={"T": [4, 8, 12]})
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", cfg, "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["fit", out]) == EXIT_OK
        fit = harness.fit_csv(open(out).read())
        assert json.loads(capsys.readouterr().out)["alpha"] == fit.alpha

    def test_run_without_an_output_writes_the_csv_to_stdout(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
        cfg = self._write_config(tmp_path)
        assert main(["run", cfg]) == EXIT_OK
        assert capsys.readouterr().out == run_experiment([base_config()], 1)[1]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_config_out_written_only_by_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
        cfg = self._write_config(tmp_path, out="rel.csv")
        assert main(["run", cfg]) == EXIT_OK
        assert (tmp_path / "rel.csv").read_text() == run_experiment(
            [base_config()], 1)[1]
        (tmp_path / "rel.csv").unlink()
        monkeypatch.setenv("SMOOTHLAB_OUT", str(tmp_path / "o"))
        assert main(["run", cfg, "--out", "other.csv"]) == EXIT_OK
        capsys.readouterr()
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["other.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "o"]

    def test_indicator_loss_hint_learner_fails_before_any_round(
            self, tmp_path, capsys, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        cfg = tmp_path / "alg3.json"
        cfg.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION, "experiment_id": "bad",
            "learner": "alg3", "adversary": "transductive_cyclic",
            "class": {"kind": "partition", "domain_size": 8, "d": 2},
            "loss": "binary_indicator", "T": 32, "sigma": 0.25,
            "hints": {"kind": "cyclic", "K": 2}, "seeds": [0, 1, 2, 3]}))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "absolute" in capsys.readouterr().err

    def test_capacity_abort_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, learner="alg1", loss="absolute",
                                 max_hints_per_round=1)
        assert main(["run", cfg]) == EXIT_CAPACITY
        assert "capacity abort" in capsys.readouterr().err

    def test_verify_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        failed = VerificationReport(
            name="forced", mode="exact", measured={}, bound=None,
            tolerance=0.0, trials=None, passed=False)
        monkeypatch.setattr(smoothlab.verify, "run_suite", lambda suite: [failed])
        out = str(tmp_path / "verify.json")
        assert main(["verify", "--out", out]) == EXIT_VERIFY
        assert "FAILED: forced" in capsys.readouterr().err

    def test_out_env_redirects(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SMOOTHLAB_OUT", str(tmp_path))
        cfg = self._write_config(tmp_path)
        assert main(["run", cfg, "--out", "relative.csv"]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "relative.csv").exists()

    _SEEDED_RANDOM = {
        "ftl": {},
        "alg2": {},
        "alg1": {"loss": "absolute", "K": 2},
        "alg3": {"loss": "absolute", "adversary": "transductive_cyclic",
                 "hints": {"kind": "cyclic", "K": 4}},
    }

    @pytest.mark.parametrize("learner", sorted(_SEEDED_RANDOM))
    def test_seeded_random_runs_and_replays(self, tmp_path, capsys, learner):
        cfg = self._write_config(tmp_path, learner=learner, T=8,
                                 tie_policy="seeded_random",
                                 **self._SEEDED_RANDOM[learner])
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", cfg, "--out", out1]) == EXIT_OK
        assert main(["run", cfg, "--out", out2]) == EXIT_OK
        capsys.readouterr()
        text = open(out1).read()
        assert text == open(out2).read()
        assert len(text.strip().split("\n")) == 4

    @pytest.mark.parametrize("learner", ["ftl", "alg2"])
    def test_bad_tie_policy_fails_before_any_round(
            self, tmp_path, capsys, monkeypatch, learner):
        rounds = []
        monkeypatch.setattr(harness, "next_round",
                            lambda *args: rounds.append(args))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(learner=learner).to_dict()
                                  | {"tie_policy": "random"}))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "tie_policy" in err
        assert rounds == []

    def test_non_integral_T_fails_before_any_round(
            self, tmp_path, capsys, monkeypatch):
        rounds = []
        monkeypatch.setattr(harness, "next_round",
                            lambda *args: rounds.append(args))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(learner="ftl").to_dict()
                                  | {"T": 2.7}))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "T must hold integers" in err
        assert rounds == []

    _ABS = {"loss": "absolute"}
    _ALG3 = {"learner": "alg3", "adversary": "transductive_cyclic", **_ABS}
    _CONFIG_ERRORS = {
        "unknown_class_kind": {"class": {"kind": "mystery"}},
        "cyclic_K_3_over_8": {**_ALG3, "hints": {"kind": "cyclic", "K": 3}},
        "hints_K_0": {**_ALG3, "hints": {"kind": "cyclic", "K": 0}},
        "hints_K_-2": {**_ALG3, "hints": {"kind": "cyclic", "K": -2}},
        "cyclic_top_level_K_0": {**_ALG3, "K": 0, "hints": {"kind": "cyclic"}},
        "learner_doubling_removed": {"learner": "doubling"},
        "unknown_adversary": {"adversary": "mystery"},
        "unknown_loss": {"learner": "ftl", "loss": "mystery"},
        "delta_0.7": {"delta": 0.7},
        "transductive_cyclic_without_hints": {"adversary": "transductive_cyclic"},
        "alg1_K_2.7": {"learner": "alg1", "K": 2.7, **_ABS},
        "alg2_d_2.5": {"d": 2.5},
        "hints_K_2.5": {**_ALG3, "hints": {"kind": "cyclic", "K": 2.5}},
        "support_not_divisible_by_d": {"adversary": "support_alternating",
                                       "sigma": 0.375},
        "support_alternating_d_0": {"adversary": "support_alternating", "d": 0},
        "support_alternating_d_-1": {"adversary": "support_alternating", "d": -1},
        "alg2_d_0": {"d": 0},
        "alg2_default_n_class_dim_0": {"class": json_class([[1, 1]], declared_dim=0),
                                       "n": None},
        "alg2_default_n_d_-1": {"d": -1, "n": None},
        "ftl_d_-1": {"learner": "ftl", "d": -1},
        "ftl_K_-3": {"learner": "ftl", "K": -3},
        "hedge_K_0": {"learner": "hedge", "K": 0},
        "alg1_K_0": {"learner": "alg1", "K": 0, **_ABS},
        "support_partition_d_0": {"class": {
            "kind": "support_partition", "domain_size": 8, "support_size": 4, "d": 0}},
        "support_partition_d_-2": {"class": {
            "kind": "support_partition", "domain_size": 8, "support_size": 4, "d": -2}},
        "sweep_T_2.5": {"sweep": {"T": [4, 2.5]}},
        "sigma_text": {"sigma": "x"},
        "n_text": {"n": "x"},
        "alg1_c_K_text": {"learner": "alg1", "c_K": "x", **_ABS},
        "alg1_c_K_-5": {"learner": "alg1", "c_K": -5, "T": 4, **_ABS},
        "alg1_c_K_0": {"learner": "alg1", "c_K": 0, "T": 4, **_ABS},
        "known_hints_without_custom_xs": {**_ALG3, "hints": {"kind": "known"}},
        "delta_text": {"delta": "x"},
        "sigma_min_key_removed": {"sigma_min": 0.1},
        "custom_ys_text": {"adversary": "custom_table", "T": 4,
                           "custom_xs": [0, 1, 2, 3], "custom_ys": ["a", 1, 1, 1]},
        "T_text": {"T": "4"},
        "seeds_not_a_list": {"seeds": 3},
        "out_not_a_string": {"out": 5},
        "tie_policy_list": {"tie_policy": ["x"]},
        "class_d_2.5": {"class": {"kind": "partition", "domain_size": 8, "d": 2.5}},
        "full_hints_with_K": {**_ALG3, "hints": {"kind": "full", "K": 2}},
        "json_class_flat_table": {"class": json_class([1, -1])},
        "json_class_ragged_table": {"class": json_class([[1, -1], [1]])},
        "json_class_text_values": {"class": json_class([["a", "b"]])},
        "json_class_not_an_object": {"class": {"kind": "json", "json": "[1]"}},
        "json_class_missing_keys": {"class": {"kind": "json", "json": "{}"}},
        "json_class_text_declared_dim": {
            "class": json_class([[1, -1]], declared_dim="1")},
        "json_class_numeric_text_values": {"class": json_class([["1", "-1"]])},
        "sweep_T_empty": {"sweep": {"T": []}},
        "seeds_negative": {"seeds": [0, -1]},
        "custom_table_outside_hint_rows": {
            "adversary": "custom_table", "T": 4, "hints": {"kind": "cyclic", "K": 2},
            "custom_xs": [0, 1, 5, 3], "custom_ys": [1, -1, 1, -1]},
        "support_alternating_with_hints": {"adversary": "support_alternating", "sigma": 0.5,
                                           "hints": {"kind": "cyclic", "K": 2}},
        "T_0": {"T": 0},
        "T_0_alg2_n_-1": {"T": 0, "n": -1},
        "T_0_alg3_without_hints": {**_ALG3, "adversary": "realizable_smooth", "T": 0},
        "known_hints_shorter_than_T": {"learner": "ftl", "T": 4, "hints": {"kind": "known"},
                                       "custom_xs": [0, 1]},
        "sweep_K_unread_by_alg3": {**_ALG3, "hints": {"kind": "cyclic", "K": 4},
                                   "sweep": {"K": [2, 4, 8]}},
        "sweep_n_unread_by_ftl": {"learner": "ftl", "sweep": {"n": [2, 4]}},
    }

    # cases whose error must also name what is wrong
    _CONFIG_MESSAGES = {
        "json_class_not_an_object": "must be an object",
        "json_class_missing_keys": "exactly the keys",
        "json_class_text_declared_dim": "declared_dim must hold integers",
        "json_class_numeric_text_values": "numeric table",
        "seeds_negative": "seeds must be nonnegative",
        "hints_K_0": "cyclic hints need K >= 1",
        "hints_K_-2": "cyclic hints need K >= 1",
        "cyclic_top_level_K_0": "cyclic hints need K >= 1",
        "support_alternating_d_0": "d must be >= 1",
        "support_alternating_d_-1": "d must be >= 1",
        "alg2_d_0": "d must be >= 1",
        "alg2_default_n_class_dim_0": "need 1 <= d",
        "alg2_default_n_d_-1": "d must be >= 1",
        "ftl_d_-1": "d must be >= 1",
        "ftl_K_-3": "K must be >= 1, got -3",
        "hedge_K_0": "K must be >= 1, got 0",
        "alg1_K_0": "K must be >= 1",
        "alg1_c_K_-5": "c_K must be a positive real",
        "alg1_c_K_0": "c_K must be a positive real",
        "known_hints_without_custom_xs": "known-sequence hints require custom_xs",
        "support_partition_d_0": "d must be >= 1",
        "support_partition_d_-2": "d must be >= 1",
        "custom_table_outside_hint_rows": "must lie in hint row t",
        "support_alternating_with_hints": "takes no hint schedule",
        "T_0": "T must be >= 1, got 0",
        "T_0_alg2_n_-1": "T must be >= 1, got 0",
        "T_0_alg3_without_hints": "T must be >= 1, got 0",
        "known_hints_shorter_than_T": "hint schedule shorter than the horizon",
        "sweep_K_unread_by_alg3": "sweep varies ['K'], which no player",
        "sweep_n_unread_by_ftl": "sweep varies ['n'], which no player",
    }

    @pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_config_error_fails_before_any_game(
            self, tmp_path, capsys, monkeypatch, case, jobs):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        doc = config_doc(**self._CONFIG_ERRORS[case])
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        command = "sweep" if "sweep" in doc else "run"
        assert main([command, str(cfg), "--jobs", jobs]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert self._CONFIG_MESSAGES.get(case, "") in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_base_fails_before_any_game(
            self, tmp_path, capsys, monkeypatch, command):
        """A --seed-base that makes a seed negative used to load and then die
        in round 1 inside numpy."""
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_doc(seeds=[0, 1, 2], sweep={"T": [2, 4]})))
        assert main([command, str(cfg), "--seed-base", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seeds must be nonnegative" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fails_before_any_game(
            self, tmp_path, capsys, monkeypatch, command, jobs):
        """--jobs 0 and --jobs -3 used to play every game inline and exit 0."""
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_doc(sweep={"T": [2, 4]})))
        assert main([command, str(cfg), "--jobs", jobs]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"jobs must be >= 1, got {jobs}" in err

    @pytest.mark.parametrize("xs, ys, message", [
        ([0, 1, 2, 3], [1.0, -1.0, math.nan, 1.0], "finite"),
        ([0, 1, 7, 3], [1.0, -1.0, 1.0, 1.0], "domain"),
        ([0, -1, 2, 3], [1.0, -1.0, 1.0, 1.0], "domain"),
        ([0, 1, 2, 3], [1.0, -1.0, 2.0, 1.0], "finite"),
        ([0, 1, 2, 3], [1.0, -1.0, 0.5, 1.0], "label must be exactly -1 or +1"),
    ])
    def test_bad_custom_table_fails_before_any_round(
            self, tmp_path, capsys, monkeypatch, xs, ys, message):
        rounds = []
        monkeypatch.setattr(harness, "next_round",
                            lambda *args: rounds.append(args))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(learner="ftl").to_dict() | {
            "adversary": "custom_table", "T": 4, "tie_policy": "lowest_index",
            "custom_xs": xs, "custom_ys": ys,
            "class": {"kind": "partition", "domain_size": 4, "d": 2}}))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert rounds == []

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_sign_custom_label_fails_before_any_game(
            self, tmp_path, capsys, monkeypatch, command):
        """A custom label of 0.5 under a +-1 loss used to load and then
        fail in the round that revealed it, after the sweep's T = 2 point
        had been played."""
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")
        monkeypatch.setattr(harness, "run_game", no_game)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_doc(
            learner="ftl", loss="centered_binary", adversary="custom_table", T=3,
            custom_xs=[0, 1, 2], custom_ys=[1, 1, 0.5], sweep={"T": [2, 3]})))
        assert main([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "exactly -1 or +1" in err
