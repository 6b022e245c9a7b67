"""Self-test of the benchmark on tiny configs (T=8).

    python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import smoothlab.oracle  # noqa: E402
import workloads as W  # noqa: E402
from reference import Reference  # noqa: E402
from spans import SELF_MS, Tracer  # noqa: E402


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return tmp_path


def tiny_config(tmp_path: Path, name: str, **overrides) -> Path:
    """A copy of a workload config with T=8 and the given overrides."""
    cfg = json.loads((W.CONFIG_DIR / name).read_text())
    cfg.update(T=8, experiment_id=f"tiny-{cfg['experiment_id']}", **overrides)
    path = tmp_path / f"tiny-{name}"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def tiny_workload(tmp_path) -> W.Workload:
    return W.Workload("tiny", (
        W.game_job(tiny_config(tmp_path, "ftpl-erm-ftl.json"), "a"),
        W.game_job(tiny_config(tmp_path, "ftpl-erm-alg2.json"), "a"),
        W.game_job(tiny_config(tmp_path, "hint-mixed-alg3.json"), "b"),
        W.game_job(tiny_config(tmp_path, "hint-mixed-alg1.json", K=3), "b"),
        W.Job("verify.admissibility", "b", W._admissibility),
    ))


def test_gate_passes_tiny_jobs(tiny_workload, out_dir):
    result = bench.run_pass(tiny_workload, seed=5, reference=Reference())
    assert result.failures == []
    assert result.jobs == 5 and result.failed_jobs == 0
    assert set(result.learner_s) == {"ftl", "alg2", "alg3", "alg1"}
    assert set(result.scaled_parts) == {"a", "b"}
    assert math.isclose(result.wall, sum(result.parts.values()))
    assert result.scaled_wall > 0


def test_reference_probes_during_a_stretch():
    reference = Reference()
    t0 = time.perf_counter()
    with reference.timed() as stretch:
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    elapsed = time.perf_counter() - t0
    assert stretch.probes >= 5
    assert 0 < stretch.raw < elapsed and stretch.scaled > 0
    with reference.timed() as short:  # too short for the timer to fire
        pass
    assert short.probes == 3 and short.scaled >= 0


def test_gate_flags_doctored_call_count(tmp_path, out_dir):
    path = tiny_config(tmp_path, "ftpl-erm-ftl.json")
    cfg = json.loads(path.read_text())
    data, failures = W.game_job(path, "a").run(0, out_dir)
    assert failures == []
    header, *rows = data.decode().splitlines()
    column = header.split(",").index("oracle_calls")
    cells = rows[0].split(",")
    cells[column] = str(int(cells[column]) + 1)
    doctored = "\n".join([header, ",".join(cells)] + rows[1:]) + "\n"
    failures = W.game_gate(cfg, 0, doctored)
    assert len(failures) == 1 and "oracle_calls" in failures[0]


def test_gate_flags_bad_exit_and_input_length():
    cfg = json.loads((W.CONFIG_DIR / "hint-mixed-alg1.json").read_text())
    assert W.game_gate(cfg, 1, "") == ["exit code 1"]
    # alg1 at the default K = ceil(100 ln 256 / 0.25) = 2219
    assert W.expected_mean_input_len(cfg) == 255 * (1 + 2 * 2219) / 2 + 1


def test_verify_gate_flags_failed_report():
    reports = [{"name": "admissibility_ftl_negative_control", "passed": True},
               {"name": "coupling_montecarlo", "passed": False}]
    assert W.verify_suite_gate(0, json.dumps(reports)) == ["coupling_montecarlo failed"]
    assert W.verify_suite_gate(0, json.dumps(reports[1:]))[-1] == (
        "suite lacks the FTL negative control")


def test_traced_self_times_account_for_root(tiny_workload, out_dir):
    original_erm = smoothlab.oracle.erm
    tracer = Tracer()
    for _ in range(2):
        with tracer.installed():
            bench.run_pass(tiny_workload, seed=5, tracer=tracer)
        assert smoothlab.oracle.erm is original_erm

    layers = tracer.layer_metrics(passes=2)
    bench.with_units({**layers, "trace.overhead_s": 0.0}, "per_layer")
    self_total = sum(layers[m] for m in SELF_MS.values())
    assert math.isclose(self_total, layers["trace.root_ms"], rel_tol=1e-9)
    assert min(tracer.self_times()) > -1e-9
    assert layers["harness.game.count"] == 5  # FTL plays seeds 5 and 6
    # two mixed_opt calls per round for each of the two hint learners
    in_games = [s for s in tracer.spans if s[0] == "oracle.mixed_opt" and s[4]]
    assert len(in_games) == 2 * (2 * 8 * 2)
    assert layers["learner.perturb.size"] > 0
    assert 0 < layers["oracle.distinct_ratio"] <= 1
    games = {span[4] for span in tracer.spans if span[0] == "oracle.erm"}
    assert {"ftl/5", "alg2/5"} <= games


def test_exits_nonzero_without_sources(tmp_path):
    """A directory with only the benchmark's own files has nothing to run."""
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "ftpl-erm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
