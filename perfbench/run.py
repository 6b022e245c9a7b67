"""smoothlab benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload ftpl-erm --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; smoothlab is imported from
``src/``.  The workload's fixed job list (a "pass") is repeated until
``--seconds`` would be exceeded; every job passes a correctness gate.
Human-readable lines start with ``#``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Times are taken at reference speed: a probe timed while each stretch
runs scales it (see ``reference.py``), so that the host's drifting speed
cancels out.  Raw times are printed on ``#`` lines.

``--trace 0`` reports the end-to-end metrics: the medians over passes
of the pass time and of its two timed parts, the median set-up time of
several fresh interpreters, and the peak resident memory.  ``--trace 1``
alternates untraced and traced passes, writes the spans to
``.perfbench_out/`` and reports per-layer metrics per traced pass.
"""

import os

# pinned before numpy loads, and inherited by the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class PassResult:
    wall: float = 0.0  # raw seconds of the whole pass
    parts: dict = field(default_factory=dict)  # part -> raw seconds
    scaled_wall: float = 0.0  # the same at reference speed (0 if unscaled)
    scaled_parts: dict = field(default_factory=dict)
    learner_s: dict = field(default_factory=dict)  # at reference speed
    learner_rounds: dict = field(default_factory=dict)
    jobs: int = 0
    failed_jobs: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""


def run_pass(workload, seed: int, reference=None, tracer=None) -> PassResult:
    """Run the workload's jobs once.  With a `reference`, each part is
    also timed at reference speed."""
    result = PassResult()
    digest = hashlib.sha256()
    root = tracer.open("bench.pass") if tracer is not None else None
    for part, jobs in workload.parts():
        job_s = []
        with reference.timed() if reference else contextlib.nullcontext() as stretch:
            t_part = time.perf_counter()
            for job in jobs:
                t0 = time.perf_counter()
                try:
                    data, failures = job.run(seed, OUT_DIR)
                except Exception as e:  # a job that raises counts as failed
                    data, failures = b"", [f"raised {type(e).__name__}: {e}"]
                job_s.append((job, time.perf_counter() - t0))
                result.jobs += 1
                result.failed_jobs += bool(failures)
                result.failures += [f"{job.name}: {f}" for f in failures]
                digest.update(job.name.encode() + b"\0" + data + b"\0")
            result.parts[part] = time.perf_counter() - t_part
        if stretch is None:
            continue
        result.parts[part] = stretch.raw
        result.scaled_parts[part] = stretch.scaled
        total = sum(elapsed for _, elapsed in job_s)
        for job, elapsed in job_s:
            if job.learner is not None:
                # the part's time at reference speed, split as the jobs' raw times
                result.learner_s[job.learner] = (result.learner_s.get(job.learner, 0.0)
                                                 + stretch.scaled * elapsed / total)
                result.learner_rounds[job.learner] = (
                    result.learner_rounds.get(job.learner, 0) + job.rounds)
    if root is not None:
        tracer.close(root)
    result.wall = sum(result.parts.values())
    result.scaled_wall = sum(result.scaled_parts.values())
    result.digest = digest.hexdigest()
    return result


def run_for(seconds: float, step) -> None:
    """Call `step` while the next call is expected to end within `seconds`."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def setup_seconds(workload) -> tuple[list[float], list[float]]:
    """Set-up time of fresh interpreters (import smoothlab, parse configs),
    raw and at reference speed."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + [str(p) for p in workload.configs]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        r, s = done.stdout.split()[-2:]
        raw.append(float(r))
        scaled.append(float(s))
    return raw, scaled


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if {m["name"] for m in spec} != set(values):
        raise ValueError(f"measured {sorted(values)}, BENCHMARK.json lists "
                         f"{sorted(m['name'] for m in spec)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def median_of(results, key) -> float:
    return statistics.median(key(r) for r in results)


def report_passes(name: str, results: list[PassResult]) -> None:
    jobs = sum(r.jobs for r in results)
    failed = sum(r.failed_jobs for r in results)
    failures = [f for r in results for f in r.failures]
    print(f"# passes {len(results)}, jobs {jobs}, failed {failed}, "
          f"failed_share {failed / jobs}")
    for line in failures[:20]:
        print(f"# FAIL {line}")
    scaled = [r for r in results if r.scaled_parts]
    for learner in sorted(scaled[0].learner_s if scaled else ()):
        rate = median_of(scaled, lambda r: r.learner_rounds[learner] / r.learner_s[learner])
        print(f"# rounds_per_s.{learner} {rate:.6g} rounds/s at reference speed")
    for part in results[0].parts:
        raw = " ".join(f"{r.parts[part]:.3f}" for r in results)
        print(f"# part {part} raw times (s): {raw}")
        if scaled:
            at_ref = " ".join(f"{r.scaled_parts[part]:.3f}" for r in scaled)
            print(f"# part {part} times at reference speed (s): {at_ref}")
    same = all(r.digest == results[0].digest for r in results)
    print(f"# sha256 {name} {results[0].digest} (identical across passes: {same})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, passed to smoothlab as --seed-base")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smoothlab" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no smoothlab sources under src/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from reference import Reference
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    print(f"# perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment())}")

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        reference = Reference()
        plain, traced, traced_s = [], [], []

        def untraced_then_traced():
            # Alternating keeps slow spells of the machine out of the overhead.
            # Probes would land inside the spans, so the traced pass is scaled
            # to reference speed by the speed of the untraced pass before it.
            plain.append(run_pass(workload, args.seed, reference))
            with tracer.installed():
                traced.append(run_pass(workload, args.seed, tracer=tracer))
            traced_s.append(traced[-1].wall * plain[-1].scaled_wall / plain[-1].wall)

        run_for(args.seconds, untraced_then_traced)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        results = plain + traced
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_s"] = (statistics.median(traced_s)
                                      - median_of(plain, lambda r: r.scaled_wall))
        metrics = with_units(layers, "per_layer")
    else:
        start = time.perf_counter()
        raw_setup, setup = setup_seconds(workload)
        reference = Reference()
        print("# raw set-up times (s): " + " ".join(f"{t:.3f}" for t in raw_setup))
        results = []
        run_for(args.seconds - (time.perf_counter() - start),
                lambda: results.append(run_pass(workload, args.seed, reference)))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": median_of(results, lambda r: r.scaled_wall),
            "part_a_s": median_of(results, lambda r: r.scaled_parts["a"]),
            "part_b_s": median_of(results, lambda r: r.scaled_parts["b"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = with_units(values, "end_to_end")

    report_passes(workload.name, results)
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    attempted = sum(r.jobs for r in results)
    failed = sum(r.failed_jobs for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
