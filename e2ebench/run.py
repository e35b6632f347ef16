#!/usr/bin/env python3
"""End-to-end benchmark of the ultirate CLI, with a traced per-layer pass.

Run from the repository root:

    python3 e2ebench/run.py --workload archive --seed 1 --seconds 56 --trace 0

The seed generates the workload's season CSVs (see workloads.py). With
--trace 0 the real CLI runs as a fresh child process, one at a time and back
to back (a closed loop with one client), for --seconds; every run's output is
checked. With --trace 1 untraced CLI runs alternate with traced in-process
passes that time each layer's public calls, followed by one tracemalloc pass.

Human-readable lines go first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics, the metrics being those
BENCHMARK.json declares for the mode. The full record, with the environment,
every sample and the spans of the traced passes, is written to
.bench_out/results/. Exit code 1 means a check failed, 2 that the program's
sources are missing.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child: with two
# OpenBLAS threads the same least-squares work varied ~2x between processes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Import-time samples taken after each CLI run, so that they spread over the
# whole measurement like the CLI runs do.
SETUP_SAMPLES_PER_RUN = 2


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


class CliRunner:
    """Runs the workload's CLI command, checks each run, and samples set-up time."""

    def __init__(self, wl: workloads.Workload, inputs: workloads.Inputs, work: Path):
        self.wl, self.inputs, self.work = wl, inputs, work
        source = inputs.files[0] if len(inputs.files) == 1 else inputs.files[0].parent
        self.output = work / "metrics.csv"
        self.argv = [sys.executable, "-m", "ultirate.cli", "evaluate",
                     "--input", str(source), "--output", str(self.output)]
        self.setup_argv = [sys.executable, "-c", "import ultirate.cli"]
        self.walls: list[float] = []
        self.rss_mb: list[float] = []
        self.setup: list[float] = []
        self.sha256: list[str] = []
        self.problems: list[str] = []
        self.failed = 0
        self.mads: dict[str, float] = {}
        self._setup_sample()  # writes the bytecode caches; not kept

    def _setup_sample(self) -> float:
        """Fresh interpreter plus `import ultirate.cli`, as every CLI run pays it."""
        wall, code, _ = spawn(self.setup_argv, self.work / "setup.err")
        if code != 0:
            raise RuntimeError((self.work / "setup.err").read_text())
        return wall

    def run(self) -> float:
        """One checked CLI run, then the set-up samples; returns the time taken."""
        t0 = time.perf_counter()
        self.output.unlink(missing_ok=True)
        stderr_path = self.work / "cli.err"
        wall, code, rss = spawn(self.argv, stderr_path)
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            problems = [f"exit code {code}: {stderr[-500:]}"]
        else:
            problems = checks.check_stderr(stderr, self.wl, self.inputs)
            found, mads = checks.check_output(self.output, self.wl)
            problems += found
            if not found:
                digest = checks.sha256(self.output)
                if self.sha256 and digest != self.sha256[0]:
                    problems.append("output bytes differ from the first run of this set")
                self.sha256.append(digest)
                self.mads = self.mads or mads
        self.walls.append(wall)
        self.rss_mb.append(rss)
        self.failed += bool(problems)
        self.problems += problems
        self.setup += [self._setup_sample() for _ in range(SETUP_SAMPLES_PER_RUN)]
        return time.perf_counter() - t0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        import numba  # noqa: F401
        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": numba_importable,
    }


def e2e_run(wl, runner: CliRunner, seconds: float):
    """Back-to-back CLI runs while the next one is expected to end in time."""
    start = time.perf_counter()
    while runner.run() + time.perf_counter() - start <= seconds:
        pass
    wall = statistics.median(runner.walls)
    metrics = {
        "wall_s": wall,
        "games_per_s": wl.n_valid * len(checks.METHODS) / wall,
        "setup_s": statistics.median(runner.setup),
        "peak_rss_mb": statistics.median(runner.rss_mb),
        "mad_usau": runner.mads.get("usau", 0.0),
        "mad_leastsq": runner.mads.get("leastsq", 0.0),
    }
    return metrics, [], 0, []


def trace_run(wl, inputs, runner: CliRunner, seconds: float):
    """Alternate untraced CLI runs with traced passes, then one tracemalloc pass."""
    import traced  # after main() has put the program's sources on sys.path

    passes, prep = [], []
    traced_out = runner.work / f"traced-{runner.output.name}"
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runner.run()
        passes.append(traced.traced_pass(inputs.files, traced_out))
        prep.append(traced.usau_prep_seconds(passes[-1].slices))
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    last = passes[-1]
    problems, worst = checks.check_traced(last, wl, inputs, traced.MAX_ROUNDS)
    if runner.sha256 and checks.sha256(traced_out) != runner.sha256[0]:
        problems.append("traced pass wrote other bytes than the CLI")

    metrics = traced.layer_metrics(passes, prep, runner.walls,
                                   statistics.median(runner.setup))
    peaks = traced.peak_alloc_mb(last.slices)
    metrics["usau.peak_alloc_mb"] = peaks["usau"]
    metrics["leastsq.peak_alloc_mb"] = peaks["leastsq"]
    metrics["leastsq.residual_rel"] = worst["residual_rel"]
    metrics["leastsq.recovery_rmse"] = worst["recovery_rmse"]
    spans = [[s.name, s.parent, s.start, s.end] for p in passes for s in p.tracer.spans]
    return metrics, problems, len(passes), spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ultirate" / "cli.py").is_file():
        print(f"e2ebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    try:
        inputs = workloads.generate(wl, args.seed, work / "input")
        runner = CliRunner(wl, inputs, work)
        start = time.perf_counter()
        if args.trace:
            metrics, problems, n_passes, spans = trace_run(wl, inputs, runner, args.seconds)
        else:
            metrics, problems, n_passes, spans = e2e_run(wl, runner, args.seconds)
        measured = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "declared in BENCHMARK.json, or not measured")

    # The traced checks judge the last traced pass: one more operation.
    attempted = len(runner.walls) + n_passes
    failed = runner.failed + bool(problems)
    problems = runner.problems + problems
    correct = not problems
    env = environment()

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): "
          f"{wl.n_valid} valid games in {len(inputs.files)} file(s), "
          f"{inputs.n_malformed} malformed rows; `ultirate evaluate`, closed loop, "
          f"1 client; {len(runner.walls)} CLI run(s) and {n_passes} traced pass(es) "
          f"in {measured:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<24} {runner.failed / len(runner.walls):>14.6g} ratio "
          f"({runner.failed}/{len(runner.walls)} CLI runs)")
    print(f"  wall_s samples: {' '.join(f'{w:.4f}' for w in runner.walls)}")
    print(f"  output sha256: {runner.sha256[0] if runner.sha256 else '-'}")
    print(f"  env: {json.dumps(env)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
        print(f"e2ebench: {p}", file=sys.stderr)

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
        "correct": correct, "problems": problems, "metrics": metrics,
        "wall_s_samples": runner.walls, "setup_s_samples": runner.setup,
        "peak_rss_mb_samples": runner.rss_mb, "output_sha256": runner.sha256,
        "spans": spans,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
