"""polyflood benchmark: a solver-bound long-step flood and the
verification pass, timed end to end and traced per module from outside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root; it imports polyflood from ./src and
fails without printing a result when that is missing.  This process only
generates and collects: every measurement happens in a fresh child
(worker.py), one for the closed loop of operations and one for each
set-up probe, so set-up time and peak memory start clean.  The last line
of stdout is the result, {"correct", "attempted", "failed", "metrics"};
the line before it holds provenance, sample counts and any problems.

Each operation of a run repeats the same steps, and every time is taken
from each step's best over the run's operations (see best_of).
--trace 0 reports the end-to-end metrics: run_s (one operation assembled
from those best steps), step_ms_p50/p90 (percentiles over the best
simulate.advance times of one operation's steps), setup_s (median of the
probes), peak_rss_mb (the loop's process) and ok_frac (operations that
passed their output check, of those attempted; the complement of the
failure share, which the result must not report as 0).  The plain
medians and the fastest whole operation go to the line before the
result.  --trace 1 reports the per-layer metrics: each module's self
time and counts per operation from the traced operations (a layer the
workload does not reach reads 0), and the overhead of tracing against the
untraced operations that alternate with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("flood-longstep", "verify")
SETUP_PROBES = 7
# One BLAS thread: it is the plain single-threaded baseline, and on two
# cores OpenBLAS's threaded dot products made an N=128 flood slower
# (4.0 s against 3.0 s) and noisier.
BLAS_THREADS = 1
# time a run may take beyond --seconds: the set-up probes, the loop's
# last operation and the start of each process
TIME_MARGIN_S = 60.0

END_TO_END = {
    "run_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}
LEVELS = ("harness.level_s.N8", "harness.level_s.N16", "harness.level_s.N32")
PER_LAYER = {
    "linsolve.pressure_iters": "count", "linsolve.pressure_cg_ms": "ms",
    "linsolve.saturation_iters": "count", "linsolve.saturation_cg_ms": "ms",
    "linsolve.matvecs": "count",
    "pressure.assemble_ms": "ms", "pressure.gauge_ms": "ms",
    "pressure.velocity_ms": "ms",
    "petro.evals": "count", "petro.eval_ms": "ms",
    "transport.saturation_self_ms": "ms",
    "transport.concentration_self_ms": "ms",
    "transport.feet_ms": "ms", "transport.max_foot_cells": "cells",
    "grids.interp_ms": "ms", "grids.interp_points": "count",
    "grids.dump_ms": "ms", "grids.dump_bytes": "B",
    "simulate.advance_self_ms": "ms", "simulate.setup_ms": "ms",
    "harness.reference_s": "s", **dict.fromkeys(LEVELS, "s"),
    "reduced1d.step1d_ms": "ms", "reduced1d.steps": "count",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS, nproc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {args} ran past the time limit") from err
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker {args} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git(*args: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": min(BLAS_THREADS, nproc),
        "seed": seed,
    }


def best_of(loop: dict) -> tuple[float, list[float]]:
    """Each step's best time over the run's operations, and their sum plus
    the best time an operation spent outside its steps.

    The sum is a lower-bound estimate of one operation, not a time any
    single operation took: a cost that shows in only some operations
    (garbage collection, growth from one operation to the next) drops out
    of it.  It is used because it holds still on a shared host.  On a
    two-vCPU KVM guest whose vCPUs at times ran at half speed for tens of
    seconds, a 300 s record of the verify pass cut into 50 s windows gave
    IQR/median 0.14 for this sum and 0.29 for the fastest whole operation.
    """
    steps = loop["step_ms"]
    if not steps:
        raise BenchError("no successful operation")
    if len({len(op) for op in steps}) != 1 or len(steps[0]) < 2:
        raise BenchError("operations of one run took different step counts")
    best = [min(col) for col in zip(*steps)]
    outside = min(wall - sum(op) / 1e3 for wall, op in zip(loop["run_s"], steps))
    return sum(best) / 1e3 + outside, best


def end_to_end(loop: dict, setups: list[float]) -> dict:
    run_s, best = best_of(loop)
    if not setups:
        raise BenchError("no set-up probe")
    return {
        "run_s": run_s,
        "step_ms_p50": statistics.median(best),
        "step_ms_p90": statistics.quantiles(best, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": loop["peak_rss_mb"],
        "ok_frac": 1.0 - loop["failed"] / loop["attempted"],
    }


def per_layer(loop: dict) -> dict:
    """Best value of each layer metric over the run's traced operations."""
    layers = loop["layers"]
    if not layers or not loop["run_s"]:
        raise BenchError("no successful traced and untraced operation")
    values = {name: min(op[name] for op in layers) for name in layers[0]}
    levels = loop["level_s"]
    for k, name in enumerate(LEVELS):
        values[name] = min(run[k] for run in levels) if levels else 0.0
    values["trace.overhead_pct"] = 100.0 * (
        min(loop["traced_s"]) / min(loop["run_s"]) - 1.0)
    return values


def as_recorded(loop: dict) -> dict:
    """The fastest whole operation and plain medians over operations and
    pooled steps, for the record."""
    pooled = [ms for op in loop["step_ms"] for ms in op]
    if len(pooled) < 2:
        return {}
    return {"run_s_min": min(loop["run_s"]),
            "run_s_median": statistics.median(loop["run_s"]),
            "step_ms_pooled_p50": statistics.median(pooled),
            "step_ms_pooled_p90": statistics.quantiles(pooled, n=10)[8]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polyflood" / "__init__.py").is_file():
        print(f"no polyflood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            _child(common + ["--probe"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        loop = _child(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], deadline)
        values = per_layer(loop) if args.trace else end_to_end(loop, setups)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(values)
    if missing:
        print(f"benchmark failed: metrics missing {sorted(missing)}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(args.seed),
        "samples": {"operations": len(loop["run_s"]),
                    "traced_operations": len(loop["traced_s"]),
                    "steps": sum(map(len, loop["step_ms"])),
                    "setup_probes": len(setups)},
        "medians": as_recorded(loop),
        "problems": loop["problems"],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
