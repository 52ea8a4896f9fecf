"""One fresh benchmark process; run.py starts it and reads its last line.

    worker.py --workload W --seed N --seconds S --trace 0|1
        runs the workload's operation in a closed loop for S seconds and
        prints the raw samples as one JSON line.  With --trace 1 the loop
        alternates untraced and traced operations, so the tracing overhead
        is measured in the same process.
    worker.py --workload W --seed N --probe
        measures set-up once: importing polyflood, validating the
        RunConfig, and entering run_simulation up to its first advance.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # before numpy and polyflood load

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out"
MAX_PROBLEMS = 5


class _FirstAdvance(Exception):
    pass


def _import_polyflood():
    import polyflood
    src = (ROOT / "src").resolve()
    if src not in Path(polyflood.__file__).resolve().parents:
        raise SystemExit(f"polyflood imported from {polyflood.__file__}, "
                         f"not from {src}")


def probe(name: str, seed: int) -> dict:
    _import_polyflood()
    import polyflood.simulate
    import workloads

    reached = []

    def first_advance(*args, **kwargs):
        reached.append(time.perf_counter())
        raise _FirstAdvance

    polyflood.simulate.advance = first_advance
    with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
        workload = workloads.WORKLOADS[name]
        cfg = workloads.first_config(workload, seed)
        if workload.config:  # the flood dumps; the studies run without files
            cfg = replace(cfg, out=out)
        try:
            polyflood.simulate.run_simulation(cfg)
        except _FirstAdvance:
            pass
    if not reached:
        raise RuntimeError("run_simulation never reached advance")
    return {"setup_s": reached[0] - PROCESS_START}


def loop(name: str, seed: int, seconds: float, trace: bool,
         reference: dict | None = None, small: bool = False) -> dict:
    """Closed loop of operations; reference defaults to reference.json and
    small shrinks the workload to N = 8 (for selfcheck.py)."""
    _import_polyflood()
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    if reference is None:
        reference = workloads.load_reference()
    SCRATCH.mkdir(exist_ok=True)
    tracer = spans.Tracer()
    out = {"attempted": 0, "failed": 0, "problems": [], "run_s": [],
           "step_ms": [], "level_s": [], "traced_s": [], "layers": []}

    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            tracer.install()
        else:
            step_ms: list = []
            remove_timer = spans.time_advance(step_ms)
        tic = time.perf_counter()
        try:
            output = workloads.run_op(workload, seed, SCRATCH, small)
            wall = time.perf_counter() - tic
            problems = workloads.check(workload, seed, output, reference)
        except Exception as err:  # a failed operation is counted, not fatal
            wall, problems = time.perf_counter() - tic, [f"{type(err).__name__}: {err}"]
        if traced:
            tracer.restore()
            recorded = tracer.take()
        else:
            remove_timer()

        out["attempted"] += 1
        if problems:
            out["failed"] += 1
            out["problems"] += problems[:MAX_PROBLEMS - len(out["problems"])]
        elif traced:
            out["traced_s"].append(wall)
            out["layers"].append(spans.layer_metrics(recorded, workload.expected))
        else:
            out["run_s"].append(wall)
            out["step_ms"].append(step_ms)
            if not workload.config:
                out["level_s"].append(workloads.level_times(output))

        traced = trace and not traced
        if time.perf_counter() >= deadline and out["attempted"] >= 1 + trace:
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        result = probe(args.workload, args.seed)
    else:
        result = loop(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
