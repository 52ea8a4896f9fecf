"""Quick self-check of the benchmark (about twenty seconds).

    python3 perfbench/selfcheck.py

Run it from the repository root.  Every workload shrinks to N = 8 and
goes through the same loop, tracer and metric code as a real run, with a
reference taken from its own small output.  The check confirms that
BENCHMARK.json, run.py and workloads.py name the same workloads, reasons
and metrics, that every named metric comes out finite, that the small output
passes its check, that a corrupted reference makes the output check fail,
and that a span which never fires is reported.  It then runs each
workload once at full size and seed 0 against reference.json, intact and
corrupted.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def small_reference(scratch: Path) -> dict:
    """Seed-0 snapshots of the small floods and windows around the small
    verify pass's own orders."""
    ref = {}
    for workload in workloads.WORKLOADS.values():
        if workload.config:
            state, summary, _ = workloads.run_flood(workload, 0, scratch, small=True)
            ref[workload.name] = workloads.snapshot(state, summary)
    out = workloads.run_verify(small=True)
    order2 = [r.order2 for r in out.spatial if r.order2 is not None]
    pv = [r.order2 for r in out.spatial if r.variable in "pv" and r.order2 is not None]
    v_inf = next(r.orderinf for r in out.spatial
                 if r.variable == "v" and r.orderinf is not None)
    rate = next(r.order2 for r in out.temporal if r.order2 is not None)
    ref["verify"] = {
        "s_order2_min": min(order2) - 0.05,
        "pv_order2": (min(pv) - 0.05, max(pv) + 0.05),
        "v_orderinf_first": (v_inf - 0.05, v_inf + 0.05),
        "temporal_first": (rate - 0.05, rate + 0.05),
    }
    return ref


def corrupted(ref: dict, name: str) -> dict:
    bad = copy.deepcopy(ref)
    if name == "verify":
        bad["verify"] = dict(ref.get("verify", workloads.VERIFY_WINDOWS),
                             temporal_first=(5.0, 6.0))
    else:
        bad[name]["c"][1][1] += 1e-3
    return bad


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
           == list(workloads.WORKLOADS), "workload names agree")
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in workloads.WORKLOADS.values()},
           "each workload's reason agrees")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end-to-end metrics agree")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "per-layer metrics agree")

    scratch = worker.SCRATCH
    scratch.mkdir(exist_ok=True)
    ref = small_reference(scratch)
    deadline = time.monotonic() + run.TIME_MARGIN_S
    for name in run.WORKLOADS:
        out = worker.loop(name, 0, 0.0, True, reference=ref, small=True)
        expect(out["failed"] == 0, f"{name}: small output passes its check "
                                   f"{out['problems']}")
        setup = run._child(["--workload", name, "--probe"], deadline)["setup_s"]
        values = {**run.end_to_end(out, [setup]), **run.per_layer(out)}
        named = {**run.END_TO_END, **run.PER_LAYER}
        bad = [m for m in named if not math.isfinite(values.get(m, math.nan))]
        expect(not bad, f"{name}: every named metric appears and is finite {bad}")

        workload = workloads.WORKLOADS[name]
        output = workloads.run_op(workload, 0, scratch, small=True)
        problems = workloads.check(workload, 0, output, corrupted(ref, name))
        expect(bool(problems), f"{name}: a corrupted reference fails the check")

    # the committed reference, at full size and seed 0
    full = workloads.load_reference()
    for name, workload in workloads.WORKLOADS.items():
        output = workloads.run_op(workload, 0, scratch)
        problems = workloads.check(workload, 0, output, full)
        expect(not problems, f"{name}: full size matches reference.json {problems}")
        problems = workloads.check(workload, 0, output, corrupted(full, name))
        expect(bool(problems), f"{name}: a corrupted reference.json fails")

    tracer = spans.Tracer().install()
    try:
        workloads.run_flood(workloads.WORKLOADS["flood-longstep"], 0, scratch,
                            small=True)
    finally:
        tracer.restore()
    try:
        spans.layer_metrics(tracer.take(), {"reduced1d.step1d"})
        expect(False, "a span that never fired is reported")
    except RuntimeError:
        expect(True, "a span that never fired is reported")

    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
