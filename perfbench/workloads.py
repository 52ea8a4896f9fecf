"""The benchmark's workloads: inputs per seed, one operation, output checks.

Each workload is a closed loop of one operation.  The operation drives
polyflood's public API the way a user would; it reads every polyflood
function through its module at call time, so the span wrappers of
spans.py see the calls.

Seed 0 is the default and reproduces the workloads exactly; its outputs
are checked against the snapshot in reference.json.  Any other seed moves
the flood's initial flooded radius within 0.44 +- 0.01 and s0 within
0.21 +- 0.001, and its outputs are checked for bounds and finiteness
only.  The verify pass has no random
input; every seed runs it unchanged.

Run `PYTHONPATH=src python3 perfbench/workloads.py` from the repository
root to rewrite reference.json from the current code; do that only for a
change that is meant to move the answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import polyflood.cli
import polyflood.harness
import polyflood.simulate
from polyflood import RunConfig
from polyflood.harness import RefinementStudy

DEFAULT_SEED = 0
RADIUS_JITTER = 0.01
S0_JITTER = 0.001

REFERENCE = Path(__file__).with_name("reference.json")
SNAPSHOT_STRIDE = 8
# Final-field tolerance: s and c absolute, p relative to max |p|.  A direct
# solve in place of both CGs moves the fields by ~1e-12; pressure_tol 1e-6
# with transport_tol 1e-8 moves them by ~3e-8; beta 15 -> 15.1 moves c by
# 2e-5 and p by 4e-3 (s ends clamped at 1 - s_ro everywhere).
FIELD_TOL = 1e-6
TIME_TOL = 1e-9

# observed-order windows of acceptance criteria 5 and 6
VERIFY_WINDOWS = {
    "s_order2_min": 0.7,
    "pv_order2": (1.5, 2.5),
    "v_orderinf_first": (0.7, 1.3),
    "temporal_first": (0.6, 1.2),
}
VERIFY_1D_LINES = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict            # RunConfig fields of the flood; empty for verify
    expected: frozenset = frozenset()


_FLOOD_SPANS = {
    "simulate.run_simulation", "simulate.advance", "pressure.assemble",
    "pressure.solve", "pressure.velocity", "linsolve.pressure_cg",
    "transport.saturation", "linsolve.saturation_cg",
    "transport.concentration", "transport.feet", "grids.interp",
    "petro.eval",
}

# A third flood, RunConfig(N=128) with point wells and a final dump (the
# solver-bound case, pressure CG ~68% of a step), is left out: on a shared
# two-core KVM guest its best step times moved 35-45% with the host's load
# while the two workloads below moved ~10%, so its run-to-run spread
# (IQR/median 0.32 over ten runs) exceeded any bound the benchmark may set.
WORKLOADS = {w.name: w for w in (
    Workload(
        "flood-longstep",
        "solver-bound flood with long steps (dt=0.2): saturation CG rises, "
        "feet cross cells, bump wells, final dump; N=96 is no power of two",
        {"N": 96, "dt": 0.2, "well_radius": 0.2},
        expected=frozenset(_FLOOD_SPANS | {"grids.dump"})),
    Workload(
        "verify",
        "verification pass: many small steps, so assembly, petro and "
        "pointwise work weigh more; the only user of harness and reduced1d",
        {},
        expected=frozenset(_FLOOD_SPANS | {"harness.study", "reduced1d.step1d"})),
)}


# -- inputs --------------------------------------------------------------------

def flood_config(workload: Workload, seed: int, small: bool = False) -> RunConfig:
    """The flood's RunConfig for a seed; small shrinks it to N = 8."""
    values = dict(workload.config)
    if small:
        values["N"] = 8
    cfg = RunConfig(**values)
    if seed == DEFAULT_SEED:
        return cfg
    rng = random.Random(seed)
    return replace(cfg, radius=cfg.radius + RADIUS_JITTER * rng.uniform(-1, 1),
                   s0=cfg.s0 + S0_JITTER * rng.uniform(-1, 1))


def verify_studies(small: bool = False):
    """Criteria 5 and 6 as RefinementStudy objects.  small shrinks the
    levels to N <= 8 (against a reference at 16) and the temporal grid to 8."""
    spatial = RefinementStudy(
        "spatial", (2, 4, 8) if small else (8, 16, 32), 16 if small else 64,
        RunConfig(dt=1.0 / 50.0, tstop=0.4, Q=1.0, well_radius=0.2))
    temporal = RefinementStudy(
        "temporal", (1 / 20, 1 / 40, 1 / 80), 1 / 160,
        RunConfig(N=8 if small else 16, tstop=0.3, Q=1.5, well_radius=0.2))
    return spatial, temporal


def first_config(workload: Workload, seed: int, small: bool = False) -> RunConfig:
    """The first RunConfig the operation hands to run_simulation."""
    if workload.config:
        return flood_config(workload, seed, small)
    spatial, _ = verify_studies(small)
    return replace(spatial.base, N=int(spatial.reference))


# -- one operation -------------------------------------------------------------

def run_flood(workload: Workload, seed: int, scratch: Path, small: bool = False):
    """One whole flood to tstop with a final dump; returns (state, summary,
    cfg)."""
    cfg = flood_config(workload, seed, small)
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        result = polyflood.simulate.run_simulation(
            replace(cfg, out=out), stop_at_breakthrough=False)
        if len(result.dumps) != 3 or not all(p.is_file() for p in result.dumps):
            raise RuntimeError(f"expected three dump files, got {result.dumps}")
    return result.state, result.summary, cfg


@dataclass
class VerifyOutput:
    spatial: list
    temporal: list
    exit_code: int
    text: str


def run_verify(small: bool = False) -> VerifyOutput:
    spatial, temporal = verify_studies(small)
    s_records = polyflood.harness.run_spatial_study(spatial)
    t_records = polyflood.harness.run_temporal_study(temporal)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = polyflood.cli.main(["verify-1d"])
    return VerifyOutput(s_records, t_records, code, out.getvalue())


def level_times(output: VerifyOutput) -> list[float]:
    """Wall seconds of each spatial level run, coarse to fine."""
    return [r.time for r in output.spatial if r.variable == "s"]


# -- output checks -------------------------------------------------------------

def snapshot(state, summary) -> dict:
    """What a seed-0 flood is checked against."""
    k = SNAPSHOT_STRIDE
    return {
        "steps": summary.steps,
        "breakthrough_time": summary.breakthrough_time,
        "stride": k,
        **{name: getattr(state, name)[::k, ::k].tolist() for name in "scp"},
        "mean": {name: float(getattr(state, name).mean()) for name in "scp"},
    }


def check_flood(state, summary, cfg: RunConfig, reference: dict | None) -> list[str]:
    """Problems with a flood's output; empty when it passes."""
    problems = []
    for name in ("s", "c", "p", "vx", "vy"):
        if not np.all(np.isfinite(getattr(state, name))):
            problems.append(f"{name} has non-finite values")
    lo, hi = cfg.s_ra, 1.0 - cfg.s_ro
    if not (lo <= summary.s_min and summary.s_max <= hi):
        problems.append(f"s left [{lo}, {hi}]: [{summary.s_min}, {summary.s_max}]")
    if not (0.0 <= summary.c_min and summary.c_max <= cfg.c0):
        problems.append(f"c left [0, {cfg.c0}]: [{summary.c_min}, {summary.c_max}]")
    if reference is None:
        return problems

    if summary.steps != reference["steps"]:
        problems.append(f"steps {summary.steps} != {reference['steps']}")
    bt, bt_ref = summary.breakthrough_time, reference["breakthrough_time"]
    if (bt is None) != (bt_ref is None) or (bt is not None
                                            and abs(bt - bt_ref) > TIME_TOL):
        problems.append(f"breakthrough at {bt}, reference {bt_ref}")
    k = reference["stride"]
    for name in "scp":
        ref = np.asarray(reference[name])
        got = getattr(state, name)
        scale = float(np.abs(ref).max()) if name == "p" else 1.0
        if got[::k, ::k].shape != ref.shape:
            problems.append(f"{name} snapshot shape {got[::k, ::k].shape}")
            continue
        err = max(float(np.abs(got[::k, ::k] - ref).max()),
                  abs(float(got.mean()) - reference["mean"][name]))
        if not err <= FIELD_TOL * scale:
            problems.append(f"{name} differs from the reference by {err:.3e}")
    return problems


def check_verify(output: VerifyOutput, windows: dict) -> list[str]:
    """Problems with a verification pass; empty when it passes."""
    problems = []
    order2 = {v: [r.order2 for r in output.spatial
                  if r.variable == v and r.order2 is not None] for v in "spv"}
    v_inf = [r.orderinf for r in output.spatial
             if r.variable == "v" and r.orderinf is not None]
    rates = [r.order2 for r in output.temporal if r.order2 is not None]
    lo, hi = windows["pv_order2"]
    if not all(o >= windows["s_order2_min"] for o in order2["s"]):
        problems.append(f"s orders {order2['s']}")
    if not all(lo <= o <= hi for o in order2["p"] + order2["v"]):
        problems.append(f"p, v orders {order2['p']} {order2['v']}")
    lo, hi = windows["v_orderinf_first"]
    if not (v_inf and lo <= v_inf[0] <= hi):
        problems.append(f"v max-norm orders {v_inf}")
    lo, hi = windows["temporal_first"]
    if not (rates and lo <= rates[0] <= hi):
        problems.append(f"temporal rates {rates}")
    verdicts = [line.split()[-1] for line in output.text.splitlines()
                if line.rstrip().endswith(("PASS", "FAIL"))]
    if output.exit_code != 0 or verdicts != ["PASS"] * VERIFY_1D_LINES:
        problems.append(f"verify-1d exit {output.exit_code}, verdicts {verdicts}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def run_op(workload: Workload, seed: int, scratch: Path, small: bool = False):
    """One operation: the whole flood, or the whole verification pass."""
    if workload.config:
        return run_flood(workload, seed, scratch, small)
    return run_verify(small)


def check(workload: Workload, seed: int, output, reference: dict) -> list[str]:
    """Problems with run_op's output; the snapshot applies to seed 0 only,
    and reference["verify"], when present, replaces the verify windows."""
    if workload.config:
        state, summary, cfg = output
        snap = reference.get(workload.name) if seed == DEFAULT_SEED else None
        return check_flood(state, summary, cfg, snap)
    return check_verify(output, reference.get("verify", VERIFY_WINDOWS))


def write_reference(scratch: Path) -> None:
    snaps = {}
    for workload in WORKLOADS.values():
        if workload.config:
            state, summary, _ = run_flood(workload, DEFAULT_SEED, scratch)
            snaps[workload.name] = snapshot(state, summary)
    REFERENCE.write_text(json.dumps(snaps, indent=1) + "\n")


if __name__ == "__main__":
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    write_reference(scratch)
