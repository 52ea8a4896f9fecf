"""Quarter five-spot driver: initialization and the sequential time loop.

Each step solves pressure from the current (s, c) fields, recovers the
total velocity, and only then forms the transport coefficients against
that fresh velocity, so saturation and concentration always advect along
the just-computed flow; every stage reads K, the wells and dt from the
one StepParams that run_simulation builds per step.  A run ends at
cfg.tstop, where grids.time_step lands it, or at breakthrough of the
production corner if that comes first and stop_at_breakthrough is set;
its final state's t says when it ended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import RunConfig
from .grids import Grid2, time_step, write_field
from .linsolve import SolverError
from .pressure import (assemble_pressure, element_coefficients, recover_velocity,
                       solve_pressure)
from .transport import State, StepParams, concentration_step, saturation_step

__all__ = ["RunSummary", "RunResult", "init_state", "advance", "run_simulation"]


@dataclass
class RunSummary:
    """Aggregate diagnostics of one run; the clamp counters sum, over every
    observed state, the initial one included, the nodes exactly on a bound:
    s at either end of the mobile range, c at 0 only."""

    steps: int = 0
    breakthrough_time: float | None = None
    s_min: float = math.inf
    s_max: float = -math.inf
    c_min: float = math.inf
    c_max: float = -math.inf
    s_clamp_hits: int = 0
    c_clamp_hits: int = 0

    def observe(self, state: State, model):
        self.s_min = min(self.s_min, float(state.s.min()))
        self.s_max = max(self.s_max, float(state.s.max()))
        self.c_min = min(self.c_min, float(state.c.min()))
        self.c_max = max(self.c_max, float(state.c.max()))
        lo, hi = model.mobile_range
        self.s_clamp_hits += int(np.count_nonzero((state.s == lo) | (state.s == hi)))
        self.c_clamp_hits += int(np.count_nonzero(state.c == 0.0))


@dataclass
class RunResult:
    state: State
    summary: RunSummary
    dumps: list = field(default_factory=list)


def init_state(cfg: RunConfig) -> State:
    """Flooded quarter disc about the injection corner, resident elsewhere.

    Nodes with |x| <= radius start at (1 - s_ro, c0), the top of the
    mobile range; the rest of the domain sits at (s0, 0).  Pressure and
    velocity are zero until the first solve.
    """
    grid = Grid2(cfg.N, cfg.N)
    X, Y = grid.xy
    inside = np.hypot(X, Y) <= cfg.radius
    s = np.where(inside, cfg.petro().mobile_range[1], cfg.s0)
    c = np.where(inside, cfg.c0, 0.0)
    return State(grid, 0.0, s, c, *np.zeros((3, *grid.shape)))  # p, vx, vy


@np.errstate(over="raise", divide="raise", invalid="raise")
def advance(state: State, model, params: StepParams) -> State:
    """One full step: pressure solve, velocity recovery, both transports,
    every stage with the K, wells and dt of params.

    Floating-point overflow, division by zero and invalid operations raise
    FloatingPointError where they happen, so a step that would make an inf
    or a NaN fails in that step; underflow stays silent.
    """
    grid = state.grid
    # the (s, c) pair is evaluated once: pressure and velocity share its
    # element coefficients, the saturation step its f, df/ds and df/dc,
    # and the rest of the evaluation is dropped before the pressure solve
    laws = model.evaluate(state.s, state.c)
    coef = element_coefficients(grid, laws.lam, params.K)
    kept = [SimpleNamespace(f=laws.f, df_ds=laws.df_ds, df_dc=laws.df_dc)]
    del laws
    # the pressure system is dropped once solved, before transport builds
    # its own system and multigrid hierarchy
    system = assemble_pressure(grid, state.s, state.c, model, params.wells,
                               K=params.K, coef=coef)
    p = solve_pressure(system, grid, x0=state.p)
    del system
    vx, vy = recover_velocity(grid, p, state.s, state.c, model, K=params.K, coef=coef)
    del coef

    flow = State(grid, state.t, state.s, state.c, p, vx, vy)
    # handed over, not kept, so the saturation step drops the three fields
    # once its right-hand side has them, as it drops its own evaluation
    s_new = saturation_step(flow, model, params, laws=kept.pop())
    c_new = concentration_step(flow, s_new, model, params)
    return State(grid, state.t + params.dt, s_new, c_new, p, vx, vy)


def _dump(state: State, out_dir: Path, step: int) -> list:
    paths = []
    for label in ("s", "c", "p"):
        path = out_dir / f"{label}_{step:06d}.txt"
        write_field(path, state.grid, getattr(state, label), state.t, label)
        paths.append(path)
    return paths


def run_simulation(cfg: RunConfig, stop_at_breakthrough: bool = True) -> RunResult:
    """March the coupled system from the initial state.

    Each state, the initial one included, passes one point of the loop:
    it is observed, records breakthrough if it is the first whose
    production corner exceeds the threshold, and is dumped if it is the
    last or dump_every divides its step count.  Studies set tstop and
    stop_at_breakthrough=False to land every level on one common time.
    Failures dump the last consistent state before propagating; a step
    that fails a numerical check raises SolverError.
    """
    model = cfg.petro()
    wells = cfg.wells()

    state = init_state(cfg)
    summary = RunSummary()
    out_dir = None
    dumps: list = []
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    while True:
        summary.observe(state, model)
        if summary.breakthrough_time is None \
                and state.s[-1, -1] > cfg.breakthrough_threshold:
            summary.breakthrough_time = state.t
        step = time_step(state.t, cfg.dt, cfg.tstop)
        last = (step == 0.0
                or stop_at_breakthrough and summary.breakthrough_time is not None)
        if out_dir is not None and (last or cfg.dump_every > 0
                                    and summary.steps % cfg.dump_every == 0):
            dumps += _dump(state, out_dir, summary.steps)
        if last:
            break
        params = StepParams(step, cfg.phi, cfg.K, wells)
        try:
            state = advance(state, model, params)
        except Exception as err:
            if out_dir is not None:
                _dump(state, out_dir, summary.steps)
            # a step's own checks (coefficients, feet, denominators) raise
            # ValueError, its floating-point faults FloatingPointError and
            # its solves SolverError; inside the loop all are numerical
            # failures of that step
            if isinstance(err, (ValueError, ArithmeticError, SolverError)):
                failure = SolverError(f"step {summary.steps + 1} from "
                                      f"t = {state.t:.6g} failed: {err}")
                failure.residual = getattr(err, "residual", math.nan)
                failure.iterations = getattr(err, "iterations", 0)
                raise failure from err
            raise
        summary.steps += 1

    return RunResult(state, summary, dumps)
