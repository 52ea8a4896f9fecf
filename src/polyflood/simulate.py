"""Quarter five-spot driver: initialization and the sequential time loop.

Each step solves pressure from the current (s, c) fields, recovers the
total velocity, and only then forms the transport coefficients against
that fresh velocity, so saturation and concentration always advect along
the just-computed flow.  The loop runs until the production corner exceeds
the breakthrough threshold or the stop time arrives, whichever is first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .grids import Field, Grid2, write_field
from .linsolve import SolverError
from .pressure import assemble_pressure, recover_velocity, solve_pressure
from .transport import State, StepParams, concentration_step, saturation_step

__all__ = ["RunSummary", "RunResult", "init_state", "advance", "run_simulation"]

_TIME_EPS = 1e-12


@dataclass
class RunSummary:
    """Aggregate diagnostics of one run; clamp counters are node-step counts
    of values sitting exactly on their clamp bounds after each update."""

    steps: int = 0
    final_time: float = 0.0
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
        self.s_clamp_hits += int(np.count_nonzero(
            (state.s == model.s_ra) | (state.s == 1.0 - model.s_ro)))
        self.c_clamp_hits += int(np.count_nonzero(state.c == 0.0))


@dataclass
class RunResult:
    state: State
    summary: RunSummary
    dumps: list = field(default_factory=list)


def init_state(cfg: RunConfig) -> State:
    """Flooded quarter disc about the injection corner, resident elsewhere.

    Nodes with |x| <= radius start at (1 - s_ro, c0); the rest of the
    domain sits at (s0, 0).  Pressure and velocity are zero until the
    first solve.
    """
    grid = Grid2(cfg.N, cfg.N)
    X, Y = grid.xy
    inside = np.hypot(X, Y) <= cfg.radius
    s = np.where(inside, 1.0 - cfg.s_ro, cfg.s0)
    c = np.where(inside, cfg.c0, 0.0)
    return State.quiescent(grid, s, c)


@np.errstate(over="raise", divide="raise", invalid="raise")
def advance(state: State, cfg: RunConfig, model, wells, dt: float) -> State:
    """One full step: pressure solve, velocity recovery, both transports.

    Floating-point overflow, division by zero and invalid operations raise
    FloatingPointError where they happen, so a step that would make an inf
    or a NaN fails in that step; underflow stays silent.
    """
    grid = state.grid
    # the pressure system is dropped once solved, before transport builds
    # its own system and multigrid hierarchy
    system = assemble_pressure(grid, state.s, state.c, model, wells, K=cfg.K)
    p = solve_pressure(system, grid, tol=cfg.pressure_tol, x0=state.p)
    del system
    vx, vy = recover_velocity(grid, p, state.s, state.c, model, K=cfg.K)

    flow = State(grid, state.t, state.s, state.c, p, vx, vy)
    params = StepParams(dt=dt, phi=cfg.phi, K=cfg.K, wells=wells,
                        lin_tol=cfg.transport_tol)
    s_new = saturation_step(flow, model, params)
    c_new = concentration_step(flow, s_new, model, params)
    return State(grid, state.t + dt, s_new, c_new, p, vx, vy)


def _dump(state: State, out_dir: Path, step: int) -> list:
    paths = []
    for label in ("s", "c", "p"):
        path = out_dir / f"{label}_{step:06d}.txt"
        write_field(path, Field(state.grid, getattr(state, label), label), state.t)
        paths.append(path)
    return paths


def run_simulation(cfg: RunConfig, stop_at_breakthrough: bool = True,
                   t_end: float | None = None) -> RunResult:
    """March the coupled system from the initial state.

    The loop guard follows the production corner: it steps while that node
    sits at or below the breakthrough threshold and time remains, then
    records the first crossing time.  Studies advance to an exact common
    time instead by passing t_end and stop_at_breakthrough=False; the last
    step is shortened to land on it.  Failures dump the last consistent
    state before propagating; a step that fails a numerical check raises
    SolverError.
    """
    model = cfg.petro()
    wells = cfg.wells() if cfg.Q > 0.0 else None
    t_final = cfg.tstop if t_end is None else t_end

    state = init_state(cfg)
    summary = RunSummary()
    summary.observe(state, model)

    out_dir = None
    dumps: list = []
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.dump_every > 0:
            dumps += _dump(state, out_dir, 0)

    threshold = cfg.breakthrough_threshold
    while state.t < t_final - _TIME_EPS * max(1.0, t_final):
        if stop_at_breakthrough and state.s[-1, -1] > threshold:
            break
        dt = min(cfg.dt, t_final - state.t)
        try:
            state = advance(state, cfg, model, wells, dt)
        except Exception as err:
            if out_dir is not None:
                _dump(state, out_dir, summary.steps)
            # a step's own checks (coefficients, feet, denominators) raise
            # ValueError and its floating-point faults FloatingPointError;
            # inside the loop both are numerical failures
            if isinstance(err, (ValueError, ArithmeticError)):
                raise SolverError(f"step {summary.steps + 1} from "
                                  f"t = {state.t:.6g} failed: {err}") from err
            raise
        summary.steps += 1
        summary.observe(state, model)
        if summary.breakthrough_time is None and state.s[-1, -1] > threshold:
            summary.breakthrough_time = state.t
        if out_dir is not None and cfg.dump_every > 0 \
                and summary.steps % cfg.dump_every == 0:
            dumps += _dump(state, out_dir, summary.steps)

    summary.final_time = state.t
    if out_dir is not None:
        dumps += _dump(state, out_dir, summary.steps)
    return RunResult(state, summary, dumps)
