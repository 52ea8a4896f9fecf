"""Refinement harness: norms, observed orders, the two studies, verify_1d.

Convergence is measured against the finest-grid run of the study, compared
at the time t* its final state holds: it runs first and stops at
breakthrough, or at its tstop without one; then each coarser level runs
with tstop = t* (final step shortened), and nodal differences are taken
on the coarse nodes after restriction, one per variable (for the velocity
v, the length of the vector difference).  The L2 norm weights each node by
its cell area, matching the discrete norms of the error analysis.  A study
variable's error has one path: _difference forms it and _norms, which
error_norms_1d shares, takes its L2/max pair.

Studies emit one CSV with columns

    variable,h,dt,e2,order2,emax,orderinf,time

where the order columns compare consecutive levels (blank on the first,
and where either error is exactly 0) and time is the wall-clock seconds
of that level's run.  verify_1d runs each check of the 1-D reduced
system with its inputs and pass window.  Everything here is
deterministic: verify_1d's one random draw has a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .grids import Grid1, Grid2, interp_linear
from .reduced1d import (characteristic_derivative_check, diffusion_stencil_check,
                        manufactured_problem, run1d)
from .simulate import run_simulation

# The CLI's studies run on this base without a config file: bump wells keep
# the corner velocity bounded under refinement, where a point well's is not.
STUDY_BASE = RunConfig(tstop=0.4, Q=1.0, well_radius=0.2)

__all__ = [
    "STUDY_BASE", "ErrorRecord", "RefinementStudy",
    "restrict_to_coarse", "error_norms_1d", "observed_order",
    "run_spatial_study", "run_temporal_study",
    "write_records_csv", "format_records", "verify_1d",
]


@dataclass
class ErrorRecord:
    """One study row: errors of one variable at one refinement level."""

    variable: str
    h: float
    dt: float
    e2: float
    emax: float
    order2: float | None = None
    orderinf: float | None = None
    time: float = 0.0


def restrict_to_coarse(fine: np.ndarray, fine_grid: Grid2,
                       coarse_grid: Grid2) -> np.ndarray:
    """Sample a fine nodal array on the nodes of a nested coarser grid."""
    rx, ry = fine_grid.nx // coarse_grid.nx, fine_grid.ny // coarse_grid.ny
    if (rx * coarse_grid.nx != fine_grid.nx or ry * coarse_grid.ny != fine_grid.ny):
        raise ValueError("grids are not nested: coarse nodes must be a "
                         "subset of fine nodes")
    return fine[::ry, ::rx]


def _norms(diff: np.ndarray, *widths: float):
    """L2 norm (sum of squares times each width in turn) and max of diff."""
    return (float(np.sqrt(math.prod((np.sum(diff ** 2), *widths)))),
            float(diff.max()))


def error_norms_1d(grid: Grid1, values: np.ndarray, exact):
    """h-weighted L2 and max difference against an array of exact values."""
    return _norms(np.abs(np.asarray(values, dtype=float)
                         - np.asarray(exact, dtype=float)), grid.h)


def observed_order(e_coarse: float, e_fine: float) -> float:
    """log2 error drop between levels differing by a factor two in h."""
    if not (e_coarse > 0.0 and e_fine > 0.0):
        raise ValueError("observed order needs strictly positive errors")
    return float(np.log2(e_coarse / e_fine))


@dataclass(frozen=True)
class RefinementStudy:
    """Description of one refinement study over a shared base config.

    Spatial mode varies N over `levels` against `reference` cells at the
    base time step; temporal mode varies dt over `levels` against the
    `reference` step at the base grid.  Each level halves the step of the
    one before (h = 1/N in space, dt in time), as the log2 orders assume,
    and the reference is finer than the last level, in space a multiple
    of it; grid sizes are integers of at least 2.
    """

    mode: str
    levels: tuple
    reference: float
    base: RunConfig

    def __post_init__(self):
        if self.mode not in ("spatial", "temporal"):
            raise ConfigError(f"unknown study mode '{self.mode}'")
        if len(self.levels) < 2:
            raise ConfigError("a study needs at least two levels")
        levels, ref = self.levels, self.reference
        pairs = zip(levels, levels[1:])
        if self.mode == "spatial":  # h = 1/N halves as N doubles
            for n in (*levels, ref):
                if not (float(n).is_integer() and n >= 2):
                    raise ConfigError(f"grid sizes must be integers of at "
                                      f"least 2, got {n}")
            halves = all(fine == 2 * coarse for coarse, fine in pairs)
            finer = ref > levels[-1] and ref % levels[-1] == 0
        else:
            if not all(0.0 < d < math.inf for d in (*levels, ref)):
                raise ConfigError("time steps must be positive and finite")
            halves = all(coarse == 2 * fine for coarse, fine in pairs)
            finer = ref < levels[-1]
        if not halves:
            raise ConfigError("each level must halve the step of the one "
                              f"before (h = 1/N, dt), got {levels}")
        if not finer:
            raise ConfigError(f"reference {ref} must be finer than the last "
                              "level (in space, a multiple of it)")


def _difference(var: str, state, ref) -> np.ndarray:
    """|u - u_ref| of variable var on state's nodes, the reference
    restricted to them; for v, the length of (vx, vy)'s difference."""
    def minus_ref(name):
        return getattr(state, name) - restrict_to_coarse(
            getattr(ref, name), ref.grid, state.grid)
    if var == "v":
        return np.hypot(minus_ref("vx"), minus_ref("vy"))
    return np.abs(minus_ref(var))


def _run_study(study: RefinementStudy, variables: str) -> list[ErrorRecord]:
    """Shared driver: reference run, the levels run to its end, the orders.

    One row per level and variable, grouped by variable in their order.
    """
    vary, cast = ("N", int) if study.mode == "spatial" else ("dt", float)
    ref = run_simulation(replace(study.base, out="",
                                 **{vary: cast(study.reference)}))

    per_var: dict[str, list[ErrorRecord]] = {var: [] for var in variables}
    for level in study.levels:
        cfg = replace(study.base, out="", tstop=ref.state.t,
                      **{vary: cast(level)})
        tic = time.perf_counter()
        result = run_simulation(cfg, stop_at_breakthrough=False)
        wall = time.perf_counter() - tic
        grid = result.state.grid
        for var, rows in per_var.items():
            e2, emax = _norms(_difference(var, result.state, ref.state),
                              grid.hx, grid.hy)
            rows.append(ErrorRecord(var, grid.hx, cfg.dt, e2, emax, time=wall))

    def order(coarse, fine):  # undefined when an error is exactly 0
        return None if 0.0 in (coarse, fine) else observed_order(coarse, fine)

    for rows in per_var.values():
        for prev, row in zip(rows, rows[1:]):
            row.order2 = order(prev.e2, row.e2)
            row.orderinf = order(prev.emax, row.emax)
    return [row for rows in per_var.values() for row in rows]


def run_spatial_study(study: RefinementStudy) -> list[ErrorRecord]:
    """Errors and orders for s, p, and velocity under grid refinement."""
    if study.mode != "spatial":
        raise ConfigError("run_spatial_study wants a spatial-mode study")
    return _run_study(study, "spv")


def run_temporal_study(study: RefinementStudy) -> list[ErrorRecord]:
    """Saturation errors and rates under time-step refinement at fixed h."""
    if study.mode != "temporal":
        raise ConfigError("run_temporal_study wants a temporal-mode study")
    return _run_study(study, "s")


def _fmt(value, spec=".6e"):
    return "" if value is None else format(value, spec)


def write_records_csv(path, records: list[ErrorRecord]) -> None:
    lines = ["variable,h,dt,e2,order2,emax,orderinf,time"]
    for r in records:
        lines.append(",".join([
            r.variable, _fmt(r.h, ".8g"), _fmt(r.dt, ".8g"), _fmt(r.e2),
            _fmt(r.order2, ".4f"), _fmt(r.emax), _fmt(r.orderinf, ".4f"),
            _fmt(r.time, ".3f"),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def format_records(records: list[ErrorRecord]) -> str:
    """Fixed-width table for terminal output."""
    header = (f"{'var':4s} {'h':>10s} {'dt':>10s} {'e2':>12s} {'order':>7s} "
              f"{'emax':>12s} {'order':>7s} {'wall(s)':>8s}")
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r.variable:4s} {r.h:10.6f} {r.dt:10.6f} {r.e2:12.4e} "
            f"{_fmt(r.order2, '.3f') or '-':>7s} {r.emax:12.4e} "
            f"{_fmt(r.orderinf, '.3f') or '-':>7s} {r.time:8.2f}")
    return "\n".join(lines)


def verify_1d():
    """Run every reduced-system check; yield (label, detail, passed)."""
    # manufactured two-field convergence at dt = h
    coeffs, w_ex, m_ex = manufactured_problem()
    T = 0.5
    errs = []
    for n in (16, 32, 64, 128):
        g = Grid1(n)
        w, m, _ = run1d(g, coeffs, w_ex(g.x, 0.0), m_ex(g.x, 0.0), T, dt=g.h)
        errs.append(error_norms_1d(g, w, w_ex(g.x, T))[0]
                    + error_norms_1d(g, m, m_ex(g.x, T))[0])
    orders = [observed_order(errs[k], errs[k + 1]) for k in range(3)]
    yield ("manufactured convergence",
           "orders " + " ".join(f"{o:.3f}" for o in orders),
           all(0.8 <= o <= 1.3 for o in orders))

    # characteristic-derivative difference quotient
    s = lambda x, t: np.sin(2 * np.pi * x) * np.exp(-t) + 0.3 * x ** 2
    s_t = lambda x, t: -np.sin(2 * np.pi * x) * np.exp(-t)
    s_x = lambda x, t: 2 * np.pi * np.cos(2 * np.pi * x) * np.exp(-t) + 0.6 * x
    b = lambda x: np.full_like(x, 0.7)
    r_dt = characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.02, 0.5)
    r_half = characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.01, 0.5)
    ratio = r_dt / r_half
    yield ("characteristic derivative", f"dt-halving ratio {ratio:.3f}",
           1.6 <= ratio <= 2.4)

    lin = lambda x, t: 2.0 + 3.0 * (x - 0.7 * t)
    lin_t = lambda x, t: np.full_like(x, -2.1)
    lin_x = lambda x, t: np.full_like(x, 3.0)
    res = characteristic_derivative_check(lin, lin_t, lin_x, b, 1.0, 64, 0.02, 0.5)
    yield ("characteristic exactness", f"linear-profile residual {res:.2e}",
           res < 1e-10)

    # diffusion stencil
    quad = lambda x: 3 * x ** 2 - x + 0.5
    res = diffusion_stencil_check(quad, lambda x: np.full_like(x, 2.0),
                                lambda x: np.full_like(x, 12.0), 32)
    yield ("diffusion exactness", f"constant-D quadratic residual {res:.2e}",
           res < 1e-10)

    sprof = lambda x: np.sin(2 * np.pi * x)
    div_c = lambda x: -4 * np.pi ** 2 * np.sin(2 * np.pi * x)
    r_const = (diffusion_stencil_check(sprof, np.ones_like, div_c, 32)
               / diffusion_stencil_check(sprof, np.ones_like, div_c, 64))
    yield ("diffusion order, constant D", f"h-halving ratio {r_const:.3f}",
           3.5 <= r_const <= 4.5)

    D = lambda x: 1.0 + x ** 2
    div_v = lambda x: (2 * x * 2 * np.pi * np.cos(2 * np.pi * x)
                       - (1 + x ** 2) * 4 * np.pi ** 2 * np.sin(2 * np.pi * x))
    r_var = (diffusion_stencil_check(sprof, D, div_v, 32)
             / diffusion_stencil_check(sprof, D, div_v, 64))
    yield ("diffusion order, variable D", f"h-halving ratio {r_var:.3f}",
           1.7 <= r_var <= 4.5)

    # foot interpolation order on C^2 data
    f = lambda x: np.sin(2.3 * x + 0.7)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, 1000)
    ierrs = []
    for n in (32, 64):
        g = Grid1(n)
        ierrs.append(np.max(np.abs(interp_linear(g, f(g.x), pts) - f(pts))))
    r_interp = ierrs[0] / ierrs[1]
    yield ("foot interpolation order", f"h-halving ratio {r_interp:.3f}",
           3.5 <= r_interp <= 4.5)
