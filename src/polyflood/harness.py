"""Grid-refinement harness: norms, observed orders, and the two studies.

Convergence is measured against the finest-grid run of the study, compared
at that reference run's breakthrough time: the reference runs first with
the breakthrough monitor on, then every coarser level is advanced to that
exact time (final step shortened), and nodal differences are taken on the
coarse nodes after restriction.  The L2 norm weights each node by its cell
area, matching the discrete norms of the error analysis.

Studies emit one CSV with columns

    variable,h,dt,e2,order2,emax,orderinf,time

where the order columns compare consecutive levels (blank on the first)
and time is the wall-clock seconds of that level's run.  Everything here
is deterministic: no randomness enters the pipeline anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .grids import Grid1, Grid2
from .simulate import run_simulation

__all__ = [
    "ErrorRecord", "RefinementStudy",
    "restrict_to_coarse", "error_norms", "error_norms_1d", "observed_order",
    "run_spatial_study", "run_temporal_study",
    "write_records_csv", "format_records",
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


def error_norms(coarse: np.ndarray, coarse_grid: Grid2,
                reference: np.ndarray, reference_grid: Grid2):
    """Area-weighted L2 and max difference on the coarse nodes."""
    diff = np.abs(coarse - restrict_to_coarse(reference, reference_grid,
                                              coarse_grid))
    e2 = float(np.sqrt(np.sum(diff ** 2) * coarse_grid.hx * coarse_grid.hy))
    return e2, float(diff.max())


def error_norms_1d(grid: Grid1, values: np.ndarray, exact):
    """h-weighted L2 and max difference against a callable or array."""
    ref = exact(grid.x) if callable(exact) else np.asarray(exact, dtype=float)
    diff = np.abs(np.asarray(values, dtype=float) - ref)
    return float(np.sqrt(np.sum(diff ** 2) * grid.h)), float(diff.max())


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
    `reference` step at the base grid.  Levels must refine strictly toward
    the reference, which itself must be strictly finer than every level.
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
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError("repeated refinement levels make the order "
                              "undefined")
        if self.mode == "spatial":
            ns = [int(n) for n in self.levels]
            if ns != sorted(ns):
                raise ConfigError("spatial levels must refine monotonically")
            if ns[0] < 2:
                raise ConfigError(f"grid sizes must be at least 2 (got {ns[0]})")
            n_ref = int(self.reference)
            for n in ns:
                if n_ref % n != 0 or n_ref <= n:
                    raise ConfigError(f"reference grid {n_ref} must be a "
                                      f"strict multiple of every level (got {n})")
        else:
            dts = [float(d) for d in self.levels]
            if dts != sorted(dts, reverse=True):
                raise ConfigError("temporal levels must shrink monotonically")
            if not float(self.reference) < min(dts):
                raise ConfigError("reference step must be the finest")


def _timed_run(cfg: RunConfig, **kw):
    tic = time.perf_counter()
    result = run_simulation(cfg, **kw)
    return result, time.perf_counter() - tic


def _run_study(study: RefinementStudy, errors) -> list[ErrorRecord]:
    """Shared driver: reference run, t*, the level loop and the orders.

    errors(state, ref_state) maps each recorded variable to its (e2, emax)
    pair at one level.
    """
    vary, cast = ("N", int) if study.mode == "spatial" else ("dt", float)
    ref, _ = _timed_run(replace(study.base, out="",
                                **{vary: cast(study.reference)}))
    t_star = ref.summary.breakthrough_time
    if t_star is None:
        t_star = ref.summary.final_time

    per_var: dict[str, list[ErrorRecord]] = {}
    for level in study.levels:
        cfg = replace(study.base, out="", **{vary: cast(level)})
        result, wall = _timed_run(cfg, stop_at_breakthrough=False, t_end=t_star)
        for var, (e2, emax) in errors(result.state, ref.state).items():
            per_var.setdefault(var, []).append(ErrorRecord(
                var, result.state.grid.hx, cfg.dt, e2, emax, time=wall))

    records = []
    for rows in per_var.values():
        for k, row in enumerate(rows):
            if k > 0:
                row.order2 = observed_order(rows[k - 1].e2, row.e2)
                row.orderinf = observed_order(rows[k - 1].emax, row.emax)
            records.append(row)
    return records


def run_spatial_study(study: RefinementStudy) -> list[ErrorRecord]:
    """Errors and orders for s, p, and velocity under grid refinement."""
    if study.mode != "spatial":
        raise ConfigError("run_spatial_study wants a spatial-mode study")

    def errors(state, ref):
        grid = state.grid
        out = {var: error_norms(getattr(state, var), grid,
                                getattr(ref, var), ref.grid)
               for var in ("s", "p")}
        # velocity: norms of the pointwise vector difference
        dvx = state.vx - restrict_to_coarse(ref.vx, ref.grid, grid)
        dvy = state.vy - restrict_to_coarse(ref.vy, ref.grid, grid)
        dmag = np.hypot(dvx, dvy)
        e2 = float(np.sqrt(np.sum(dmag ** 2) * grid.hx * grid.hy))
        out["v"] = (e2, float(dmag.max()))
        return out

    return _run_study(study, errors)


def run_temporal_study(study: RefinementStudy) -> list[ErrorRecord]:
    """Saturation errors and rates under time-step refinement at fixed h."""
    if study.mode != "temporal":
        raise ConfigError("run_temporal_study wants a temporal-mode study")
    return _run_study(study, lambda state, ref: {
        "s": error_norms(state.s, state.grid, ref.s, ref.grid)})


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
