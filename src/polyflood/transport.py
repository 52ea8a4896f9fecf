"""Characteristics-based transport of saturation and polymer concentration.

Both fields are advanced by a modified method of characteristics: trace
each node backward along its advective characteristic over one time step,
read the old field there by bilinear interpolation, then close the update
implicitly (saturation) or pointwise (concentration).

Saturation feet follow the fractional-flow characteristic speed
(df/ds) v / phi.  The implicit closure solves

    phi (s' - sbar)/dt - div_h(|D| grad_h s') = g_s - (df/dc) v . grad_h c

with half-node face coefficients |D| evaluated at the traced values, which
keeps the matrix an M-matrix and the step unconditionally stable; no-flow
walls enter by ghost reflection.  The symmetric system is solved by
conjugate gradients preconditioned with a multigrid V-cycle built from
the same matrix.  Concentration feet follow
((f/s) v + (D/s) grad s) / phi and the reaction/source closure is a
pointwise division, so the concentration update costs no linear solve.

Well sources enter through the shared injection density: Q over the
corner node's control area hx*hy/4 by default, or the smooth distributed
bump when the well carries a positive radius, scaled by the usual
fractional-flow factors either way.  Over the node control areas either
density injects Q, the rate the pressure load injects.  After every
update saturation is clamped to the model's mobile_range [s_ra, 1 - s_ro] and
concentration to [0, max(c, c_injected)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid2, clamp_to_unit, gradient, interp_bilinear
from .linsolve import five_point, multigrid, solve_cg
from .pressure import WellConfig, injection_density

__all__ = [
    "State", "StepParams",
    "trace_feet_saturation", "trace_feet_concentration",
    "saturation_step", "concentration_step",
]


@dataclass
class State:
    """Simulation state at one time level: all fields share one grid."""

    grid: Grid2
    t: float
    s: np.ndarray
    c: np.ndarray
    p: np.ndarray
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        for name in ("s", "c", "p", "vx", "vy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"grid wants {self.grid.shape}")
            setattr(self, name, arr)


@dataclass(frozen=True)
class StepParams:
    """Per-step data: pressure and velocity read K and the wells, transport
    all of it, the saturation solve lin_tol.  Default wells have rate 0."""

    dt: float
    phi: float = 1.0
    K: float = 1.0
    wells: WellConfig = WellConfig(rate=0.0)
    lin_tol: float = 1e-12

    def __post_init__(self):
        # written so that NaN fails the test too
        if not 0.0 < self.dt < math.inf:
            raise ValueError("time step must be positive and finite")
        if not 0.0 < self.phi < math.inf:
            raise ValueError("porosity must be positive and finite")


def trace_feet_saturation(state: State, laws, params: StepParams):
    """Backward foot of the saturation characteristic at every node; laws
    is the model's evaluation at (state.s, state.c)."""
    X, Y = state.grid.xy
    drift = laws.df_ds * (params.dt / params.phi)
    return clamp_to_unit(X - drift * state.vx), clamp_to_unit(Y - drift * state.vy)


def trace_feet_concentration(state: State, s_new, laws, params: StepParams):
    """Backward foot of the concentration characteristic at every node.

    The drift combines the interstitial fractional-flow velocity (f/s) v
    with the capillary slip (D/s) grad s; saturation enters at the new time
    level, concentration at the old one, so laws is the model's evaluation
    at (s_new, state.c) with params.K.
    """
    grid = state.grid
    X, Y = grid.xy
    f_s, D_s = laws.f / s_new, laws.D / s_new
    dsdx = gradient(s_new, grid.hx, axis=1)
    dsdy = gradient(s_new, grid.hy, axis=0)
    scale = params.dt / params.phi
    ax = f_s * state.vx + D_s * dsdx
    ay = f_s * state.vy + D_s * dsdy
    return clamp_to_unit(X - scale * ax), clamp_to_unit(Y - scale * ay)


def saturation_step(state: State, model, params: StepParams) -> np.ndarray:
    """One implicit MMOC saturation update; returns the clamped new field.

    The ghost-reflection equations are scaled by the trapezoidal node
    weights before assembly.  That leaves every nodal equation unchanged
    (it is a row scaling) but makes the matrix symmetric positive definite,
    so conjugate gradients applies, with multigrid(A, grid) as its
    preconditioner.
    """
    grid = state.grid
    hx, hy = grid.hx, grid.hy
    dt, phi = params.dt, params.phi

    # the (s, c) pair gives the feet, df/dc and the well term, and is
    # dropped once the right-hand side has them
    laws = model.evaluate(state.s, state.c)
    xbar, ybar = trace_feet_saturation(state, laws, params)
    sbar = interp_bilinear(grid, state.s, xbar, ybar)
    dcdx = gradient(state.c, hx, axis=1)
    dcdy = gradient(state.c, hy, axis=0)
    rhs_density = (phi / dt) * sbar - laws.df_dc * (state.vx * dcdx + state.vy * dcdy)
    rhs_density += (1.0 - laws.f) * injection_density(grid, params.wells)
    del laws

    # face coefficients from the traced saturation and old concentration
    Dn = model.evaluate(sbar, state.c, params.K).D
    Dabs_x = -(Dn[:, :-1] + Dn[:, 1:]) / 2.0
    Dabs_y = -(Dn[:-1, :] + Dn[1:, :]) / 2.0
    if (Dabs_x < 0.0).any() or (Dabs_y < 0.0).any():
        raise ValueError("negative face diffusion would break the M-matrix")

    wx, wy = grid.trapezoid_weights
    area = grid.node_areas

    # one coefficient per face, shared by both endpoint rows; dividing a
    # boundary row by its half-cell area reproduces the ghost doubling
    cfx_face = (Dabs_x / hx ** 2) * (wy[:, None] * hx * hy)
    cfy_face = (Dabs_y / hy ** 2) * (wx[None, :] * hx * hy)
    A = five_point(grid, cfx_face, cfy_face, mass=(phi / dt) * area)

    rhs = (rhs_density * area).ravel()
    M = multigrid(A, grid)
    s_new = solve_cg(A, rhs, M, tol=params.lin_tol,
                     x0=state.s.ravel()).reshape(grid.shape)
    return s_new.clip(*model.mobile_range)


def concentration_step(state: State, s_new, model, params: StepParams) -> np.ndarray:
    """Pointwise MMOC concentration update against the new saturation."""
    grid = state.grid
    dt, phi = params.dt, params.phi

    xbar, ybar = trace_feet_concentration(
        state, s_new, model.evaluate(s_new, state.c, params.K), params)
    cbar = interp_bilinear(grid, state.c, xbar, ybar)

    c_in = params.wells.c_injected
    g = injection_density(grid, params.wells) / s_new
    denom = phi / dt + g
    if (denom <= 0.0).any():
        raise ValueError("nonpositive reaction denominator in concentration update")
    c_new = ((phi / dt) * cbar + c_in * g) / denom
    return c_new.clip(0.0, max(float(state.c.max()), c_in))
