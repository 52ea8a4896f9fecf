"""One-dimensional reduced transport system and its verification tools.

The pair of equations mirrors the structure of the full model with the
pressure coupling stripped out:

    phi w_t + b(x, w, m) w_x + (D w_x)_x = F      (saturation-like, D <= 0)
    phi m_t + a(x, w, m, w_x) m_x + G m  = H      (concentration-like)

One step traces saturation feet with the old pair, solves a tridiagonal
ghost-reflected diffusion system for the new w, then traces concentration
feet with the *new* w (old m) and closes m pointwise.  Face diffusion uses
the arithmetic mean of nodal values evaluated at the traced saturation.

This file also carries the scheme's unit truth: a manufactured solution
with hand-written forcings for the convergence study, and two residual
checks that isolate the characteristic time derivative and the variable
coefficient diffusion stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grids import Grid1, clamp_to_unit, gradient, time_step

__all__ = [
    "Coeffs1D", "step1d", "run1d",
    "physical_coeffs", "manufactured_problem",
    "characteristic_derivative_check", "diffusion_stencil_check",
]


@dataclass(frozen=True)
class Coeffs1D:
    """Coefficient callables of the reduced system; all vectorised over x.

    advection_s(x, w, m)          drift of the saturation characteristic
    advection_c(x, w, m, dwdx)    drift of the concentration characteristic
    diffusion(x, w, m)            signed coefficient D, nonpositive
    forcing_s(x, t, w, m, dmdx)   right side of the saturation equation
    reaction_c(x, t, w)           reaction coefficient G
    forcing_c(x, t, w)            right side of the concentration equation

    The porosity phi is a positive finite constant, checked once here.
    """

    advection_s: Callable
    advection_c: Callable
    diffusion: Callable
    forcing_s: Callable
    reaction_c: Callable
    forcing_c: Callable
    porosity: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.porosity < np.inf:
            raise ValueError("porosity must be positive and finite")


def step1d(grid: Grid1, w, m, coeffs: Coeffs1D, dt: float, t_new: float):
    """Advance (w, m) one step of size dt, positive and finite, to time t_new."""
    if not 0.0 < dt < np.inf:
        raise ValueError("time step must be positive and finite")
    x, h = grid.x, grid.h
    phi = coeffs.porosity

    # saturation half: trace with the old pair, implicit diffusion closure
    drift = coeffs.advection_s(x, w, m) * (dt / phi)
    wbar = np.interp(clamp_to_unit(x - drift), x, w)
    Dn = np.asarray(coeffs.diffusion(x, wbar, m), dtype=float)
    Dabs = -(Dn[:-1] + Dn[1:]) / 2.0
    if (Dabs < 0.0).any():
        raise ValueError("positive diffusion coefficient: face weights must "
                         "come from D <= 0")

    dmdx = gradient(m, h)
    F = coeffs.forcing_s(x, t_new, w, m, dmdx)

    n = grid.n
    mass = phi / dt
    # rows 1..n-1 couple to both face neighbors; ghost reflection doubles
    # the single face at each wall row.  Band rows A[i, i+1], A[i, i] and
    # A[i+1, i], then the right-hand side, for LAPACK's dgtsv (where
    # solve_banded((1, 1), ...) ends), which may overwrite all four
    ab = np.zeros((4, n + 1))
    ab[0, 1:] = ab[2, :-1] = -Dabs / h ** 2
    ab[0, 1] *= 2.0
    ab[2, -2] *= 2.0
    ab[1] = mass
    ab[1, 1:-1] += (Dabs[:-1] + Dabs[1:]) / h ** 2
    ab[1, 0] += 2.0 * Dabs[0] / h ** 2
    ab[1, -1] += 2.0 * Dabs[-1] / h ** 2
    ab[3] = mass * wbar + F
    if not np.isfinite(ab).all():
        raise ValueError("saturation system must not contain infs or NaNs")
    *_, w_new, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], ab[3], 1, 1, 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError("singular saturation system "
                                    f"(dgtsv info {info})")

    # concentration half: new saturation in the drift, pointwise closure
    dwdx = gradient(w_new, h)
    drift_c = coeffs.advection_c(x, w_new, m, dwdx) * (dt / phi)
    mbar = np.interp(clamp_to_unit(x - drift_c), x, m)
    G = np.asarray(coeffs.reaction_c(x, t_new, w_new), dtype=float)
    H = coeffs.forcing_c(x, t_new, w_new)
    denom = phi / dt + G
    if (denom <= 0.0).any():
        raise ValueError("nonpositive reaction denominator")
    m_new = ((phi / dt) * mbar + H) / denom
    return w_new, m_new


def run1d(grid: Grid1, coeffs: Coeffs1D, w0, m0, t_end: float, dt: float):
    """March (w, m) from t = 0 to t_end by steps of dt, landed on t_end by
    grids.time_step.  Returns (w, m, t)."""
    w = np.asarray(w0, dtype=float).copy()
    m = np.asarray(m0, dtype=float).copy()
    t = 0.0
    while step := time_step(t, dt, t_end):
        w, m = step1d(grid, w, m, coeffs, step, t + step)
        t += step
    return w, m, t


def physical_coeffs(model, velocity: Callable, K: float = 1.0,
                    phi: float = 1.0) -> Coeffs1D:
    """Wire the constitutive laws into the reduced system for a fixed
    velocity profile v(x); no wells, so both forcings reduce to the
    cross-coupling terms."""
    def advection_s(x, w, m):
        return model.df_ds(w, m) * velocity(x)

    def advection_c(x, w, m, dwdx):
        return (model.fractional_flow(w, m) / w) * velocity(x) \
            + (model.capillary_diffusion(w, m, K) / w) * dwdx

    def diffusion(x, w, m):
        return model.capillary_diffusion(w, m, K)

    def forcing_s(x, t, w, m, dmdx):
        return -model.df_dc(w, m) * velocity(x) * dmdx

    return Coeffs1D(
        advection_s=advection_s,
        advection_c=advection_c,
        diffusion=diffusion,
        forcing_s=forcing_s,
        reaction_c=lambda x, t, w: np.zeros_like(x),
        forcing_c=lambda x, t, w: np.zeros_like(x),
        porosity=phi,
    )


def manufactured_problem():
    """Smooth exact solution with coupled coefficients and zero-slope walls.

    Returns (coeffs, w_exact, m_exact) where the exact pair is

        w*(x, t) = 1/2 + 1/4 cos(2 pi x) e^(-t)
        m*(x, t) = 3/10 + 1/5 cos(pi x) e^(-t/2)

    on a velocity profile v(x) = sin(pi x) that vanishes at the walls, so
    characteristic feet stay inside the unit interval.  The forcings F and
    H are the exact residuals, differentiated by hand.
    """
    pi = np.pi

    def w_exact(x, t):
        return 0.5 + 0.25 * np.cos(2 * pi * x) * np.exp(-t)

    def w_t(x, t):
        return -0.25 * np.cos(2 * pi * x) * np.exp(-t)

    def w_x(x, t):
        return -0.5 * pi * np.sin(2 * pi * x) * np.exp(-t)

    def w_xx(x, t):
        return -pi ** 2 * np.cos(2 * pi * x) * np.exp(-t)

    def m_exact(x, t):
        return 0.3 + 0.2 * np.cos(pi * x) * np.exp(-t / 2)

    def m_t(x, t):
        return -0.1 * np.cos(pi * x) * np.exp(-t / 2)

    def m_x(x, t):
        return -0.2 * pi * np.sin(pi * x) * np.exp(-t / 2)

    def v(x):
        return np.sin(pi * x)

    def advection_s(x, w, m):
        return (0.4 + 0.3 * w + 0.2 * m) * v(x)

    def advection_c(x, w, m, dwdx):
        return (0.3 + 0.2 * w + 0.1 * m) * v(x) - 0.05 * dwdx

    def diffusion(x, w, m):
        return -(0.05 + 0.02 * w + 0.01 * m)

    def reaction_c(x, t, w):
        return 0.5 + 0.3 * w

    def forcing_s(x, t, w, m, dmdx):
        # exact residual of the saturation equation, independent of the
        # discrete fields passed in
        sx = w_x(x, t)
        flux_x = (-0.02 * sx - 0.01 * m_x(x, t)) * sx \
            + diffusion(x, w_exact(x, t), m_exact(x, t)) * w_xx(x, t)
        return w_t(x, t) + advection_s(x, w_exact(x, t), m_exact(x, t)) * sx + flux_x

    def forcing_c(x, t, w):
        a = advection_c(x, w_exact(x, t), m_exact(x, t), w_x(x, t))
        return m_t(x, t) + a * m_x(x, t) \
            + reaction_c(x, t, w_exact(x, t)) * m_exact(x, t)

    coeffs = Coeffs1D(
        advection_s=advection_s,
        advection_c=advection_c,
        diffusion=diffusion,
        forcing_s=forcing_s,
        reaction_c=reaction_c,
        forcing_c=forcing_c,
        porosity=1.0,
    )
    return coeffs, w_exact, m_exact


def characteristic_derivative_check(s, s_t, s_x, b, phi: float, n: int, dt: float,
                               t: float) -> float:
    """Worst nodal mismatch between the characteristic time derivative and
    its backward difference along the traced foot.

    s, s_t, s_x are callables (x, t); b is the velocity profile, a
    callable b(x).  The foot value uses the exact s, so the residual
    isolates the O(dt) error of the difference quotient itself.  Nodes
    whose foot leaves [0, 1] are skipped.
    """
    x = Grid1(n).x
    bx = np.asarray(b(x), dtype=float)
    foot = x - bx * dt / phi
    ok = (foot >= 0.0) & (foot <= 1.0)
    res = phi * s_t(x, t) + bx * s_x(x, t) \
        - phi * (s(x, t) - s(foot, t - dt)) / dt
    return float(np.max(np.abs(res[ok])))


def diffusion_stencil_check(s, D, exact_div, n: int) -> float:
    """Worst interior mismatch of the face-averaged diffusion stencil
    against the exact flux derivative d/dx(D(x) s_x(x)).

    s and D are profiles of x alone; exact_div is the hand-differentiated
    flux divergence.  Faces carry the mean of the two nodal D values.
    """
    grid = Grid1(n)
    x, h = grid.x, grid.h
    w = np.asarray(s(x), dtype=float)
    Dn = np.asarray(D(x), dtype=float)
    Dface = (Dn[:-1] + Dn[1:]) / 2.0
    disc = (Dface[1:] * (w[2:] - w[1:-1]) - Dface[:-1] * (w[1:-1] - w[:-2])) / h ** 2
    return float(np.max(np.abs(disc - exact_div(x[1:-1]))))
