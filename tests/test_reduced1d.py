"""Reduced-system tests: exactness cases, residual order checks, and the
manufactured convergence study."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

import polyflood.reduced1d
from polyflood import PetroModel
from polyflood.grids import Grid1
from polyflood.reduced1d import (
    Coeffs1D, step1d, run1d, manufactured_problem, physical_coeffs,
    characteristic_derivative_check, diffusion_stencil_check,
)


def zero_coeffs(**overrides):
    base = dict(
        advection_s=lambda x, w, m: np.zeros_like(x),
        advection_c=lambda x, w, m, dwdx: np.zeros_like(x),
        diffusion=lambda x, w, m: np.zeros_like(x),
        forcing_s=lambda x, t, w, m, dmdx: np.zeros_like(x),
        reaction_c=lambda x, t, w: np.zeros_like(x),
        forcing_c=lambda x, t, w: np.zeros_like(x),
    )
    base.update(overrides)
    return Coeffs1D(**base)


def test_identity_step():
    g = Grid1(16)
    w = np.sin(2 * np.pi * g.x) + 1.5
    m = g.x ** 2
    w1, m1 = step1d(g, w, m, zero_coeffs(), dt=0.1, t_new=0.1)
    assert np.allclose(w1, w, rtol=0, atol=1e-14)
    assert np.allclose(m1, m, rtol=0, atol=1e-14)


def test_constant_preservation():
    # constants survive advection and diffusion when nothing forces them
    g = Grid1(32)
    w = np.full(33, 0.4)
    m = np.full(33, 0.2)
    coeffs = zero_coeffs(
        advection_s=lambda x, w, m: 0.5 + 0.2 * np.sin(np.pi * x),
        advection_c=lambda x, w, m, dwdx: 0.3 * np.cos(np.pi * x) ** 2,
        diffusion=lambda x, w, m: -(0.05 + 0.01 * x),
    )
    for k in range(5):
        w, m = step1d(g, w, m, coeffs, dt=0.05, t_new=0.05 * (k + 1))
    assert np.abs(w - 0.4).max() < 1e-13
    assert np.abs(m - 0.2).max() < 1e-13


def test_foot_positions_enter_through_interpolation():
    # pure advection of a linear profile with constant drift: one step
    # shifts values by exactly b*dt/phi
    g = Grid1(64)
    w = 2.0 * g.x + 1.0
    m = 0.5 * g.x
    b, a, dt, phi = 0.25, 0.125, 0.1, 1.0
    coeffs = zero_coeffs(
        advection_s=lambda x, w_, m_: np.full_like(x, b),
        advection_c=lambda x, w_, m_, dwdx: np.full_like(x, a),
        porosity=phi,
    )
    w1, m1 = step1d(g, w, m, coeffs, dt=dt, t_new=dt)
    interior = (g.x > b * dt) & (g.x < 1.0)
    assert np.allclose(w1[interior], 2.0 * (g.x[interior] - b * dt) + 1.0,
                       rtol=0, atol=1e-13)
    interior_c = (g.x > a * dt) & (g.x < 1.0)
    assert np.allclose(m1[interior_c], 0.5 * (g.x[interior_c] - a * dt),
                       rtol=0, atol=1e-13)


def test_antidiffusion_rejected():
    g = Grid1(8)
    w = np.sin(np.pi * g.x)
    coeffs = zero_coeffs(diffusion=lambda x, w_, m_: np.full_like(x, 0.1))
    with pytest.raises(ValueError):
        step1d(g, w, w, coeffs, dt=0.1, t_new=0.1)


def test_bad_reaction_denominator_rejected():
    g = Grid1(8)
    w = np.full(9, 0.5)
    coeffs = zero_coeffs(reaction_c=lambda x, t, w_: np.full_like(x, -1e9))
    with pytest.raises(ValueError):
        step1d(g, w, w, coeffs, dt=0.1, t_new=0.1)



@pytest.mark.parametrize("phi", [0.0, -1.0, float("nan"), math.inf])
def test_nonpositive_porosity_rejected_at_construction(phi):
    with pytest.raises(ValueError, match="porosity"):
        zero_coeffs(porosity=phi)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
def test_step1d_rejects_a_time_step_outside_zero_to_inf(dt):
    # refused up front, before a division, the reaction check or the
    # banded solve can fail on it
    g = Grid1(8)
    coeffs = physical_coeffs(PetroModel(), lambda x: np.sin(np.pi * x))
    w = np.full(9, 0.5)
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        step1d(g, w, w, coeffs, dt=dt, t_new=0.1)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0])
def test_run1d_rejects_an_end_time_no_march_reaches(t_end):
    g = Grid1(8)
    coeffs, w_ex, m_ex = manufactured_problem()
    with pytest.raises(ValueError, match="end time must be nonnegative and finite"):
        run1d(g, coeffs, w_ex(g.x, 0.0), m_ex(g.x, 0.0), t_end=t_end, dt=0.1)

def test_run1d_lands_exactly_on_t_end():
    g = Grid1(16)
    coeffs, w_ex, m_ex = manufactured_problem()
    w, m, t = run1d(g, coeffs, w_ex(g.x, 0.0), m_ex(g.x, 0.0),
                    t_end=0.37, dt=0.1)
    assert t == pytest.approx(0.37, abs=1e-14)


def test_manufactured_convergence_first_order():
    # joint L2 error of the pair at T = 0.5 with dt = h: successive orders
    # sit near 1, the O(h + dt) design rate
    coeffs, w_ex, m_ex = manufactured_problem()
    T = 0.5
    errs = []
    for n in (16, 32, 64, 128):
        g = Grid1(n)
        w, m, _ = run1d(g, coeffs, w_ex(g.x, 0.0), m_ex(g.x, 0.0), T, dt=g.h)
        ew = np.sqrt(np.sum((w - w_ex(g.x, T)) ** 2) * g.h)
        em = np.sqrt(np.sum((m - m_ex(g.x, T)) ** 2) * g.h)
        errs.append(ew + em)
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    # measured: 0.934, 0.964, 0.981
    for order in orders:
        assert 0.8 <= order <= 1.3, f"orders {orders}"


def test_step1d_solves_with_solve_bandeds_bits(monkeypatch):
    # step1d calls LAPACK's dgtsv directly; on every system of the
    # manufactured runs it gives solve_banded's bits, the routine's caller
    dgtsv, solves = polyflood.reduced1d.dgtsv, []

    def checked(dl, d, du, b, *overwrite):
        band = np.zeros((3, d.size))
        band[0, 1:], band[1], band[2, :-1] = du, d, dl
        expected = solve_banded((1, 1), band, b)
        out = dgtsv(dl, d, du, b, *overwrite)
        assert np.array_equal(out[3].view(np.uint64), expected.view(np.uint64))
        solves.append(d.size)
        return out
    monkeypatch.setattr(polyflood.reduced1d, "dgtsv", checked)
    coeffs, w_ex, m_ex = manufactured_problem()
    for n in (16, 32, 64, 128):
        g = Grid1(n)
        run1d(g, coeffs, w_ex(g.x, 0.0), m_ex(g.x, 0.0), 0.5, dt=g.h)
    assert len(solves) == 8 + 16 + 32 + 64


def test_step1d_refuses_what_solve_banded_refused():
    # a NaN right-hand side is caught in the step it appears in; a step so
    # long that the mass rounds away leaves the pure-Neumann matrix, singular
    g = Grid1(8)
    w = np.full(9, 0.5)
    nan_at_4 = lambda x, t, w_, m_, dmdx: np.where(x == 0.5, np.nan, 0.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        step1d(g, w, w, zero_coeffs(forcing_s=nan_at_4), dt=0.1, t_new=0.1)
    coeffs = zero_coeffs(diffusion=lambda x, w_, m_: np.full_like(x, -1.0))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        step1d(g, w, w, coeffs, dt=1e300, t_new=1e300)


def test_characteristic_derivative_residual():
    s = lambda x, t: np.sin(2 * np.pi * x) * np.exp(-t) + 0.3 * x ** 2
    s_t = lambda x, t: -np.sin(2 * np.pi * x) * np.exp(-t)
    s_x = lambda x, t: 2 * np.pi * np.cos(2 * np.pi * x) * np.exp(-t) + 0.6 * x
    b = lambda x: np.full_like(x, 0.7)
    r_dt = characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.02, 0.5)
    r_half = characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.01, 0.5)
    assert 1.6 <= r_dt / r_half <= 2.4  # measured 2.007


def test_characteristic_derivative_exact_on_linear_profiles():
    # s linear along the characteristic: the difference quotient is exact
    s = lambda x, t: 2.0 + 3.0 * (x - 0.7 * t)
    s_t = lambda x, t: np.full_like(x, -2.1)
    s_x = lambda x, t: np.full_like(x, 3.0)
    b = lambda x: np.full_like(x, 0.7)
    assert characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.02, 0.5) < 1e-10


def test_characteristic_residual_reduces_to_time_difference():
    s = lambda x, t: np.sin(2 * np.pi * x) * np.exp(-t)
    s_t = lambda x, t: -np.sin(2 * np.pi * x) * np.exp(-t)
    s_x = lambda x, t: 2 * np.pi * np.cos(2 * np.pi * x) * np.exp(-t)
    zero = lambda x: np.zeros_like(x)
    got = characteristic_derivative_check(s, s_t, s_x, zero, 1.0, 64, 0.02, 0.5)
    x = Grid1(64).x
    direct = np.max(np.abs(s_t(x, 0.5) - (s(x, 0.5) - s(x, 0.48)) / 0.02))
    assert got == pytest.approx(direct, rel=1e-12)


def test_diffusion_stencil_exact_for_constant_d_quadratic():
    quad = lambda x: 3 * x ** 2 - x + 0.5
    res = diffusion_stencil_check(quad, lambda x: np.full_like(x, 2.0),
                                lambda x: np.full_like(x, 12.0), 32)
    assert res < 1e-10


def test_diffusion_stencil_superconvergent_for_constant_d():
    s = lambda x: np.sin(2 * np.pi * x)
    div = lambda x: -4 * np.pi ** 2 * np.sin(2 * np.pi * x)
    one = lambda x: np.ones_like(x)
    r = diffusion_stencil_check(s, one, div, 32) / diffusion_stencil_check(s, one, div, 64)
    assert 3.5 <= r <= 4.5  # measured 3.996


def test_diffusion_stencil_first_order_for_variable_d():
    s = lambda x: np.sin(2 * np.pi * x)
    D = lambda x: 1.0 + x ** 2
    div = lambda x: (2 * x * 2 * np.pi * np.cos(2 * np.pi * x)
                     - (1 + x ** 2) * 4 * np.pi ** 2 * np.sin(2 * np.pi * x))
    r = diffusion_stencil_check(s, D, div, 32) / diffusion_stencil_check(s, D, div, 64)
    # halving h at least halves the residual; the smooth-D mean actually
    # lands near 4 (measured 3.982)
    assert r >= 1.7
    assert r <= 4.5
