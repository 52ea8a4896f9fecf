"""Transport-step tests: foot tracing, exactness and bound preservation,
and the degenerate-geometry agreement with the one-dimensional scheme."""

import numpy as np
import pytest

from polyflood import PetroModel
from polyflood.grids import Grid1, Grid2
from polyflood.pressure import WellConfig
from polyflood.reduced1d import physical_coeffs, step1d
from polyflood.transport import (
    State, StepParams,
    trace_feet_saturation, trace_feet_concentration,
    saturation_step, concentration_step,
)

MODEL = PetroModel()


def make_state(grid, s, c, vx=None, vy=None, t=0.0):
    z = np.zeros(grid.shape)
    return State(grid, t,
                 np.broadcast_to(s, grid.shape).copy(),
                 np.broadcast_to(c, grid.shape).copy(),
                 z.copy(),
                 z.copy() if vx is None else np.broadcast_to(vx, grid.shape).copy(),
                 z.copy() if vy is None else np.broadcast_to(vy, grid.shape).copy())


def test_feet_at_nodes_when_velocity_vanishes():
    g = Grid2(8, 8)
    state = make_state(g, 0.5, 0.05)
    params = StepParams(dt=0.1)
    X, Y = g.xy
    xb, yb = trace_feet_saturation(state, MODEL.evaluate(state.s, state.c), params)
    assert np.array_equal(xb, X) and np.array_equal(yb, Y)
    xb, yb = trace_feet_concentration(
        state, state.s, MODEL.evaluate(state.s, state.c, params.K), params)
    assert np.array_equal(xb, X) and np.array_equal(yb, Y)


def test_saturation_feet_formula():
    g = Grid2(8, 8)
    rng = np.random.default_rng(0)
    s = rng.uniform(0.3, 0.7, g.shape)
    c = rng.uniform(0.0, 0.1, g.shape)
    vx = rng.uniform(-1.0, 1.0, g.shape)
    vy = rng.uniform(-1.0, 1.0, g.shape)
    state = make_state(g, s, c, vx, vy)
    params = StepParams(dt=0.01, phi=0.8)
    X, Y = g.xy
    laws = MODEL.evaluate(s, c)
    xb, yb = trace_feet_saturation(state, laws, params)
    drift = MODEL.df_ds(s, c) * 0.01 / 0.8
    assert np.allclose(xb, np.clip(X - drift * vx, 0, 1), rtol=0, atol=1e-15)
    assert np.allclose(yb, np.clip(Y - drift * vy, 0, 1), rtol=0, atol=1e-15)
    # large step drives feet onto the boundary, never past it
    far = StepParams(dt=10.0)
    xb, yb = trace_feet_saturation(state, laws, far)
    assert xb.min() >= 0.0 and xb.max() <= 1.0
    assert yb.min() >= 0.0 and yb.max() <= 1.0


def test_identity_step_without_flow_or_diffusion():
    # velocity off and capillary pressure scaled away: one step is a no-op
    weak = PetroModel(alpha0=1e30)
    g = Grid2(12, 12)
    X, Y = g.xy
    s = 0.45 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    c = 0.05 + 0.02 * np.cos(np.pi * X)
    state = make_state(g, s, c)
    params = StepParams(dt=0.05)
    s1 = saturation_step(state, weak, params)
    c1 = concentration_step(state, s1, weak, params)
    assert np.abs(s1 - s).max() < 1e-12
    assert np.abs(c1 - c).max() < 1e-12


def test_constant_state_is_a_fixed_point():
    g = Grid2(10, 10)
    X, Y = g.xy
    vx = 0.7 * np.sin(np.pi * X) * np.cos(np.pi * Y)
    vy = -0.4 * np.cos(np.pi * X) * np.sin(np.pi * Y)
    state = make_state(g, 0.55, 0.08, vx, vy)
    params = StepParams(dt=0.02)
    s1 = saturation_step(state, MODEL, params)
    c1 = concentration_step(state, s1, MODEL, params)
    assert np.abs(s1 - 0.55).max() < 1e-11
    assert np.abs(c1 - 0.08).max() < 1e-11


def test_saturation_clamped_to_mobile_range():
    g = Grid2(8, 8)
    state = make_state(g, 1.0 - MODEL.s_ro, 0.1)
    params = StepParams(dt=0.02, wells=WellConfig(rate=50.0, c_injected=0.1))
    s1 = saturation_step(state, MODEL, params)
    assert s1.min() >= MODEL.s_ra and s1.max() <= 1.0 - MODEL.s_ro
    # the injection source pushes the corner to the clamp, not through it
    assert s1[0, 0] == 1.0 - MODEL.s_ro


def test_concentration_max_principle_without_wells():
    g = Grid2(16, 16)
    X, Y = g.xy
    c = 0.05 + 0.04 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
    s = 0.5 + 0.1 * np.cos(np.pi * Y)
    vx = np.sin(np.pi * X) * 0.6
    vy = np.sin(np.pi * Y) * 0.6
    state = make_state(g, s, c, vx, vy)
    params = StepParams(dt=0.02)
    s1 = saturation_step(state, MODEL, params)
    c1 = concentration_step(state, s1, MODEL, params)
    assert c1.max() <= c.max() + 1e-14
    assert c1.min() >= c.min() - 1e-14


def test_concentration_approaches_injected_value_under_strong_source():
    g = Grid2(8, 8)
    state = make_state(g, 0.5, 0.0)
    params = StepParams(dt=0.1, wells=WellConfig(rate=1e6, c_injected=0.1))
    s1 = saturation_step(state, MODEL, params)
    c1 = concentration_step(state, s1, MODEL, params)
    assert c1[0, 0] == pytest.approx(0.1, rel=1e-4)
    # far corner feels nothing in one step
    assert c1[-1, -1] == pytest.approx(0.0, abs=1e-12)


def test_concentration_update_formula_at_injection_node():
    g = Grid2(8, 8)
    state = make_state(g, 0.5, 0.02)
    wells = WellConfig(rate=3.0, c_injected=0.1)
    params = StepParams(dt=0.05, wells=wells)
    s1 = saturation_step(state, MODEL, params)
    c1 = concentration_step(state, s1, MODEL, params)
    # velocity is zero so the foot sits on the node; the update is a pure
    # reaction balance with the source weight Q / (s a), where a = h^2/4
    # is the corner node's control area
    gq = wells.rate / (s1[0, 0] * g.hx * g.hy / 4.0)
    expect = (0.02 / params.dt + wells.c_injected * gq) / (1.0 / params.dt + gq)
    assert c1[0, 0] == pytest.approx(expect, rel=1e-12)


def test_two_dimensional_step_degenerates_to_reduced_system():
    # y-invariant data, vy = 0: every row of the 2-D update must reproduce
    # the 1-D scheme, step for step, to solver precision
    n = 16
    g2 = Grid2(n, n)
    g1 = Grid1(n)
    x = g1.x
    v = lambda xx: 0.8 * np.sin(np.pi * xx)

    w = 0.45 + 0.1 * np.cos(np.pi * x)
    m = 0.05 + 0.03 * np.cos(2 * np.pi * x)
    s2 = np.tile(w, (n + 1, 1))
    c2 = np.tile(m, (n + 1, 1))
    vx = np.tile(v(x), (n + 1, 1))

    coeffs = physical_coeffs(MODEL, v, K=1.0, phi=1.0)
    params = StepParams(dt=0.02, lin_tol=1e-14)
    t = 0.0
    for _ in range(3):
        state = State(g2, t, s2, c2, np.zeros(g2.shape), vx, np.zeros(g2.shape))
        s2_new = saturation_step(state, MODEL, params)
        c2_new = concentration_step(state, s2_new, MODEL, params)
        w_new, m_new = step1d(g1, w, m, coeffs, dt=params.dt, t_new=t + params.dt)

        assert np.abs(s2_new - w_new[None, :]).max() < 1e-12
        assert np.abs(c2_new - m_new[None, :]).max() < 1e-12
        s2, c2, w, m = s2_new, c2_new, w_new, m_new
        t += params.dt


@pytest.mark.parametrize("dt, phi, message", [
    (np.nan, 1.0, "time step"), (np.inf, 1.0, "time step"),
    (0.02, np.nan, "porosity"), (0.02, np.inf, "porosity")],
    ids=["dt=nan", "dt=inf", "phi=nan", "phi=inf"])
def test_step_params_refuse_a_nan_or_infinite_dt_or_phi(dt, phi, message):
    # an infinite dt would otherwise reach the saturation solve and fail
    # there as a coarsest level that is not positive definite
    with pytest.raises(ValueError, match=f"^{message} must be positive and finite$"):
        StepParams(dt=dt, phi=phi)


def test_negative_face_diffusion_is_refused():
    # K < 0 flips the sign of the capillary diffusion, so the saturation
    # matrix would lose its M-matrix property
    g = Grid2(8, 8)
    X, Y = g.xy
    state = make_state(g, 0.3 + 0.4 * X * Y, 0.0)
    with pytest.raises(ValueError,
                       match="negative face diffusion would break the M-matrix"):
        saturation_step(state, MODEL, StepParams(dt=0.02, K=-1.0))


def test_step_params_validation():
    with pytest.raises(ValueError):
        StepParams(dt=0.0)
    with pytest.raises(ValueError):
        StepParams(dt=0.1, phi=-1.0)
    g = Grid2(4, 4)
    with pytest.raises(ValueError):
        State(g, 0.0, np.zeros((3, 3)), np.zeros(g.shape), np.zeros(g.shape),
              np.zeros(g.shape), np.zeros(g.shape))
