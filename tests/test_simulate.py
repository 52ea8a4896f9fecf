"""Driver-level tests: initial data, degenerate scenarios that the time
loop must leave untouched, determinism of dumps, and coarse-grid physics
sanity (bounds, monotone flood growth, breakthrough bookkeeping)."""

import math
from dataclasses import replace

import numpy as np
import pytest

import polyflood.linsolve
import polyflood.pressure
import polyflood.transport
from polyflood.config import ConfigError, RunConfig
from polyflood.grids import Grid2, time_step
from polyflood.linsolve import SolverError
from polyflood.petro import PetroModel
from polyflood.pressure import (WellConfig, assemble_pressure, recover_velocity,
                                solve_pressure)
from polyflood.simulate import RunSummary, advance, init_state, run_simulation
from polyflood.transport import State, StepParams, concentration_step, saturation_step


def test_initial_state_values():
    cfg = RunConfig(N=16)
    state = init_state(cfg)
    X, Y = state.grid.xy
    inside = np.hypot(X, Y) <= cfg.radius
    assert np.all(state.s[inside] == 0.8)       # 1 - s_ro
    assert np.all(state.c[inside] == 0.1)
    assert np.all(state.s[~inside] == 0.21)     # resident water
    assert np.all(state.c[~inside] == 0.0)
    assert np.all(state.p == 0.0) and np.all(state.vx == 0.0)


def test_initial_disc_radius_extremes():
    tiny = init_state(RunConfig(N=8, radius=1e-9))
    flooded = tiny.s == 0.8
    assert flooded[0, 0] and np.count_nonzero(flooded) == 1

    full = init_state(RunConfig(N=8, radius=np.sqrt(2.0)))
    assert np.all(full.s == 0.8) and np.all(full.c == 0.1)


def test_every_reader_of_the_mobile_range_agrees():
    # off the defaults [0.1, 0.8], so a reader that restates them fails
    model = PetroModel(s_ra=0.15, s_ro=0.25)
    lo, hi = model.mobile_range
    assert (lo, hi) == (0.15, 0.75)

    # the transport clamp: no flow, no wells and no capillary diffusion
    # outside the range leave each node where it was, then the clamp
    g = Grid2(8, 8)
    X, _ = g.xy
    zero = np.zeros(g.shape)
    below = X < 0.5
    flat = State(g, 0.0, np.where(below, 0.05, 0.95), zero, zero, zero, zero)
    s_new = saturation_step(flat, model, StepParams(dt=0.1))
    assert np.all(s_new[below] == lo) and np.all(s_new[~below] == hi)

    # the summary's clamp count: exactly the nodes on either bound
    s = np.tile([lo, hi, 0.1, 0.8, 0.5, lo, 0.3, 0.2, hi], (9, 1))
    summary = RunSummary()
    summary.observe(State(g, 0.0, s, zero, zero, zero, zero), model)
    assert summary.s_clamp_hits == 4 * 9

    # the flooded initial value and the config's s0 check
    cfg = RunConfig(N=8, s_ra=0.15, s_ro=0.25)
    assert np.all(init_state(cfg).s[0, :2] == hi)
    with pytest.raises(ConfigError, match=r"mobile range \[0\.15, 0\.75\]"):
        RunConfig(s_ra=0.15, s_ro=0.25, s0=0.8)


def test_advance_takes_k_and_the_wells_from_params():
    # every stage sees the K, wells and dt of one StepParams: three steps
    # equal, bit for bit, the five stage functions called by hand
    model = PetroModel()
    params = StepParams(dt=0.05, phi=0.8, K=2.5, wells=WellConfig(1.0, 0.1, 0.2))
    state = expected = init_state(RunConfig(N=12))
    for _ in range(3):
        state = advance(state, model, params)

        g, s, c = expected.grid, expected.s, expected.c
        system = assemble_pressure(g, s, c, model, params.wells, K=params.K)
        p = solve_pressure(system, g, x0=expected.p)
        vx, vy = recover_velocity(g, p, s, c, model, K=params.K)
        flow = State(g, expected.t, s, c, p, vx, vy)
        s_new = saturation_step(flow, model, params)
        c_new = concentration_step(flow, s_new, model, params)
        expected = State(g, expected.t + params.dt, s_new, c_new, p, vx, vy)

        assert state.t == expected.t
        for name in ("s", "c", "p", "vx", "vy"):
            assert np.array_equal(getattr(state, name), getattr(expected, name)), name
    assert np.any(expected.vx != 0.0) and expected.c[0, 0] > 0.0


def test_zero_duration_run_returns_initial_state():
    cfg = RunConfig(N=8, tstop=0.0)
    result = run_simulation(cfg)
    assert result.summary.steps == 0
    assert result.state.t == 0.0
    assert np.array_equal(result.state.s, init_state(cfg).s)


def test_clamp_counters_sum_every_observed_state_the_initial_one_included():
    cfg = RunConfig(N=8, dt=0.05, tstop=0.0)
    lo, hi = cfg.petro().mobile_range

    def on_bounds(state):  # s at either end of the mobile range, c at 0 only
        return (np.count_nonzero((state.s == lo) | (state.s == hi)),
                np.count_nonzero(state.c == 0.0))

    initial = on_bounds(init_state(cfg))
    summary = run_simulation(cfg).summary
    assert summary.steps == 0
    assert (summary.s_clamp_hits, summary.c_clamp_hits) == initial == (13, 68)
    # one step later, the counters hold both states' nodes
    result = run_simulation(replace(cfg, tstop=0.05))
    assert result.summary.steps == 1
    after = on_bounds(result.state)
    assert (result.summary.s_clamp_hits, result.summary.c_clamp_hits) == (
        initial[0] + after[0], initial[1] + after[1])


def test_uniform_state_without_wells_is_a_fixed_point():
    # fully flooded domain, no injection: nothing moves, nothing diffuses
    cfg = RunConfig(N=8, Q=0.0, radius=np.sqrt(2.0), dt=0.05, tstop=0.2,
                    threshold=0.9)
    result = run_simulation(cfg)
    assert result.summary.steps == 4
    assert np.allclose(result.state.s, 0.8, atol=1e-9)
    assert np.allclose(result.state.c, 0.1, atol=1e-9)
    # a zero rate loads nothing, so the pressure and the flow stay exactly 0
    for name in ("p", "vx", "vy"):
        assert np.all(getattr(result.state, name) == 0.0), name


def test_bounds_hold_through_a_run():
    cfg = RunConfig(N=16, dt=0.02, tstop=0.2)
    summary = run_simulation(cfg).summary
    assert summary.s_min >= 0.1 and summary.s_max <= 0.8
    assert summary.c_min >= 0.0 and summary.c_max <= 0.1


def test_flooded_region_grows_monotonically():
    early = run_simulation(RunConfig(N=16, dt=0.02, tstop=0.1)).state
    late = run_simulation(RunConfig(N=16, dt=0.02, tstop=0.2)).state
    wet_early, wet_late = early.s > 0.5, late.s > 0.5
    assert np.all(wet_late[wet_early])          # no retreat anywhere
    assert wet_late.sum() > wet_early.sum()     # strict advance


@pytest.mark.parametrize("cfg", [
    RunConfig(N=32, tstop=0.4), RunConfig(N=32, tstop=0.4, well_radius=0.2),
    RunConfig(N=64, tstop=1.0)], ids=["point-wells", "bump-wells", "N64"])
def test_a_run_is_symmetric_under_the_x_y_mirror(cfg):
    # the quarter five-spot and its anti-diagonal cell split map to
    # themselves under x <-> y, so a step that treats the axes differently
    # shows here; these runs stayed within 2.4e-14 on 1 and 2 BLAS threads
    st = run_simulation(cfg, stop_at_breakthrough=False).state
    assert np.abs(st.s - st.s.T).max() <= 1e-12
    assert np.abs(st.c - st.c.T).max() <= 1e-12
    assert np.abs(st.p - st.p.T).max() <= 1e-12 * np.abs(st.p).max()
    assert np.abs(st.vx - st.vy.T).max() <= 1e-12 * np.abs(st.vx).max()


def test_fixed_end_time_is_hit_exactly():
    cfg = RunConfig(N=8, dt=0.03, tstop=1.0)
    result = run_simulation(replace(cfg, tstop=0.1), stop_at_breakthrough=False)
    assert np.isclose(result.state.t, 0.1, rtol=0, atol=1e-12)
    assert result.summary.steps == 4            # 3 full steps + shortened


def test_breakthrough_stops_the_loop():
    # strong injection on a small grid floods the far corner quickly
    cfg = RunConfig(N=8, dt=0.02, tstop=5.0, Q=4.0)
    result = run_simulation(cfg)
    bt = result.summary.breakthrough_time
    assert bt is not None and bt < 1.0
    assert result.state.t == bt
    assert result.state.s[-1, -1] > cfg.breakthrough_threshold


def test_dumps_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfg = RunConfig(N=8, dt=0.05, tstop=0.15, out=str(out), dump_every=2)
        run_simulation(cfg)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert "s_000000.txt" in names and "p_000003.txt" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_each_dump_is_written_and_listed_once(tmp_path):
    # the final state was dumped again when dump_every divided its step,
    # and the initial one twice at tstop = 0
    for tstop, steps in ((0.2, (0, 2, 4)), (0.0, (0,))):
        out = tmp_path / f"t{tstop}"
        cfg = RunConfig(N=8, dt=0.05, tstop=tstop, dump_every=2, out=str(out))
        dumps = run_simulation(cfg).dumps
        assert len(dumps) == len(set(dumps)) == 3 * len(steps)
        assert sorted(dumps) == sorted(out.iterdir())
        assert sorted(p.name for p in dumps) == sorted(
            f"{label}_{k:06d}.txt" for label in "scp" for k in steps)


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("kw", [{"radius": np.sqrt(2.0)}, {"threshold": 0.15}],
                         ids=["flooded", "low-threshold"])
def test_a_corner_past_the_threshold_at_the_start_is_breakthrough_at_0(kw, stop):
    # the initial state was never tested: these reported None with the
    # stop on and the first step's time, 0.02, with it off
    cfg = RunConfig(N=8, tstop=0.06, **kw)
    summary = run_simulation(cfg, stop_at_breakthrough=stop).summary
    assert summary.breakthrough_time == 0.0
    assert summary.steps == (0 if stop else 3)


class CountingMatrix:
    """Forwards what solve_cg uses of a matrix and counts the products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


@pytest.mark.parametrize("cfg", [
    *(RunConfig(N=n, tstop=0.04) for n in (16, 32, 33, 64, 128, 256)),
    RunConfig(N=96, dt=0.2, well_radius=0.2),
], ids=["N16", "N32", "N33", "N64", "N128", "N256", "longstep"])
def test_solver_iterations_do_not_grow_with_n(cfg, monkeypatch):
    # Jacobi-preconditioned CG took 160-660 pressure and 46-206 saturation
    # iterations per solve over N = 32-128; the V-cycle keeps both flat
    iterations = {"pressure": [], "saturation": []}

    def counted(module, key):
        solve = module.solve_cg

        def wrapper(A, *args, **kwargs):
            proxy = CountingMatrix(A)
            try:
                return solve(proxy, *args, **kwargs)
            finally:
                # one product forms the initial residual
                iterations[key].append(proxy.products - 1)
        monkeypatch.setattr(module, "solve_cg", wrapper)

    counted(polyflood.pressure, "pressure")
    counted(polyflood.transport, "saturation")
    steps = run_simulation(cfg).summary.steps
    assert steps >= 2
    for key, counts in iterations.items():
        assert len(counts) == steps, key
        assert max(counts) <= 20, (key, counts)


def test_every_multigrid_solve_is_capped(monkeypatch):
    # every pressure and saturation solve of a run goes through solve_cg
    # with a multigrid preconditioner, and so stops at MULTIGRID_MAX_ITER;
    # lowering the cap to one makes the first two-level solve fail there
    calls = []

    def recorded(module):
        solve = module.solve_cg

        def wrapper(A, b, M, **kwargs):
            calls.append(M)
            return solve(A, b, M, **kwargs)
        monkeypatch.setattr(module, "solve_cg", wrapper)

    recorded(polyflood.pressure)
    recorded(polyflood.transport)
    cfg = RunConfig(N=24, tstop=0.06, well_radius=0.2)
    steps = run_simulation(cfg).summary.steps
    assert steps == 3 and len(calls) == 2 * steps
    assert all(callable(M) for M in calls)
    assert polyflood.linsolve.MULTIGRID_MAX_ITER == 200

    monkeypatch.setattr(polyflood.linsolve, "MULTIGRID_MAX_ITER", 1)
    with pytest.raises(SolverError) as err:
        run_simulation(cfg)
    assert err.value.iterations == 1 and err.value.residual > 0.0


def test_well_sources_are_built_once_per_run():
    # the pressure load and the injection density of a bump-well flood
    # depend only on the grid shape and the wells, so every step shares them
    polyflood.pressure._well_sources.cache_clear()
    steps = run_simulation(RunConfig(N=24, tstop=0.1, well_radius=0.2)).summary.steps
    info = polyflood.pressure._well_sources.cache_info()
    assert steps == 5 and info.misses == 1 and info.hits == 3 * steps - 1


def water_balance(cfg, monkeypatch):
    """March cfg with advance to cfg.tstop and split its water: the net
    injection, integral of Q (1 - f(s, c) at the production corner) dt with
    f at the start of each step; the gain, sum of phi (s - s_initial) over
    the node areas; and the clamp's part, sum of phi (s - (1 - s_ro))+
    over the node areas with s read before the clamp."""
    model, wells = cfg.petro(), cfg.wells()
    top = model.mobile_range[1]
    area = Grid2(cfg.N, cfg.N).node_areas
    clamped = []

    def solve(*args, **kwargs):
        s = polyflood.linsolve.solve_cg(*args, **kwargs)
        clamped.append(cfg.phi * (np.maximum(s - top, 0.0) * area.ravel()).sum())
        return s
    monkeypatch.setattr(polyflood.transport, "solve_cg", solve)
    state = first = init_state(cfg)
    injected = 0.0
    while (dt := time_step(state.t, cfg.dt, cfg.tstop)) > 0.0:
        f = model.fractional_flow(state.s[-1, -1], state.c[-1, -1])
        injected += cfg.Q * (1.0 - f) * dt
        state = advance(state, model, StepParams(dt, cfg.phi, cfg.K, wells))
    gain = cfg.phi * ((state.s - first.s) * area).sum()
    return injected, gain, sum(clamped)


def test_water_balance_splits_into_a_first_order_rest_and_the_clamp(monkeypatch):
    """Along dt = 0.32 h the water that goes missing is the clamp's part
    plus a rest that halves with h and dt, as an O(h + dt) MMOC estimate
    has it.  The clamp's part does not shrink: it equals
    (1 - f(1 - s_ro, c0)) Q t, since f < 1 at the top of the mobile range
    and the well term keeps pushing s past it there.  That is a known
    defect of the scheme, pinned here so that a fix shows as a deliberate
    change of this test."""
    rests, clamps = [], []
    for n, dt in ((32, 0.01), (64, 0.005), (128, 0.0025)):
        cfg = RunConfig(N=n, dt=dt, tstop=0.2, Q=1.0, well_radius=0.2)
        injected, gain, clamp = water_balance(cfg, monkeypatch)
        rests.append(injected - gain - clamp)
        clamps.append(clamp)
    orders = [math.log2(a / b) for a, b in zip(rests, rests[1:])]
    assert all(0.8 <= o <= 1.3 for o in orders), (rests, orders)
    model = cfg.petro()
    predicted = (1.0 - model.fractional_flow(model.mobile_range[1], cfg.c0)) \
        * cfg.Q * cfg.tstop
    assert all(abs(c - predicted) <= 0.05 * predicted for c in clamps), \
        (clamps, predicted)


def nodal_k_runs(n, K):
    """Ten advance steps at N = n with bump wells and permeability K."""
    cfg = RunConfig(N=n, dt=0.02, Q=1.0, well_radius=0.2)
    model, state = cfg.petro(), init_state(cfg)
    params = StepParams(cfg.dt, cfg.phi, K, cfg.wells())
    for _ in range(10):
        state = advance(state, model, params)
    return state


@pytest.mark.parametrize("n", [32, 64])
def test_a_nodal_permeability_reaches_every_stage(n):
    # StepParams.K may be a nodal field: pressure, velocity and the laws'
    # D all read it.  A constant one keeps the scalar's bits; a field
    # symmetric in x <-> y keeps the run's mirror symmetry; layers with a
    # jump of 1e3 still give finite fields
    fields = ("s", "c", "p", "vx", "vy")
    shape = (n + 1, n + 1)
    scalar, nodal = nodal_k_runs(n, 2.5), nodal_k_runs(n, np.full(shape, 2.5))
    for name in fields:
        assert np.array_equal(getattr(scalar, name), getattr(nodal, name)), name

    z = np.random.default_rng(n).normal(size=shape)
    K = np.exp(0.38 * (z + z.T))  # contrast 40 at N = 32, 44 at N = 64
    st = nodal_k_runs(n, K)
    assert np.abs(st.s - st.s.T).max() <= 1e-12
    assert np.abs(st.c - st.c.T).max() <= 1e-12
    assert np.abs(st.p - st.p.T).max() <= 1e-12 * np.abs(st.p).max()
    assert np.abs(st.vx - st.vy.T).max() <= 1e-12 * np.abs(st.vx).max()

    layers = np.where(np.arange(n + 1) * 8 // (n + 1) % 2, 1e-3, 1.0)
    st = nodal_k_runs(n, np.repeat(layers[:, None], n + 1, axis=1))
    for name in fields:
        assert np.isfinite(getattr(st, name)).all(), name
