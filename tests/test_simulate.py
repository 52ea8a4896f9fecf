"""Driver-level tests: initial data, degenerate scenarios that the time
loop must leave untouched, determinism of dumps, and coarse-grid physics
sanity (bounds, monotone flood growth, breakthrough bookkeeping)."""

import numpy as np
import pytest

import polyflood.linsolve
import polyflood.pressure
import polyflood.transport
from polyflood.config import RunConfig
from polyflood.linsolve import SolverError
from polyflood.simulate import init_state, run_simulation


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


def test_zero_duration_run_returns_initial_state():
    cfg = RunConfig(N=8, tstop=0.0)
    result = run_simulation(cfg)
    assert result.summary.steps == 0
    assert result.summary.final_time == 0.0
    assert np.array_equal(result.state.s, init_state(cfg).s)


def test_uniform_state_without_wells_is_a_fixed_point():
    # fully flooded domain, no injection: nothing moves, nothing diffuses
    cfg = RunConfig(N=8, Q=0.0, radius=np.sqrt(2.0), dt=0.05, tstop=0.2,
                    threshold=0.9)
    result = run_simulation(cfg)
    assert result.summary.steps == 4
    assert np.allclose(result.state.s, 0.8, atol=1e-9)
    assert np.allclose(result.state.c, 0.1, atol=1e-9)


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


def test_fixed_end_time_is_hit_exactly():
    cfg = RunConfig(N=8, dt=0.03, tstop=1.0)
    result = run_simulation(cfg, stop_at_breakthrough=False, t_end=0.1)
    assert np.isclose(result.summary.final_time, 0.1, rtol=0, atol=1e-12)
    assert result.summary.steps == 4            # 3 full steps + shortened


def test_breakthrough_stops_the_loop():
    # strong injection on a small grid floods the far corner quickly
    cfg = RunConfig(N=8, dt=0.02, tstop=5.0, Q=4.0)
    result = run_simulation(cfg)
    bt = result.summary.breakthrough_time
    assert bt is not None and bt < 1.0
    assert result.summary.final_time == bt
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
