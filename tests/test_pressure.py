"""Pressure assembly, solve and velocity tests.

The assembly and velocity oracles are independent scalar-loop P1 codes
written out longhand here; the solve oracle is dense numpy.linalg.solve on
the pinned system.
"""

import numpy as np
import pytest
from scipy import sparse

import polyflood.linsolve
from polyflood import PetroModel
from polyflood.grids import Grid2
from polyflood.linsolve import (MULTIGRID_MAX_ITER, SparseSystem, SolverError,
                                five_point, multigrid, solve_cg)
from polyflood.pressure import (
    WellConfig, _well_sources, assemble_pressure, injection_density,
    solve_pressure, recover_velocity,
)

MODEL = PetroModel()


def dense_p1_oracle(grid, coef_nodal):
    """Scalar-loop P1 stiffness with vertex-averaged element coefficients."""
    hx, hy = grid.hx, grid.hy
    area = hx * hy / 2.0
    n = grid.nnodes
    A = np.zeros((n, n))
    for j in range(grid.ny):
        for i in range(grid.nx):
            v00 = grid.node_id(i, j)
            v10 = grid.node_id(i + 1, j)
            v01 = grid.node_id(i, j + 1)
            v11 = grid.node_id(i + 1, j + 1)
            for verts, grads in (
                ((v00, v10, v01), ((-1 / hx, -1 / hy), (1 / hx, 0.0), (0.0, 1 / hy))),
                ((v10, v11, v01), ((0.0, -1 / hy), (1 / hx, 1 / hy), (-1 / hx, 0.0))),
            ):
                cf = sum(coef_nodal[v] for v in verts) / 3.0
                for a in range(3):
                    for b in range(3):
                        dot = grads[a][0] * grads[b][0] + grads[a][1] * grads[b][1]
                        A[verts[a], verts[b]] += cf * area * dot
    return A


def scalar_velocity_oracle(grid, p, coef_nodal):
    """Scalar-loop P1 velocity: per-triangle -coef * grad p, then each
    node's mean over its triangles, summed in triangle order."""
    hx, hy = grid.hx, grid.hy
    p, coef = np.ravel(p), np.ravel(coef_nodal)
    sums = [[0.0, 0.0, 0] for _ in range(grid.nnodes)]
    for j in range(grid.ny):
        for i in range(grid.nx):
            v00 = grid.node_id(i, j)
            v10 = grid.node_id(i + 1, j)
            v01 = grid.node_id(i, j + 1)
            v11 = grid.node_id(i + 1, j + 1)
            # the two triangles share the cell's anti-diagonal v10-v01
            lower, upper = (v00, v10, v01), (v10, v11, v01)
            for verts, gx, gy in (
                (lower, (p[v10] - p[v00]) / hx, (p[v01] - p[v00]) / hy),
                (upper, (p[v11] - p[v01]) / hx, (p[v11] - p[v10]) / hy),
            ):
                cf = (coef[verts[0]] + coef[verts[1]] + coef[verts[2]]) / 3.0
                for v in verts:
                    sums[v][0] += -cf * gx
                    sums[v][1] += -cf * gy
                    sums[v][2] += 1
    vx = np.array([sx / n for sx, _, n in sums])
    vy = np.array([sy / n for _, sy, n in sums])
    return vx.reshape(grid.shape), vy.reshape(grid.shape)


def random_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.25, 0.75, grid.shape)
    c = rng.uniform(0.0, 0.1, grid.shape)
    return s, c


@pytest.mark.parametrize("g", [Grid2(2, 2), Grid2(4, 3), Grid2(3, 5)],
                         ids=["2x2", "4x3", "3x5"])
def test_assembly_matches_scalar_oracle(g):
    s, c = random_state(g, seed=4)
    sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=1.0), K=2.0)
    lam = MODEL.mobilities(s, c)[2]
    oracle = dense_p1_oracle(g, (2.0 * lam).ravel())
    assert np.allclose(sys.matrix.toarray(), oracle, rtol=0, atol=1e-14)
    assert sys.pure_neumann


@pytest.mark.parametrize("g", [Grid2(2, 2), Grid2(4, 3), Grid2(3, 5)],
                         ids=["2x2", "4x3", "3x5"])
def test_velocity_matches_scalar_oracle(g):
    s, c = random_state(g, seed=6)
    rng = np.random.default_rng(7)
    K = rng.uniform(0.5, 3.0, g.shape)
    p = rng.normal(size=g.shape)
    vx, vy = recover_velocity(g, p, s, c, MODEL, K=K)
    ox, oy = scalar_velocity_oracle(g, p, K * MODEL.mobilities(s, c)[2])
    assert np.array_equal(vx, ox) and np.array_equal(vy, oy)


def test_matrix_symmetric_with_zero_row_sums():
    g = Grid2(5, 3)
    s, c = random_state(g, seed=1)
    A = assemble_pressure(g, s, c, MODEL).matrix
    assert abs(A - A.T).max() == 0.0
    # constant vector spans the null space of the pure-Neumann operator
    assert np.abs(A @ np.ones(g.nnodes)).max() < 1e-13


def test_interior_rows_are_five_point():
    # with a uniform coefficient the split-cell P1 stiffness has no
    # diagonal-neighbor coupling: interior rows are the classic 5-point stencil
    g = Grid2(4, 4)
    s = np.full(g.shape, 0.5)
    c = np.zeros(g.shape)
    lam0 = MODEL.mobilities(0.5, 0.0)[2]
    A = (assemble_pressure(g, s, c, MODEL, K=1.0 / lam0).matrix / 1.0).toarray()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            row = A[g.node_id(i, j)]
            expect = np.zeros(g.nnodes)
            expect[g.node_id(i, j)] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                expect[g.node_id(i + di, j + dj)] = -1.0
            assert np.allclose(row, expect, rtol=0, atol=1e-13)


def dense_five_point_oracle(grid, fx, fy, mass):
    """Scalar-loop 5-point operator; each diagonal sums mass, then the east,
    west, north and south faces (0 beyond a wall)."""
    nx, ny = grid.nx, grid.ny
    A = np.zeros((grid.nnodes, grid.nnodes))
    for j in range(ny + 1):
        for i in range(nx + 1):
            k = grid.node_id(i, j)
            east = fx[j, i] if i < nx else 0.0
            west = fx[j, i - 1] if i > 0 else 0.0
            north = fy[j, i] if j < ny else 0.0
            south = fy[j - 1, i] if j > 0 else 0.0
            A[k, k] = mass[j, i] + east + west + north + south
            if i < nx:
                A[k, k + 1] = A[k + 1, k] = -east
            if j < ny:
                A[k, k + nx + 1] = A[k + nx + 1, k] = -north
    return A


def test_five_point_rows_do_not_wrap():
    # the +-1 neighbours run across row ends; node (nx, j) must not couple
    # to (0, j+1), and every face must reach both of its rows
    g = Grid2(4, 3)
    rng = np.random.default_rng(5)
    fx = rng.uniform(1.0, 2.0, (g.ny + 1, g.nx))
    fy = rng.uniform(1.0, 2.0, (g.ny, g.nx + 1))
    A = five_point(g, fx, fy, mass=0.5).toarray()
    for j in range(g.ny):
        assert A[g.node_id(g.nx, j), g.node_id(0, j + 1)] == 0.0
        assert A[g.node_id(0, j + 1), g.node_id(g.nx, j)] == 0.0
    assert A[g.node_id(1, 2), g.node_id(2, 2)] == -fx[2, 1]
    assert A[g.node_id(3, 1), g.node_id(3, 2)] == -fy[1, 3]
    assert np.array_equal(A, A.T)
    assert np.allclose(A.sum(axis=1), 0.5, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        five_point(g, fy, fx)

    # the dense oracle, exactly, with some faces exactly 0; those stay
    # stored, so every call on a shape fills one shared structure
    for g in (Grid2(2, 2), Grid2(4, 3), Grid2(3, 5)):
        fx = rng.uniform(1.0, 2.0, (g.ny + 1, g.nx))
        fy = rng.uniform(1.0, 2.0, (g.ny, g.nx + 1))
        fx[0, 0] = fx[-1, -1] = fy[0, -1] = fy[-1, 0] = 0.0
        mass = rng.uniform(0.0, 1.0, g.shape)
        A = five_point(g, fx, fy, mass)
        assert np.array_equal(A.toarray(), dense_five_point_oracle(g, fx, fy, mass))
        assert A.has_canonical_format
        assert A.nnz == 5 * g.nnodes - 2 * (g.nx + 1) - 2 * (g.ny + 1)
        B = five_point(g, 2.0 * fx, 2.0 * fy)
        assert np.shares_memory(A.indices, B.indices)
        assert np.shares_memory(A.indptr, B.indptr)
        assert not np.shares_memory(A.data, B.data)
        indices = A.indices.copy()
        with pytest.raises(ValueError):
            A.indices[0] = 1
        with pytest.raises(ValueError):
            B.eliminate_zeros()
        assert np.array_equal(five_point(g, fx, fy).indices, indices)


def test_well_sources_balanced():
    g = Grid2(4, 4)
    s, c = random_state(g)
    sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=200.0))
    assert sys.rhs[g.node_id(0, 0)] == 200.0
    assert sys.rhs[g.node_id(4, 4)] == -200.0
    assert abs(sys.rhs.sum()) <= 1e-12 * 200.0


@pytest.mark.parametrize("kwargs", [
    dict(rate=-1.0), dict(rate=np.nan), dict(rate=np.inf),
    dict(rate=1.0, c_injected=-0.1), dict(rate=1.0, c_injected=np.nan),
    dict(rate=1.0, c_injected=np.inf), dict(rate=1.0, radius=np.nan)],
    ids=["rate<0", "rate=nan", "rate=inf", "c<0", "c=nan", "c=inf",
         "radius=nan"])
def test_well_config_rejects_bad_values(kwargs):
    # a non-finite rate or concentration would give non-finite loads
    with pytest.raises(ValueError):
        WellConfig(**kwargs)


def longhand_well_sources(grid, wells):
    """Pressure load and injection density written out per well model,
    each bump normalized by its own area-weighted sum."""
    wx, wy = grid.trapezoid_weights
    areas = np.outer(wy, wx) * (grid.hx * grid.hy)
    rhs = np.zeros(grid.nnodes)
    sigma = np.zeros(grid.shape)
    if wells.radius == 0.0:
        # each well's rate over its corner's control area, a quarter cell
        corner = grid.hx * grid.hy / 4.0
        sigma[0, 0] = wells.rate / corner
        rhs[grid.node_id(0, 0)] += sigma[0, 0] * corner
        rhs[grid.node_id(grid.nx, grid.ny)] -= sigma[0, 0] * corner
        return rhs, sigma
    X, Y = grid.xy

    def bump(cx, cy):
        r = np.hypot(X - cx, Y - cy)
        shape = np.where(r < wells.radius,
                         np.cos(np.pi * r / (2.0 * wells.radius)) ** 2, 0.0)
        weight = float(np.sum(shape * areas))
        return wells.rate * shape / weight

    inj, prod = bump(0.0, 0.0), bump(1.0, 1.0)
    rhs += ((inj - prod) * areas).ravel()
    return rhs, inj


@pytest.mark.parametrize("wells", [
    WellConfig(rate=2.0), WellConfig(rate=1.5, c_injected=0.1, radius=0.2),
    WellConfig(rate=2.0, radius=0.5)], ids=["point", "bump0.2", "bump0.5"])
@pytest.mark.parametrize("g", [Grid2(4, 4), Grid2(9, 6), Grid2(33, 33)],
                         ids=["4x4", "9x6", "33x33"])
def test_well_sources_match_longhand_formulas(g, wells):
    load, density = _well_sources(g.nx, g.ny, wells)
    rhs, sigma = longhand_well_sources(g, wells)
    assert np.array_equal(load, rhs) and np.array_equal(density, sigma)
    for arr in (load, density):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert injection_density(g, wells) is density
    s, c = random_state(g)
    system = assemble_pressure(g, s, c, MODEL, wells=wells)
    assert np.array_equal(system.rhs, rhs)
    system.rhs[0] += 1.0            # a fresh copy, not the cached load
    assert np.array_equal(load, rhs)
    idle = WellConfig(rate=0.0, radius=wells.radius)
    assert not injection_density(g, idle).any()
    assert not assemble_pressure(g, s, c, MODEL, wells=idle).rhs.any()


@pytest.mark.parametrize("wells", [
    WellConfig(rate=2.0), WellConfig(rate=1.5, c_injected=0.1, radius=0.2),
    WellConfig(rate=2.0, radius=0.5)], ids=["point", "bump0.2", "bump0.5"])
@pytest.mark.parametrize("g", [Grid2(4, 4), Grid2(9, 6), Grid2(33, 33)],
                         ids=["4x4", "9x6", "33x33"])
def test_transport_injects_the_rate_the_pressure_load_injects(g, wells):
    # the saturation and concentration sources integrate the density over
    # the node control areas; they must inject what the pressure load does
    load, density = _well_sources(g.nx, g.ny, wells)
    injected = float(np.sum(density * g.node_areas))
    assert load[load > 0.0].sum() == pytest.approx(wells.rate, rel=1e-12)
    assert injected == pytest.approx(wells.rate, rel=1e-12)


def test_coefficient_positivity_enforced():
    g = Grid2(3, 3)
    s, c = random_state(g)
    with pytest.raises(ValueError):
        assemble_pressure(g, s, c, MODEL, K=0.0)
    with pytest.raises(ValueError):
        assemble_pressure(g, s, c, MODEL, K=-1.0)


def test_pinned_system_positive_definite():
    g = Grid2(3, 3)
    s, c = random_state(g, seed=9)
    A = assemble_pressure(g, s, c, MODEL).matrix.toarray()
    pin = g.node_id(3, 3)
    keep = np.arange(g.nnodes) != pin
    eigs = np.linalg.eigvalsh(A[keep][:, keep])
    assert eigs.min() > 0.0


@pytest.mark.parametrize("g", [Grid2(3, 3), Grid2(5, 7), Grid2(9, 6),
                               Grid2(40, 23)],
                         ids=["3x3", "5x7", "9x6", "40x23"])
def test_solve_matches_dense_oracle(g):
    # 40x23 has more nodes than the coarsest multigrid level, so its
    # preconditioner is a two-level cycle, not an exact factor
    s, c = random_state(g, seed=2)
    sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=5.0))
    A = sys.matrix.toarray()
    rhs = sys.rhs.copy()
    p = solve_pressure(sys, g, tol=1e-13)
    pin = g.node_id(g.nx, g.ny)
    keep = np.arange(g.nnodes) != pin
    expect = np.zeros(g.nnodes)
    expect[keep] = np.linalg.solve(A[keep][:, keep], rhs[keep])
    assert np.allclose(p.ravel(), expect, rtol=0, atol=1e-10)
    assert p[g.ny, g.nx] == 0.0
    # the pin is applied to copies; the caller's system is untouched
    assert np.array_equal(sys.matrix.toarray(), A)
    assert np.array_equal(sys.rhs, rhs)


def test_zero_rhs_gives_zero_pressure():
    g = Grid2(4, 4)
    s, c = random_state(g)
    sys = assemble_pressure(g, s, c, MODEL, wells=None)
    p = solve_pressure(sys, g)
    assert np.all(p == 0.0)


def spd_five_point(g, seed):
    """Random-coefficient 5-point operator with a small mass term."""
    rng = np.random.default_rng(seed)
    fx = rng.uniform(0.1, 10.0, (g.ny + 1, g.nx))
    fy = rng.uniform(0.1, 10.0, (g.ny, g.nx + 1))
    return five_point(g, fx, fy, mass=1e-3)


def jacobi(A):
    """Jacobi preconditioner: divide by A's diagonal."""
    diag = A.diagonal()
    return lambda r: r / diag


def test_solve_stops_at_the_iteration_cap():
    # Jacobi-preconditioned CG needs several times N iterations, so on
    # 64 x 64 cells it reaches the cap and fails with its residual
    g = Grid2(64, 64)
    A = spd_five_point(g, seed=1)
    with pytest.raises(SolverError) as err:
        solve_cg(A, np.ones(g.nnodes), jacobi(A), tol=1e-12)
    assert err.value.iterations == MULTIGRID_MAX_ITER == 200
    assert err.value.residual > 0.0


def test_solver_failure_carries_residual(monkeypatch):
    # a 24 x 24 grid has a coarse level, so one multigrid-preconditioned
    # iteration does not solve its pressure system; with the cap at one the
    # solve fails and reports its residual and iteration count
    monkeypatch.setattr(polyflood.linsolve, "MULTIGRID_MAX_ITER", 1)
    g = Grid2(24, 24)
    s, c = random_state(g)
    sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=1.0))
    with pytest.raises(SolverError) as err:
        solve_pressure(sys, g)
    assert err.value.iterations == 1
    assert err.value.residual > 0.0


@pytest.mark.parametrize("g", [Grid2(12, 12), Grid2(40, 23), Grid2(33, 65)],
                         ids=["12x12", "40x23", "33x65"])
def test_multigrid_preconditioner_is_symmetric_positive(g):
    M = multigrid(spd_five_point(g, seed=3), g)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u, v = rng.normal(size=(2, g.nnodes))
        uMu, vMv = u @ M(u), v @ M(v)
        assert uMu > 0.0 and vMv > 0.0
        assert abs(u @ M(v) - v @ M(u)) <= 1e-12 * np.sqrt(uMu * vMv)


@pytest.mark.parametrize("g", [Grid2(8, 8), Grid2(40, 23)],
                         ids=["one-level", "two-level"])
def test_multigrid_rejects_broken_matrices(g):
    A = spd_five_point(g, seed=6).tolil()
    b = np.ones(g.nnodes)
    middle = g.node_id(g.nx // 2, g.ny // 2)

    nan_entry = A.copy()
    nan_entry[middle, middle + 1] = nan_entry[middle + 1, middle] = np.nan
    zero_diag = A.copy()
    zero_diag[middle, middle] = 0.0
    # positive diagonal, but shifted past the smallest eigenvalue
    shift = 0.9 * A.diagonal().min()
    indefinite = A - shift * sparse.identity(g.nnodes)
    for bad in (nan_entry, zero_diag, indefinite):
        bad = bad.tocsr()
        with pytest.raises(SolverError) as err:
            solve_cg(bad, b, multigrid(bad, g))
        assert err.value.iterations <= 1

    s, c = random_state(g)
    sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=1.0))
    sys.matrix.data[sys.matrix.indices == middle] = np.nan
    with pytest.raises(SolverError) as err:
        solve_pressure(sys, g)
    assert err.value.iterations <= 1


def test_nonfinite_rhs_raises_at_once():
    g = Grid2(4, 4)
    s, c = random_state(g)
    A = assemble_pressure(g, s, c, MODEL).matrix + sparse.identity(g.nnodes)
    b = np.ones(g.nnodes)
    bad = b.copy()
    bad[3] = np.nan
    with pytest.raises(SolverError) as err:
        solve_cg(A, bad, jacobi(A))
    assert err.value.iterations <= 1
    # a NaN guess poisons p.Ap, which counts as breakdown
    with pytest.raises(SolverError) as err:
        solve_cg(A, b, jacobi(A), x0=bad)
    assert err.value.iterations <= 1


def uniform_unit_coefficient(grid):
    """(s, c, K) giving K*lam identically 1."""
    s = np.full(grid.shape, 0.5)
    c = np.zeros(grid.shape)
    K = 1.0 / MODEL.mobilities(0.5, 0.0)[2]
    return s, c, K


def linear_in_x_load(grid):
    """Neumann edge load whose exact solution is p = x (up to a constant)."""
    rhs = np.zeros(grid.nnodes)
    for j in range(grid.ny + 1):
        w = 0.5 if j in (0, grid.ny) else 1.0
        rhs[grid.node_id(grid.nx, j)] += w * grid.hy
        rhs[grid.node_id(0, j)] -= w * grid.hy
    return rhs


def test_linear_pressure_reproduced_exactly():
    g = Grid2(16, 16)
    s, c, K = uniform_unit_coefficient(g)
    sys = assemble_pressure(g, s, c, MODEL, K=K)
    p = solve_pressure(SparseSystem(sys.matrix, linear_in_x_load(g), True), g, tol=1e-10)
    X, _ = g.xy
    assert np.abs(p - (X - 1.0)).max() < 1e-8
    vx, vy = recover_velocity(g, p, s, c, MODEL, K=K)
    assert np.abs(vx + 1.0).max() < 1e-7
    assert np.abs(vy).max() < 1e-7


def test_velocity_trivial_cases():
    g = Grid2(6, 6)
    s, c, K = uniform_unit_coefficient(g)
    vx, vy = recover_velocity(g, np.full(g.shape, 3.7), s, c, MODEL, K=K)
    assert np.abs(vx).max() == 0.0 and np.abs(vy).max() == 0.0
    X, _ = g.xy
    vx, vy = recover_velocity(g, -X, s, c, MODEL, K=K)
    assert np.abs(vx - 1.0).max() < 1e-13
    assert np.abs(vy).max() < 1e-13


def test_velocity_recovery_convergence():
    # node-averaged P1 gradients: first order in the max norm (boundary
    # limited), second order at interior nodes
    errs_max, errs_int = [], []
    for n in (16, 32):
        g = Grid2(n, n)
        s, c, K = uniform_unit_coefficient(g)
        X, Y = g.xy
        p = np.sin(np.pi * X) * np.cos(np.pi * Y)
        vx, vy = recover_velocity(g, p, s, c, MODEL, K=K)
        ex = -np.pi * np.cos(np.pi * X) * np.cos(np.pi * Y)
        ey = np.pi * np.sin(np.pi * X) * np.sin(np.pi * Y)
        err = np.hypot(vx - ex, vy - ey)
        errs_max.append(err.max())
        errs_int.append(err[1:-1, 1:-1].max())
    assert 1.7 <= errs_max[0] / errs_max[1] <= 2.3
    assert 3.5 <= errs_int[0] / errs_int[1] <= 4.5


def test_cg_on_spd_matrix():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(30, 30))
    A = B @ B.T + 30.0 * np.eye(30)
    A = sparse.csr_matrix(A)
    x_true = rng.normal(size=30)
    x = solve_cg(A, A @ x_true, jacobi(A), tol=1e-12)
    assert np.allclose(x, x_true, rtol=0, atol=1e-9)
    assert np.array_equal(solve_cg(A, np.zeros(30), jacobi(A)), np.zeros(30))
