"""Pressure assembly, solve and velocity tests.

The assembly and velocity oracles are independent scalar-loop P1 codes
written out longhand here; the solve oracle is dense numpy.linalg.solve on
the pinned system.
"""

import math

import numpy as np
import pytest
from scipy import sparse

import polyflood.linsolve
from polyflood import PetroModel
from polyflood.grids import Grid2
from polyflood.linsolve import (MULTIGRID_MAX_ITER, SparseSystem, SolverError,
                                five_point, multigrid, pinned, solve_cg)
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
    assert not (A - A.T).toarray().any()
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

    # the dense oracle, exactly, with some faces exactly 0; those keep
    # their slots, so every call on a shape has the same five diagonals
    for g in (Grid2(2, 2), Grid2(4, 3), Grid2(3, 5)):
        fx = rng.uniform(1.0, 2.0, (g.ny + 1, g.nx))
        fy = rng.uniform(1.0, 2.0, (g.ny, g.nx + 1))
        fx[0, 0] = fx[-1, -1] = fy[0, -1] = fy[-1, 0] = 0.0
        mass = rng.uniform(0.0, 1.0, g.shape)
        A = five_point(g, fx, fy, mass)
        assert np.array_equal(A.toarray(), dense_five_point_oracle(g, fx, fy, mass))
        w = g.nx + 1
        B = five_point(g, 2.0 * fx, 2.0 * fy)
        finest = polyflood.linsolve._hierarchy(g.nx, g.ny)[0][0]
        for M in (A, B):
            assert list(M.offsets) == [-w, -1, 0, 1, w]
            assert M.data.shape == (5, g.nnodes)
            # every matrix of the shape shares them, so none may write them
            assert not M.offsets.flags.writeable
            assert M.offsets is finest[2].offsets
        assert not np.shares_memory(A.data, B.data)
        # DIA row -s holds A[k + s, k] at column k, row s A[k - s, k]
        east, north = g.node_id(g.nx - 1, g.ny), g.node_id(0, g.ny - 1)
        assert A.data[1, 0] == A.data[3, 1] == fx[0, 0] == 0.0
        assert A.data[1, east] == A.data[3, east + 1] == fx[-1, -1] == 0.0
        assert A.data[0, north] == A.data[4, north + w] == fy[-1, 0] == 0.0
    # on a shape that coarsens, they are its finest level's
    g = Grid2(40, 23)
    A = five_point(g, np.ones((g.ny + 1, g.nx)), np.ones((g.ny, g.nx + 1)))
    assert A.offsets is polyflood.linsolve._hierarchy(40, 23)[0][0][2].offsets


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
    # a NaN passes every comparison, so the finiteness check must catch it
    for K in (np.nan, np.where(s > 0.5, np.nan, 1.0)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            assemble_pressure(g, s, c, MODEL, K=K)


def test_pinned_system_positive_definite():
    g = Grid2(3, 3)
    s, c = random_state(g, seed=9)
    A = assemble_pressure(g, s, c, MODEL).matrix.toarray()
    pin = g.node_id(3, 3)
    keep = np.arange(g.nnodes) != pin
    eigs = np.linalg.eigvalsh(A[keep][:, keep])
    assert eigs.min() > 0.0


def test_solve_pressure_refuses_a_system_that_is_not_pure_neumann():
    # pinning a node of this nonsingular system once returned a pressure
    # with |Bp - b| = 1.06, without a word
    g = Grid2(4, 4)
    s, c = random_state(g, seed=2)
    B = (assemble_pressure(g, s, c, MODEL).matrix
         + sparse.identity(g.nnodes)).todia()
    with pytest.raises(ValueError, match="pure-Neumann"):
        solve_pressure(SparseSystem(B, np.ones(g.nnodes), pure_neumann=False), g)


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


def inline_pin(A, pin):
    """The pin as solve_pressure once wrote it out in place, kept as the
    reference that linsolve.pinned must match bit for bit."""
    A = A.todia()
    data = A.data.copy()
    data[:, pin] = 0.0
    row = pin + A.offsets
    inside = (row >= 0) & (row < data.shape[1])
    data[inside, row[inside]] = A.offsets[inside] == 0
    A = sparse.dia_matrix(A)
    A.data = data
    return A


@pytest.mark.parametrize("node", ["last", "interior", "first"])
@pytest.mark.parametrize("g", [Grid2(3, 3), Grid2(5, 7), Grid2(40, 23)],
                         ids=["3x3", "5x7", "40x23"])
def test_pinned_matches_the_inline_pin(g, node):
    # random faces, some exactly 0; the pin is generic in its node, so an
    # interior one and the first, whose row reaches below offset 0, as well
    # as the production corner solve_pressure pins
    rng = np.random.default_rng(13)
    fx = rng.uniform(0.1, 10.0, (g.ny + 1, g.nx))
    fy = rng.uniform(0.1, 10.0, (g.ny, g.nx + 1))
    fx[rng.random(fx.shape) < 0.2] = 0.0
    fy[rng.random(fy.shape) < 0.2] = 0.0
    A = five_point(g, fx, fy)
    data, offsets = A.data.copy(), A.offsets.copy()
    k = {"last": g.nnodes - 1, "first": 0,
         "interior": g.node_id(g.nx // 2, g.ny // 2)}[node]
    got, want = pinned(A, k), inline_pin(A, k)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.toarray().tobytes() == want.toarray().tobytes()
    assert got.toarray()[k].tolist() == [float(j == k)
                                         for j in range(g.nnodes)]
    # A is untouched, and the copy shares the read-only cached offsets
    assert A.data.tobytes() == data.tobytes()
    assert A.offsets.tobytes() == offsets.tobytes()
    assert not got.offsets.flags.writeable
    assert got.offsets is A.offsets


def test_zero_rhs_gives_zero_pressure():
    g = Grid2(4, 4)
    s, c = random_state(g)
    sys = assemble_pressure(g, s, c, MODEL)
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


def test_multigrid_stalls_on_cells_hundreds_of_times_wider_than_tall():
    """multigrid's documented limit: point-Jacobi smoothing with full
    coarsening does not damp the strongly coupled direction, so on 2 x 700
    cells the pressure solve ends at the iteration cap while 2 x 300
    converges.  The CLI builds N x N grids only.  This pins a known limit,
    so that a better smoother shows as a deliberate change of this test."""
    def pressure_system(g):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.3, 0.7, g.shape)
        c = rng.uniform(0.0, 0.1, g.shape)
        return assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=1.0))
    g = Grid2(2, 700)
    with pytest.raises(SolverError) as err:
        solve_pressure(pressure_system(g), g)
    assert err.value.iterations == MULTIGRID_MAX_ITER
    assert err.value.residual > 1e-4
    g = Grid2(2, 300)
    assert np.isfinite(solve_pressure(pressure_system(g), g)).all()


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
            solve_cg(bad, b, multigrid(bad, g), tol=1e-10)
        assert err.value.iterations <= 1

    s, c = random_state(g)
    sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=1.0))
    sys.matrix.data[:, middle] = np.nan  # column middle of the DIA matrix
    with pytest.raises(SolverError) as err:
        solve_pressure(sys, g)
    assert err.value.iterations <= 1


def test_multigrid_rejects_an_overflowing_coarsest_level():
    # every fine diagonal entry is finite, but the Galerkin product sums
    # about 2.25 of them into each coarse centre, past the largest float
    g = Grid2(40, 23)
    A = five_point(g, np.ones((24, 40)), np.ones((23, 41)), mass=1e308)
    assert np.all(np.isfinite(A.diagonal()))
    with pytest.raises(SolverError, match="coarsest level not finite"):
        multigrid(A, g)


def multigrid_levels(monkeypatch, solve):
    """Every level of the one hierarchy that multigrid builds while solve()
    runs, finest first, as (planes, operator), and the matrix multigrid was
    given.  The finest level's operator is that matrix and its planes are
    the matrix's diagonals; each coarser level but the coarsest passes its
    coupling planes to _stencil_operator, and the coarsest to
    _banded_cholesky, whose planes are made an operator the same way."""
    given, seen = [], []
    hierarchy = polyflood.linsolve.multigrid

    def multigrid(A, grid):
        given.append(A)
        w = grid.nx + 1
        planes = np.zeros((3, grid.nnodes))
        planes[0], planes[1, :-1], planes[2, :-w] = (A.diagonal(k)
                                                     for k in (0, 1, w))
        seen.append((planes, A))
        return hierarchy(A, grid)
    build = polyflood.linsolve._stencil_operator
    factor = polyflood.linsolve._banded_cholesky

    def operator(planes, shifts):
        seen.append((planes, build(planes, shifts)))
        # each level's operators share its stencil's read-only offsets
        assert seen[-1][1].offsets is shifts[2].offsets
        return seen[-1][1]

    def cholesky(planes, shifts):
        seen.append((planes, build(planes, shifts)))
        return factor(planes, shifts)
    monkeypatch.setattr(polyflood.linsolve, "_stencil_operator", operator)
    monkeypatch.setattr(polyflood.linsolve, "_banded_cholesky", cholesky)
    for module in (polyflood.pressure, polyflood.linsolve):
        monkeypatch.setattr(module, "multigrid", multigrid)
    solve()
    assert len(given) == 1
    return given[0], seen


def bilinear_prolongation(nx, ny):
    """Bilinear P from its definition: a fine node interpolates linearly
    between the coarse nodes on either side of it, in x and in y; the
    coarse nodes are every other fine node and the last one."""
    def one_d(n):
        coarse = list(range(0, n + 1, 2)) + ([n] if n % 2 else [])
        P = np.zeros((n + 1, len(coarse)))
        for m, (a, b) in enumerate(zip(coarse, coarse[1:])):
            for f in range(a, b + 1):
                P[f, m], P[f, m + 1] = (b - f) / (b - a), (f - a) / (b - a)
        return sparse.csr_matrix(P)
    return sparse.kron(one_d(ny), one_d(nx), format="csr")


def nine_point_columns(nx, ny):
    """Sorted columns of each row of the full 9-point stencil on an
    nx-by-ny grid's nodes: every neighbour inside the grid."""
    return [[jj * (nx + 1) + ii for jj in (j - 1, j, j + 1)
             for ii in (i - 1, i, i + 1) if 0 <= ii <= nx and 0 <= jj <= ny]
            for j in range(ny + 1) for i in range(nx + 1)]


# 2x300 coarsens to levels one cell wide, where the east and north-west
# couplings share a DIA offset
MULTILEVEL_SHAPES = pytest.mark.parametrize(
    "g", [Grid2(33, 65), Grid2(40, 23), Grid2(97, 97), Grid2(17, 300),
          Grid2(2, 300)],
    ids=["33x65", "40x23", "97x97", "17x300", "2x300"])


def multigrid_systems(g, system, monkeypatch):
    """The matrix that multigrid is given and its levels, for the pinned
    pressure system or a saturation-type one with faces exactly 0."""
    if system == "pinned-pressure":
        s, c = random_state(g, seed=5)
        sys = assemble_pressure(g, s, c, MODEL, wells=WellConfig(rate=1.0))
        A, levels = multigrid_levels(monkeypatch, lambda: solve_pressure(sys, g))
    else:
        rng = np.random.default_rng(7)
        fx = rng.uniform(0.1, 10.0, (g.ny + 1, g.nx))
        fy = rng.uniform(0.1, 10.0, (g.ny, g.nx + 1))
        fx[rng.random(fx.shape) < 0.2] = 0.0
        fy[rng.random(fy.shape) < 0.2] = 0.0
        A = five_point(g, fx, fy, mass=rng.uniform(0.5, 2.0, g.shape))
        _, levels = multigrid_levels(
            monkeypatch, lambda: polyflood.linsolve.multigrid(A, g))
    assert len(levels) >= 2
    return A, levels


@pytest.mark.parametrize("system", ["pinned-pressure", "saturation"])
@MULTILEVEL_SHAPES
def test_coarse_operators_are_galerkin_products(g, system, monkeypatch):
    # each shape's cached maps give R A P to rounding, with the pressure
    # pin's zeroed row and column and with faces that are exactly 0, and
    # hold it on the coarse grid's full 9-point stencil: its nine offsets
    # give every neighbour inside the grid a slot, and no node is coupled
    # to one that is not its neighbour
    _, levels = multigrid_systems(g, system, monkeypatch)
    nx, ny = g.nx, g.ny
    for (_, fine), (_, coarse) in zip(levels, levels[1:]):
        P = bilinear_prolongation(nx, ny)
        galerkin = P.T @ fine @ P
        nx, ny = (nx + 1) // 2, (ny + 1) // 2
        assert coarse.shape == galerkin.shape == ((nx + 1) * (ny + 1),) * 2
        assert abs(coarse - galerkin).max() <= 1e-14 * abs(galerkin).max()
        w = nx + 1
        assert list(coarse.offsets) == sorted({-w - 1, -w, 1 - w, -1, 0, 1,
                                               w - 1, w, w + 1})
        nonzero = coarse.tocsr()
        rows = np.split(nonzero.indices, nonzero.indptr[1:-1])
        for row, stencil in zip(rows, nine_point_columns(nx, ny)):
            assert set(row) <= set(stencil)


def stencil_csr(planes, nx, ny):
    """CSR matrix of the symmetric stencil on an nx-by-ny grid's nodes whose
    upper couplings are planes: the centre, then east and north (5
    points) or east, north-west, north and north-east (9 points).  Every
    neighbour inside the grid is stored, an exact 0 too, in column order."""
    steps = ([(0, 0), (1, 0), (0, 1)] if len(planes) == 3
             else [(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)])
    i, j = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    rows, cols, values = [], [], []
    for (di, dj), plane in zip(steps, planes):
        k = np.flatnonzero((0 <= i + di) & (i + di <= nx) & (j + dj <= ny))
        l = k + dj * (nx + 1) + di
        rows.append(k)
        cols.append(l)
        values.append(plane[k])
        if di or dj:
            rows.append(l)
            cols.append(k)
            values.append(plane[k])
    n = (nx + 1) * (ny + 1)
    A = sparse.coo_matrix((np.concatenate(values),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsr()
    assert A.has_canonical_format
    return A


@pytest.mark.parametrize("nx, ny, points", [
    (33, 65, 5), (40, 23, 5), (2, 300, 5), (17, 33, 9), (20, 12, 9),
    (1, 150, 9), (49, 49, 9)])
def test_each_galerkin_map_is_exact(nx, ny, points):
    # on integer planes every product and sum is exact, so each map, read
    # off P, gives the upper planes of P^T A P, with P and A built here, to
    # the bit
    rng = np.random.default_rng(points * nx + ny)
    planes = rng.integers(-8, 9, (points // 2 + 1, (nx + 1) * (ny + 1)))
    P = bilinear_prolongation(nx, ny)
    coarse = (P.T @ stencil_csr(planes.astype(float), nx, ny) @ P).toarray()
    cx, cy = (nx + 1) // 2, (ny + 1) // 2
    y, x = np.divmod(np.arange(coarse.shape[0]), cx + 1)
    expected = np.zeros((5, coarse.shape[0]))
    for plane, (dx, dy) in enumerate([(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]):
        k = np.flatnonzero((0 <= x + dx) & (x + dx <= cx) & (y + dy <= cy))
        expected[plane, k] = coarse[k, k + dy * (cx + 1) + dx]
    G = polyflood.linsolve._galerkin_map(P, nx, ny, points)
    assert np.array_equal(G @ planes.ravel(), expected.ravel())


@pytest.mark.parametrize("system", ["pinned-pressure", "saturation"])
@MULTILEVEL_SHAPES
def test_stencil_products_match_csr_bit_for_bit(g, system, monkeypatch):
    # a DIA product adds each row's terms in the order a CSR row holds
    # them, so the bits agree with the CSR matrix of each level's planes:
    # the 5-point structure for the matrix multigrid was given, the
    # 9-point structure for each coarse level
    _, levels = multigrid_systems(g, system, monkeypatch)
    rng = np.random.default_rng(11)
    nx, ny = g.nx, g.ny
    for k, (planes, operator) in enumerate(levels):
        if k:
            nx, ny = (nx + 1) // 2, (ny + 1) // 2
        A = stencil_csr(planes.reshape(-1, operator.shape[0]), nx, ny)
        for x in rng.normal(size=(3, operator.shape[0])):
            assert np.array_equal(operator @ x, A @ x), k


def bits(x):
    return x.view(np.uint64)


@pytest.mark.parametrize("system", ["pinned-pressure", "saturation"])
@MULTILEVEL_SHAPES
def test_vcycle_products_keep_the_bits_of_matmul(g, system, monkeypatch):
    # the V-cycle calls scipy's compiled kernels directly, a private API;
    # built again with every product as M @ x, it gives the same bits
    A, _ = multigrid_systems(g, system, monkeypatch)
    direct = multigrid(A, g)
    monkeypatch.setattr(polyflood.linsolve, "_matvec", lambda M: M.__matmul__)
    through_scipy = multigrid(A, g)
    for r in np.random.default_rng(13).normal(size=(3, g.nnodes)):
        assert np.array_equal(bits(direct(r)), bits(through_scipy(r)))


@pytest.mark.parametrize("g", [Grid2(40, 23), Grid2(2, 300)],
                         ids=["40x23", "2x300"])
def test_each_direct_product_is_matmul_bit_for_bit(g, monkeypatch):
    A, levels = multigrid_systems(g, "saturation", monkeypatch)
    linsolve = polyflood.linsolve
    (P, R, G), *_ = linsolve._hierarchy(g.nx, g.ny)[1]
    matrices = {"five_point": A, "pinned": pinned(A, g.nnodes // 2),
                "coarse level": levels[1][1], "P": P, "R": R, "Galerkin": G}
    rng = np.random.default_rng(17)
    for name, M in matrices.items():
        assert M.format == ("csr" if name in ("P", "R", "Galerkin") else "dia")
        for x in rng.normal(size=(3, M.shape[1])):
            assert np.array_equal(bits(linsolve._matvec(M)(x)),
                                  bits(M @ x)), name


def test_multigrid_wants_the_five_point_structure():
    # the coarse operators are read from A's values by position, so a
    # matrix in any other structure is refused rather than misread
    g = Grid2(40, 23)
    A = spd_five_point(g, seed=2)
    for other in (A.tocoo(), A.tocsr()):  # the same structure, another format
        multigrid(other, g)
    dropped = [A.tocsr(), A.tocsr()]  # node 1's east or north, not its mirror
    for entry, matrix in zip((5, 6), dropped):
        matrix.data[entry] = 0.0
        matrix.eliminate_zeros()
    transposed_grid = spd_five_point(Grid2(23, 40), seed=2)  # as many nodes
    shorter_grid = spd_five_point(Grid2(40, 22), seed=2)  # the same offsets
    wrapped = A.tolil()  # (nx, j) coupled to (0, j + 1)
    end = g.node_id(g.nx, 5)
    wrapped[end, end + 1] = wrapped[end + 1, end] = -1.0
    for bad, grid in ((dropped[0], g), (dropped[1], g), (transposed_grid, g),
                      (shorter_grid, g), (wrapped, g), (A @ A, g),
                      (sparse.identity(g.nnodes, format="csr"), g),
                      (sparse.identity(81, format="csr"), Grid2(8, 8))):
        with pytest.raises(SolverError, match="5-point structure"):
            multigrid(bad, grid)


def test_galerkin_maps_are_built_once_per_shape_and_read_only(monkeypatch):
    # one cache entry per grid shape holds every level's P, P^T and map,
    # however many levels the shape coarsens through; five_point reads it
    # before each multigrid does
    linsolve = polyflood.linsolve
    hierarchy, galerkin = linsolve._hierarchy, linsolve._galerkin_map
    built = []

    def counted(P, *shape):
        built.append(shape)
        return galerkin(P, *shape)
    monkeypatch.setattr(linsolve, "_galerkin_map", counted)

    def solve_twice(g):
        hierarchy.cache_clear()
        built.clear()
        for seed in (1, 2):
            multigrid(spd_five_point(g, seed=seed), g)
        info = hierarchy.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        return hierarchy(g.nx, g.ny)

    small = Grid2(12, 12)  # one level: nothing coarsens, no map is built
    stencils, maps = solve_twice(small)
    assert len(stencils) == 1 and maps == () and built == []
    g = Grid2(97, 97)  # coarsens to 49, 25 and 13 cells a side
    stencils, maps = solve_twice(g)
    assert built == [(97, 97, 5), (49, 49, 9), (25, 25, 9)]
    assert len(stencils) == len(maps) + 1
    nx, ny = g.nx, g.ny
    for stencil, (P, R, G) in zip(stencils, maps):
        # a level's DIA template holds its offsets and no data
        assert stencil[2].data.shape == (len(stencil[2].offsets), 0)
        assert abs(P - bilinear_prolongation(nx, ny)).max() == 0.0
        assert abs(R - P.T).max() == 0.0
        for M in (P, R, G):
            for array in (M.data, M.indices, M.indptr):
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                M.data[0] = 1.0
        nx, ny = (nx + 1) // 2, (ny + 1) // 2
    # five coarsenings, 2400 x 2 to 75 x 1 cells, are one entry: the
    # cache counts shapes, not levels
    deep = Grid2(2400, 2)
    assert len(solve_twice(deep)[1]) == 5 and len(built) == 5


def test_nonfinite_rhs_raises_at_once():
    g = Grid2(4, 4)
    s, c = random_state(g)
    A = assemble_pressure(g, s, c, MODEL).matrix + sparse.identity(g.nnodes)
    b = np.ones(g.nnodes)
    bad = b.copy()
    bad[3] = np.nan
    with pytest.raises(SolverError) as err:
        solve_cg(A, bad, jacobi(A), tol=1e-10)
    assert err.value.iterations <= 1
    # a NaN guess poisons p.Ap, which counts as breakdown
    with pytest.raises(SolverError) as err:
        solve_cg(A, b, jacobi(A), tol=1e-10, x0=bad)
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


@pytest.mark.parametrize("n", [25, 289, 9409])
def test_cg_norms_are_numpys_norms_bit_for_bit(n):
    # solve_cg's stopping test takes each 2-norm as sqrt(v @ v); it must
    # be np.linalg.norm's value, or a solve could stop at another iterate
    rng = np.random.default_rng(n)
    for scale in (1e-150, 1.0, 3e150):
        v = scale * rng.normal(size=n)
        assert math.sqrt(v @ v) == np.linalg.norm(v)


def test_cg_on_spd_matrix():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(30, 30))
    A = B @ B.T + 30.0 * np.eye(30)
    A = sparse.csr_matrix(A)
    x_true = rng.normal(size=30)
    x = solve_cg(A, A @ x_true, jacobi(A), tol=1e-12)
    assert np.allclose(x, x_true, rtol=0, atol=1e-9)
    assert np.array_equal(solve_cg(A, np.zeros(30), jacobi(A), tol=1e-10),
                          np.zeros(30))
