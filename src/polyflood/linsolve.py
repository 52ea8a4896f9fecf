"""Symmetric sparse systems, their 5-point builder and pin, and a
preconditioned conjugate gradient with a geometric-multigrid V-cycle.

The solver is deliberately hand-rolled: the stopping test is an explicit
relative residual, iterates are deterministic, and failure raises with the
final residual attached instead of returning an info flag to ignore.

Both implicit systems are SPD 5-point operators on a Grid2's nodes, so
multigrid(A, grid) builds a V-cycle for them from the assembled matrix:
bilinear prolongation P between nested grids, Galerkin coarse operators
P^T A P, damped-Jacobi smoothing, and an exact banded Cholesky solve on
the coarsest level (Briggs, Henson & McCormick, A Multigrid Tutorial,
2000).  With it, the conjugate-gradient iteration count stays flat as the
grid is refined, where Jacobi preconditioning grows linearly with N, so
solve_cg caps every solve at MULTIGRID_MAX_ITER iterations.  LAPACK's
dpbtrf and dpbtrs, called directly, factor and solve the coarsest level.

Each level is held as its planes, every node's coupling to itself and to
its neighbours further on in the node order (_UPPER_STEPS).  Sliced, they
are the rows of the level's DIA matrix (scipy's dia_matvec sums a row in
a CSR row's order, so the bits are the same) and the coarsest level's
band.  What depends on the grid shape only is one cache entry per shape
(_hierarchy): per coarsening level its stencil and read-only
prolongation, restriction and map from its planes to the next level's,
read off P's rows with exact weights; then the coarsest stencil.  A
stencil holds its level's zero DIA matrix, which every DIA matrix of the
level copies (_dia), so all share the read-only offsets that scipy checked
once per shape.  An entry takes 320 bytes per fine node at N = 96, 242
of them the maps (3.0 MB), and 327 at N = 256 (21.6 MB).  Per call,
five_point fills the finest level's DIA matrix; multigrid reads its
planes from that data, applies the maps (one sparse product per level)
and slices each coarser level's DIA matrix, smoother weights and band.
Every product of the hierarchy, the maps' too, is one call of the compiled
kernel that scipy's A @ x ends in, on the level's own arrays (_matvec).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
# the compiled products that scipy's A @ x ends in, for a DIA or a CSR A;
# private, so tests/test_pressure.py checks their bits against A @ x
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

__all__ = ["MULTIGRID_MAX_ITER", "SparseSystem", "SolverError", "five_point",
           "pinned", "multigrid", "solve_cg"]

# Coarsening stops once a level has at most COARSEST_NODES nodes, which
# a banded Cholesky factor then solves exactly; grids up to 16 x 16 cells
# stay on that one level.  Each level smooths with SMOOTH_SWEEPS damped
# Jacobi sweeps (weight SMOOTH_OMEGA) before and as many after the coarse
# correction: equal counts keep the cycle symmetric, as CG requires.
COARSEST_NODES = 300
SMOOTH_OMEGA = 0.8
SMOOTH_SWEEPS = 2
# Iteration cap of every solve_cg call.  Measured multigrid solves
# take at most 12 iterations for N = 8-256, so a solve that reaches the
# cap has stagnated and fails at once instead of running for minutes.
MULTIGRID_MAX_ITER = 200


class SolverError(RuntimeError):
    """A solve or a time step failed numerically; carries the last relative
    residual, NaN when no residual was formed."""

    def __init__(self, message: str, residual: float = math.nan,
                 iterations: int = 0):
        if iterations or not math.isnan(residual):
            message += (f" (relative residual {residual:.3e} "
                        f"after {iterations} iterations)")
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SparseSystem:
    """A symmetric positive (semi)definite system A x = b in DIA form.

    pure_neumann marks the singular case whose null space is the constant
    vector; such a system must be gauged (one node pinned) before solving,
    and pressure.solve_pressure, which pins, refuses any other.
    """

    matrix: sparse.dia_matrix
    rhs: np.ndarray
    pure_neumann: bool = False


def _dia(data, like) -> sparse.dia_matrix:
    """The DIA matrix of data on like's structure, copied from like: it
    shares like's offsets, which scipy checked once, where the (data,
    offsets) form would check them again and search an index dtype."""
    A = sparse.dia_matrix(like)
    A.data = data
    return A


def _matvec(M):
    """x -> M @ x for a float64 DIA or CSR matrix M and a float64 vector
    x, as one call of the compiled kernel that M @ x ends in (dia_matvec
    or csr_matvec) on M's own arrays into a zero-filled output: the same
    bits, without the Python dispatch that leads there.  The kernels do
    not check x's length: in the V-cycle, wdinv * r refuses a residual of
    another length, and every other vector is a product of the right one."""
    rows, cols = M.shape
    if M.format == "dia":
        kernel = functools.partial(dia_matvec, rows, cols, len(M.offsets),
                                   M.data.shape[1], M.offsets, M.data)
    else:
        kernel = functools.partial(csr_matvec, rows, cols, M.indptr,
                                   M.indices, M.data)

    def product(x):
        y = np.zeros(rows)
        kernel(x, y)
        return y
    return product


def _stencil_operator(planes, stencil) -> sparse.dia_matrix:
    """The symmetric operator of a level's stencil that couples node k to
    k + shifts[p] by planes[p, k], as a DIA matrix with ascending offsets:
    its product sums each row in column order, as a CSR product does, so
    the bits agree.  On a grid one cell wide the east and north-west
    couplings share an offset, and never a node, so they add."""
    n = planes.shape[1]
    shifts, rows, zero = stencil
    data = np.zeros((len(zero.offsets), n))
    for s, (below, above), plane in zip(shifts, rows, planes):
        # row -s holds A[j + s, j] at column j, row +s holds A[j - s, j]
        data[below, :n - s] += plane[:n - s]
        if s:
            data[above, s:] += plane[:n - s]
    return _dia(data, zero)


def five_point(grid, fx, fy, mass=0.0) -> sparse.dia_matrix:
    """Symmetric 5-point operator on a Grid2's nodes from face coefficients.

    fx[j, i] couples node (i, j) to (i+1, j), shape (ny+1, nx); fy[j, i]
    couples (i, j) to (i, j+1), shape (ny, nx+1).  Each face enters its two
    rows as -f off the diagonal and +f on it, so the diagonal is mass plus
    the node's face coefficients and mass = 0 gives zero row sums.  The
    operator is the DIA matrix of its planes, offsets -(nx+1), -1, 0, 1
    and nx + 1: every face, an exact 0 too, has its slot on two of them,
    and the +-1 slots across a row end hold 0.
    """
    nx, ny = grid.nx, grid.ny
    if fx.shape != (ny + 1, nx) or fy.shape != (ny, nx + 1):
        raise ValueError(f"face coefficients of shape {fx.shape}, {fy.shape} "
                         f"do not fit a {nx}x{ny} grid")
    w = nx + 1
    # data[d, k] is A[k - offsets[d], k]: node k's coupling to its north or
    # east neighbour, itself, or its west or south one; past a wall it is 0
    data = np.zeros((5, ny + 1, w))
    north, east, centre, west, south = data
    np.negative(fy, out=north[:-1])
    np.negative(fx, out=east[:, :-1])
    np.negative(fx, out=west[:, 1:])
    np.negative(fy, out=south[1:])
    # mass plus the east, west, north and south faces, in that order, which
    # fixes the rounding
    centre[...] = mass - east - west - north - south
    plan, coarsest = _hierarchy(nx, ny)
    return _dia(data.reshape(5, -1), (plan[0][0] if plan else coarsest)[2])


def pinned(A, k: int) -> sparse.dia_matrix:
    """A copy of the DIA matrix A whose equation k reads x_k = b_k: row and
    column k zeroed, the diagonal 1, A's shape and offsets kept."""
    # data[d, j] holds A[j - offsets[d], j]: column k is data[:, k] and
    # row k lies at columns k + offsets, those inside the matrix
    data = A.data.copy()
    data[:, k] = 0.0
    cols = k + A.offsets
    inside = (cols >= 0) & (cols < data.shape[1])
    data[inside, cols[inside]] = A.offsets[inside] == 0
    return _dia(data, A)


def _interpolation_1d(n: int) -> sparse.csr_matrix:
    """Linear interpolation onto the n + 1 nodes of n cells from every
    other node, plus the last node when n is odd; shape (n+1, nc+1).  Each
    fine node takes half from the coarse node at or left of it and half
    from the one at or right of it, the same node where the grids meet."""
    fine = np.arange(n + 1)
    left, right = fine // 2, (fine + 1) // 2
    left[-1] = right[-1]  # the last node is a coarse one, n odd or even
    return sparse.csr_matrix((np.full(2 * n + 2, 0.5),
                              (np.tile(fine, 2), np.concatenate([left, right]))),
                             shape=(n + 1, right[-1] + 1))


# the steps (dx, dy) from a node to itself and to the neighbours it couples
# to further on in the node order, in the 5- and in the 9-point stencil
_UPPER_STEPS = {5: ((0, 0), (1, 0), (0, 1)),
                9: ((0, 0), (1, 0), (-1, 1), (0, 1), (1, 1))}


def _galerkin_map(P, nx: int, ny: int, points: int) -> sparse.csr_matrix:
    """R A P on an nx-by-ny grid as one linear map G, read off the rows of
    its prolongation P: for A symmetric with a points-stencil, G @ planes
    maps A's planes, a flattened (points // 2 + 1, ny+1, nx+1) stack of its
    couplings along _UPPER_STEPS, to those of R A P.  A's coupling (k, l),
    k <= l, stands for A_lk too, so each parent I of k and J of l add
    P_kI P_lJ to the coupling of min(I, J) and max(I, J), twice that for
    I = J and half that for k = l.  Each weight sums products of 1, 1/2
    and 1/4, so it is exact, and each row sums in (k, plane) order.
    """
    (n, coarse), steps = P.shape, _UPPER_STEPS[points]
    width = (nx + 1) // 2 + 1
    j, i = np.divmod(np.arange(n, dtype=np.int32), nx + 1)
    count = np.diff(P.indptr)

    # one plane at a time, so that only one plane's pairs are alive
    def plane_map(plane, dx, dy):
        k = np.flatnonzero((0 <= i + dx) & (i + dx <= nx) & (j + dy <= ny))
        l = k + dy * (nx + 1) + dx
        # entry a of P's row k against entry b of its row l, pair by pair
        m = count[k] * count[l]
        first = np.repeat(np.cumsum(m) - m, m)
        a, b = np.divmod(np.arange(first.size, dtype=np.int32) - first,
                         np.repeat(count[l], m))
        a += np.repeat(P.indptr[k], m)
        b += np.repeat(P.indptr[l], m)
        I, J = P.indices[a], P.indices[b]
        weight = P.data[a] * P.data[b] * (1.0 + (I == J)) / (1 + (plane == 0))
        lo, hi = np.minimum(I, J), np.maximum(I, J)
        slot = coarse * (3 * (hi // width - lo // width)
                         + hi % width - lo % width) + lo
        # columns in (k, plane) order, moved to plane slots below; repeats add
        column = np.repeat(k * len(steps) + plane, m)
        return sparse.csr_matrix((weight, (slot, column)),
                                 shape=(5 * coarse, len(steps) * n))

    G = sum(plane_map(plane, dx, dy) for plane, (dx, dy) in enumerate(steps))
    # to plane slots by an intp gather that scipy narrows to int32; freeing
    # the wide copy lifts glibc's mmap and trim thresholds (else steps refault)
    k, plane = np.divmod(np.arange(G.shape[1]), len(steps))
    return sparse.csr_matrix((G.data, (plane * n + k)[G.indices], G.indptr),
                             shape=G.shape)


# one entry per grid shape: a flood uses one, a study or a verify pass four
@functools.lru_cache(maxsize=4)
def _hierarchy(nx: int, ny: int):
    """The shape-only half of a V-cycle on an nx-by-ny grid: per coarsening
    level, its stencil and its read-only bilinear prolongation P (onto it
    from (nx+1)//2 by (ny+1)//2 cells), restriction P^T and Galerkin map;
    then the coarsest level's stencil.  A stencil holds the upper shifts
    along _UPPER_STEPS, for each shift s the rows of DIA offsets -s and +s,
    and the zero DIA matrix on the ascending offsets, made read-only."""
    plan, points = [], 5
    while True:
        n = (nx + 1) * (ny + 1)
        shifts = tuple(dy * (nx + 1) + dx for dx, dy in _UPPER_STEPS[points])
        offsets = sorted({*shifts, *(-s for s in shifts)})
        zero = sparse.dia_matrix((np.zeros((len(offsets), 0)), offsets), (n, n))
        zero.offsets.flags.writeable = False
        stencil = (shifts, tuple((offsets.index(-s), offsets.index(s))
                                 for s in shifts), zero)
        if n <= COARSEST_NODES:
            return tuple(plan), stencil
        P = sparse.kron(_interpolation_1d(ny), _interpolation_1d(nx),
                        format="csr")
        maps = P, P.T.tocsr(), _galerkin_map(P, nx, ny, points)
        for M in maps:
            for array in (M.indptr, M.indices, M.data):
                array.flags.writeable = False
        plan.append((stencil, *maps))
        nx, ny, points = (nx + 1) // 2, (ny + 1) // 2, 9


def _banded_cholesky(planes, stencil) -> np.ndarray:
    """Lower banded Cholesky factor, from LAPACK's dpbtrf, of the SPD
    operator of _stencil_operator(planes, stencil): band row s is the
    plane of shift s."""
    shifts = stencil[0]
    ab = np.zeros((max(shifts) + 1, planes.shape[1]))
    for s, plane in zip(shifts, planes):
        ab[s] += plane
    if not np.isfinite(ab).all():
        raise SolverError("coarsest level not finite")
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError("coarsest level not positive definite "
                          f"(dpbtrf info {info})")
    return factor


def multigrid(A, grid):
    """Symmetric V-cycle preconditioner for an SPD operator on grid's nodes.

    Coarse operators are Galerkin products P^T A P with bilinear P, so the
    hierarchy follows A's coefficients, jumps and pinned rows included.
    A is taken as a DIA matrix and is the finest level's operator.
    Returns a function r -> z that applies one V-cycle from a zero guess;
    it is symmetric positive definite, as solve_cg's M must be.  Raises
    SolverError if A has a non-finite entry or not the grid's 5-point
    structure (five_point's offsets, no coupling across a row end,
    symmetric), if any level's diagonal is not positive and finite, or if
    the coarsest level is not positive definite.  Point-Jacobi smoothing
    with full coarsening stalls on cells hundreds of times wider than tall
    (2 x 700 cells end at the iteration cap); the CLI builds N x N grids.
    """
    A = A.todia()
    data = A.data
    if not np.isfinite(data).all():
        raise SolverError("matrix entries not finite")
    nx, ny = grid.nx, grid.ny
    n, w = grid.nnodes, nx + 1
    plan, coarsest = _hierarchy(nx, ny)
    # DIA row -s holds A[k + s, k] at column k and row s its mirror, so
    # rows 0, -1 and -w are the planes: each node's coupling to itself,
    # its east and its north neighbour, where a row end has no east one
    if not (A.shape == (n, n) and data.shape[1] == n
            and np.array_equal(A.offsets,
                               (plan[0][0] if plan else coarsest)[2].offsets)
            and not data[1, nx::w].any()
            and np.array_equal(data[1, :-1], data[3, 1:])
            and np.array_equal(data[0, :-w], data[4, w:])):
        raise SolverError("matrix does not have the grid's 5-point structure")
    planes = data[2::-1]
    levels = []
    for stencil, P, R, galerkin in plan:
        centre = planes[0]
        if not ((centre > 0.0).all() and (centre < np.inf).all()):
            raise SolverError("matrix diagonal not positive and finite")
        op = _stencil_operator(planes, stencil) if levels else A
        levels.append((_matvec(op), SMOOTH_OMEGA * (1.0 / centre),
                       _matvec(P), _matvec(R)))
        planes = _matvec(galerkin)(planes.ravel()).reshape(5, -1)
    factor = _banded_cholesky(planes, coarsest)

    # a loop, not recursion: a self-referencing closure would keep every
    # step's hierarchy alive until the cyclic garbage collector ran
    def vcycle(r):
        down = []
        for level in levels:
            A, wdinv, _, R = level
            z = wdinv * r
            for _ in range(SMOOTH_SWEEPS - 1):
                z += wdinv * (r - A(z))
            down.append((level, r, z))
            r = R(r - A(z))
        z, info = dpbtrs(factor, r, lower=1)
        if info != 0:
            raise SolverError(f"coarsest solve failed (dpbtrs info {info})")
        for (A, wdinv, P, _), r, z_fine in reversed(down):
            z = z_fine + P(z)
            for _ in range(SMOOTH_SWEEPS):
                z += wdinv * (r - A(z))
        return z

    return vcycle


def solve_cg(A, b, M, tol: float, x0=None):
    """Preconditioned conjugate gradient.

    M maps a residual to its preconditioned residual, a new array (the
    residual is updated in place), and must be symmetric positive
    definite, such as multigrid(A, grid).  Of A only A @ x is
    used.  Stops when ||b - A x||_2 <= tol * ||b||_2; a zero right-hand
    side returns the zero vector.  Raises SolverError at once on a
    non-finite right-hand side, on breakdown (including a NaN curvature
    p.Ap), or if the tolerance is not met within MULTIGRID_MAX_ITER
    iterations.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    # 2-norms as sqrt(v @ v), which is linalg.norm's own path for a real
    # vector, without its wrapper
    norm_b = math.sqrt(b @ b)
    if not math.isfinite(norm_b):
        raise SolverError("right-hand side is not finite")
    if norm_b == 0.0:
        return np.zeros(n)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = M(r)
    p = z  # never written in place
    rz = r @ z
    res = math.sqrt(r @ r) / norm_b
    if res <= tol:
        return x

    for k in range(1, MULTIGRID_MAX_ITER + 1):
        q = A @ p
        pq = p @ q
        if not pq > 0.0:
            raise SolverError("conjugate gradient breakdown", res, k)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        res = math.sqrt(r @ r) / norm_b
        if res <= tol:
            return x
        z = M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new

    raise SolverError("conjugate gradient did not converge", res,
                      MULTIGRID_MAX_ITER)
