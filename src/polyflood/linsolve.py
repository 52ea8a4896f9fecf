"""Symmetric sparse systems, their 5-point builder, and a preconditioned
conjugate gradient with a geometric-multigrid V-cycle preconditioner.

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
its neighbours further on in the node order.  Sliced, they are the rows
of the DIA matrix that makes the level's products (scipy's dia_matvec
sums a row in a CSR row's order, so the bits are the same), the band of
the coarsest level, and the input of the next level's Galerkin map.

What depends on the grid shape only is built once per shape and cached
read-only: the 5- and 9-point CSR structures and their maps to and from
planes, the prolongation and restriction, and per coarsening level the
linear map from its planes to the next level's: about 410 bytes per fine
node, 245 of them the maps (3.7 MB at N = 96).  Per call, five_point
fills the 5-point values; multigrid takes the finest planes from them,
applies the maps (one sparse product per level) and slices each level's
DIA matrix, smoother weights and band.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs

__all__ = ["MULTIGRID_MAX_ITER", "SparseSystem", "SolverError", "five_point",
           "multigrid", "solve_cg"]

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
    """A symmetric positive (semi)definite system A x = b in CSR form.

    pure_neumann marks the singular case whose null space is the constant
    vector; such a system must be gauged (one node pinned) before solving.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    pure_neumann: bool = False


@functools.lru_cache(maxsize=16)
def _stencil_pattern(nx: int, ny: int, points: int):
    """CSR structure of a symmetric 5- or 9-point operator on an nx-by-ny
    grid's nodes, indptr and indices, and its maps to and from the planes,
    a flattened (points // 2 + 1, ny+1, nx+1) stack of the upper couplings
    (the centre, then east and north for 5 points; east, north-west, north
    and north-east for 9): gather gives each entry's slot (one below the
    diagonal reads its mirror), source each slot's entry on or above it (0
    past the grid's edge).  Every neighbour inside the grid is stored, so
    the structure depends on the shape only; all four arrays are shared
    between calls and read-only.
    """
    offsets = [(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1)
               if points == 9 or abs(di) + abs(dj) <= 1]
    i = np.arange(nx + 1)
    j = np.arange(ny + 1)[:, None]
    present = np.stack([(0 <= i + di) & (i + di <= nx) & (0 <= j + dj)
                        & (j + dj <= ny) for di, dj in offsets])
    node, which = np.nonzero(present.reshape(points, -1).T)
    shift = np.array([dj * (nx + 1) + di for di, dj in offsets])
    indices = (node + shift[which]).astype(np.int32)
    nodes = i.size * j.size
    indptr = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=0).ravel(), out=indptr[1:])
    # offsets are symmetric about the centre, at points // 2
    plane = np.abs(which - points // 2)
    # int32 halves what each shape keeps, and take() reads it as it is
    gather = (plane * nodes + np.minimum(node, indices)).astype(np.int32)
    upper = np.flatnonzero(which >= points // 2)
    source = np.zeros((points // 2 + 1) * nodes, dtype=np.int32)
    source[gather[upper]] = upper
    for array in (indptr, indices, gather, source):
        array.flags.writeable = False
    return indptr, indices, gather, source


def _stencil_operator(planes, shifts) -> sparse.dia_matrix:
    """The symmetric operator that couples node k to k + shifts[p] by
    planes[p, k], as a DIA matrix with ascending offsets: its product sums
    each row in column order, as a CSR product does, so the bits agree.
    On a grid one cell wide the east and north-west couplings share an
    offset, and never a node, so they add."""
    n = planes.shape[1]
    offsets = sorted({*shifts, *(-s for s in shifts)})
    data = np.zeros((len(offsets), n))
    for s, plane in zip(shifts, planes):
        # row -s holds A[j + s, j] at column j, row +s holds A[j - s, j]
        data[offsets.index(-s), :n - s] += plane[:n - s]
        if s:
            data[offsets.index(s), s:] += plane[:n - s]
    return sparse.dia_matrix((data, offsets), shape=(n, n))


def five_point(grid, fx, fy, mass=0.0) -> sparse.csr_matrix:
    """Symmetric 5-point operator on a Grid2's nodes from face coefficients.

    fx[j, i] couples node (i, j) to (i+1, j), shape (ny+1, nx); fy[j, i]
    couples (i, j) to (i, j+1), shape (ny, nx+1).  Each face enters its two
    rows as -f off the diagonal and +f on it, so the diagonal is mass plus
    the node's face coefficients and mass = 0 gives zero row sums.  The
    values fill the shape's cached CSR structure, which stores a face that
    is exactly 0 as an explicit zero.
    """
    nx, ny = grid.nx, grid.ny
    if fx.shape != (ny + 1, nx) or fy.shape != (ny, nx + 1):
        raise ValueError(f"face coefficients of shape {fx.shape}, {fy.shape} "
                         f"do not fit a {nx}x{ny} grid")
    indptr, indices, gather, _ = _stencil_pattern(nx, ny, 5)
    # faces past the walls stay 0; the centre adds east, west, north and
    # south in that order, which fixes its rounding
    stack = np.zeros((3, ny + 1, nx + 1))
    centre, east, north = stack
    east[:, :-1] = fx
    north[:-1] = fy
    centre[...] = mass + east
    centre[:, 1:] += fx
    centre += north
    centre[1:] += fy
    np.negative(stack[1:], out=stack[1:])
    return sparse.csr_matrix((stack.take(gather), indices, indptr),
                             shape=(grid.nnodes, grid.nnodes))


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


@functools.lru_cache(maxsize=16)
def _prolongation(nx: int, ny: int):
    """Bilinear prolongation onto an nx-by-ny grid's nodes and its
    transpose, the restriction; the coarse grid has (nx+1)//2 by
    (ny+1)//2 cells."""
    P = sparse.kron(_interpolation_1d(ny), _interpolation_1d(nx), format="csr")
    return P, P.T.tocsr()


# one entry per coarsening level, so a hierarchy of up to 8 (N = 4096)
# keeps all of its maps instead of evicting its own first level
@functools.lru_cache(maxsize=8)
def _galerkin_map(nx: int, ny: int, points: int) -> sparse.csr_matrix:
    """R A P on an nx-by-ny grid as one read-only linear map G: for A
    symmetric with a points-stencil, G @ planes maps A's planes (see
    _stencil_pattern) to those of R A P.  A's entry (k, l), k <= l,
    stands for A_lk too: it adds P_kI P_lJ + P_kJ P_lI to the coupling of
    each pair of coarse nodes I <= J, one a parent of k and the other of
    l, and half that for k = l.
    """
    indptr, indices, gather, _ = _stencil_pattern(nx, ny, points)
    P = _prolongation(nx, ny)[0]
    width = (nx + 1) // 2 + 1
    coarse = width * ((ny + 1) // 2 + 1)
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int32),
                     np.diff(indptr))
    entry = np.flatnonzero(indices >= rows).astype(np.int32)
    k, l = rows[entry], indices[entry]
    # a fine node's parents fill a box, one or two coarse nodes a side, of
    # equal weights: relative to k's first parent, the pairs and weights of
    # (k, l) depend only on both boxes' sides, l's start and whether k = l
    first, last = P.indices[P.indptr[:-1]], P.indices[P.indptr[1:] - 1]
    x, y = first % width, first // width
    wide, tall = last % width - x, last // width - y
    shape = (2, 2, 2, 2, 3, 3, 2)
    kind = np.ravel_multi_index((wide[k], tall[k], wide[l], tall[l],
                                 x[l] - x[k] + 1, y[l] - y[k] + 1, k == l), shape)
    gptr = np.zeros(indices.size + 1, dtype=np.int32)
    templates = []
    for code in np.unique(kind):
        wk, tk, wl, tl, dx, dy, diag = np.unravel_index(code, shape)
        pairs = {}
        for iy, ix, jy, jx in np.ndindex(tk + 1, wk + 1, tl + 1, wl + 1):
            I, J = (iy, ix), (dy - 1 + jy, dx - 1 + jx)
            (ly, lx), (hy, hx) = sorted((I, J))
            # upper planes: centre, east, north-west, north, north-east
            slot = (3 * (hy - ly) + hx - lx) * coarse + ly * width + lx
            pairs[slot] = pairs.get(slot, 0) + 1 + (I == J)
        sel = np.flatnonzero(kind == code)
        gptr[entry[sel] + 1] = len(pairs)
        scale = (1 + wk) * (1 + tk) * (1 + wl) * (1 + tl) * (1 + diag)
        templates.append((sel, np.fromiter(pairs, np.int32),
                          np.fromiter(pairs.values(), float) / scale))
    np.cumsum(gptr, out=gptr)
    cols = np.empty(gptr[-1], dtype=np.int32)
    weights = np.empty(gptr[-1])
    for sel, offsets, values in templates:
        dest = gptr[entry[sel], None] + np.arange(offsets.size, dtype=np.int32)
        cols[dest] = first[k[sel], None] + offsets
        weights[dest] = values
    # filled by fine entry; as CSR it is 8% smaller than that transpose
    # and about 30% faster to apply.  Its columns then move from entries
    # to plane slots, and each row keeps the order its sum is taken in.
    G = sparse.csr_matrix((weights, cols, gptr),
                          shape=(indices.size, 5 * coarse)).T.tocsr()
    G = sparse.csr_matrix((G.data, gather.take(G.indices), G.indptr),
                          shape=(5 * coarse, (points // 2 + 1) * (indptr.size - 1)))
    for array in (G.indptr, G.indices, G.data):
        array.flags.writeable = False
    return G


def _banded_cholesky(planes, shifts) -> np.ndarray:
    """Lower banded Cholesky factor, from LAPACK's dpbtrf, of the SPD
    operator of _stencil_operator(planes, shifts): band row s is the plane
    of shift s."""
    ab = np.zeros((max(shifts) + 1, planes.shape[1]))
    for s, plane in zip(shifts, planes):
        ab[s] += plane
    if not np.all(np.isfinite(ab)):
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
    Of A only the diagonal and upper triangle are read.  Returns a
    function r -> z that applies one V-cycle from a zero guess; it is
    symmetric positive definite, as solve_cg's M must be.  Its attribute
    operator is A for solve_cg: the V-cycle's DIA matrix, whose products
    have the bits of A's, or A itself if the cycle is one exact solve.
    Raises SolverError if A has a non-finite entry or not the grid's
    5-point structure (five_point's), if any level's diagonal is not
    positive and finite, or if the coarsest level is not positive definite.
    """
    A = sparse.csr_matrix(A)
    if not np.all(np.isfinite(A.data)):
        raise SolverError("matrix entries not finite")
    nx, ny, points = grid.nx, grid.ny, 5
    indptr, indices, _, source = _stencil_pattern(nx, ny, points)
    # five_point's structure, shared (indices as a whole view), is not compared
    if not (A.indptr is indptr and A.indices.base is indices
            and A.indices.strides == indices.strides
            or np.array_equal(A.indptr, indptr)
            and np.array_equal(A.indices, indices)):
        raise SolverError("matrix does not have the grid's 5-point structure")
    planes = A.data.take(source).reshape(3, ny + 1, nx + 1)
    # past the east and the north edge there is no neighbour
    planes[1, :, -1] = planes[2, -1] = 0.0
    planes, shifts = planes.reshape(3, -1), (0, 1, nx + 1)
    levels = []
    while (nx + 1) * (ny + 1) > COARSEST_NODES:
        centre = planes[0]
        if not (np.all(centre > 0.0) and np.all(centre < np.inf)):
            raise SolverError("matrix diagonal not positive and finite")
        levels.append((_stencil_operator(planes, shifts),
                       SMOOTH_OMEGA * (1.0 / centre), *_prolongation(nx, ny)))
        planes = (_galerkin_map(nx, ny, points) @ planes.ravel()).reshape(5, -1)
        nx, ny, points = (nx + 1) // 2, (ny + 1) // 2, 9
        shifts = (0, 1, nx, nx + 1, nx + 2)
    factor = _banded_cholesky(planes, shifts)

    # a loop, not recursion: a self-referencing closure would keep every
    # step's hierarchy alive until the cyclic garbage collector ran
    def vcycle(r):
        down = []
        for level in levels:
            A, wdinv, _, R = level
            z = wdinv * r
            for _ in range(SMOOTH_SWEEPS - 1):
                z += wdinv * (r - A @ z)
            down.append((level, r, z))
            r = R @ (r - A @ z)
        z, info = dpbtrs(factor, r, lower=1)
        if info != 0:
            raise SolverError(f"coarsest solve failed (dpbtrs info {info})")
        for (A, wdinv, P, _), r, z_fine in reversed(down):
            z = z_fine + P @ z
            for _ in range(SMOOTH_SWEEPS):
                z += wdinv * (r - A @ z)
        return z

    vcycle.operator = levels[0][0] if levels else A
    return vcycle


def solve_cg(A, b, M, tol: float = 1e-10, x0=None):
    """Preconditioned conjugate gradient.

    M maps a residual to its preconditioned residual and must be symmetric
    positive definite, such as multigrid(A, grid).  Of A only A @ x is
    used.  Stops when ||b - A x||_2 <= tol * ||b||_2; a zero right-hand
    side returns the zero vector.  Raises SolverError at once on a
    non-finite right-hand side, on breakdown (including a NaN curvature
    p.Ap), or if the tolerance is not met within MULTIGRID_MAX_ITER
    iterations.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    norm_b = np.linalg.norm(b)
    if not np.isfinite(norm_b):
        raise SolverError("right-hand side is not finite")
    if norm_b == 0.0:
        return np.zeros(n)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = M(r)
    p = z.copy()
    rz = r @ z
    res = np.linalg.norm(r) / norm_b
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
        res = np.linalg.norm(r) / norm_b
        if res <= tol:
            return x
        z = M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new

    raise SolverError("conjugate gradient did not converge", res,
                      MULTIGRID_MAX_ITER)
