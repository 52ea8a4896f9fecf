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
read-only: the prolongation and restriction, and per coarsening level the
linear map from its planes to the next level's: about 320 bytes per fine
node, 245 of them the maps (3.0 MB at N = 96).  Per call, five_point
fills the 5-point DIA matrix, the finest level; multigrid reads its
planes from that matrix's data, applies the maps (one sparse product per
level) and slices each coarser level's DIA matrix, smoother weights and
band.
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
    """A symmetric positive (semi)definite system A x = b in DIA form.

    pure_neumann marks the singular case whose null space is the constant
    vector; such a system must be gauged (one node pinned) before solving.
    """

    matrix: sparse.dia_matrix
    rhs: np.ndarray
    pure_neumann: bool = False


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
    return sparse.dia_matrix((data.reshape(5, -1), [-w, -1, 0, 1, w]),
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
    symmetric with a points-stencil, G @ planes maps A's planes, a
    flattened (points // 2 + 1, ny+1, nx+1) stack of its upper couplings
    (the centre, then east and north for 5 points; east, north-west, north
    and north-east for 9), to those of R A P.  A's coupling (k, l), k <= l,
    stands for A_lk too: it adds P_kI P_lJ + P_kJ P_lI to the coupling of
    each pair of coarse nodes I <= J, one a parent of k and the other of
    l, and half that for k = l.
    """
    steps = ([(0, 0), (1, 0), (0, 1)] if points == 5
             else [(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)])
    j, i = np.indices((ny + 1, nx + 1))
    present = np.stack([(0 <= i + di) & (i + di <= nx) & (j + dj <= ny)
                        for di, dj in steps]).reshape(len(steps), -1)
    # every coupling inside the grid, node by node in column order: each
    # row of G sums in that order, which fixes its rounding
    k, plane = np.nonzero(present.T)
    l = k + np.array([dj * (nx + 1) + di for di, dj in steps])[plane]
    fine_slot = plane * present.shape[1] + k
    P = _prolongation(nx, ny)[0]
    width = (nx + 1) // 2 + 1
    coarse = width * ((ny + 1) // 2 + 1)
    # a fine node's parents fill a box, one or two coarse nodes a side, of
    # equal weights: relative to k's first parent, the pairs and weights of
    # (k, l) depend only on both boxes' sides, l's start and whether k = l
    first, last = P.indices[P.indptr[:-1]], P.indices[P.indptr[1:] - 1]
    x, y = first % width, first // width
    wide, tall = last % width - x, last // width - y
    shape = (2, 2, 2, 2, 3, 3, 2)
    kind = np.ravel_multi_index((wide[k], tall[k], wide[l], tall[l],
                                 x[l] - x[k] + 1, y[l] - y[k] + 1, k == l), shape)
    gptr = np.zeros(k.size + 1, dtype=np.int32)
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
        gptr[sel + 1] = len(pairs)
        scale = (1 + wk) * (1 + tk) * (1 + wl) * (1 + tl) * (1 + diag)
        templates.append((sel, np.fromiter(pairs, np.int32),
                          np.fromiter(pairs.values(), float) / scale))
    np.cumsum(gptr, out=gptr)
    cols = np.empty(gptr[-1], dtype=np.int32)
    weights = np.empty(gptr[-1])
    for sel, offsets, values in templates:
        dest = gptr[sel, None] + np.arange(offsets.size, dtype=np.int32)
        cols[dest] = first[k[sel], None] + offsets
        weights[dest] = values
    # filled by fine coupling; as CSR it is 8% smaller than that transpose
    # and about 30% faster to apply.  Its columns then move from couplings
    # to plane slots, and each row keeps the order its sum is taken in.
    G = sparse.csr_matrix((weights, cols, gptr),
                          shape=(k.size, 5 * coarse)).T.tocsr()
    G = sparse.csr_matrix((G.data, fine_slot.take(G.indices), G.indptr),
                          shape=(5 * coarse, present.size))
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
    A is taken as a DIA matrix and is the finest level's operator.
    Returns a function r -> z that applies one V-cycle from a zero guess;
    it is symmetric positive definite, as solve_cg's M must be.  Raises
    SolverError if A has a non-finite entry or not the grid's 5-point
    structure (five_point's offsets, no coupling across a row end,
    symmetric), if any level's diagonal is not positive and finite, or if
    the coarsest level is not positive definite.
    """
    A = A.todia()
    data = A.data
    if not np.all(np.isfinite(data)):
        raise SolverError("matrix entries not finite")
    nx, ny, points = grid.nx, grid.ny, 5
    n, w = grid.nnodes, nx + 1
    # DIA row -s holds A[k + s, k] at column k and row s its mirror, so
    # rows 0, -1 and -w are the planes: each node's coupling to itself,
    # its east and its north neighbour, where a row end has no east one
    if not (A.shape == (n, n) and data.shape[1] == n
            and list(A.offsets) == [-w, -1, 0, 1, w]
            and not data[1, nx::w].any()
            and np.array_equal(data[1, :-1], data[3, 1:])
            and np.array_equal(data[0, :-w], data[4, w:])):
        raise SolverError("matrix does not have the grid's 5-point structure")
    planes, shifts = data[2::-1], (0, 1, w)
    levels = []
    while (nx + 1) * (ny + 1) > COARSEST_NODES:
        centre = planes[0]
        if not (np.all(centre > 0.0) and np.all(centre < np.inf)):
            raise SolverError("matrix diagonal not positive and finite")
        levels.append((_stencil_operator(planes, shifts) if levels else A,
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
