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
solve_cg caps every solve at MULTIGRID_MAX_ITER iterations.  The
coarsest level is factored with LAPACK's dpbtrf and each V-cycle solves
with dpbtrs, both called directly (the routines that scipy.linalg's
cholesky_banded and cho_solve_banded wrap, without their per-call
overhead); a non-finite band or a nonzero info raises SolverError.

What depends on the grid shape only is built once per shape and cached
read-only: the 5-point CSR structure (indptr, indices and where each
stored entry comes from) and the prolongation and restriction.  What
depends on the coefficients is made per call: five_point fills that
structure's values, and multigrid forms the Galerkin products, smoother
weights and coarsest factor of the matrix it is given.
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
def _five_point_pattern(nx: int, ny: int):
    """CSR structure of the 5-point operator on an nx-by-ny grid's nodes.

    Returns indptr, indices and, for each stored entry, its index into a
    flattened (5, ny+1, nx+1) stack of south, west, centre, east and north
    couplings.  Every neighbour inside the grid is stored, zero or not, so
    the structure depends on the shape only; all three arrays are shared
    between calls and read-only.
    """
    i = np.arange(nx + 1)
    j = np.arange(ny + 1)[:, None]
    present = np.stack(np.broadcast_arrays(j > 0, i > 0, True, i < nx, j < ny))
    node, plane = np.nonzero(present.reshape(5, -1).T)
    offset = np.array([-(nx + 1), -1, 0, 1, nx + 1])
    indices = (node + offset[plane]).astype(np.int32)
    nodes = i.size * j.size
    indptr = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=0).ravel(), out=indptr[1:])
    # int32 halves what each shape keeps, and take() reads it as it is
    gather = (plane * nodes + node).astype(np.int32)
    for array in (indptr, indices, gather):
        array.flags.writeable = False
    return indptr, indices, gather


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
    indptr, indices, gather = _five_point_pattern(nx, ny)
    # faces past the walls stay 0: right of the last column, left of the
    # first, below the first row and above the last
    stack = np.zeros((5, ny + 1, nx + 1))
    south, west, centre, east, north = stack
    east[:, :-1] = fx
    west[:, 1:] = fx
    north[:-1] = fy
    south[1:] = fy
    centre[...] = mass + east + west + north + south
    np.negative(stack[:2], out=stack[:2])
    np.negative(stack[3:], out=stack[3:])
    return sparse.csr_matrix((stack.take(gather), indices, indptr),
                             shape=(grid.nnodes, grid.nnodes))


def _inverse_diagonal(A) -> np.ndarray:
    diag = A.diagonal()
    if not (np.all(diag > 0.0) and np.all(diag < np.inf)):
        raise SolverError("matrix diagonal not positive and finite")
    return 1.0 / diag


def _interpolation_1d(n: int) -> sparse.csr_matrix:
    """Linear interpolation onto the n + 1 nodes of n cells from every
    other node, plus the last node when n is odd; shape (n+1, nc+1)."""
    coarse = np.arange(0, n + 1, 2)
    if n % 2:
        coarse = np.append(coarse, n)
    fine = np.arange(n + 1)
    m = np.minimum(np.searchsorted(coarse, fine, side="right") - 1,
                   coarse.size - 2)
    w = (fine - coarse[m]) / (coarse[m + 1] - coarse[m])
    P = sparse.csr_matrix((np.concatenate([1.0 - w, w]),
                           (np.tile(fine, 2), np.concatenate([m, m + 1]))),
                          shape=(n + 1, coarse.size))
    P.eliminate_zeros()
    return P


@functools.lru_cache(maxsize=16)
def _prolongation(nx: int, ny: int):
    """Bilinear prolongation onto an nx-by-ny grid's nodes and its
    transpose, the restriction; the coarse grid has (nx+1)//2 by
    (ny+1)//2 cells."""
    P = sparse.kron(_interpolation_1d(ny), _interpolation_1d(nx), format="csr")
    return P, P.T.tocsr()


def _banded_cholesky(A) -> np.ndarray:
    """Lower banded Cholesky factor of a sparse SPD matrix in CSR form,
    from LAPACK's dpbtrf."""
    n = A.shape[0]
    row = np.repeat(np.arange(n), np.diff(A.indptr))
    low = row >= A.indices
    col = A.indices[low]
    band = row[low] - col
    width = int(band.max()) + 1
    # bincount adds duplicate entries, as a COO build does
    ab = np.bincount(band * n + col, weights=A.data[low],
                     minlength=width * n).reshape(width, n)
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
    Returns a function r -> z that applies one V-cycle from a zero guess;
    it is symmetric positive definite, as solve_cg's M must be.  Raises
    SolverError if A has a non-finite entry, if any level's diagonal is not
    positive and finite, or if the coarsest level is not positive definite.
    """
    A = sparse.csr_matrix(A)
    if not np.all(np.isfinite(A.data)):
        raise SolverError("matrix entries not finite")
    levels = []
    nx, ny = grid.nx, grid.ny
    while (nx + 1) * (ny + 1) > COARSEST_NODES:
        P, R = _prolongation(nx, ny)
        levels.append((A, SMOOTH_OMEGA * _inverse_diagonal(A), P, R))
        A = R @ A @ P
        nx, ny = (nx + 1) // 2, (ny + 1) // 2
    factor = _banded_cholesky(A)

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
