"""Symmetric sparse systems, their 5-point builder, and a Jacobi-preconditioned
conjugate gradient.

The solver is deliberately hand-rolled: the stopping test is an explicit
relative residual, iterates are deterministic, and failure raises with the
final residual attached instead of returning an info flag to ignore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = ["SparseSystem", "SolverError", "five_point", "solve_cg"]


class SolverError(RuntimeError):
    """Iterative solve failed; carries the last relative residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (relative residual {residual:.3e} "
                         f"after {iterations} iterations)")
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


def five_point(grid, fx, fy, mass=0.0) -> sparse.csr_matrix:
    """Symmetric 5-point operator on a Grid2's nodes from face coefficients.

    fx[j, i] couples node (i, j) to (i+1, j), shape (ny+1, nx); fy[j, i]
    couples (i, j) to (i, j+1), shape (ny, nx+1).  Each face enters its two
    rows as -f off the diagonal and +f on it, so the diagonal is mass plus
    the node's face coefficients and mass = 0 gives zero row sums.
    """
    if fx.shape != (grid.ny + 1, grid.nx) or fy.shape != (grid.ny, grid.nx + 1):
        raise ValueError(f"face coefficients of shape {fx.shape}, {fy.shape} "
                         f"do not fit a {grid.nx}x{grid.ny} grid")
    # zero faces past the walls: right of the last column (which also
    # blanks the wrap-around entries of the +-1 diagonals) and beyond the
    # first and last rows
    east = np.pad(fx, ((0, 0), (0, 1)))
    west = np.pad(fx, ((0, 0), (1, 0)))
    north = np.pad(fy, ((0, 1), (0, 0)))
    south = np.pad(fy, ((1, 0), (0, 0)))
    diag = mass + east + west + north + south
    side = -east.ravel()[:-1]
    vert = -fy.ravel()
    row = grid.nx + 1
    return sparse.diags([diag.ravel(), side, side, vert, vert],
                        [0, 1, -1, row, -row], format="csr")


def solve_cg(A, b, tol: float = 1e-10, max_iter: int | None = None, x0=None):
    """Conjugate gradient with Jacobi preconditioning.

    Stops when ||b - A x||_2 <= tol * ||b||_2; a zero right-hand side
    returns the zero vector.  Raises SolverError at once on a non-finite
    right-hand side, on breakdown (including a NaN curvature p.Ap), or if
    the tolerance is not met within max_iter iterations.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    norm_b = np.linalg.norm(b)
    if not np.isfinite(norm_b):
        raise SolverError("right-hand side is not finite", np.nan, 0)
    if norm_b == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = 40 * n + 200

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix diagonal not positive", np.inf, 0)
    inv_diag = 1.0 / diag

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    res = np.linalg.norm(r) / norm_b
    if res <= tol:
        return x

    for k in range(1, max_iter + 1):
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
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new

    raise SolverError("conjugate gradient did not converge", res, max_iter)
