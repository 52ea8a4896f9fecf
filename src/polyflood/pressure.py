"""P1 finite-element pressure solve for the total-velocity formulation.

The pressure equation is the elliptic balance

    -div(K lam(s, c) grad p) = q,

with no-flow (homogeneous Neumann) walls and a balanced pair of corner
point sources: injection +Q at (0, 0), production -Q at (1, 1).  Each grid
cell is split along its anti-diagonal into two P1 triangles, and the
element coefficient K*lam is taken as the arithmetic mean of its three
vertex values.  Per-triangle data is held as a (2, ny, nx) array, lower
then upper triangle of each cell, sliced from the nodal arrays; the split
itself is stated once, in `element_coefficients`.  Assembly is per edge:
every grid edge sums the stiffness of its two neighbouring triangles into
one face coefficient, and the anti-diagonal split couples no diagonal
neighbours, so the operator is a 5-point one.  It is symmetric positive
semidefinite with the constant null vector; the solve pins the pressure to
zero at the production corner (linsolve.pinned) and runs multigrid-
preconditioned conjugate gradients on the pinned system.

The total velocity v = -K lam grad p is recovered from the P1 solution
triangle by triangle and averaged to nodes, which is the field the
characteristic tracing in the transport step consumes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid2
from .linsolve import SparseSystem, five_point, multigrid, pinned, solve_cg

__all__ = ["WellConfig", "injection_density", "element_coefficients",
           "assemble_pressure", "solve_pressure", "recover_velocity"]


@dataclass(frozen=True)
class WellConfig:
    """Quarter five-spot well pair: inject at (0, 0), produce at (1, 1).

    Both wells carry the same rate Q, so the discrete source terms always
    sum to zero; rate 0 means no wells.  With radius = 0 each well is a
    point source lumped to its corner node.  A positive radius spreads the
    same total rate over a smooth bump of that physical size instead; the
    bump is grid independent, which keeps the velocity field bounded under
    refinement and is what the convergence studies use.
    """

    rate: float
    c_injected: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        # written so that NaN fails the test too
        if not 0.0 <= self.rate < math.inf:
            raise ValueError("well rate must be nonnegative and finite")
        if not 0.0 <= self.c_injected < math.inf:
            raise ValueError("injected concentration must be nonnegative "
                             "and finite")
        if not 0.0 <= self.radius <= 0.5:
            raise ValueError("well radius must lie in [0, 0.5]")


# one entry per (shape, wells): a flood takes 1, a verify pass 5 (4 shapes at
# Q = 1, N = 16 at Q = 1.5; a repeat misses none), the CLI's studies 4 and 1
@functools.lru_cache(maxsize=16)
def _well_sources(nx: int, ny: int, wells: WellConfig):
    """Read-only pressure load (flat) and injection density (nodal) of a
    well pair, built and balance-checked once per grid shape and wells.

    This is the one place that tells point wells from bumps.  Each well's
    density is rate * shape / sum(shape * node area), so over the node
    control areas it injects exactly the rate.  A bump well's shape is a
    cos^2 bump of the well radius about its corner; a point well is the
    zero-radius case, whose shape is its corner node's indicator, so its
    density is Q over the corner's control area hx*hy/4.  The load is the
    area-weighted difference of the two densities.  The key is the shape,
    not a Grid2, so the cache keeps no run's grid (and the coordinates it
    caches) alive.
    """
    grid = Grid2(nx, ny)
    X, Y = grid.xy
    areas = grid.node_areas
    densities = []
    for cx, cy in ((0.0, 0.0), (1.0, 1.0)):
        # the corners are grid nodes, so r is exactly 0 at the well's node
        r = np.hypot(X - cx, Y - cy)
        if wells.radius == 0.0:
            shape = np.where(r == 0.0, 1.0, 0.0)
        else:
            shape = np.where(r < wells.radius,
                             np.cos(np.pi * r / (2.0 * wells.radius)) ** 2, 0.0)
        densities.append(wells.rate * shape / float(np.sum(shape * areas)))
    density, prod = densities
    load = ((density - prod) * areas).ravel()
    if abs(load.sum()) > 1e-12 * wells.rate:
        raise ValueError("well sources do not balance")
    load.flags.writeable = False
    density.flags.writeable = False
    return load, density


def injection_density(grid: Grid2, wells: WellConfig) -> np.ndarray:
    """Nodal source density of the injection well, zero for a zero rate;
    it is shared between calls and read-only."""
    return _well_sources(grid.nx, grid.ny, wells)[1]


def element_coefficients(grid: Grid2, lam, K=1.0):
    """Per-triangle K*lam from the nodal total mobility lam, the
    arithmetic mean of the three vertex values.

    This is the one statement of the P1 split.  Each cell (i, j) is cut
    along its anti-diagonal into a lower triangle with vertices (i, j),
    (i+1, j), (i, j+1) and an upper triangle with vertices (i+1, j),
    (i+1, j+1), (i, j+1).  Per-triangle data is held as a (2, ny, nx)
    array indexed [triangle, j, i], lower triangle first.
    """
    coef = (np.asarray(K, dtype=float) * lam).reshape(grid.shape)
    tri = np.empty((2, grid.ny, grid.nx))
    tri[0] = (coef[:-1, :-1] + coef[:-1, 1:] + coef[1:, :-1]) / 3.0
    tri[1] = (coef[:-1, 1:] + coef[1:, 1:] + coef[1:, :-1]) / 3.0
    if (tri <= 0.0).any() or not np.isfinite(tri).all():
        raise ValueError("element coefficient K*lam must be positive and finite")
    return tri


def assemble_pressure(grid: Grid2, s, c, model,
                      wells: WellConfig = WellConfig(rate=0.0),
                      K=1.0, coef=None) -> SparseSystem:
    """Assemble the pure-Neumann pressure system with corner well sources;
    the default, a zero rate, gives a zero right-hand side.  coef, when
    given, is element_coefficients of the mobility at (s, c) with K, and
    is read in place of evaluating the laws.

    A horizontal edge is the bottom edge of a lower triangle and the top
    edge of the upper triangle below it; a vertical edge is the left edge
    of a lower triangle and the right edge of the upper triangle to its
    left.  Each edge sums the stiffness coupling of those two triangles.
    """
    if coef is None:
        coef = element_coefficients(grid, model.mobilities(s, c)[2], K)
    lower, upper = coef
    # within one triangle an x edge couples its end nodes by area/hx^2
    # times the element coefficient, a y edge by area/hy^2
    area = grid.hx * grid.hy / 2.0
    kx, ky = area * (1.0 / grid.hx ** 2), area * (1.0 / grid.hy ** 2)
    fx = np.zeros((grid.ny + 1, grid.nx))
    fx[:-1] += kx * lower
    fx[1:] += kx * upper
    fy = np.zeros((grid.ny, grid.nx + 1))
    fy[:, :-1] += ky * lower
    fy[:, 1:] += ky * upper
    A = five_point(grid, fx, fy)

    rhs = _well_sources(grid.nx, grid.ny, wells)[0].copy()
    return SparseSystem(A, rhs, pure_neumann=True)


def solve_pressure(system: SparseSystem, grid: Grid2, tol: float = 1e-10,
                   x0=None) -> np.ndarray:
    """Solve the gauged system; returns nodal pressure of shape (ny+1, nx+1).

    The production corner is pinned to zero, which removes the constant
    null space and fixes the gauge every caller shares: on a copy of the
    matrix (linsolve.pinned) that node's equation becomes p = 0, so the
    system keeps the grid's shape for the multigrid preconditioner.  A
    system that is not pure Neumann raises ValueError.
    """
    if not system.pure_neumann:
        raise ValueError("solve_pressure pins a node: it wants a pure-Neumann system")
    pin = grid.node_id(grid.nx, grid.ny)
    A = pinned(system.matrix, pin)
    b = np.array(system.rhs, dtype=float)
    b[pin] = 0.0
    M = multigrid(A, grid)
    p = solve_cg(A, b, M, tol=tol,
                 x0=None if x0 is None else np.asarray(x0).ravel())
    # the pinned equation is decoupled, so its exact solution is 0 whatever
    # the preconditioner's coarse correction left there
    p[pin] = 0.0
    return p.reshape(grid.shape)


def recover_velocity(grid: Grid2, p, s, c, model, K=1.0, coef=None):
    """Total velocity -K lam grad p, averaged from triangles to nodes.

    The per-triangle P1 gradient is constant; each node receives the mean
    of the velocities of its adjacent triangles, summed in triangle order
    (cell by cell, lower before upper).  Returns (vx, vy) arrays of shape
    (ny+1, nx+1).  coef is read as in assemble_pressure.
    """
    if coef is None:
        coef = element_coefficients(grid, model.mobilities(s, c)[2], K)
    p = np.asarray(p).reshape(grid.shape)
    dx = (p[:, 1:] - p[:, :-1]) / grid.hx
    dy = (p[1:] - p[:-1]) / grid.hy
    # per triangle: [vx, vy, 1], so one node sum also counts the triangles
    vals = np.empty((3, 2, grid.ny, grid.nx))
    vals[0, 0], vals[0, 1] = dx[:-1], dx[1:]
    vals[1, 0], vals[1, 1] = dy[:, :-1], dy[:, 1:]
    np.multiply(-coef, vals[:2], out=vals[:2])
    vals[2] = 1.0
    lower, upper = vals[:, 0], vals[:, 1]
    nodes = np.zeros((3,) + grid.shape)
    # the six triangles at node (i, j), in triangle order: upper of cell
    # (i-1, j-1), both of (i, j-1), both of (i-1, j), lower of (i, j)
    nodes[:, 1:, 1:] += upper
    nodes[:, 1:, :-1] += lower
    nodes[:, 1:, :-1] += upper
    nodes[:, :-1, 1:] += lower
    nodes[:, :-1, 1:] += upper
    nodes[:, :-1, :-1] += lower
    return nodes[0] / nodes[2], nodes[1] / nodes[2]
