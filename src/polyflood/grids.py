"""Uniform node-centered grids on the unit interval and unit square.

Nodes sit at the lattice points x_i = i*hx, y_j = j*hy including the
boundary, so an nx-by-ny grid carries (nx+1)*(ny+1) nodes.  2-D fields
are stored as arrays of shape (ny+1, nx+1) indexed [j, i], row j holding
the nodes at height y_j.  Interpolation is piecewise linear (bilinear on
the square), as the characteristic tracing reads fields at foot points.
write_field alone states the dump format, time_step how a march ends.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Grid1", "Grid2",
    "gradient", "interp_linear", "interp_bilinear", "clamp_to_unit",
    "time_step", "write_field",
]

# slack for "point inside [0, 1]" checks; anything worse is a caller bug,
# not round-off
_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class Grid1:
    """Uniform grid on [0, 1] with n cells, n + 1 nodes."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two cells")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)


@dataclass(frozen=True)
class Grid2:
    """Uniform grid on the unit square, nx by ny cells."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least two cells per direction")
        # numpy refuses a float array of more bytes than an intp counts
        # with a ValueError; a grid whose node arrays are that large is
        # one too large to allocate
        if self.nnodes > sys.maxsize // 8:
            raise MemoryError(f"a {self.nx} x {self.ny} grid has more nodes "
                              "than a float array can hold")

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def shape(self):
        return (self.ny + 1, self.nx + 1)

    @property
    def nnodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def node_id(self, i, j):
        """Flat index of node (i, j); the flat order matches array.ravel()."""
        return j * (self.nx + 1) + i

    @cached_property
    def xy(self):
        """Meshgrid coordinate arrays (X, Y), each of shape (ny+1, nx+1)."""
        return np.meshgrid(np.linspace(0.0, 1.0, self.nx + 1),
                           np.linspace(0.0, 1.0, self.ny + 1))

    @cached_property
    def trapezoid_weights(self):
        """Per-direction node weights (wx, wy): 1 inside, 1/2 on the walls.

        The trapezoidal control area of node (i, j) is wx[i]*wy[j]*hx*hy.
        """
        wx = np.ones(self.nx + 1)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(self.ny + 1)
        wy[0] = wy[-1] = 0.5
        return wx, wy

    @cached_property
    def node_areas(self) -> np.ndarray:
        """Trapezoidal control area of every node, read-only."""
        wx, wy = self.trapezoid_weights
        areas = np.outer(wy, wx) * (self.hx * self.hy)
        areas.flags.writeable = False
        return areas


def _check_unit_range(u, name):
    u = np.asarray(u, dtype=float)
    # fmin and fmax skip NaN, as the comparisons they replace do, and the
    # initial values let an empty u pass
    if (np.fmin.reduce(u, axis=None, initial=0.0) < -_RANGE_TOL
            or np.fmax.reduce(u, axis=None, initial=1.0) > 1.0 + _RANGE_TOL):
        raise ValueError(f"{name} outside [0, 1] beyond round-off")
    return clamp_to_unit(u)


def clamp_to_unit(u):
    """Clamp coordinates onto [0, 1] componentwise."""
    return np.asarray(u, dtype=float).clip(0.0, 1.0)


def gradient(u, h, axis=0):
    """np.gradient(u, h, axis=axis, edge_order=2) of a float array u with
    uniform spacing h, bit for bit: numpy's terms in numpy's operation
    order, without its argument handling.  Central differences inside,
    one-sided second-order ones at both ends."""
    out = np.empty_like(u)
    f, g = u.swapaxes(0, axis), out.swapaxes(0, axis)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
    g[0] = a * f[0] + b * f[1] + c * f[2]
    a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
    g[-1] = a * f[-3] + b * f[-2] + c * f[-1]
    return out


def interp_linear(grid: Grid1, values: np.ndarray, x):
    """Piecewise-linear interpolation of nodal values at points x in [0, 1]."""
    x = _check_unit_range(x, "interpolation point")
    return np.interp(x, grid.x, values)


def interp_bilinear(grid: Grid2, values: np.ndarray, x, y):
    """Bilinear interpolation of nodal values at points (x, y), in their shape."""
    x = _check_unit_range(x, "interpolation point x") * grid.nx
    y = _check_unit_range(y, "interpolation point y") * grid.ny
    ix = np.minimum(x.astype(np.int64), grid.nx - 1)
    jy = np.minimum(y.astype(np.int64), grid.ny - 1)
    tx = x - ix
    ty = y - jy
    ux = 1.0 - tx
    # the four corners by flat index; a row holds nx + 1 nodes
    k = jy * (grid.nx + 1) + ix
    v00, v10 = values.take(k), values.take(k + 1)
    k += grid.nx + 1
    v01, v11 = values.take(k), values.take(k + 1)
    return (1.0 - ty) * (ux * v00 + tx * v10) + ty * (ux * v01 + tx * v11)


def time_step(t: float, dt: float, t_end: float) -> float:
    """The step of a march from t to t_end: dt, the last one shortened to
    land on t_end, and 0.0 once t is within 1e-12 * max(1, t_end) of it."""
    if not 0.0 <= t_end < np.inf:
        raise ValueError("end time must be nonnegative and finite")
    if not 0.0 < dt < np.inf:  # a zero step would end the march at t
        raise ValueError("time step must be positive and finite")
    return 0.0 if t >= t_end - 1e-12 * max(1.0, t_end) else min(dt, t_end - t)


def write_field(path, grid: Grid2, values, time: float, label: str) -> None:
    """Dump a grid's nodal values as text: header '# nx ny time label', one
    grid row per line, x-ordered values, y increasing downward through the file.

    Floats are written in shortest round-trip form, so identical states
    produce byte-identical files and np.loadtxt(path) recovers them exactly.
    A wrong shape or a non-finite value raises ValueError and writes nothing.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    lines = [f"# {grid.nx} {grid.ny} {float(time)!r} {label}".rstrip()]
    lines += (" ".join(map(repr, row)) for row in values.tolist())
    Path(path).write_text("\n".join(lines) + "\n")
