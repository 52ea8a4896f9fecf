"""Uniform node-centered grids on the unit interval and unit square.

Nodes sit at the lattice points x_i = i*hx, y_j = j*hy including the
boundary, so an nx-by-ny grid carries (nx+1)*(ny+1) nodes.  Two-dimensional
fields are stored as arrays of shape (ny+1, nx+1) indexed [j, i], row j
holding the nodes at height y_j.  Interpolation is piecewise linear
(bilinear on the square), which is what the characteristic tracing uses to
read fields at foot points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Grid1", "Grid2", "Field",
    "interp_linear", "interp_bilinear", "clamp_to_unit",
    "write_field", "read_field",
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

    @property
    def shape(self):
        return (self.n + 1,)

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
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx + 1)

    @cached_property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny + 1)

    @cached_property
    def xy(self):
        """Meshgrid coordinate arrays (X, Y), each of shape (ny+1, nx+1)."""
        return np.meshgrid(self.x, self.y)

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


@dataclass
class Field:
    """Nodal scalar field bound to its grid."""

    grid: Grid1 | Grid2
    data: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.data.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field contains non-finite values")


def _check_unit_range(u, name):
    u = np.asarray(u, dtype=float)
    if np.any(u < -_RANGE_TOL) or np.any(u > 1.0 + _RANGE_TOL):
        raise ValueError(f"{name} outside [0, 1] beyond round-off")
    return np.clip(u, 0.0, 1.0)


def clamp_to_unit(u):
    """Clamp coordinates onto [0, 1] componentwise."""
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0)


def interp_linear(grid: Grid1, values: np.ndarray, x):
    """Piecewise-linear interpolation of nodal values at points x in [0, 1]."""
    x = _check_unit_range(x, "interpolation point")
    return np.interp(x, grid.x, values)


def interp_bilinear(grid: Grid2, values: np.ndarray, x, y):
    """Bilinear interpolation of a (ny+1, nx+1) nodal array at points (x, y)."""
    x = _check_unit_range(x, "interpolation point x")
    y = _check_unit_range(y, "interpolation point y")
    ix = np.minimum((x * grid.nx).astype(np.int64), grid.nx - 1)
    jy = np.minimum((y * grid.ny).astype(np.int64), grid.ny - 1)
    tx = x * grid.nx - ix
    ty = y * grid.ny - jy
    v00 = values[jy, ix]
    v10 = values[jy, ix + 1]
    v01 = values[jy + 1, ix]
    v11 = values[jy + 1, ix + 1]
    return ((1.0 - ty) * ((1.0 - tx) * v00 + tx * v10)
            + ty * ((1.0 - tx) * v01 + tx * v11))


def write_field(path, fld: Field, time: float) -> None:
    """Dump a 2-D field as text: header '# nx ny time label', one grid row
    per line, x-ordered values, y increasing downward through the file.

    Floats are written in shortest round-trip form, so identical states
    produce byte-identical files and reads recover values exactly.
    """
    grid = fld.grid
    if not isinstance(grid, Grid2):
        raise TypeError("field dumps are defined for 2-D grids")
    lines = [f"# {grid.nx} {grid.ny} {float(time)!r} {fld.label}".rstrip()]
    for row in fld.data:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field(path):
    """Read a field dump back; returns (Field, time)."""
    text = Path(path).read_text().strip().split("\n")
    header = text[0]
    if not header.startswith("#"):
        raise ValueError("missing field header line")
    parts = header[1:].split()
    nx, ny, time = int(parts[0]), int(parts[1]), float(parts[2])
    label = parts[3] if len(parts) > 3 else ""
    data = np.array([[float(tok) for tok in line.split()] for line in text[1:]])
    grid = Grid2(nx, ny)
    if data.shape != grid.shape:
        raise ValueError(f"dump body {data.shape} does not match header grid {grid.shape}")
    return Field(grid, data, label), time
