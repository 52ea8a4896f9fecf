"""Grid, interpolation, time-step and dump-format tests."""

import math

import numpy as np
import pytest

from polyflood.grids import (
    Grid1, Grid2,
    gradient, interp_linear, interp_bilinear, clamp_to_unit,
    time_step, write_field,
)


def test_grid_basics():
    g = Grid2(8, 4)
    assert g.hx == 0.125 and g.hy == 0.25
    assert g.shape == (5, 9) and g.nnodes == 45
    assert g.node_id(0, 0) == 0
    assert g.node_id(8, 4) == 44
    X, Y = g.xy
    assert X[2, 3] == 3 * g.hx and Y[2, 3] == 2 * g.hy
    with pytest.raises(ValueError):
        Grid1(1)
    with pytest.raises(ValueError):
        Grid2(4, 1)



@pytest.mark.parametrize("nx, ny", [(2, 2), (8, 4), (5, 7)])
def test_node_areas_are_the_trapezoid_outer_product(nx, ny):
    g = Grid2(nx, ny)
    wx, wy = g.trapezoid_weights
    areas = g.node_areas
    assert np.array_equal(areas, np.outer(wy, wx) * (g.hx * g.hy))
    assert areas is g.node_areas and areas.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        areas[0, 0] = 1.0

def test_interp_linear_nodes_and_affine():
    g = Grid1(16)
    vals = 2.0 * g.x + 1.0
    assert np.allclose(interp_linear(g, vals, g.x), vals, rtol=0, atol=1e-15)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, 200)
    assert np.allclose(interp_linear(g, vals, pts), 2.0 * pts + 1.0, rtol=0, atol=1e-14)


def test_interp_linear_quadratic_midpoint():
    # for u = x^2 the cell-midpoint error is exactly h^2/4
    g = Grid1(8)
    vals = g.x ** 2
    mids = g.x[:-1] + g.h / 2
    err = interp_linear(g, vals, mids) - mids ** 2
    assert np.allclose(err, g.h ** 2 / 4, rtol=1e-12)


def test_interp_linear_peano_ratio():
    # C^2 data: halving h quarters the worst-case interpolation error
    f = lambda x: np.sin(2.3 * x + 0.7)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, 1000)
    errs = []
    for n in (32, 64):
        g = Grid1(n)
        errs.append(np.max(np.abs(interp_linear(g, f(g.x), pts) - f(pts))))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_interp_range_checks():
    g = Grid1(4)
    vals = np.zeros(5)
    with pytest.raises(ValueError):
        interp_linear(g, vals, -0.01)
    with pytest.raises(ValueError):
        interp_linear(g, vals, 1.5)
    # round-off past the boundary is forgiven
    assert interp_linear(g, g.x.copy(), 1.0 + 1e-13) == pytest.approx(1.0)
    g2, vals2 = Grid2(4, 4), np.zeros((5, 5))
    # a NaN does not hide a point out of range, in either coordinate
    for bad in (-0.01, 1.5, [np.nan, 2.0], [2.0, np.nan], [np.nan, -1.0]):
        with pytest.raises(ValueError):
            interp_bilinear(g2, vals2, bad, 0.5)
        with pytest.raises(ValueError):
            interp_bilinear(g2, vals2, 0.5, bad)
    assert interp_bilinear(g2, vals2, np.array([]), np.array([])).shape == (0,)


def fancy_index_bilinear(grid, values, x, y):
    """Bilinear interpolation as first written, with 2-D fancy indexing:
    the bit-for-bit oracle for interp_bilinear."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
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


def test_interp_bilinear_exactness():
    g = Grid2(8, 8)
    X, Y = g.xy
    rng = np.random.default_rng(5)
    px, py = rng.uniform(0, 1, 300), rng.uniform(0, 1, 300)
    # node identity
    vals = np.sin(X) + Y ** 2
    assert np.allclose(interp_bilinear(g, vals, X.ravel(), Y.ravel()), vals.ravel(),
                       rtol=0, atol=1e-15)
    # bilinear reproduces 1, x, y, xy exactly
    vals = 2.0 * X + 3.0 * Y - 1.0 + 0.5 * X * Y
    exact = 2.0 * px + 3.0 * py - 1.0 + 0.5 * px * py
    assert np.allclose(interp_bilinear(g, vals, px, py), exact, rtol=0, atol=1e-14)
    # bit for bit the fancy-index form, on random points, on x = 1 and
    # y = 1, and within round-off outside [0, 1], on grids of unequal sides
    edge = np.array([0.0, 1.0, -1e-12, 1.0 + 1e-12, -5e-13, 1.0 + 5e-13])
    qx = np.concatenate([px, np.ones(6), edge, rng.uniform(0, 1, 6)])
    qy = np.concatenate([py, edge, np.ones(6), edge])
    for g in (Grid2(8, 8), Grid2(5, 9), Grid2(2, 3)):
        vals = rng.normal(size=g.shape)
        assert np.array_equal(interp_bilinear(g, vals, qx, qy),
                              fancy_index_bilinear(g, vals, qx, qy))


def test_interp_bilinear_keeps_the_shape_of_its_points():
    g = Grid2(5, 9)
    rng = np.random.default_rng(21)
    vals = rng.normal(size=g.shape)
    px, py = rng.uniform(0, 1, (2, *g.shape))
    got = interp_bilinear(g, vals, px, py)
    assert got.shape == g.shape
    assert np.array_equal(got.ravel(),
                          interp_bilinear(g, vals, px.ravel(), py.ravel()))


def test_time_step_lands_a_march_on_its_end():
    assert time_step(0.0, 0.03, 0.1) == 0.03
    assert time_step(0.09, 0.03, 0.1) == 0.1 - 0.09
    assert time_step(0.1 - 1e-14, 0.03, 0.1) == 0.0
    assert time_step(0.0, 0.03, 0.0) == 0.0
    for t_end in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="end time must be nonnegative"):
            time_step(0.0, 0.03, t_end)
    # a zero step would read as the end of the march
    for dt in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="time step must be positive"):
            time_step(0.0, dt, 0.1)


@pytest.mark.parametrize("shape", [(3, 3), (5, 9), (97, 97), (17,)],
                         ids=["3x3", "5x9", "97x97", "17"])
def test_gradient_matches_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(17)
    u = rng.normal(size=shape)
    for axis in range(len(shape)):
        for h in (1.0 / (shape[axis] - 1), 0.37):
            assert np.array_equal(gradient(u, h, axis=axis),
                                  np.gradient(u, h, axis=axis, edge_order=2))


def test_interp_bilinear_peano_ratio():
    f = lambda x, y: np.sin(2.0 * x) * np.cos(3.0 * y)
    rng = np.random.default_rng(13)
    px, py = rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000)
    errs = []
    for n in (16, 32):
        g = Grid2(n, n)
        X, Y = g.xy
        errs.append(np.max(np.abs(interp_bilinear(g, f(X, Y), px, py) - f(px, py))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_clamp_to_unit():
    assert clamp_to_unit(-0.3) == 0.0
    assert clamp_to_unit(1.7) == 1.0
    pts = np.array([-1.0, 0.25, 2.0])
    assert np.array_equal(clamp_to_unit(pts), [0.0, 0.25, 1.0])


def test_clamp_to_unit_keeps_np_clips_bits():
    # clamp_to_unit calls ndarray.clip, the method np.clip ends in;
    # np.minimum(np.maximum(u, 0.0), 1.0) would turn -0.0 into 0.0
    u = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -0.3, 1.7, 0.25, 1.0,
                  -5e-324, 1.0 + 1e-16])
    for pts in (u, u.reshape(1, -1), list(u)):
        assert np.array_equal(clamp_to_unit(pts).view(np.uint64),
                              np.clip(u, 0.0, 1.0).reshape(np.shape(pts))
                              .view(np.uint64))
    assert math.copysign(1.0, clamp_to_unit(-0.0)) == -1.0


def test_field_validation(tmp_path):
    g = Grid2(4, 4)
    p = tmp_path / "s_000000.txt"
    with pytest.raises(ValueError, match=r"field shape \(4, 5\) does not match "
                                         r"grid \(5, 5\)"):
        write_field(p, g, np.zeros((4, 5)), 0.0, "s")
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="field contains non-finite values"):
        write_field(p, g, bad, 0.0, "s")
    assert not p.exists()


def test_dump_round_trip(tmp_path):
    g = Grid2(8, 4)
    rng = np.random.default_rng(2)
    data = rng.uniform(0, 1, g.shape)
    p = tmp_path / "s_000010.txt"
    write_field(p, g, data, 0.2, "s")
    # the header is a comment to np.loadtxt, which reads the values exactly
    assert np.array_equal(np.loadtxt(p), data)
    first = p.read_text()
    assert first.startswith("# 8 4 0.2 s\n")
    # deterministic bytes on rewrite
    write_field(p, g, data, 0.2, "s")
    assert p.read_text() == first


def test_dump_writes_shortest_round_trip_floats(tmp_path):
    g = Grid2(2, 2)
    values = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 1e-300]
    data = np.zeros(g.shape)
    data.flat[:len(values)] = values
    p = tmp_path / "c_000000.txt"
    write_field(p, g, data, 0.0, "c")
    rows = p.read_text().splitlines()[1:]
    assert rows == [" ".join(repr(float(v)) for v in row) for row in data]
    assert rows[:2] == ["-0.0 5e-324 1e+300", "0.30000000000000004 1e-300 0.0"]
    back = np.loadtxt(p)
    assert np.array_equal(back, data)
    assert np.signbit(back[0, 0])
    assert back[1, 0] == 0.1 + 0.2
