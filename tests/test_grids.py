"""Grid, interpolation, and dump-format tests."""

import numpy as np
import pytest

from polyflood.grids import (
    Grid1, Grid2, Field,
    interp_linear, interp_bilinear, clamp_to_unit,
    write_field, read_field,
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


def test_field_validation():
    g = Grid2(4, 4)
    with pytest.raises(ValueError):
        Field(g, np.zeros((4, 5)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)
    f = Field(g, np.full(g.shape, 0.21), label="s")
    assert f.data.shape == g.shape and f.label == "s"


def test_dump_round_trip(tmp_path):
    g = Grid2(8, 4)
    rng = np.random.default_rng(2)
    fld = Field(g, rng.uniform(0, 1, g.shape), label="s")
    p = tmp_path / "s_000010.txt"
    write_field(p, fld, time=0.2)
    back, t = read_field(p)
    assert t == 0.2 and back.label == "s"
    assert np.array_equal(back.data, fld.data)
    first = p.read_text()
    assert first.startswith("# 8 4 0.2 s\n")
    # deterministic bytes on rewrite
    write_field(p, fld, time=0.2)
    assert p.read_text() == first
