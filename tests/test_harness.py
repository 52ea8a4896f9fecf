"""Refinement-harness tests: norm closed forms, order arithmetic,
breakthrough detection, study validation, and the CSV contract."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polyflood import harness
from polyflood.config import ConfigError, RunConfig
from polyflood.grids import Grid1, Grid2
from polyflood.harness import (
    STUDY_BASE, ErrorRecord, RefinementStudy, _difference, _norms,
    run_spatial_study, run_temporal_study, restrict_to_coarse, error_norms_1d,
    observed_order, write_records_csv, format_records,
)
from polyflood.simulate import run_simulation
from polyflood.transport import State


def test_restriction_picks_shared_nodes():
    fine, coarse = Grid2(16, 8), Grid2(4, 4)
    X, Y = fine.xy
    vals = np.sin(X) + Y ** 2
    sub = restrict_to_coarse(vals, fine, coarse)
    Xc, Yc = coarse.xy
    assert sub.shape == coarse.shape
    assert np.array_equal(sub, np.sin(Xc) + Yc ** 2)


def test_restriction_rejects_non_nested():
    with pytest.raises(ValueError):
        restrict_to_coarse(np.zeros((7, 7)), Grid2(6, 6), Grid2(4, 4))


def _state(grid, **fields):
    """A State on grid with the named fields set and the others 0."""
    zero = np.zeros(grid.shape)
    return State(grid, 0.0, *(fields.get(name, zero)
                              for name in ("s", "c", "p", "vx", "vy")))


def _study_error(var, state, ref):
    """A study's (e2, emax) of variable var: its one path, as _run_study."""
    return _norms(_difference(var, state, ref), state.grid.hx, state.grid.hy)


def test_study_errors_of_identical_fields_vanish():
    g, G = Grid2(4, 4), Grid2(8, 8)
    vals = np.random.default_rng(3).normal(size=G.shape)
    for var in "sp":
        ref = _state(G, **{var: vals})
        state = _state(g, **{var: restrict_to_coarse(vals, G, g)})
        e2, emax = _study_error(var, state, ref)
        assert e2 == 0.0 and emax == 0.0, var


def test_study_error_of_a_constant_offset_closed_form():
    # |d| at every node: e2 = d * sqrt(n_nodes * hx * hy), emax = d
    g = Grid2(4, 4)
    d = 0.37
    zero = _state(g)
    for var in "sp":
        e2, emax = _study_error(var, _state(g, **{var: np.full(g.shape, d)}), zero)
        assert np.isclose(e2, d * 1.25, rtol=1e-14)  # sqrt(25/16) = 5/4
        assert emax == d

        # scaling the difference scales both norms linearly
        e2b, emaxb = _study_error(var, _state(g, **{var: np.full(g.shape, 2 * d)}),
                                  zero)
        assert np.isclose(e2b, 2 * e2, rtol=1e-14) and emaxb == 2 * emax


def test_study_errors_obey_the_triangle_inequality():
    g = Grid2(8, 8)
    rng = np.random.default_rng(5)
    for var in "sp":
        a, b, z = (_state(g, **{var: rng.normal(size=g.shape)}) for _ in range(3))
        ab = _study_error(var, a, b)
        az = _study_error(var, a, z)
        zb = _study_error(var, z, b)
        assert ab[0] <= az[0] + zb[0] + 1e-14, var
        assert ab[1] <= az[1] + zb[1] + 1e-14, var


def test_error_norms_1d_callable_and_array():
    g = Grid1(8)
    vals = g.x ** 2
    e2, emax = error_norms_1d(g, vals, vals - 0.5)
    assert np.isclose(e2, 0.5 * np.sqrt(9 * g.h), rtol=1e-14)
    assert emax == 0.5


def test_observed_order_round_trips():
    assert np.isclose(observed_order(8e-3, 4e-3), 1.0, rtol=1e-14)
    assert np.isclose(observed_order(4e-3, 1e-3), 2.0, rtol=1e-14)
    assert np.isclose(observed_order(4.39e-3, 1.85e-3),
                      1.2466956690190458, rtol=1e-14)
    # invariant under common rescaling of both errors
    assert np.isclose(observed_order(7e-5, 2e-5),
                      observed_order(7e2, 2e2), rtol=1e-14)


def test_observed_order_rejects_nonpositive():
    for pair in [(0.0, 1e-3), (1e-3, 0.0), (-1e-3, 1e-3)]:
        with pytest.raises(ValueError):
            observed_order(*pair)


def test_a_study_with_zero_errors_leaves_its_orders_undefined():
    # at t = 0 every level restricts the reference's initial state exactly,
    # so every error is 0; the study once raised observed_order's ValueError
    study = RefinementStudy("spatial", (4, 8), 16, replace(STUDY_BASE, tstop=0.0))
    records = run_spatial_study(study)
    assert [r.variable for r in records] == ["s", "s", "p", "p", "v", "v"]
    for r in records:
        assert r.e2 == r.emax == 0.0
        assert r.order2 is None and r.orderinf is None


def test_velocity_rows_are_the_norms_of_the_vector_difference():
    base = replace(STUDY_BASE, tstop=0.06)
    records = run_spatial_study(RefinementStudy("spatial", (2, 4), 8, base))
    # grouped s, p, v, each group coarse to fine
    assert [(r.variable, r.h) for r in records] == [
        (var, h) for var in "spv" for h in (0.5, 0.25)]
    ref = run_simulation(replace(base, N=8))
    for row, n in zip(records[4:], (2, 4)):
        state = run_simulation(replace(base, N=n, tstop=ref.state.t),
                               stop_at_breakthrough=False).state
        r = 8 // n
        dmag = np.hypot(state.vx - ref.state.vx[::r, ::r],
                        state.vy - ref.state.vy[::r, ::r])
        e2 = float(np.sqrt(np.sum(dmag ** 2) * state.grid.hx * state.grid.hy))
        assert e2 > 0.0
        assert (row.e2, row.emax) == (e2, float(dmag.max()))
    coarse, fine = records[4:]
    assert fine.order2 == observed_order(coarse.e2, fine.e2)
    assert fine.orderinf == observed_order(coarse.emax, fine.emax)


@pytest.mark.parametrize("base, breaks_through", [
    (replace(STUDY_BASE, tstop=0.06), False),
    (RunConfig(dt=0.02, tstop=5.0, Q=4.0), True)])
def test_each_level_runs_to_the_time_the_reference_ended(base, breaks_through,
                                                        monkeypatch):
    calls = []

    def recording_run(cfg, stop_at_breakthrough=True):
        result = run_simulation(cfg, stop_at_breakthrough)
        calls.append((cfg, stop_at_breakthrough, result))
        return result

    monkeypatch.setattr(harness, "run_simulation", recording_run)
    run_spatial_study(RefinementStudy("spatial", (2, 4), 8, base))
    (ref_cfg, ref_stops, ref), *levels = calls
    assert ref_cfg == replace(base, N=8) and ref_stops
    t_star = ref.state.t
    bt = ref.summary.breakthrough_time
    if breaks_through:
        assert bt is not None and t_star == bt < base.tstop
    else:
        assert bt is None and t_star == pytest.approx(base.tstop, abs=1e-12)
    assert [cfg.N for cfg, _, _ in levels] == [2, 4]
    for cfg, stops, result in levels:
        assert cfg.tstop == t_star and not stops
        assert cfg == replace(base, N=cfg.N, tstop=t_star)
        assert result.state.t == pytest.approx(t_star, abs=1e-12)


def test_study_validation():
    base = RunConfig()
    RefinementStudy("spatial", (8, 16, 32), 64, base)  # well formed
    RefinementStudy("temporal", (0.05, 0.025), 0.0125, base)

    with pytest.raises(ConfigError):
        RefinementStudy("spectral", (8, 16), 32, base)
    with pytest.raises(ConfigError):
        RefinementStudy("spatial", (8,), 64, base)
    with pytest.raises(ConfigError):
        RefinementStudy("spatial", (8, 8, 16), 64, base)
    with pytest.raises(ConfigError):
        RefinementStudy("spatial", (16, 8), 64, base)  # not ascending
    with pytest.raises(ConfigError):
        RefinementStudy("spatial", (8, 12), 64, base)  # 64 % 12 != 0
    with pytest.raises(ConfigError):
        RefinementStudy("temporal", (0.025, 0.05), 0.0125, base)  # ascending
    with pytest.raises(ConfigError):
        RefinementStudy("temporal", (0.05, 0.025), 0.025, base)  # not finer


def test_each_study_runner_refuses_a_study_of_the_other_mode():
    base = RunConfig(N=8, tstop=0.0)
    spatial = RefinementStudy("spatial", (2, 4), 8, base)
    temporal = RefinementStudy("temporal", (0.05, 0.025), 0.0125, base)
    with pytest.raises(ConfigError, match="run_spatial_study wants a "
                                          "spatial-mode study"):
        run_spatial_study(temporal)
    with pytest.raises(ConfigError, match="run_temporal_study wants a "
                                          "temporal-mode study"):
        run_temporal_study(spatial)


def test_a_ladder_that_does_not_halve_is_refused():
    # the log2 orders assume halving: on the CLI's study base at
    # tstop = 0.1, levels 4, 12 printed an s order of 3.475 where the
    # true ratio of 3 gives 2.19, and at N = 8 steps 0.04, 0.01 printed
    # 2.54 for a rate of about 1.27
    base = RunConfig()
    for mode, levels, reference in (("spatial", (4, 12), 24),
                                    ("spatial", (4, 8, 32), 64),
                                    ("temporal", (0.04, 0.01), 0.005),
                                    ("temporal", (0.05, 0.025, 0.0125 * 0.9),
                                     0.001)):
        with pytest.raises(ConfigError, match="must halve"):
            RefinementStudy(mode, levels, reference, base)
    # the reference is finer than the last level, in space a multiple of it
    RefinementStudy("spatial", (4, 8), 24, base)
    RefinementStudy("temporal", (0.05, 0.025), 0.02, base)
    for mode, levels, reference in (("spatial", (4, 8), 12),
                                    ("spatial", (4, 8), 8),
                                    ("temporal", (0.05, 0.025), 0.025)):
        with pytest.raises(ConfigError, match="finer than the last level"):
            RefinementStudy(mode, levels, reference, base)


def test_spatial_study_wants_integral_grid_sizes():
    # 2.5 once ran as N = 2 and a reference of 8.7 as 8
    base = RunConfig()
    RefinementStudy("spatial", (4.0, 8), 16.0, base)  # integral floats pass
    for levels, reference in (((2.5, 4), 8), ((2, 4), 8.7), ((4, 8), math.inf)):
        with pytest.raises(ConfigError, match="integers"):
            RefinementStudy("spatial", levels, reference, base)


def test_temporal_study_wants_positive_finite_steps():
    # an infinite, zero or negative step once passed construction, so the
    # CLI ran the whole reference before RunConfig rejected a level
    base = RunConfig()
    RefinementStudy("temporal", (0.05, 0.025), 0.0125, base)
    for levels, reference in (((math.inf, 0.05), 0.01), ((0.05, 0.025), 0.0),
                              ((0.05, 0.025), -1.0), ((0.05, -0.025), -0.05),
                              ((math.nan, 0.05), 0.01), ((0.05, 0.025), math.nan)):
        with pytest.raises(ConfigError, match="positive and finite"):
            RefinementStudy("temporal", levels, reference, base)


def test_record_defaults():
    r = ErrorRecord("s", 0.125, 0.02, 1e-3, 2e-3)
    assert r.order2 is None and r.orderinf is None and r.time == 0.0


def test_csv_contract(tmp_path):
    records = [
        ErrorRecord("s", 0.125, 0.02, 1.5e-3, 4.0e-3, None, None, 0.25),
        ErrorRecord("s", 0.0625, 0.02, 7.5e-4, 2.0e-3, 1.0, 1.0, 1.0),
    ]
    path = tmp_path / "study.csv"
    write_records_csv(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "variable,h,dt,e2,order2,emax,orderinf,time"
    first = lines[1].split(",")
    assert first[0] == "s"
    assert first[4] == "" and first[6] == ""  # no order on the first level
    second = lines[2].split(",")
    assert float(second[4]) == 1.0 and float(second[6]) == 1.0
    # round trip of the numeric columns
    assert np.isclose(float(first[3]), 1.5e-3, rtol=1e-12)

    table = format_records(records)
    assert "var" in table.splitlines()[0]
    assert len(table.splitlines()) == len(records) + 2  # header + rule
