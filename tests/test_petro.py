"""Constitutive-law tests: frozen closed-form values, derivative cross-checks,
and sign/monotonicity sweeps over the full clamped saturation range."""

import functools
from dataclasses import fields

import numpy as np
import pytest

from polyflood import PetroModel
from polyflood.petro import PairLaws

# classic data set used throughout: 10:1 viscosity contrast, m = 2/3
MODEL = PetroModel()


def test_effective_saturation_mapping():
    m = MODEL
    # interior point, exact rational
    assert np.isclose(m.effective_saturation(0.21), 0.11 / 0.9, rtol=1e-14)
    # clamp at both ends, and totality on wild inputs
    assert m.effective_saturation(m.s_ra) == m.eps_sat
    assert m.effective_saturation(-5.0) == m.eps_sat
    assert m.effective_saturation(1.0) == 1.0 - m.eps_sat
    assert m.effective_saturation(37.0) == 1.0 - m.eps_sat
    assert np.all(np.isfinite(m.effective_saturation(np.linspace(-10, 10, 101))))


@pytest.mark.parametrize("s_ra", [PetroModel.s_ra, 0.0])
def test_effective_saturation_keeps_np_clips_bits(s_ra):
    # the clamp calls ndarray.clip, the method np.clip ends in; its bounds
    # are eps_sat away from 0 and 1, so no signed zero can reach them
    m = PetroModel(s_ra=s_ra)
    s = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -5.0, 37.0, s_ra, 0.21,
                  1.0, s_ra + 1e-7, 1.0 - 1e-7])
    expected = np.clip((s - s_ra) / (1.0 - s_ra), m.eps_sat, 1.0 - m.eps_sat)
    assert np.array_equal(m.effective_saturation(s).view(np.uint64),
                          expected.view(np.uint64))


def test_relperm_frozen_values():
    # high-precision evaluation of the closed forms at s_e = 0.25 and 0.5
    assert np.isclose(MODEL.krw(0.25), 0.0036272687257172366, rtol=1e-12)
    assert np.isclose(MODEL.kro(0.25), 0.7247830624878822, rtol=1e-12)
    assert np.isclose(MODEL.krw(0.5), 0.04503500948335188, rtol=1e-12)
    assert np.isclose(MODEL.kro(0.5), 0.3952409047282778, rtol=1e-12)


def test_relperm_endpoints():
    m = MODEL
    lo, hi = m.eps_sat, 1.0 - m.eps_sat
    assert m.krw(lo) < 1e-12 and abs(m.krw(hi) - 1.0) < 1e-3
    assert m.kro(hi) < 1e-3 and abs(m.kro(lo) - 1.0) < 1e-5


def test_relperm_monotone_and_bounded():
    se = np.linspace(MODEL.eps_sat, 1.0 - MODEL.eps_sat, 10_000)
    krw, kro = MODEL.krw(se), MODEL.kro(se)
    assert np.all(np.diff(krw) > 0.0) and np.all(np.diff(kro) < 0.0)
    assert np.all((krw >= 0.0) & (krw <= 1.0))
    assert np.all((kro >= 0.0) & (kro <= 1.0))


def test_capillary_pressure():
    m = MODEL
    # closed form at s_e = 1/2: (2^(3/2) - 1)^(1/3) / alpha0
    assert np.isclose(m.pc(0.5), 9.782485333871791, rtol=1e-12)
    assert np.isclose(m.pc(0.5), (2.0 ** 1.5 - 1.0) ** (1.0 / 3.0) / m.alpha0, rtol=1e-14)
    # vanishes (to clamp resolution) at full effective saturation
    assert m.pc(1.0 - m.eps_sat) < 0.1
    # decreasing in s_e, so dpc_ds <= 0 everywhere
    s = np.linspace(-0.5, 1.5, 10_000)
    assert np.all(m.dpc_ds(s) <= 0.0)
    assert np.isclose(m.dpc_ds(0.5), -18.959695925129608, rtol=1e-12)


def test_pc_domain_error():
    with pytest.raises(ValueError):
        MODEL.pc(0.0)
    with pytest.raises(ValueError):
        MODEL.pc(np.array([0.5, 1.0]))


def test_aqueous_viscosity():
    assert MODEL.aqueous_viscosity(0.0) == MODEL.mu_w
    assert np.isclose(MODEL.aqueous_viscosity(0.1), 3.15, rtol=1e-14)
    c = np.linspace(0.0, 1.0, 100)
    assert np.all(MODEL.aqueous_viscosity(c) >= MODEL.mu_w)


def test_mobilities_and_fractional_flow():
    m = MODEL
    lam_a, lam_o, lam_t = m.mobilities(0.5, 0.0)
    assert np.isclose(lam_a, 0.023078051247508438, rtol=1e-12)
    assert np.isclose(lam_o, 0.0370265275584561, rtol=1e-12)
    assert np.isclose(lam_t, lam_a + lam_o, rtol=1e-15)
    assert np.isclose(m.fractional_flow(0.5, 0.0), 0.38396494420185945, rtol=1e-12)
    assert np.isclose(m.fractional_flow(0.5, 0.1), 0.19956052524512720, rtol=1e-12)
    # thickened water flows less readily
    assert m.fractional_flow(0.5, 0.1) < m.fractional_flow(0.5, 0.0)


def test_fractional_flow_bounds_and_monotonicity():
    s = np.linspace(-0.5, 1.5, 10_000)
    for c in (0.0, 0.05, 0.1):
        f = MODEL.fractional_flow(s, c)
        assert np.all((f >= 0.0) & (f <= 1.0))
        inside = (s > MODEL.s_ra) & (s < 1.0)
        assert np.all(np.diff(f[inside]) >= 0.0)
    # f decreasing in c at fixed s
    c = np.linspace(0.0, 0.5, 1000)
    assert np.all(np.diff(MODEL.fractional_flow(0.5, c)) < 0.0)


def test_total_mobility_positive():
    s = np.linspace(-1.0, 2.0, 5000)
    c = np.linspace(0.0, 0.2, 5000)
    _, _, lam_t = MODEL.mobilities(s, c)
    assert np.all(lam_t > 0.0)


def test_derivatives_frozen_values():
    m = MODEL
    assert np.isclose(m.df_ds(0.5, 0.0), 2.916571715490517, rtol=1e-12)
    assert np.isclose(m.df_ds(0.5, 0.1), 1.9696034416045077, rtol=1e-12)
    assert np.isclose(m.df_dc(0.5, 0.0), -3.548037987388836, rtol=1e-12)
    assert np.isclose(m.df_dc(0.5, 0.1), -0.9584167320540969, rtol=1e-12)


def test_derivatives_match_central_differences():
    # analytic chain rules against second-order differences, step 1e-6,
    # at 100 seeded points away from the clamp bounds
    rng = np.random.default_rng(7)
    s = rng.uniform(0.15, 0.95, 100)
    c = rng.uniform(0.0, 0.2, 100)
    h = 1e-6
    m = MODEL
    fd_ds = (m.fractional_flow(s + h, c) - m.fractional_flow(s - h, c)) / (2 * h)
    fd_dc = (m.fractional_flow(s, c + h) - m.fractional_flow(s, c - h)) / (2 * h)
    fd_pc = (m.pc(m.effective_saturation(s + h)) - m.pc(m.effective_saturation(s - h))) / (2 * h)
    assert np.allclose(m.df_ds(s, c), fd_ds, rtol=1e-5)
    assert np.allclose(m.df_dc(s, c), fd_dc, rtol=1e-5)
    assert np.allclose(m.dpc_ds(s), fd_pc, rtol=1e-5)


def test_capillary_diffusion():
    m = MODEL
    assert np.isclose(m.capillary_diffusion(0.5, 0.0, K=1.0), -0.26954788462937934, rtol=1e-12)
    assert np.isclose(m.capillary_diffusion(0.5, 0.1, K=1.0), -0.14009382431296287, rtol=1e-12)
    assert m.capillary_diffusion(0.5, 0.0, K=0.0) == 0.0
    # composition K lam_o f dpc_ds, checked independently
    lam_o = m.mobilities(0.5, 0.1)[1]
    expect = 2.0 * lam_o * m.fractional_flow(0.5, 0.1) * m.dpc_ds(0.5)
    assert np.isclose(m.capillary_diffusion(0.5, 0.1, K=2.0), expect, rtol=1e-14)


def test_capillary_diffusion_sign_sweep():
    s, c = np.meshgrid(np.linspace(-0.2, 1.2, 100), np.linspace(0.0, 0.3, 100))
    D = MODEL.capillary_diffusion(s, c, K=1.0)
    assert np.all(D <= 0.0)
    assert np.all(np.isfinite(D))


def test_parameter_validation():
    with pytest.raises(ValueError):
        PetroModel(m=1.5)
    with pytest.raises(ValueError):
        PetroModel(s_ra=0.6, s_ro=0.5)
    with pytest.raises(ValueError):
        PetroModel(mu_w=0.0)
    with pytest.raises(ValueError):
        PetroModel(alpha0=-1.0)
    for residuals in ({"s_ro": 1.0}, {"s_ra": -0.1}):
        with pytest.raises(ValueError, match=r"residual saturations must "
                                             r"lie in \[0, 1\)"):
            PetroModel(**residuals)
    with pytest.raises(ValueError, match="thickening slope beta must be "
                                         "nonnegative"):
        PetroModel(beta=-1.0)


def test_the_clamp_margin_is_a_constant_not_a_parameter():
    with pytest.raises(TypeError):
        PetroModel(eps_sat=0.1)
    # the acceptance gate reads it off an instance
    assert PetroModel.eps_sat == PetroModel().eps_sat == 1e-6
    assert "eps_sat" not in {f.name for f in fields(PetroModel)}


def test_each_field_is_computed_once_per_evaluation(monkeypatch):
    # a field is formed on its first read and kept by its own evaluation;
    # read on the class, it is the descriptor with the law's docstring
    kept = [name for name, attr in vars(PairLaws).items()
            if isinstance(attr, functools.cached_property)]
    assert {"dse", "mu_a", "lam", "f", "df_ds", "df_dc", "dpc_ds", "D"} <= set(kept)
    calls = []
    viscosity = PetroModel.aqueous_viscosity
    monkeypatch.setattr(PetroModel, "aqueous_viscosity",
                        lambda model, c: calls.append(c) or viscosity(model, c))
    s = np.linspace(0.0, 1.0, 11)
    laws, other = MODEL.evaluate(s, 0.05), MODEL.evaluate(s, 0.05)
    for name in kept:
        first = getattr(laws, name)
        assert getattr(laws, name) is first and vars(laws)[name] is first
        assert getattr(other, name) is not first
        assert np.array_equal(getattr(other, name), first)
        assert getattr(PairLaws, name) is vars(PairLaws)[name]
    assert len(calls) == 2  # mu_a, once for each evaluation
    assert PairLaws.D.__doc__ == "K lam_o f dpc/ds."
    assert PairLaws.dse.__doc__.startswith("d s_e / d s:")


class FrozenLaws:
    """The laws as each was written alone before they shared one
    evaluation: the bit-for-bit oracle for PetroModel and PairLaws."""

    def __init__(self, model):
        self.p = model

    def effective_saturation(self, s):
        p = self.p
        se = (np.asarray(s, dtype=float) - p.s_ra) / (1.0 - p.s_ra)
        return np.clip(se, p.eps_sat, 1.0 - p.eps_sat)

    def dse_ds(self, s):
        p = self.p
        se_raw = (np.asarray(s, dtype=float) - p.s_ra) / (1.0 - p.s_ra)
        inside = (se_raw > p.eps_sat) & (se_raw < 1.0 - p.eps_sat)
        return np.where(inside, 1.0 / (1.0 - p.s_ra), 0.0)

    def krw(self, se):
        se, m = np.asarray(se, dtype=float), self.p.m
        return np.sqrt(se) * (1.0 - (1.0 - se ** (1.0 / m)) ** m) ** 2

    def kro(self, se):
        se, m = np.asarray(se, dtype=float), self.p.m
        return np.sqrt(1.0 - se) * (1.0 - se ** (1.0 / m)) ** (2.0 * m)

    def pc(self, se):
        se, m = np.asarray(se, dtype=float), self.p.m
        return (se ** (-1.0 / m) - 1.0) ** (1.0 - m) / self.p.alpha0

    def dpc_ds(self, s):
        m = self.p.m
        se = self.effective_saturation(s)
        core = (se ** (-1.0 / m) - 1.0) ** (-m) * se ** (-1.0 / m - 1.0)
        dpc_dse = -(1.0 - m) / (self.p.alpha0 * m) * core
        return dpc_dse * self.dse_ds(s)

    def dkrw_dse(self, se):
        m = self.p.m
        A = 1.0 - (1.0 - se ** (1.0 / m)) ** m
        B = 1.0 - se ** (1.0 / m)
        return (0.5 / np.sqrt(se) * A ** 2
                + 2.0 * np.sqrt(se) * A * B ** (m - 1.0) * se ** (1.0 / m - 1.0))

    def dkro_dse(self, se):
        m = self.p.m
        B = 1.0 - se ** (1.0 / m)
        return (-0.5 / np.sqrt(1.0 - se) * B ** (2.0 * m)
                - 2.0 * np.sqrt(1.0 - se) * B ** (2.0 * m - 1.0) * se ** (1.0 / m - 1.0))

    def aqueous_viscosity(self, c):
        return self.p.mu_w * (1.0 + self.p.beta * np.asarray(c, dtype=float))

    def mobilities(self, s, c):
        se = self.effective_saturation(s)
        lam_a = self.krw(se) / self.aqueous_viscosity(c)
        lam_o = self.kro(se) / self.p.mu_o
        return lam_a, lam_o, lam_a + lam_o

    def fractional_flow(self, s, c):
        lam_a, _, lam_t = self.mobilities(s, c)
        return lam_a / lam_t

    def df_ds(self, s, c):
        se = self.effective_saturation(s)
        dse = self.dse_ds(s)
        mu_a = self.aqueous_viscosity(c)
        lam_a = self.krw(se) / mu_a
        lam_o = self.kro(se) / self.p.mu_o
        dlam_a = self.dkrw_dse(se) * dse / mu_a
        dlam_o = self.dkro_dse(se) * dse / self.p.mu_o
        return (dlam_a * lam_o - lam_a * dlam_o) / (lam_a + lam_o) ** 2

    def df_dc(self, s, c):
        lam_a, lam_o, lam_t = self.mobilities(s, c)
        dlam_a = -lam_a * self.p.mu_w * self.p.beta / self.aqueous_viscosity(c)
        return dlam_a * lam_o / lam_t ** 2

    def capillary_diffusion(self, s, c, K=1.0):
        lam_a, lam_o, lam_t = self.mobilities(s, c)
        return K * lam_o * (lam_a / lam_t) * self.dpc_ds(s)


def same(a, b):
    """Bit for bit: equal values (NaN nowhere) and equal shapes."""
    return np.array_equal(a, b) and np.shape(a) == np.shape(b)


def oracle_sweep(model):
    """Raw saturations over [-0.5, 1.5], with s_ra, 1 - s_ro and the raw
    values at both clamp edges of s_e, each with its float neighbours."""
    edges = [model.s_ra, 1.0 - model.s_ro,
             model.s_ra + model.eps_sat * (1.0 - model.s_ra),
             model.s_ra + (1.0 - model.eps_sat) * (1.0 - model.s_ra)]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    return np.sort(np.concatenate([np.linspace(-0.5, 1.5, 401), edges, near]))


@pytest.mark.parametrize("m", [0.3, 2.0 / 3.0, 0.95])
def test_laws_match_frozen_formulas_bit_for_bit(m):
    model = PetroModel(m=m)
    oracle = FrozenLaws(model)
    s = oracle_sweep(model)
    se = model.effective_saturation(s)
    # both clamp edges are hit exactly, and crossed
    assert np.any(se == model.eps_sat) and np.any(se == 1.0 - model.eps_sat)
    assert np.any(oracle.dse_ds(s) == 0.0) and np.any(oracle.dse_ds(s) > 0.0)
    assert same(se, oracle.effective_saturation(s))
    for law in ("krw", "kro", "pc"):
        assert same(getattr(model, law)(se), getattr(oracle, law)(se)), law
    assert same(model.dpc_ds(s), oracle.dpc_ds(s))
    for c in (0.0, 0.05, 0.1, np.array([0.0, 0.05, 0.1])):
        # an array c broadcasts against a column of s
        sc = s[:, None] if np.ndim(c) else s
        assert same(model.aqueous_viscosity(c), oracle.aqueous_viscosity(c))
        for got, want in zip(model.mobilities(sc, c), oracle.mobilities(sc, c)):
            assert same(got, want)
        for law in ("fractional_flow", "df_ds", "df_dc"):
            assert same(getattr(model, law)(sc, c), getattr(oracle, law)(sc, c)), law
        # scaling by 1 or 2 is exact, so only K = 0.3 sees D's product order
        for K in (0.0, 1.0, 2.0, 0.3):
            D = oracle.capillary_diffusion(sc, c, K)
            assert same(model.capillary_diffusion(sc, c, K), D)
            lam_a, lam_o, lam = oracle.mobilities(sc, c)
            se_sc = oracle.effective_saturation(sc)
            fields = {
                "se": se_sc, "dse": oracle.dse_ds(sc),
                "krw": oracle.krw(se_sc), "kro": oracle.kro(se_sc),
                "mu_a": oracle.aqueous_viscosity(c),
                "lam_a": lam_a, "lam_o": lam_o, "lam": lam,
                "f": oracle.fractional_flow(sc, c),
                "df_ds": oracle.df_ds(sc, c), "df_dc": oracle.df_dc(sc, c),
                "dpc_ds": oracle.dpc_ds(sc), "D": D,
            }
            # a field's value must not depend on what was read before it
            for order in (list(fields), list(fields)[::-1]):
                laws = model.evaluate(sc, c, K)
                for name in order:
                    assert same(getattr(laws, name), fields[name]), (name, c, K)
