"""Constitutive laws for a water/oil system with dissolved polymer.

Relative permeabilities and capillary pressure use the van Genuchten and
Parker forms, written in terms of the effective water saturation

    s_e = (s - s_ra) / (1 - s_ra),  clamped to [eps_sat, 1 - eps_sat],

with exponent 0 < m < 1 and the constant margin eps_sat = 1e-6:

    krw(s_e) = s_e^(1/2) * (1 - (1 - s_e^(1/m))^m)^2
    kro(s_e) = (1 - s_e)^(1/2) * (1 - s_e^(1/m))^(2m)
    pc(s_e)  = (1/alpha0) * (s_e^(-1/m) - 1)^(1-m)

Dissolved polymer thickens the aqueous phase, mu_a(c) = mu_w * (1 + beta c),
which is what couples the concentration field back into the flow.  Phase
mobilities, the water fractional flow f, its partial derivatives, and the
(negative) capillary diffusion coefficient D = K * lam_o * f * pc'(s) are
all derived from these closed forms; derivatives are analytic chain rules,
never finite differences.

Everything is vectorised over numpy arrays and clamp-total: any real
saturation input is first mapped into the clamped effective range, so no
evaluation can leave the domain of the root/power expressions.  The raw
saturation's mobile range [s_ra, 1 - s_ro] is PetroModel.mobile_range.

The laws have one home, PairLaws.  PetroModel.evaluate(s, c, K) returns
the laws at one (s, c) pair.  Each quantity is computed on first read
from intermediates that are kept, so s_e, s_e^(1/m), B = 1 - s_e^(1/m),
B^m, B^(2m), mu_a, the mobilities, f, df/ds, df/dc, dpc/ds and D are each
formed at most once per pair, and only what is read is formed; krw and
kro are formed when the mobilities read them and are not kept.  Every
quantity keeps the operation order of its closed form, so a shared value
is bit-identical to one computed alone.  A kept quantity is a _field:
functools.cached_property without the lock that Python 3.11 takes on
each first read, of which a step makes 48.  The PetroModel law methods
are one-field views of a fresh evaluation.  A transport step evaluates
each pair it needs once: (s, c) for the saturation feet, df/dc and the
well term, (sbar, c) for the face diffusion and (s_new, c) for the
concentration feet, and drops each evaluation once its fields are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = ["PairLaws", "PetroModel"]


class _field(cached_property):
    """cached_property that takes no lock: the value computed on the first
    read is stored in the instance's __dict__, where later reads find it
    without calling the descriptor.  An evaluation belongs to one caller,
    so no two threads compute a field of it at once."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


@dataclass(frozen=True)
class PetroModel:
    """Fluid and rock parameters with the constitutive laws built on them.

    Defaults are the classic desk-scale polymer flood data set: a 10:1
    oil/water viscosity ratio, residual saturations 0.1 and 0.2, and a
    capillary exponent m = 2/3.
    """

    mu_w: float = 1.26        # water viscosity at zero polymer
    mu_o: float = 12.6        # oil viscosity
    s_ra: float = 0.1         # residual aqueous saturation
    s_ro: float = 0.2         # residual oil saturation
    m: float = 2.0 / 3.0      # van Genuchten exponent, 0 < m < 1
    alpha0: float = 0.125     # capillary pressure scale is 1/alpha0
    beta: float = 15.0        # aqueous thickening slope, mu_a = mu_w (1 + beta c)
    eps_sat: ClassVar[float] = 1e-6  # effective saturation's clamp margin

    def __post_init__(self):
        if not (self.mu_w > 0.0 and self.mu_o > 0.0):
            raise ValueError("viscosities must be positive")
        if not (0.0 <= self.s_ra < 1.0 and 0.0 <= self.s_ro < 1.0):
            raise ValueError("residual saturations must lie in [0, 1)")
        if not self.s_ra + self.s_ro < 1.0:
            raise ValueError("residual saturations must leave a mobile range")
        if not 0.0 < self.m < 1.0:
            raise ValueError("exponent m must lie in (0, 1)")
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")
        if self.beta < 0.0:
            raise ValueError("thickening slope beta must be nonnegative")

    @property
    def mobile_range(self) -> tuple[float, float]:
        """(s_ra, 1 - s_ro): transport clamps to it, a flood starts at its
        top, s0 lies in it and the run summary counts its hits."""
        return self.s_ra, 1.0 - self.s_ro

    # -- evaluation at one (s, c) pair ----------------------------------------

    def evaluate(self, s, c, K=1.0) -> PairLaws:
        """The laws at raw saturation s and concentration c, with the
        capillary diffusion D scaled by K; see PairLaws."""
        return PairLaws(self, self.effective_saturation(s), c, K)

    # -- saturation mapping and capillary pressure --------------------------

    def effective_saturation(self, s):
        """Map raw saturation to the clamped effective range.

        Total on all of R: values outside [s_ra, 1] land on the clamp
        bounds, so downstream power laws never see a negative base.
        """
        se = (np.asarray(s, dtype=float) - self.s_ra) / (1.0 - self.s_ra)
        return se.clip(self.eps_sat, 1.0 - self.eps_sat)

    def pc(self, se):
        """Capillary pressure.  Requires se already inside the clamped range."""
        se = np.asarray(se, dtype=float)
        if np.any(se < self.eps_sat) or np.any(se > 1.0 - self.eps_sat):
            raise ValueError("pc called outside the clamped effective range")
        return (se ** (-1.0 / self.m) - 1.0) ** (1.0 - self.m) / self.alpha0

    def aqueous_viscosity(self, c):
        """Polymer-thickened water viscosity mu_w * (1 + beta c)."""
        return self.mu_w * (1.0 + self.beta * np.asarray(c, dtype=float))

    # -- one-field views of an evaluation ------------------------------------

    def krw(self, se):
        """Aqueous relative permeability as a function of effective saturation."""
        return PairLaws(self, np.asarray(se, dtype=float), 0.0).krw

    def kro(self, se):
        """Oil relative permeability as a function of effective saturation."""
        return PairLaws(self, np.asarray(se, dtype=float), 0.0).kro

    def dpc_ds(self, s):
        """d pc / d s by the chain rule through the clamped s_e.  Never positive."""
        return self.evaluate(s, 0.0).dpc_ds

    def mobilities(self, s, c):
        """Return (lam_a, lam_o, lam_total) at raw saturation s, concentration c."""
        laws = self.evaluate(s, c)
        return laws.lam_a, laws.lam_o, laws.lam

    def fractional_flow(self, s, c):
        """Water fractional flow f = lam_a / (lam_a + lam_o), in [0, 1]."""
        return self.evaluate(s, c).f

    def df_ds(self, s, c):
        """Partial derivative of the fractional flow with respect to saturation."""
        return self.evaluate(s, c).df_ds

    def df_dc(self, s, c):
        """Partial derivative of the fractional flow with respect to concentration."""
        return self.evaluate(s, c).df_dc

    def capillary_diffusion(self, s, c, K=1.0):
        """Signed capillary diffusion coefficient D = K lam_o f dpc_ds.

        Nonpositive for K >= 0 since dpc_ds <= 0; transport schemes assemble
        with |D| on their diffusive faces.
        """
        return self.evaluate(s, c, K).D


class PairLaws:
    """The constitutive laws at one (s, c) pair, each computed once on use.

    se is the clamped effective saturation (PetroModel.evaluate maps the
    raw s to it), c the concentration and K the scale of D.  Every other
    attribute is computed from these on first read and kept, so an
    evaluation holds what has been read of it; drop it once its fields
    are taken.  Names without an underscore are the laws themselves.
    """

    def __init__(self, model: PetroModel, se, c, K=1.0):
        self.model = model
        self.se = se
        self.c = c
        self.K = K

    @_field
    def dse(self):
        """d s_e / d s: 1/(1 - s_ra) inside the clamps, 0 on them."""
        m = self.model
        # s_e strictly inside its clamp range iff the raw map was
        inside = (self.se > m.eps_sat) & (self.se < 1.0 - m.eps_sat)
        return np.where(inside, 1.0 / (1.0 - m.s_ra), 0.0)

    # -- relative permeabilities --------------------------------------------

    @_field
    def _B(self):
        return 1.0 - self.se ** (1.0 / self.model.m)

    @_field
    def _A(self):
        return 1.0 - self._B ** self.model.m

    @_field
    def _B2m(self):
        return self._B ** (2.0 * self.model.m)

    # krw and kro are read once, by lam_a and lam_o, so they are not kept
    @property
    def krw(self):
        """sqrt(s_e) (1 - B^m)^2 with B = 1 - s_e^(1/m)."""
        return np.sqrt(self.se) * self._A ** 2

    @property
    def kro(self):
        """sqrt(1 - s_e) B^(2m)."""
        return np.sqrt(1.0 - self.se) * self._B2m

    # -- mobilities and fractional flow --------------------------------------

    @_field
    def mu_a(self):
        return self.model.aqueous_viscosity(self.c)

    @_field
    def lam_a(self):
        return self.krw / self.mu_a

    @_field
    def lam_o(self):
        return self.kro / self.model.mu_o

    @_field
    def lam(self):
        """Total mobility lam_a + lam_o."""
        return self.lam_a + self.lam_o

    @_field
    def _lam2(self):
        return self.lam ** 2

    @_field
    def f(self):
        return self.lam_a / self.lam

    @_field
    def df_ds(self):
        # dkrw/dse and dkro/dse are consumed as they are formed, and the
        # s_e roots they share with krw and kro are taken again, which
        # keeps fewer arrays alive than keeping the roots would
        m, se, A, B, dse = self.model.m, self.se, self._A, self._B, self.dse
        se_pow = se ** (1.0 / m - 1.0)
        root = np.sqrt(se)
        dlam_a = (0.5 / root * A ** 2
                  + 2.0 * root * A * B ** (m - 1.0) * se_pow) * dse / self.mu_a
        root = np.sqrt(1.0 - se)
        dlam_o = (-0.5 / root * self._B2m
                  - 2.0 * root * B ** (2.0 * m - 1.0) * se_pow) * dse / self.model.mu_o
        del se_pow, root
        return (dlam_a * self.lam_o - self.lam_a * dlam_o) / self._lam2

    @_field
    def df_dc(self):
        """Only the aqueous mobility depends on c:
        d lam_a / dc = -lam_a * mu_w * beta / mu_a."""
        m = self.model
        dlam_a = -self.lam_a * m.mu_w * m.beta / self.mu_a
        return dlam_a * self.lam_o / self._lam2

    # -- capillary pressure slope and diffusion -------------------------------

    @_field
    def dpc_ds(self):
        m, se = self.model, self.se
        core = (se ** (-1.0 / m.m) - 1.0) ** (-m.m) * se ** (-1.0 / m.m - 1.0)
        dpc_dse = -(1.0 - m.m) / (m.alpha0 * m.m) * core
        return dpc_dse * self.dse

    @_field
    def D(self):
        """K lam_o f dpc/ds."""
        return self.K * self.lam_o * self.f * self.dpc_ds
