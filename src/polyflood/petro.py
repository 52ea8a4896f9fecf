"""Constitutive laws for a water/oil system with dissolved polymer.

Relative permeabilities and capillary pressure use the van Genuchten and
Parker forms, written in terms of the effective water saturation

    s_e = (s - s_ra) / (1 - s_ra),  clamped to [eps_sat, 1 - eps_sat],

with exponent 0 < m < 1:

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
evaluation can leave the domain of the root/power expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PetroModel"]


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
    eps_sat: float = 1e-6     # clamp margin for the effective saturation

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
        if not 0.0 < self.eps_sat < 0.5:
            raise ValueError("eps_sat must lie in (0, 0.5)")

    # -- saturation mappings ------------------------------------------------

    def effective_saturation(self, s):
        """Map raw saturation to the clamped effective range.

        Total on all of R: values outside [s_ra, 1] land on the clamp
        bounds, so downstream power laws never see a negative base.
        """
        se = (np.asarray(s, dtype=float) - self.s_ra) / (1.0 - self.s_ra)
        return np.clip(se, self.eps_sat, 1.0 - self.eps_sat)

    def _dse_ds(self, s):
        # derivative of the clamped map: 1/(1 - s_ra) inside, 0 on the clamps
        se_raw = (np.asarray(s, dtype=float) - self.s_ra) / (1.0 - self.s_ra)
        inside = (se_raw > self.eps_sat) & (se_raw < 1.0 - self.eps_sat)
        return np.where(inside, 1.0 / (1.0 - self.s_ra), 0.0)

    # -- relative permeabilities and capillary pressure ---------------------

    def krw(self, se):
        """Aqueous relative permeability as a function of effective saturation."""
        se = np.asarray(se, dtype=float)
        return np.sqrt(se) * (1.0 - (1.0 - se ** (1.0 / self.m)) ** self.m) ** 2

    def kro(self, se):
        """Oil relative permeability as a function of effective saturation."""
        se = np.asarray(se, dtype=float)
        return np.sqrt(1.0 - se) * (1.0 - se ** (1.0 / self.m)) ** (2.0 * self.m)

    def pc(self, se):
        """Capillary pressure.  Requires se already inside the clamped range."""
        se = np.asarray(se, dtype=float)
        if np.any(se < self.eps_sat) or np.any(se > 1.0 - self.eps_sat):
            raise ValueError("pc called outside the clamped effective range")
        return (se ** (-1.0 / self.m) - 1.0) ** (1.0 - self.m) / self.alpha0

    def dpc_ds(self, s):
        """d pc / d s by the chain rule through the clamped s_e.  Never positive."""
        se = self.effective_saturation(s)
        core = (se ** (-1.0 / self.m) - 1.0) ** (-self.m) * se ** (-1.0 / self.m - 1.0)
        dpc_dse = -(1.0 - self.m) / (self.alpha0 * self.m) * core
        return dpc_dse * self._dse_ds(s)

    def _dkrw_dse(self, se):
        A = 1.0 - (1.0 - se ** (1.0 / self.m)) ** self.m
        B = 1.0 - se ** (1.0 / self.m)
        return (0.5 / np.sqrt(se) * A ** 2
                + 2.0 * np.sqrt(se) * A * B ** (self.m - 1.0) * se ** (1.0 / self.m - 1.0))

    def _dkro_dse(self, se):
        B = 1.0 - se ** (1.0 / self.m)
        return (-0.5 / np.sqrt(1.0 - se) * B ** (2.0 * self.m)
                - 2.0 * np.sqrt(1.0 - se) * B ** (2.0 * self.m - 1.0) * se ** (1.0 / self.m - 1.0))

    # -- mobilities and fractional flow -------------------------------------

    def aqueous_viscosity(self, c):
        """Polymer-thickened water viscosity mu_w * (1 + beta c)."""
        return self.mu_w * (1.0 + self.beta * np.asarray(c, dtype=float))

    def mobilities(self, s, c):
        """Return (lam_a, lam_o, lam_total) at raw saturation s, concentration c."""
        se = self.effective_saturation(s)
        lam_a = self.krw(se) / self.aqueous_viscosity(c)
        lam_o = self.kro(se) / self.mu_o
        return lam_a, lam_o, lam_a + lam_o

    def fractional_flow(self, s, c):
        """Water fractional flow f = lam_a / (lam_a + lam_o), in [0, 1]."""
        lam_a, _, lam_t = self.mobilities(s, c)
        return lam_a / lam_t

    def df_ds(self, s, c):
        """Partial derivative of the fractional flow with respect to saturation."""
        se = self.effective_saturation(s)
        dse = self._dse_ds(s)
        mu_a = self.aqueous_viscosity(c)
        lam_a = self.krw(se) / mu_a
        lam_o = self.kro(se) / self.mu_o
        dlam_a = self._dkrw_dse(se) * dse / mu_a
        dlam_o = self._dkro_dse(se) * dse / self.mu_o
        return (dlam_a * lam_o - lam_a * dlam_o) / (lam_a + lam_o) ** 2

    def df_dc(self, s, c):
        """Partial derivative of the fractional flow with respect to concentration.

        Only the aqueous mobility depends on c:
        d lam_a / dc = -lam_a * mu_w * beta / mu_a.
        """
        lam_a, lam_o, lam_t = self.mobilities(s, c)
        dlam_a = -lam_a * self.mu_w * self.beta / self.aqueous_viscosity(c)
        return dlam_a * lam_o / lam_t ** 2

    def capillary_diffusion(self, s, c, K=1.0):
        """Signed capillary diffusion coefficient D = K lam_o f dpc_ds.

        Nonpositive for K >= 0 since dpc_ds <= 0; transport schemes assemble
        with |D| on their diffusive faces.
        """
        lam_a, lam_o, lam_t = self.mobilities(s, c)
        return K * lam_o * (lam_a / lam_t) * self.dpc_ds(s)
