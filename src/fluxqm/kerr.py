"""Quartic (Kerr) cavity coupled to the ring, reduced sector by sector.

Adding a quartic term alpha4 X^4 to the flux-coupled mode keeps the problem
block diagonal in the fermion sectors but makes the bosonic block anharmonic.
In quadratures with [X, P] = 2i the block reads

    h = g S2 + A P^2 + B X^2 - C M X + alpha4 X^4,
    A = hbar_omega_p / 4,  B = hbar_omega_p / 4 + g phi^2 N,  C = 2 g phi,

with S2 = sum m_i^2.  Shifting X by the stationary point x0 of the classical
potential (the unique real root of 4 alpha4 x^3 + 2 B x = C M for positive B
and alpha4 >= 0, which ``QuarticSector`` derives in closed form from the
coefficients it stores) cancels the linear term exactly and leaves

    h = g S2 + V_eff + A P'^2 + B_eff X'^2 + beta3 X'^3 + alpha4 X'^4,

whose Gaussian spacing 4 sqrt(A B_eff) depends on the sector through x0(M):
the mode frequency becomes a function of the electron distribution.  The
residual cubic-quartic block is diagonalized nonperturbatively in the
oscillator basis adapted to (A, B_eff).

Note: in this nonlinear variant the kinetic offset enters with the bare
orbital scale ``g``, not ``g_eff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import ModelParams, _check_int, _check_positive, _finite, _non_negative, _root_product, _square
from .gridsolve import _fock_ladder

if TYPE_CHECKING:  # annotations only; the functions that use numpy import it
    import numpy as np

__all__ = [
    "QuarticSector",
    "displacement_root",
    "gaussian_frequency",
    "anharmonic_spectrum",
    "full_levels",
]


@dataclass(frozen=True)
class QuarticSector:
    """Coefficients of one fermion sector of the quartic cavity.

    The stored fields define the sector; the displacement ``x0``, the real
    root of the stationarity cubic 4 alpha4 x^3 + 2 B x = C M, is a property
    computed in closed form, so a sector cannot hold a wrong root.  The
    displaced-frame properties ``b_eff = B + 6 alpha4 x0^2``,
    ``beta3 = 4 alpha4 x0`` and the sector offset
    ``v_eff = B x0^2 - C M x0 + alpha4 x0^4`` follow from it.
    """

    m_total: int
    alpha4: float
    a_coef: float
    b_coef: float
    c_coef: float

    def __post_init__(self):
        _non_negative(self.alpha4, "alpha4")
        _check_positive(a_coef=self.a_coef, b_coef=self.b_coef)
        object.__setattr__(self, "m_total", _check_int(self.m_total, "m_total"))
        _finite(self.c_coef, "c_coef")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}: the closed-form root overflows")

    @property
    def x0(self) -> float:
        """The cubic's unique real root (it is strictly increasing for B > 0 and alpha4 >= 0)."""
        x_h = self.c_coef * self.m_total / (2.0 * self.b_coef)  # the harmonic root
        if self.alpha4 == 0.0:  # then s = 0, and x_h**2 below can overflow
            return x_h
        # x0 = x_h y with (s^2/3) y^3 + y = 1; y = (2/s) sinh(u) turns it into sinh(3u) = 3s/2
        # s is 0, or at least 2e-162, so 2 / s cannot overflow
        s = math.sqrt(6.0 * self.alpha4 * _square(x_h, "x0") / self.b_coef)
        return x_h if s == 0.0 else x_h * (2.0 / s) * math.sinh(math.asinh(1.5 * s) / 3.0)

    @property
    def b_eff(self) -> float:
        if self.alpha4 == 0.0:  # the quartic term is 0, and x0**2 can overflow
            return self.b_coef
        return self.b_coef + 6.0 * self.alpha4 * self.x0**2

    @property
    def beta3(self) -> float:
        return 4.0 * self.alpha4 * self.x0

    @property
    def v_eff(self) -> float:
        x0 = self.x0
        v = self.b_coef * _square(x0, "v_eff") - self.c_coef * self.m_total * x0
        return v + self.alpha4 * x0**4 if self.alpha4 != 0.0 else v  # x0**4 can overflow where alpha4 = 0 zeroes it


def displacement_root(m_total: int, p: ModelParams, alpha4: float) -> QuarticSector:
    """The quartic sector of total momentum M, whose ``x0`` is the stationarity root.

    For M = 0 the displacement vanishes identically and the cubic term with
    it.  ``p.hbar_omega`` plays the role of the bare quantum hbar_omega_p of
    the nonlinear mode.
    """
    return QuarticSector(
        m_total=m_total,
        alpha4=alpha4,
        a_coef=0.25 * p.hbar_omega,
        b_coef=0.25 * p.hbar_omega + p.g * _square(p.phi, "b_coef") * p.n_particles,
        c_coef=2.0 * p.g * p.phi,
    )


def gaussian_frequency(sector: QuarticSector) -> float:
    """Curvature spacing of the displaced sector: 4 sqrt(A B_eff).

    Even in M (x0 is odd, x0^2 even); at M = 0 and alpha4 -> 0 it reduces to
    the linear dressed quantum sqrt(hw_p (hw_p + 4 g phi^2 N)).
    """
    return 4.0 * _root_product(sector.a_coef, sector.b_eff)


def _oscillator_levels(sector: QuarticSector, cutoff: int) -> np.ndarray:
    """Eigenvalues of A P'^2 + B_eff X'^2 + beta3 X'^3 + alpha4 X'^4 at fixed cutoff, ascending.

    Basis: eigenstates of the quadratic part, diagonal with spacing
    4 sqrt(A B_eff), so X' = s (c + c^dag) with s = (A/B_eff)^(1/4).
    """
    import numpy as np
    s = (sector.a_coef / sector.b_eff) ** 0.25
    q = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    q += q.T
    q2 = q @ q
    h = gaussian_frequency(sector) * np.diag(np.arange(cutoff + 1) + 0.5)
    if sector.beta3 != 0.0:
        h = h + (sector.beta3 * s**3) * (q2 @ q)
    if sector.alpha4 != 0.0:
        h = h + (sector.alpha4 * s**4) * (q2 @ q2)
    return np.linalg.eigvalsh(h)


def anharmonic_spectrum(sector: QuarticSector, n_levels: int = 6) -> np.ndarray:
    """Nonperturbative levels of the residual anharmonic block, ascending.

    The cutoff follows ``gridsolve._fock_ladder``, floored at the Gaussian
    spacing; adding ``g S2 + v_eff`` gives the sector energies (full_levels).
    """
    return _fock_ladder(lambda cutoff: _oscillator_levels(sector, cutoff), n_levels, gaussian_frequency(sector),
                        "anharmonic levels not converged at cutoff {size}")


def full_levels(sector: QuarticSector, p: ModelParams, s2: int, n_levels: int = 6) -> np.ndarray:
    """Sector energies g S2 + V_eff + eps_n (bare g multiplies the kinetic sum here)."""
    kinetic = p.g * _check_int(s2, "s2", lo=0)
    return kinetic + sector.v_eff + anharmonic_spectrum(sector, n_levels=n_levels)
