"""Closed-form diagonalization of the linear flux-coupled cavity.

In a fixed fermion sector (the total angular momentum and the total spin
commute with the cavity mode) the model

    H = g_eff * sum_i L_i^2 + hbar_omega a^dag a
        + g N phi^2 X^2 - (2 g phi M + eta S) X,        X = a + a^dag,

is a displaced and squeezed oscillator; S = Sigma / 2 is the total spin in
units of hbar (0 for a spinless configuration), so the orbital flux coupling
and the Zeeman coupling are one linear drive.  Completing the square and
applying a Bogoliubov rotation gives the dressed quantum
``hbar_Omega = sqrt(alpha*beta)`` with ``alpha = hbar_omega`` and
``beta = D = hbar_omega + 4 g phi^2 N``, the squeeze parameter
``r = ln(beta/alpha)/4``, and the collective shift ``-(2 g phi M + eta S)^2 / D``,
whose orbital part is the induced all-to-all attraction ``-chi M^2``.
Sector energies are exact:

    E({m_i}, n) = g_eff W - (2 g phi M + eta S)^2 / D + hbar_Omega (n + 1/2) - hbar_omega/2,

where W = sum m_i^2.  The trailing constant is the number-operator zero
point, so these values equal brute-force spectra with no offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FermionConfig, ModelParams, _check_int, _check_non_negative, _check_positive

__all__ = [
    "AnalyticSolution",
    "dressed_frequency",
    "induced_coupling",
    "squeeze_solution",
    "sector_energy",
    "mode_displacement",
]


@dataclass(frozen=True)
class AnalyticSolution:
    """Exact normal-mode data of the linear model at fixed couplings.

    The properties ``omega_dressed = sqrt(alpha beta)`` (the dressed quantum
    hbar*Omega in E0) and ``squeeze_r = ln(beta/alpha)/4`` follow from
    ``alpha`` and ``beta``.
    """

    chi: float
    alpha: float
    beta: float

    def __post_init__(self):
        _check_positive(alpha=self.alpha, beta=self.beta)
        if self.beta < self.alpha:
            raise ValueError(f"beta >= alpha required, got beta={self.beta}, alpha={self.alpha}")
        _check_non_negative(chi=self.chi)

    @property
    def omega_dressed(self) -> float:
        return math.sqrt(self.alpha * self.beta)

    @property
    def squeeze_r(self) -> float:
        return 0.25 * math.log(self.beta / self.alpha)

    def variance_x(self) -> float:
        """Ground-state variance of x = (a + a^dag)/sqrt(2): squeezed below 1/2."""
        return 0.5 * math.exp(-2.0 * self.squeeze_r)

    def variance_p(self) -> float:
        """Conjugate quadrature variance; the product with variance_x is 1/4."""
        return 0.5 * math.exp(2.0 * self.squeeze_r)


def _stiffness(p: ModelParams) -> float:
    """Mode stiffness beta = hbar_omega + 4 g N phi^2: the bare quantum plus the diamagnetic term."""
    return p.hbar_omega + 4.0 * p.g * p.n_particles * p.phi**2


def dressed_frequency(p: ModelParams) -> float:
    """Dressed cavity quantum hbar*Omega = sqrt(hw (hw + 4 g N phi^2)).

    The quadratic flux term only stiffens the mode, so Omega >= omega with
    equality at phi = 0 (or g = 0 in the decoupled limit).
    """
    return math.sqrt(p.hbar_omega * _stiffness(p))


def induced_coupling(p: ModelParams) -> float:
    """Collective attraction strength chi = 4 g^2 phi^2 / (hw + 4 g N phi^2).

    Monotone in phi, saturating at g/N as phi grows.
    """
    return 4.0 * p.g**2 * p.phi**2 / _stiffness(p)


def squeeze_solution(p: ModelParams) -> AnalyticSolution:
    """Full normal-mode solution: dressed quantum, chi and squeeze parameter."""
    return AnalyticSolution(chi=induced_coupling(p), alpha=p.hbar_omega, beta=_stiffness(p))


def sector_energy(p: ModelParams, cfg: FermionConfig, n: int = 0) -> float:
    """Exact eigenvalue of the linear model for one fermion sector and photon index n.

    E = g_eff W - (2 g phi M + eta S)^2 / D + hbar_Omega (n + 1/2) - hbar_omega/2
    with S = Sigma / 2, for spinless and spinful configurations alike.  The
    square is expanded as chi M^2 + eta S (4 g phi M + eta S) / D, so a
    spinless sector (S = 0) costs exactly g_eff W - chi M^2 + ...  Level
    spacing in n is exactly hbar_Omega.
    """
    _check_int(n, "photon index n", lo=0)
    if cfg.n_particles != p.n_particles:
        raise ValueError(f"configuration has {cfg.n_particles} particles, but n_particles = {p.n_particles}")
    orbital = 2.0 * p.g * p.phi * cfg.m_total
    zeeman = 0.5 * p.eta * cfg.sigma_total
    return (
        p.g_eff * cfg.w_kinetic
        - induced_coupling(p) * cfg.m_total**2
        - zeeman * (2.0 * orbital + zeeman) / _stiffness(p)
        + dressed_frequency(p) * (n + 0.5)
        - 0.5 * p.hbar_omega
    )


def mode_displacement(p: ModelParams, m_total: int) -> float:
    """Coherent displacement <a> of the cavity in a sector of total momentum M.

    <a> = 2 g phi M / (hbar_omega + 4 g N phi^2), i.e. proportional to M and
    exactly zero in any balanced (M = 0) sector.  Positive M displaces the
    mode toward positive quadrature for this coupling sign.
    """
    return 2.0 * p.g * p.phi * _check_int(m_total, "m_total") / _stiffness(p)
