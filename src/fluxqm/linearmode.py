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

Each normal-mode quantity has one function: ``dressed_frequency``,
``induced_coupling``, ``squeeze_parameter`` and ``quadrature_variances``.
"""

from __future__ import annotations

import math

from .core import FermionConfig, ModelParams, _check_int, _finite, _root_product, _square

__all__ = [
    "dressed_frequency",
    "induced_coupling",
    "squeeze_parameter",
    "quadrature_variances",
    "sector_energy",
    "mode_displacement",
]


def _stiffness(p: ModelParams) -> float:
    """Mode stiffness beta = hbar_omega + 4 g N phi^2 (bare quantum plus diamagnetic term); raises if it overflows."""
    return _finite(p.hbar_omega + 4.0 * p.g * p.n_particles * _square(p.phi, "beta"), "beta")


def dressed_frequency(p: ModelParams) -> float:
    """Dressed cavity quantum hbar*Omega = sqrt(hw (hw + 4 g N phi^2)).

    The quadratic flux term only stiffens the mode, so Omega >= omega with
    equality at phi = 0 (or g = 0 in the decoupled limit).  Where the product
    falls below the smallest normal float (hbar_omega below ~1e-154 at
    phi = 0), the root is taken of each factor.
    """
    return _finite(_root_product(p.hbar_omega, _stiffness(p)), "hbar_Omega")


def induced_coupling(p: ModelParams) -> float:
    """Collective attraction strength chi = 4 g^2 phi^2 / (hw + 4 g N phi^2).

    Monotone in phi, saturating at g/N as phi grows.
    """
    return 4.0 * _square(p.g, "chi") * _square(p.phi, "chi") / _stiffness(p)


def squeeze_parameter(p: ModelParams) -> float:
    """Squeeze parameter r = ln(beta / alpha) / 4 of the cavity ground state, alpha = hw, beta = D."""
    return _finite(0.25 * math.log(_stiffness(p) / p.hbar_omega), "r")


def quadrature_variances(p: ModelParams) -> tuple[float, float]:
    """Ground-state variances (0.5 e^{-2r}, 0.5 e^{2r}) of x = (a + a^dag)/sqrt(2) and its conjugate.

    x is squeezed below the vacuum 1/2 and the product is 1/4.
    """
    r = squeeze_parameter(p)
    return 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)


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
    energy = (
        p.g_eff * cfg.w_kinetic
        - induced_coupling(p) * cfg.m_total**2
        - zeeman * (2.0 * orbital + zeeman) / _stiffness(p)
        + dressed_frequency(p) * (n + 0.5)
        - 0.5 * p.hbar_omega
    )
    return _finite(energy, "energy")


def mode_displacement(p: ModelParams, m_total: int) -> float:
    """Coherent displacement <a> of the cavity in a sector of total momentum M.

    <a> = 2 g phi M / (hbar_omega + 4 g N phi^2), i.e. proportional to M and
    exactly zero in any balanced (M = 0) sector.  Positive M displaces the
    mode toward positive quadrature for this coupling sign.
    """
    return 2.0 * p.g * p.phi * _check_int(m_total, "m_total") / _stiffness(p)
