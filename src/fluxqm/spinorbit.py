"""Stability analysis of the balanced state of the Zeeman-coupled model.

With spins coupled to the same quantized flux, each (M, Sigma) sector is
still exactly solvable.  Sigma is the sum of the +-1 spin labels and
S = Sigma / 2 the total spin in units of hbar; eta is the drive per unit S.
The cavity sees a linear drive 2 g phi M + eta S and the spectrum gains the
collective shift -(2 g phi M + eta S)^2 / D with D = hbar_omega + 4 g N phi^2;
``linearmode.sector_energy`` gives these levels for any configuration.
Expanding the ground-state energy to quadratic order in the order parameters
(M, S), with Fermi-liquid stiffnesses 2 g_eff / N and g_eff N / 2, gives a 2x2
Hessian whose lowest eigenvalue crossing zero marks the instability; on closed
shells the exact spectrum leaves (M, Sigma) = (0, 0) at the same eta (checked
by brute force in the tests).  The determinant is linear in eta^2, so its zero
has one closed form at any g_eff: ``critical_eta``, solved for phi by
``critical_flux_spin``.  At g_eff = g the orbital channel screens the diamagnetic
stiffening of the spin channel: eta_c = sqrt(g N hbar_omega) / 2 at any phi, and
the soft mode is a locked spin-orbital combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ModelParams, _finite, _positive, _square
from .errors import NoTransitionError
from .linearmode import _stiffness

__all__ = ["HessianReport", "hessian", "critical_eta", "critical_flux_spin", "locking_ratio"]


@dataclass(frozen=True)
class HessianReport:
    """Stability matrix [[mm, ms], [ms, ss]] of the balanced state in the (M, S) plane, S = Sigma / 2.

    Only the three distinct entries are stored; the rest is the closed form of
    a symmetric 2x2 matrix.  ``eigenvalues`` are ascending, ``soft_vector`` is
    the unit eigenvector of the smallest one, i.e. the direction in which order
    develops first, with its larger component positive (the M component on a
    tie), and ``stable`` is true while both curvatures are positive.
    """

    mm: float
    ms: float
    ss: float

    @property
    def determinant(self) -> float:
        # the product can overflow where both eigenvalues are finite
        return _finite(self.mm * self.ss - self.ms * self.ms, "determinant")

    @property
    def eigenvalues(self) -> tuple[float, float]:
        # As LAPACK's dlae2: the eigenvalue farther from zero is a sum of like-signed terms, and the nearer one
        # is determinant / far, so neither cancels and a diagonal matrix gives back its entries exactly.
        d = 0.5 * (self.mm - self.ss)
        shift = self.ms * (self.ms / (math.hypot(d, self.ms) + abs(d))) if self.ms else 0.0
        far = max(self.mm, self.ss) + shift if self.mm + self.ss >= 0 else min(self.mm, self.ss) - shift
        if far == 0.0:  # the zero matrix
            return 0.0, 0.0
        big, small = (self.mm, self.ss) if abs(self.mm) >= abs(self.ss) else (self.ss, self.mm)
        near = (big / far) * small - (self.ms / far) * self.ms
        return (near, far) if far > 0 else (far, near)

    @property
    def soft_vector(self) -> tuple[float, float]:
        # (ms, low - mm) and (low - ss, ms) each solve one row of (matrix - low) v = 0; the longer is
        # better conditioned.  With d = (mm - ss)/2 its long side is -(|d| + half), free of cancellation.
        d = 0.5 * (self.mm - self.ss)
        side = -(abs(d) + math.hypot(d, self.ms))
        m, s = (self.ms, side) if d >= 0 else (side, self.ms)
        norm = math.hypot(m, s)
        if norm == 0.0:  # a multiple of the identity: every direction is soft
            return 1.0, 0.0
        m, s = m / norm, s / norm
        return (-m, -s) if (m if abs(m) >= abs(s) else s) < 0 else (m, s)

    @property
    def stable(self) -> bool:
        return self.eigenvalues[0] > 0


def hessian(p: ModelParams) -> HessianReport:
    """Curvature of the sector energy around (M, S) = (0, 0), S = Sigma / 2."""
    d_stiff = _stiffness(p)
    n = p.n_particles
    return HessianReport(
        mm=2.0 * p.g_eff / n - 8.0 * _square(p.g, "mm") * _square(p.phi, "mm") / d_stiff,
        ms=-4.0 * p.g * p.phi * p.eta / d_stiff,
        ss=0.5 * p.g_eff * n - 2.0 * _square(p.eta, "ss") / d_stiff,
    )


def _threshold_terms(p: ModelParams) -> tuple[float, float]:
    """A = N g_eff hbar_omega / 4 > 0 and B = N^2 g (g_eff - g): A + B phi^2 = mm N^2 D / 8 is eta_c^2."""
    n = p.n_particles
    return 0.25 * n * p.g_eff * p.hbar_omega, n * n * p.g * (p.g_eff - p.g)


def critical_eta(p: ModelParams) -> float:
    """Critical Zeeman coupling eta_c = sqrt(N g_eff hbar_omega / 4 + N^2 g (g_eff - g) phi^2).

    The balanced state is stable below it.  The radicand is mm N^2 D / 8, so once g > g_eff and phi
    reaches the orbital critical flux there is none: NoTransitionError.  An eta_c that floats cannot
    hold (it overflows, or underflows to 0) raises ValueError.
    """
    a, b = _threshold_terms(p)
    radicand = a + b * _square(p.phi, "eta_c")
    if p.g_eff < p.g and radicand <= 0:  # a > 0, so only a negative b closes the window
        raise NoTransitionError(f"no Zeeman-driven instability for g={p.g}, g_eff={p.g_eff}, phi={p.phi}: "
                                "the orbital channel is already unstable (hessian(p).mm <= 0)")
    return _positive(math.sqrt(radicand), "eta_c")


def critical_flux_spin(p: ModelParams) -> float:
    """Critical flux at fixed eta: critical_eta's eta^2 = A + B phi^2 solved for phi.

    It reduces to the orbital critical flux as eta -> 0.  A spin-driven transition
    (eta^2 > A) needs g_eff > g, an orbital-driven one (eta^2 < A) g_eff < g.  At
    g_eff = g, where phi drops out, and for a phi_c that floats cannot hold, ValueError.
    """
    if p.g_eff == p.g:
        raise ValueError("g_eff = g makes the flux dependence drop out; the threshold is critical_eta(p)")
    a, b = _threshold_terms(p)
    excess = _square(p.eta, "phi_c") - a
    if not (excess > 0 if p.g_eff > p.g else excess < 0):  # the signs decide, not a quotient that underflowed
        raise NoTransitionError(f"no flux-driven instability for eta={p.eta}, g={p.g}, g_eff={p.g_eff}: "
                                "the determinant condition has no real root in phi")
    return _positive(math.sqrt(excess / b) if b else math.inf, "phi_c")


def locking_ratio(p: ModelParams) -> float:
    """Ratio M/S of the soft mode (S = Sigma / 2), evaluated at the given couplings.

    ratio = 2 g phi eta / (g_eff D / N - 4 g^2 phi^2) with
    D = hbar_omega + 4 g N phi^2.  On the critical manifold this equals the
    component ratio of the Hessian's zero eigenvector; it is odd in phi and
    vanishes at phi = 0 (pure spin mode).  A vanishing denominator signals a
    pure-orbital soft mode and is reported as a signed infinity, not raised.
    """
    d_stiff = _stiffness(p)
    num = 2.0 * p.g * p.phi * p.eta
    den = p.g_eff * d_stiff / p.n_particles - 4.0 * _square(p.g, "locking_ratio") * _square(p.phi, "locking_ratio")
    if den == 0.0:
        return math.copysign(math.inf, num) if num != 0.0 else math.inf
    return num / den
