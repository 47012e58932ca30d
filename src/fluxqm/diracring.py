"""Linear-dispersion (Dirac) ring coupled to the quantized flux.

The conduction-band ring levels are eps0 |m + 1/2| with level scale
eps0 = hbar v_F / R, and for occupations that avoid the band bottom the flux
couples linearly to the chirality imbalance J = N_plus - N_minus between the
two counter-propagating branches; J has the parity of N, so an odd-N ring is
balanced at |J| = 1 and still drives the mode.  Eliminating the mode yields an
attraction -chi J^2; with consecutive filling at branch capacity g_d the
kinetic cost of imbalance is (eps0 / 4 g_d) J^2, the branch stiffness
``DiracParams.branch_stiffness``, so the ground state jumps from the balanced
|J| = N mod 2 to the cutoff-limited |J|max when chi crosses it.  A lattice
regularization adds a small diamagnetic stiffness D_eff, the ``d_eff``
input, that saturates chi.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

from .core import _check_fields, _check_int, _count, _finite, _non_negative, _positive, _square
from .errors import NoTransitionError

__all__ = [
    "DiracParams",
    "induced_coupling_dirac",
    "effective_energy",
    "critical_flux_dirac",
    "flux_displacement",
    "optimal_chirality",
]


def _degeneracy(value, name: str) -> int:
    """The branch capacity ``value`` as an int; raise ValueError naming ``name`` unless it is 1, 2 or 4."""
    degeneracy = _check_int(value, name)
    if degeneracy not in (1, 2, 4):
        raise ValueError(f"{name} must be 1, 2 or 4, got {degeneracy}")
    return degeneracy


@dataclass(frozen=True)
class DiracParams:
    """Couplings of the flux-coupled Dirac ring, energies in E0.

    ``degeneracy`` is the per-level branch capacity (spin x valley; 4 for a
    monolayer).  ``d_eff`` is the lattice diamagnetic stiffness; zero in the
    strictly linear theory.
    """

    eps0: float
    hbar_omega: float
    phi: float
    n_electrons: int
    degeneracy: int = 4
    d_eff: float = 0.0

    _RULES: ClassVar[tuple] = (  # each field's rule, as core._check_fields applies them
        (_positive, ("eps0", "hbar_omega")),
        (_non_negative, ("phi", "d_eff")),
        (_count, ("n_electrons",)),
        (_degeneracy, ("degeneracy",)),
    )

    def __post_init__(self):
        _check_fields(self)

    @property
    def coupling_lambda(self) -> float:
        """Linear drive strength eps0 * phi."""
        return self.eps0 * self.phi

    @property
    def branch_stiffness(self) -> float:
        """Kinetic cost eps0 / (4 g_d) per unit J^2; chi crossing it is the transition."""
        return self.eps0 / (4.0 * self.degeneracy)

    @property
    def mode_stiffness(self) -> float:
        """Cavity stiffness hbar_omega + 2 D_eff phi^2 that the chirality drive displaces; raises if it overflows."""
        stiffness = self.hbar_omega + 2.0 * self.d_eff * _square(self.phi, "mode_stiffness")
        return _finite(stiffness, "mode_stiffness")  # an inf stiffness would read chi = lambda^2 / inf = 0.0


def induced_coupling_dirac(p: DiracParams) -> float:
    """Chirality attraction chi = (eps0 phi)^2 / (hbar_omega + 2 D_eff phi^2).

    With d_eff = 0 the mode is eliminated by an exact displacement and
    chi = lambda^2 / hbar_omega; a finite stiffness saturates the coupling.
    """
    lam = p.coupling_lambda
    return _finite(_square(lam, "chi") / p.mode_stiffness, "chi")  # eps0 * phi can overflow to inf without raising


def effective_energy(j: int, p: DiracParams, chi: Optional[float] = None) -> float:
    """Electronic ground-state functional of the chirality imbalance.

    E(J) = (eps0 / 4 g_d) N^2 + (eps0 / 4 g_d - chi) J^2 in the consecutive
    filling (large-N) approximation.  ``chi`` defaults to the value induced by
    the parameters themselves.
    """
    _check_int(j, "j", -p.n_electrons, p.n_electrons)
    chi = induced_coupling_dirac(p) if chi is None else _finite(chi, "chi")
    stiffness = p.branch_stiffness
    energy = stiffness * p.n_electrons**2 + (stiffness - chi) * j * j
    return _finite(energy, "energy")  # eps0 N^2 / (4 g_d) can overflow


def critical_flux_dirac(p: DiracParams) -> float:
    """Flux amplitude where chi crosses the branch stiffness eps0 / (4 g_d).

    phi_c^2 = hbar_omega / (4 g_d eps0 - 2 D_eff); the stiffness-saturated
    coupling never reaches threshold once 2 D_eff >= 4 g_d eps0.  A phi_c
    that overflows (a subnormal eps0) or underflows to 0 (a subnormal
    hbar_omega) raises ValueError.
    """
    denom = 4.0 * p.degeneracy * p.eps0 - 2.0 * p.d_eff
    if denom <= 0:
        raise NoTransitionError(
            f"no transition: diamagnetic stiffness {p.d_eff} saturates the induced "
            f"coupling below the branch stiffness (need 4 g_d eps0 > 2 D_eff)"
        )
    return _positive(math.sqrt(p.hbar_omega / denom), "phi_c")


def flux_displacement(j: int, p: DiracParams) -> tuple[float, float]:
    """Coherent amplitude and photon number of the mode in a sector of imbalance j.

    <a> = -lambda j / (hbar_omega + 2 phi^2 D_eff) and <n> = <a>^2.  Both are
    zero in the balanced phase of an even-N ring; an odd-N ring is balanced at
    |j| = 1 and keeps a small displacement.  Both jump discontinuously with j
    across the transition; <a> is odd and <n> even under j -> -j.
    """
    amp = -p.coupling_lambda * _check_int(j, "j", -p.n_electrons, p.n_electrons) / p.mode_stiffness
    return amp, _finite(amp * amp, "photon_number")  # |<a>| above about 1.3e154 squares to inf


def _check_j_max(j_max: Optional[int], n_electrons: int) -> int:
    """The chirality cutoff as an int, N for None; raise ValueError unless it lies in [N mod 2, N], where |J| lies."""
    return n_electrons if j_max is None else _check_int(j_max, "j_max", n_electrons % 2, n_electrons)


def optimal_chirality(p: DiracParams, chi: Optional[float] = None, j_max: Optional[int] = None) -> int:
    """Integer imbalance of N's parity minimizing effective_energy over |j| <= j_max.

    ``j_max`` defaults to N (every electron on one branch).  Ties are broken
    toward smaller |j|, then toward the negative branch, so the first-order
    jump lands deterministically on one of the two degenerate branches.
    """
    j_max = _check_j_max(j_max, p.n_electrons)
    chi = induced_coupling_dirac(p) if chi is None else _finite(chi, "chi")
    # effective_energy without its checks, in its operand order, so every energy is bit-identical; E(-m) equals
    # E(m), and the first minimum over m >= 0 sets the tie-break.  Rounding is monotone, so E never falls in m
    # for slope >= 0 and never rises otherwise: bisection finds the first m whose energy equals the last one's.
    stiffness = p.branch_stiffness
    base, slope = stiffness * p.n_electrons**2, stiffness - chi
    ms = range(p.n_electrons % 2, j_max + 1, 2)
    if slope >= 0:
        return -ms[0]
    return -ms[bisect.bisect_left(ms, -(base + slope * ms[-1] * ms[-1]), key=lambda m: -(base + slope * m * m))]
