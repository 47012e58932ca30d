"""Tight-binding ring with a quantized hopping phase: exact sector reduction.

When every bond of an M-site ring carries the same quantized phase eta*x
(x = (a + a^dag)/sqrt(2) the cavity quadrature), each momentum occupation
sector {n_k} reduces to a single-mode problem

    H = -2t [C cos(eta x) - S sin(eta x)] + hbar_omega a^dag a,

with the sector constants C = sum cos(k a), S = sum sin(k a) over occupied
momenta k a = 2 pi n / M (the lattice constant cancels), which a ``TBSector``
derives from its occupations.  Two independent solvers are provided: a
Fock-basis build from the closed-form matrix elements (generalized Laguerre
polynomials) of the displacement operator, whose real and imaginary parts are
the cosine and sine matrices, whose cutoff follows ``gridsolve._fock_ladder``,
and a real-space sinc discrete-variable representation
(``gridsolve.converged_bound_states``), whose grid is doubled likewise.  Both
refinements stop by the one rule of ``gridsolve._refine``, and both eigensolves
are numpy's.  Compressing C cos - S sin into a single shifted cosine maps each
sector exactly onto a flux-biased junction circuit

    4 E_C n_phi^2 + (E_L / 2)(phi - phi_ext)^2 - E_J cos(phi),

with E_J = 2t sqrt(C^2 + S^2), phi_ext = atan2(S, C), E_L = hbar_omega/eta^2
and E_C = hbar_omega eta^2 / 8, so E_C E_L = (hbar_omega)^2 / 8 always: eta
only trades charge-like against flux-like regimes.  The junction element here
is synthetic, generated by the ring electrons, and its parameters follow the
occupied sector rather than fabrication.  The real-space levels are this
circuit's phi-grid solve, so a wrong map shows up against the Fock basis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .core import _check_int, _check_positive, _finite, _non_negative, _positive, _square
from .gridsolve import _fock_ladder, converged_bound_states

if TYPE_CHECKING:  # annotations only; the functions that use numpy import it
    import numpy as np

__all__ = [
    "TBSector",
    "RfSquidParams",
    "sector_constants",
    "displacement_operator",
    "sector_spectrum_fock",
    "sector_spectrum_xrep",
    "rf_squid_map",
    "rf_squid_spectrum",
]

_GRID_POINTS = 96  # first real-space DVR grid; refinement doubles its interval count
_SQUID_HALF_SPAN = 14.0  # phi-grid half-width in oscillator lengths of the inductive well


@dataclass(frozen=True)
class TBSector:
    """Occupation sector of the ring: distinct (spinless) momentum indices in [0, m_sites), stored sorted.

    The properties ``c_sum = C`` and ``s_sum = S``, exactly rounded sums of cos and sin of
    k a = 2 pi n / m_sites, ``e_j_amp = sqrt(C^2 + S^2)`` and ``delta = atan2(S, C)`` follow.
    """

    occupations: tuple[int, ...]
    m_sites: int

    def __post_init__(self):
        object.__setattr__(self, "m_sites", _check_int(self.m_sites, "m_sites", lo=1))
        occ = tuple(sorted(_check_int(n, "occupation", 0, self.m_sites - 1) for n in self.occupations))
        if not occ:
            raise ValueError("sector must occupy at least one momentum index")
        if len(set(occ)) != len(occ):
            raise ValueError(f"Pauli exclusion violated: duplicate momentum indices in {occ}")
        object.__setattr__(self, "occupations", occ)

    @property
    def c_sum(self) -> float:
        return math.fsum(math.cos(2.0 * math.pi * n / self.m_sites) for n in self.occupations)

    @property
    def s_sum(self) -> float:
        return math.fsum(math.sin(2.0 * math.pi * n / self.m_sites) for n in self.occupations)

    @property
    def e_j_amp(self) -> float:
        return math.hypot(self.c_sum, self.s_sum)

    @property
    def delta(self) -> float:
        return math.atan2(self.s_sum, self.c_sum)


@dataclass(frozen=True)
class RfSquidParams:
    """Flux-biased junction-circuit parameters of one ring sector.

    Stores ``e_j``, ``phi_ext``, the phase scale ``eta`` and ``hbar_omega``.
    The properties ``e_l = hbar_omega / eta^2`` and
    ``e_c = hbar_omega eta^2 / 8`` follow, so ``e_c * e_l == hbar_omega^2 / 8``
    up to rounding; the double-well criterion is governed by the property
    ``beta_ratio = e_j / e_l``.  The phase variable is phi = eta x + phi_ext
    with conjugate charge p/eta, so eta = 0 is singular (infinite inductive
    energy) and is rejected.
    """

    e_j: float
    phi_ext: float
    eta: float
    hbar_omega: float

    def __post_init__(self):
        for name, value in vars(self).items():
            _finite(value, name)
        if self.eta == 0.0:
            raise ValueError("eta must be nonzero: the phase-variable map degenerates at eta = 0")
        _positive(self.hbar_omega, "hbar_omega")
        # hbar_omega / eta^2 and hbar_omega eta^2 / 8 are positive, but each can overflow or underflow to 0
        _check_positive(e_l=self.e_l, e_c=self.e_c)

    @property
    def e_l(self) -> float:
        eta2 = _square(self.eta, "e_l")
        if eta2 == 0.0:
            raise ValueError(f"e_l must be finite, but {self.eta}**2 underflows to 0")
        return self.hbar_omega / eta2

    @property
    def e_c(self) -> float:
        return self.hbar_omega * _square(self.eta, "e_c") / 8.0

    @property
    def beta_ratio(self) -> float:
        return self.e_j / self.e_l


def sector_constants(occupied: Iterable[int], m_sites: int) -> TBSector:
    """The sector of the occupied momentum indices n (momenta k a = 2 pi n / m_sites), with its C and S."""
    return TBSector(tuple(occupied), m_sites)


# Past this e^(-lam^2/2) is subnormal or zero, and every band seeded from it loses its digits.
_MAX_HALF_LAM_SQ = -math.log(sys.float_info.min)
_PHASES = (1, 1j, -1, -1j)  # i^D for D mod 4, exact for every exponent


def _displacement_bands(lam: float, size: int) -> np.ndarray:
    """Magnitudes m[l, D] = e^(-lam^2/2) lam^D sqrt(l!/(l+D)!) L_l^(D)(lam^2) of the bands D = 0..size-1.

    Filled where l + D < size, i.e. on the |0..size-1> block; the rest stays 0.
    Computed by upward recursion in l on the *normalized* values, whose
    coefficients are all O(1), for every band at once; this stays stable where
    factorial-ratio evaluation overflows (indices beyond ~170).  Each band's
    seed uses log-gamma.
    """
    import numpy as np
    _non_negative(lam, "lam")
    if 0.5 * lam * lam > _MAX_HALF_LAM_SQ:
        raise ValueError(f"lam = {lam} too large: the e^(-lam^2/2) seed underflows past lam ~ 37.6")
    out = np.zeros((size, size))
    if lam == 0.0:
        out[:, 0] = 1.0
        return out
    x = lam * lam
    log_lam = math.log(lam)
    out[0] = [math.exp(-0.5 * x + d * log_lam - 0.5 * math.lgamma(d + 1)) for d in range(size)]
    bands = np.arange(size)
    for l in range(size - 1):
        k = size - 1 - l  # bands that still have a row l + 1
        d = bands[:k]
        prev2 = out[l - 1, :k] if l else 0.0
        denom = np.sqrt((l + 1.0) * (l + 1.0 + d))
        out[l + 1, :k] = ((2 * l + 1 + d - x) * out[l, :k] - np.sqrt(l * (l + d)) * prev2) / denom
    return out


def displacement_operator(lam: float, cutoff: int) -> np.ndarray:
    """Dense matrix of exp(i*lam*(a+a^dag)) on |0..cutoff>, from its closed-form elements.

    <m|exp(i lam (a + a^dag))|n> = e^(-lam^2/2) sqrt(min!/max!) (i lam)^|m-n| L_min^(|m-n|)(lam^2) of
    m and n, so lam = 0 gives the identity; the matrix is symmetric, and exp(-i lam (a + a^dag)) has the
    conjugate elements.  Raises ValueError past lam ~ 37.6, where e^(-lam^2/2) underflows.  Unitary up
    to truncation: column n is numerically unit-norm once the cutoff exceeds roughly n + 20 lam^2 + 40.
    Even |m-n| bands are real and odd bands imaginary, so the real and imaginary parts are the real
    symmetric matrices of cos and sin of lam (a + a^dag).
    """
    import numpy as np
    dim = _check_int(cutoff, "cutoff", lo=0) + 1
    return _from_bands(_displacement_bands(lam, dim), np.array(_PHASES)[np.arange(dim) % 4])


def _from_bands(mags: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose elements (l + D, l) and (l, l + D) are weights[D] mags[l, D], of weights' dtype."""
    import numpy as np
    dim = len(mags)
    out = np.zeros((dim, dim), dtype=weights.dtype)
    for l in range(dim):
        entries = weights[: dim - l] * mags[l, : dim - l]  # entries (l + D, l) for D = 0..dim - 1 - l
        out[l:, l] = entries
        out[l, l:] = entries
    return out


def _fock_levels(sector: TBSector, t: float, eta: float, hbar_omega: float, cutoff: int) -> np.ndarray:
    """Levels of hbar_omega n - 2t [C cos(eta x) - S sin(eta x)] on |0..cutoff>, built as one real matrix.

    cos and sin are the real and imaginary parts of ``displacement_operator``: band D is i^D times its
    magnitudes, so even bands hold cos with sign (-1)^(D/2) and odd bands sin with sign (-1)^((D-1)/2).
    """
    import numpy as np
    d = np.arange(cutoff + 1)
    # C cos - S sin per band: C or -S, times the sign of i^D's real or imaginary part
    coef = np.where(d % 2 == 0, sector.c_sum, -sector.s_sum) * np.where(d % 4 < 2, 1.0, -1.0)
    h = _from_bands(_displacement_bands(eta / math.sqrt(2.0), cutoff + 1), coef)
    h *= -2.0 * t
    h[d, d] += hbar_omega * d
    return np.linalg.eigvalsh(h)


def sector_spectrum_fock(sector: TBSector, t: float, eta: float, hbar_omega: float, n_levels: int = 5) -> np.ndarray:
    """Lowest sector levels from the closed-form Fock-basis build, ascending.

    Zero-point convention: the cavity term is hbar_omega * a^dag a (no 1/2),
    so at t = 0 the levels are exactly 0, hw, 2hw, ...  The cutoff follows
    ``gridsolve._fock_ladder``, floored at hbar_omega > 0.  The levels are even
    in eta: parity x -> -x maps H(-eta) onto H(eta), so |eta| is solved.
    """
    _finite(t, "t")
    _finite(eta, "eta")
    _positive(hbar_omega, "hbar_omega")
    return _fock_ladder(lambda cutoff: _fock_levels(sector, t, abs(eta), hbar_omega, cutoff), n_levels, hbar_omega,
                        "Fock-basis levels not converged at cutoff {size}")


def sector_spectrum_xrep(sector: TBSector, t: float, eta: float, hbar_omega: float, n_levels: int = 5) -> np.ndarray:
    """Same sector levels from the real-space representation, ascending.

    The real-space operator (hw/2)(-d^2/dX^2 + X^2) - 2t [C cos(eta X) -
    S sin(eta X)] is the sector's junction circuit under phi = eta X + delta,
    so this is ``rf_squid_spectrum(rf_squid_map(...))``: the phi-grid solve,
    whose +-14 oscillator lengths are X in [-14, 14].  It carries the +hw/2
    zero point that the Fock form drops; subtract hbar_omega/2 before
    comparing the two solvers.  eta = 0 raises ValueError, because the map
    degenerates there.
    """
    return rf_squid_spectrum(rf_squid_map(sector, t, eta, hbar_omega), n_levels=n_levels)


def rf_squid_map(sector: TBSector, t: float, eta: float, hbar_omega: float) -> RfSquidParams:
    """Exact junction-circuit parameters of the sector, with phi_ext = delta."""
    _finite(t, "t")
    _finite(eta, "eta")
    _finite(hbar_omega, "hbar_omega")
    return RfSquidParams(e_j=2.0 * t * sector.e_j_amp, phi_ext=sector.delta, eta=eta, hbar_omega=hbar_omega)


def rf_squid_spectrum(params: RfSquidParams, n_levels: int = 5) -> np.ndarray:
    """Levels of 4 E_C n_phi^2 + (E_L/2)(phi - phi_ext)^2 - E_J cos(phi).

    Solved as a sinc-DVR on a phi grid centered at the bias whose half-width
    is 14 oscillator lengths (8 E_C / E_L)^(1/4) of the inductive well,
    starting from 96 points and doubling until the levels are stationary to
    5e-7 relative (floored at hbar_omega).  Matches
    the Fock-basis sector spectrum up to one additive constant (the
    quadrature-form zero point hbar_omega/2).
    """
    import numpy as np
    half_span = _SQUID_HALF_SPAN * (8.0 * params.e_c / params.e_l) ** 0.25

    def potential(y):
        return 0.5 * params.e_l * (y - params.phi_ext) ** 2 - params.e_j * np.cos(y)

    return converged_bound_states(
        potential,
        params.phi_ext - half_span,
        params.phi_ext + half_span,
        _GRID_POINTS,
        kinetic_coef=4.0 * params.e_c,
        n_levels=n_levels,
        scale=params.hbar_omega,
    ).levels
