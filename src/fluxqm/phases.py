"""Detection of the balanced-polarized first-order transition.

The sector energies g_eff W - chi M^2 set up a competition: kinetic weight W
favors symmetric filling around zero angular momentum, the flux-induced
attraction favors a macroscopically boosted Fermi sea.  Because a rigid boost
of a balanced sea by s units costs exactly g_eff N s^2 while gaining
chi (N s)^2, all boosts become favorable at once when chi crosses g_eff / N,
producing a first-order jump whose polarization is limited only by the
orbital cutoff.  This module provides the closed-form critical couplings and
an exhaustive ground-state search over a bounded orbital window that serves
as the independent check of those formulas.  The window's configurations are
enumerated once per (N, m_max) into a cached numpy table; since the energy
depends only on (M, W), each search scans one representative row per distinct
(M, W) pair (33,668 of the 237,336 rows for N = 5, m_max = 16).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .core import FermionConfig, ModelParams, _check_int, _check_positive, _square
from .errors import NoTransitionError
from .linearmode import induced_coupling, mode_displacement, sector_energy

__all__ = [
    "GroundState",
    "balanced_config",
    "boosted_config",
    "critical_chi",
    "critical_flux",
    "ground_state_search",
]


@dataclass(frozen=True)
class GroundState:
    """Result of an exhaustive sector minimization.

    ``displacement_a`` is the coherent cavity amplitude <a> of the winning
    sector.  ``boundary_contact`` warns that the optimum touches the orbital
    cutoff, which is expected in the polarized phase (the polarization is
    cutoff-limited) but means the reported M is not converged in m_max.  The
    properties ``order_m``, the winner's total angular momentum M, and
    ``photon_number``, its displaced-vacuum value |<a>|^2, follow from the
    stored fields.
    """

    config: FermionConfig
    energy: float
    displacement_a: float
    phase_label: str
    boundary_contact: bool

    @property
    def order_m(self) -> int:
        return self.config.m_total

    @property
    def photon_number(self) -> float:
        return _square(self.displacement_a, "photon_number")


def balanced_config(n: int) -> FermionConfig:
    """Symmetric minimal-kinetic-energy filling {-K..K} for odd N = 2K + 1.

    Its kinetic weight is K(K+1)(2K+1)/3.  Even N has no symmetric filling of
    distinct orbitals with M = 0 at minimal W and is rejected; use
    ground_state_search for even particle numbers.
    """
    n = _check_int(n, "n", lo=1)
    if n % 2 == 0:
        raise ValueError(f"balanced_config requires odd n, got {n}")
    k = (n - 1) // 2
    return FermionConfig(range(-k, k + 1))


def boosted_config(cfg: FermionConfig, shift: int) -> FermionConfig:
    """Rigid boost m_i -> m_i + shift of every particle (spins preserved).

    Shifts total momentum by N*shift; starting from a balanced sea the
    kinetic weight grows by exactly N*shift^2.
    """
    return FermionConfig((m + shift for m in cfg.orbitals), cfg.spins)


def critical_chi(w_pol: int, w_bal: int, m_pol: int) -> float:
    """Coupling at which a candidate polarized sector crosses the balanced one.

    chi_c = g_eff (W_pol - W_bal) / M_pol^2, quoted here per unit g_eff.
    """
    if m_pol == 0:
        raise ValueError("m_pol must be nonzero: an unpolarized candidate never crosses")
    return (w_pol - w_bal) / m_pol**2


def critical_flux(p: ModelParams) -> float:
    """Flux amplitude where the induced attraction reaches g_eff / N.

    phi_c = sqrt(g_eff hbar_omega / (4 g N (g - g_eff))).  Since chi saturates
    at g/N, the crossing exists only for g > g_eff (effective mass heavier
    than bare).  A phi_c that floats cannot hold (the denominator underflows
    to 0, or the result overflows or underflows to 0) raises ValueError.
    """
    if p.g <= p.g_eff:
        raise NoTransitionError(
            f"no orbital transition: requires g > g_eff, got g={p.g}, g_eff={p.g_eff} "
            "(the induced coupling saturates below the kinetic stiffness)"
        )
    denom = 4.0 * p.g * p.n_particles * (p.g - p.g_eff)  # underflows to 0 for tiny g
    phi_c = math.sqrt(p.g_eff * p.hbar_omega / denom) if denom else math.inf
    _check_positive(phi_c=phi_c)
    return phi_c


def _check_window(n_particles: int, m_max: int) -> int:
    """Return m_max as an int; raise ValueError unless the window |m| <= m_max holds n_particles distinct orbitals."""
    m_max = _check_int(m_max, "m_max")
    if 2 * m_max + 1 < n_particles:
        raise ValueError(f"m_max must satisfy 2*m_max+1 >= n_particles = {n_particles}, got {m_max}")
    return m_max


@lru_cache(maxsize=16)
def _sector_table(n_particles: int, m_max: int):
    """All distinct-orbital configurations with |m_i| <= m_max, pre-sorted.

    ``configs`` is a (C(2 m_max + 1, N), N) integer array with one row per
    configuration, sorted by (|M|, orbital tuple) so that among exactly
    degenerate energies the first minimum is the smallest |M| and then the
    lexicographically smallest orbital list, making searches reproducible bit
    for bit.  The energy depends only on (M, W), so ``rows`` keeps the first
    row of each distinct (M, W) pair, in table order, and ``w`` and ``m2``
    hold their W and M^2 as floats: an argmin over the representatives lands
    on the first minimum of the whole table.
    """
    import numpy as np
    combos = itertools.combinations(range(-m_max, m_max + 1), n_particles)
    count = math.comb(2 * m_max + 1, n_particles)
    dtype = np.min_scalar_type(-m_max - 1)  # smallest signed type that holds -m_max..m_max
    flat = np.fromiter(itertools.chain.from_iterable(combos), dtype, count * n_particles)
    configs = flat.reshape(count, n_particles)  # lexicographic, as combinations yields them
    # |M| <= N m_max and W <= N m_max^2, so the (M, W) key below and M^2 are at most key_max;
    # m, w and key share the smallest signed type that holds it (int32 for N = 5, m_max = 16)
    w_stride = n_particles * m_max * m_max + 1
    key_max = 2 * n_particles * m_max * w_stride + w_stride - 1
    key_dtype = np.min_scalar_type(-key_max - 1)
    m = configs.sum(axis=1, dtype=key_dtype)
    configs = configs[np.argsort(np.abs(m), kind="stable")]
    m = configs.sum(axis=1, dtype=key_dtype)  # summed again: keeping the int64 permutation costs peak memory
    w = np.einsum("ij,ij->i", configs, configs, dtype=key_dtype)
    # kinetic-optimal reference: what "balanced" means for this (N, m_max)
    w_ref = int(w.min())
    m_ref = int(np.abs(m[w == w_ref]).min())
    key = (m + n_particles * m_max) * w_stride + w
    rows = np.sort(np.unique(key, return_index=True)[1])
    return configs, rows, w[rows].astype(float), (m[rows] * m[rows]).astype(float), w_ref, m_ref


def ground_state_search(p: ModelParams, m_max: int) -> GroundState:
    """Exhaustive minimization of g_eff W - chi M^2 over |m_i| <= m_max.

    Enumerates every distinct-orbital configuration in the window (no
    heuristics), so the result is exact for the truncated problem.  Ties are
    broken toward smaller |M|, then the lexicographically smallest orbital
    list; the two time-reversed branches of a polarized minimum are exactly
    degenerate, so the tie-break selects one deterministically.  The phase
    label is "balanced" when the winner has the kinetic-optimal (W, |M|) of
    the window and "polarized" otherwise.
    """
    import numpy as np
    m_max = _check_window(p.n_particles, m_max)
    configs, rows, w, m2, w_ref, m_ref = _sector_table(p.n_particles, m_max)
    chi = induced_coupling(p)
    best = rows[int(np.argmin(p.g_eff * w - chi * m2))]
    cfg = FermionConfig(configs[best])
    balanced = cfg.w_kinetic == w_ref and abs(cfg.m_total) == m_ref
    return GroundState(
        config=cfg,
        energy=sector_energy(p, cfg, 0),
        displacement_a=mode_displacement(p, cfg.m_total),
        phase_label="balanced" if balanced else "polarized",
        boundary_contact=max(abs(m) for m in cfg.orbitals) == m_max,
    )
