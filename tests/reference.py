"""Closed forms that only the tests use: closed-shell fillings, their boosts and crossings, and the
lattice estimate of the Dirac ring's diamagnetic stiffness ``d_eff``, which no command reads."""

import math

from fluxqm import FermionConfig
from fluxqm.core import _check_finite, _check_int, _check_positive, _square


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


def diamagnetic_stiffness(
    eps0: float, filling: float, n_sites: int, phi: float, spinful: bool = False
) -> float:
    """Flux stiffness of a uniformly threaded lattice ring at the given filling.

    D_eff / eps0 = (2/pi) (phi^2 / N_s) sin(pi nu) for spinless fermions,
    doubled when a spin-degenerate band is filled.  This is the large-N_s
    form of -(phi/N_s)^2 times the filled-band kinetic energy.
    """
    if not 0.0 < filling < 1.0:
        raise ValueError(f"filling must lie in (0, 1), got {filling}")
    _check_int(n_sites, "n_sites", lo=2)
    _check_positive(eps0=eps0)
    _check_finite(phi=phi)
    d_eff = eps0 * (2.0 / math.pi) * (_square(phi, "d_eff") / n_sites) * math.sin(math.pi * filling)
    _check_finite(d_eff=d_eff)
    return 2.0 * d_eff if spinful else d_eff
