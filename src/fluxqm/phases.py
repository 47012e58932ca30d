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
enumerated once per (N, m_max) into a cached numpy table of at most
_MAX_WINDOW_ROWS rows and _MAX_WINDOW_ENTRIES orbitals, built in place one orbital position at a time from
slice copies, with no Python object per entry (112 copies for N = 5,
m_max = 16); since at fixed M the energy rises with W, each search scans one
row per reachable M, its least-W configuration (141 of the 237,336 rows for
N = 5, m_max = 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import FermionConfig, ModelParams, _check_int, _positive, _square
from .errors import NoTransitionError
from .linearmode import induced_coupling, mode_displacement, sector_energy

__all__ = [
    "GroundState",
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
    return _positive(math.sqrt(p.g_eff * p.hbar_omega / denom) if denom else math.inf, "phi_c")


_MAX_WINDOW_ROWS = 4_000_000
_MAX_WINDOW_ENTRIES = 10 * _MAX_WINDOW_ROWS  # rows times N: every window of at most the row cap for N <= 10


def _check_window(n_particles: int, m_max: int) -> int:
    """Return m_max as an int; raise ValueError unless the window |m| <= m_max holds n_particles distinct
    orbitals in at most _MAX_WINDOW_ROWS = 4,000,000 configurations, C(2 m_max + 1, N), and its table of N
    orbitals per configuration in at most _MAX_WINDOW_ENTRIES = 40,000,000 entries.

    Building the table peaks at 11 to 19 bytes per row for 2 <= N <= 10 near the cap (traced with
    tracemalloc, numpy 2.4; 17.0 for N = 2, m_max = 706 and 1413, 12.0 for N = 5, m_max = 16 and 27), so
    under 80 MB.  N = 1, where every row is the only one of its M, peaks at 60 bytes per row (m_max = 99,999
    and 199,998), 240 MB at the cap.  N = 5, m_max = 16 has 237,336 rows; N = 5, m_max = 100 has 2.6 billion.
    The entry cap leaves every window of N <= 10 that the row cap admits, and stops a large N whose few
    rows are long: N = 1,000,000 with m_max = 500,000 has 1,000,001 rows, 10^12 entries.
    """
    m_max = _check_int(m_max, "m_max")
    width = 2 * m_max + 1
    if width < n_particles:
        raise ValueError(f"m_max must satisfy 2*m_max+1 >= n_particles = {n_particles}, got {m_max}")
    rows = 1
    # C(width, k + 1) factor by factor, stopping once past the cap: math.comb takes minutes at N ~ 1e6
    for k in range(min(n_particles, width - n_particles)):
        rows = rows * (width - k) // (k + 1)
        if rows > _MAX_WINDOW_ROWS:
            raise ValueError(f"m_max must keep the window's C(2*m_max+1, {n_particles}) configurations "
                             f"at most {_MAX_WINDOW_ROWS:,}, got {m_max}")
    if rows * n_particles > _MAX_WINDOW_ENTRIES:
        raise ValueError(f"m_max must keep the window's C(2*m_max+1, {n_particles}) configurations of "
                         f"{n_particles} orbitals at most {_MAX_WINDOW_ENTRIES:,} entries, got {m_max}")
    return m_max


@lru_cache(maxsize=16)
def _sector_table(n_particles: int, m_max: int):
    """All distinct-orbital configurations with |m_i| <= m_max, and one row per reachable M.

    ``configs`` is a (C(2 m_max + 1, N), N) array of the smallest signed
    integer type that holds m_max, with one row per configuration, in
    lexicographic order.  It is built in place in numpy, last column first:
    the k-orbital endings of its first rows come from the (k - 1)-orbital
    endings above them by one slice copy per leading orbital.  The table is
    stored column-major, so each copy runs down contiguous columns; numpy
    stages it through a temporary no larger than the endings copied.
    At fixed M the energy g_eff W - chi M^2 rises with W (g_eff > 0, and
    float rounding is monotone), so ``rows`` indexes the one configuration of
    least W of each reachable M, ordered by (|M|, orbital tuple): among exactly
    degenerate energies the first minimum is the smallest |M| and then the
    lexicographically smallest orbital list, making searches reproducible bit
    for bit.  ``w`` and ``m2`` hold the rows' W and M^2 as floats, and
    ``w_ref`` is the least W of the window.
    """
    import numpy as np
    dtype = np.min_scalar_type(-m_max - 1)  # smallest signed type that holds -m_max..m_max
    # Level k, the last k orbitals of the first C(top + k, k) rows, is every k-orbital set of the highest
    # top + k orbitals in lexicographic order.  Each of its blocks after the first, that of the lowest
    # leading orbital, lies below level k - 1 and copies its last rows, so nothing is overwritten while read.
    width = 2 * m_max + 1
    top = width - n_particles
    configs = np.empty((math.comb(width, n_particles), n_particles), dtype, order="F")  # contiguous columns
    configs[:top + 1, -1] = np.arange(n_particles - 1 - m_max, m_max + 1, dtype=dtype)
    for k in range(2, n_particles + 1):
        col = n_particles - k
        above = math.comb(top + k - 1, k - 1)  # rows of level k - 1: all of it follows the lowest orbital
        configs[:above, col] = col - m_max
        row = above
        for v in range(col - m_max + 1, m_max - k + 2):
            tail = math.comb(m_max - v, k - 1)  # level k - 1's rows that start above v
            configs[row:row + tail, col] = v
            configs[row:row + tail, col + 1:] = configs[above - tail:above, col + 1:]
            row += tail
    # |M| <= N m_max, W <= N m_max^2 and M^2 <= (N m_max)^2: m, w and m^2 share the smallest
    # signed type that holds (N m_max)^2 (int16 for N = 5, m_max = 16)
    m_bound = n_particles * m_max
    int_dtype = np.min_scalar_type(-m_bound * m_bound - 1)
    m = np.einsum("ij->i", configs, dtype=int_dtype)
    w = np.einsum("ij,ij->i", configs, configs, dtype=int_dtype)
    # least W of each M, indexed by M itself: a negative M wraps to the top half of the 2 N m_max + 1 slots
    least_w = np.full(2 * m_bound + 1, np.iinfo(int_dtype).max, int_dtype)
    np.minimum.at(least_w, m, w)
    # one row per M: two gaps in a least-W set could close inward at the same sum and lower W, so the set
    # is a run of N orbitals or a run of N + 1 with one inside orbital left out, and the sum fixes which
    rows = np.flatnonzero(w == least_w[m])
    rows = rows[np.lexsort((rows, np.abs(m[rows])))]
    m, w = m[rows], w[rows]
    # kinetic-optimal reference: what "balanced" means for this (N, m_max)
    return configs, rows, w.astype(float), (m * m).astype(float), int(w.min())


def ground_state_search(p: ModelParams, m_max: int) -> GroundState:
    """Exhaustive minimization of g_eff W - chi M^2 over |m_i| <= m_max.

    Enumerates every distinct-orbital configuration in the window (no
    heuristics), so the result is exact for the truncated problem.  Ties are
    broken toward smaller |M|, then the lexicographically smallest orbital
    list; the two time-reversed branches of a polarized minimum are exactly
    degenerate, so the tie-break selects one deterministically.  The phase
    label is "balanced" when the winner has the least W of the window and
    "polarized" otherwise: every least-W set is the N orbitals nearest 0, so
    all of them share |M|.
    """
    import numpy as np
    m_max = _check_window(p.n_particles, m_max)
    configs, rows, w, m2, w_ref = _sector_table(p.n_particles, m_max)
    chi = induced_coupling(p)
    best = rows[int(np.argmin(p.g_eff * w - chi * m2))]
    cfg = FermionConfig(configs[best])
    return GroundState(
        config=cfg,
        energy=sector_energy(p, cfg, 0),
        displacement_a=mode_displacement(p, cfg.m_total),
        phase_label="balanced" if cfg.w_kinetic == w_ref else "polarized",
        boundary_contact=max(abs(m) for m in cfg.orbitals) == m_max,
    )
