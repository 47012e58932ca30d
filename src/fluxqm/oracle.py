"""Brute-force Fock-space verifier for the flux-coupled ring model.

This module assembles the full sector Hamiltonian directly from raw oscillator
matrix elements and diagonalizes it, providing ground truth for every closed
form in the package.  It deliberately shares no code with the analytic
modules: the position quadrature X = a + a^dag enters only through its raw
elements <m|X|m+1> = sqrt(m+1), X^2 through the band-restricted products of
those elements, and the sector matrix, pentadiagonal at phi != 0,
tridiagonal at phi = 0 with eta Sigma != 0 and diagonal otherwise, is kept in
LAPACK upper band storage of just those bands and handed to the banded
symmetric eigensolver ``dsbevx`` (through ``scipy.linalg.eig_banded``), which
computes only the requested levels.  Within a fermion sector the occupation
numbers enter only through the integers (M, Sigma, W), which is exact because
the total angular momentum and total spin commute with the cavity operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import FermionConfig, ModelParams, _check_int, _positive, _square

if TYPE_CHECKING:  # annotations only; the functions that use numpy import it
    import numpy as np

__all__ = [
    "OracleReport",
    "GroundStateMoments",
    "oracle_spectrum",
    "ground_state_moments",
    "compare_spectra",
]

_RTOL = 1e-9  # relative level change between cutoff and 2 * cutoff that counts as converged


@dataclass(frozen=True)
class OracleReport:
    """Eigenvalues of one brute-force diagonalization plus convergence data.

    ``max_rel_change`` is how far doubling the Fock cutoff moved the reported
    levels (NaN when the check was skipped); the property ``converged`` is
    true when that is below 1e-9 relative, so a skipped check never is.
    """

    levels: tuple[float, ...]
    cutoff_used: int
    max_rel_change: float

    @property
    def converged(self) -> bool:
        return self.max_rel_change < _RTOL


@dataclass(frozen=True)
class GroundStateMoments:
    """Quadrature moments of the oracle ground state in one fermion sector.

    ``displacement`` is <a> (real for this Hamiltonian); the property
    ``mean_x = sqrt(2) <a>`` and ``var_x`` refer to x = (a + a^dag)/sqrt(2);
    ``photon_number`` is <a^dag a>.
    """

    displacement: float
    var_x: float
    photon_number: float

    @property
    def mean_x(self) -> float:
        return math.sqrt(2.0) * self.displacement


def _x_bands(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands of X and X^2 on Fock states |0..cutoff>, from x_m = <m|X|m+1> = sqrt(m+1).

    Returns (x, x2_diag, x2_second): x_m for m < cutoff, the X^2 diagonal
    x_{m-1}^2 + x_m^2 (x_{-1} = 0, and x_cutoff = 0 at the truncation edge, as
    in the product of the truncated X with itself), and the X^2 second band
    <m|X^2|m+2> = x_m x_{m+1}.  The first band of X^2 vanishes.
    """
    import numpy as np
    x = np.sqrt(np.arange(1, cutoff + 1, dtype=float))
    sq = x * x
    x2_diag = np.zeros(cutoff + 1)
    x2_diag[1:] += sq
    x2_diag[:-1] += sq
    return x, x2_diag, x[:-1] * x[1:]


def _assemble(p: ModelParams, cfg: FermionConfig, cutoff: int) -> np.ndarray:
    """Upper band storage (kd + 1, cutoff + 1) of the sector matrix, ab[kd + i - j, j] = h[i, j].

    The last row holds the diagonal, the row above it the first superdiagonal
    from column 1 and, for kd = 2, row 0 the second superdiagonal from column
    2.  kd is 2 when the X^2 term is nonzero (phi != 0), 1 when only the drive
    is (phi = 0 with eta Sigma != 0) and 0 otherwise, so the banded
    eigensolver spends no band reduction on bands that are exactly 0.
    """
    import numpy as np
    if cfg.n_particles != p.n_particles:
        raise ValueError(f"configuration has {cfg.n_particles} particles, but n_particles = {p.n_particles}")
    x, x2_diag, x2_second = _x_bands(cutoff)
    quad = p.g * p.n_particles * _square(p.phi, "quad")
    drive = 2.0 * p.g * p.phi * cfg.m_total + 0.5 * p.eta * cfg.sigma_total
    ab = np.zeros((3, cutoff + 1))
    ab[2] = p.hbar_omega * np.arange(cutoff + 1, dtype=float) + quad * x2_diag + p.g_eff * cfg.w_kinetic
    ab[1, 1:] = -drive * x
    ab[0, 2:] = quad * x2_second
    kd = 2 if quad else 1 if drive else 0
    return ab[2 - kd:]


def _check_cutoff(cutoff: int, n_levels: int) -> int:
    """Return the Fock cutoff as an int; raise ValueError unless it is at least 50 and holds n_levels levels."""
    cutoff = _check_int(cutoff, "cutoff", lo=50)
    _check_int(n_levels, "n_levels", 1, cutoff)
    return cutoff


def oracle_spectrum(
    p: ModelParams,
    cfg: FermionConfig,
    cutoff: int = 400,
    n_levels: int = 6,
    check_convergence: bool = True,
) -> OracleReport:
    """Lowest eigenvalues of the full sector Hamiltonian in a truncated Fock space.

    When ``check_convergence`` is set, the diagonalization is repeated at twice
    the cutoff and the relative movement of the reported levels (``compare_spectra``'s,
    floored at hbar_omega) is recorded; a movement of 1e-9 or more is flagged
    in the report as non-convergence, never raised.
    """
    cutoff = _check_cutoff(cutoff, n_levels)
    from scipy.linalg import eig_banded

    def lowest(c):
        return eig_banded(_assemble(p, cfg, c), eigvals_only=True, select="i", select_range=(0, n_levels - 1))

    levels, max_change = lowest(cutoff), float("nan")
    if check_convergence:
        coarse, cutoff = levels, 2 * cutoff
        levels = lowest(cutoff)
        max_change = compare_spectra(coarse, levels, scale=p.hbar_omega)
    return OracleReport(levels=tuple(float(v) for v in levels), cutoff_used=cutoff, max_rel_change=max_change)


def ground_state_moments(p: ModelParams, cfg: FermionConfig, cutoff: int = 400) -> GroundStateMoments:
    """Quadrature moments of the sector ground state, from the raw eigenvector; the cutoff must be >= 50."""
    cutoff = _check_cutoff(cutoff, 1)
    import numpy as np
    from scipy.linalg import eig_banded

    _, vecs = eig_banded(_assemble(p, cfg, cutoff), select="i", select_range=(0, 0))
    gs = vecs[:, 0]
    x, x2_diag, x2_second = _x_bands(cutoff)
    mean_big_x = float(2.0 * np.dot(gs[:-1] * x, gs[1:]))
    mean_big_x2 = float(np.dot(x2_diag * gs, gs) + 2.0 * np.dot(gs[:-2] * x2_second, gs[2:]))
    n_op = np.arange(cutoff + 1, dtype=float)
    return GroundStateMoments(
        displacement=mean_big_x / 2.0,
        var_x=(mean_big_x2 - mean_big_x**2) / 2.0,
        photon_number=float(gs @ (n_op * gs)),
    )


def compare_spectra(analytic: Sequence[float], levels: Sequence[float], scale: float = 1.0) -> float:
    """Worst level-by-level relative error of analytic values against oracle eigenvalues.

    Relative error of level i is |a_i - o_i| / max(scale, |o_i|); the
    ``scale`` floor keeps levels at or near zero comparable.  ``scale`` must be
    finite and > 0, and the spectra equally long and not empty.
    """
    import numpy as np
    _positive(scale, "scale")
    a = np.asarray(analytic, dtype=float)
    o = np.asarray(levels, dtype=float)
    if a.shape != o.shape:
        raise ValueError(f"spectrum length mismatch: {a.shape} vs {o.shape}")
    _check_int(len(o), "spectrum length", lo=1)
    return float(np.max(np.abs(a - o) / np.maximum(scale, np.abs(o))))
