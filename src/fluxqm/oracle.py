"""Brute-force Fock-space verifier for the flux-coupled ring model.

This module assembles the full sector Hamiltonian directly from raw oscillator
matrix elements and diagonalizes it, providing ground truth for every closed
form in the package.  It deliberately shares no code with the analytic
modules: the position quadrature X = a + a^dag is built as an explicit
tridiagonal matrix, X^2 by matrix multiplication, and the spectrum comes from
a dense symmetric eigensolver.  Within a fermion sector the occupation numbers
enter only through the integers (M, Sigma, W), which is exact because the
total angular momentum and total spin commute with the cavity operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import FermionConfig, ModelParams

__all__ = [
    "OracleReport",
    "SpectrumComparison",
    "GroundStateMoments",
    "oracle_spectrum",
    "ground_state_moments",
    "compare_spectra",
]

_HERMITICITY_TOL = 1e-12
_RTOL = 1e-9  # relative level change between cutoff and 2 * cutoff that counts as converged


@dataclass(frozen=True)
class OracleReport:
    """Eigenvalues of one brute-force diagonalization plus convergence data.

    ``converged`` means doubling the Fock cutoff moved the reported levels by
    less than 1e-9 relative; ``max_rel_change`` is the observed change (NaN
    when the check was skipped).
    """

    levels: tuple[float, ...]
    cutoff_used: int
    converged: bool
    max_rel_change: float


@dataclass(frozen=True)
class SpectrumComparison:
    """Per-level comparison of an analytic spectrum against oracle levels."""

    passed: bool
    rel_errors: tuple[float, ...]
    max_rel_error: float
    argmax_level: int
    offset: float


@dataclass(frozen=True)
class GroundStateMoments:
    """Quadrature moments of the oracle ground state in one fermion sector.

    ``mean_x`` and ``var_x`` refer to x = (a + a^dag)/sqrt(2); ``displacement``
    is <a> (real for this Hamiltonian); ``photon_number`` is <a^dag a>.
    """

    mean_x: float
    var_x: float
    displacement: float
    photon_number: float


def _position_matrix(cutoff: int) -> np.ndarray:
    """X = a + a^dag on Fock states |0..cutoff>: <m|X|m+1> = sqrt(m+1)."""
    x = np.zeros((cutoff + 1, cutoff + 1))
    k = np.arange(cutoff)
    x[k, k + 1] = np.sqrt(k + 1.0)
    x[k + 1, k] = x[k, k + 1]
    return x


def _assemble(p: ModelParams, cfg: FermionConfig, cutoff: int) -> np.ndarray:
    x = _position_matrix(cutoff)
    x2 = x @ x  # pentadiagonal, exact
    n_diag = np.arange(cutoff + 1, dtype=float)
    drive = 2.0 * p.g * p.phi * cfg.m_total + p.eta * cfg.sigma_total
    h = (
        p.hbar_omega * np.diag(n_diag)
        + p.g * p.n_particles * p.phi**2 * x2
        - drive * x
    )
    h += p.g_eff * cfg.w_kinetic * np.eye(cutoff + 1)
    asym = np.abs(h - h.T).max()
    if asym > _HERMITICITY_TOL:
        raise AssertionError(f"assembled matrix not symmetric: deviation {asym}")
    return h


def oracle_spectrum(
    p: ModelParams,
    cfg: FermionConfig,
    cutoff: int = 400,
    n_levels: int = 6,
    check_convergence: bool = True,
) -> OracleReport:
    """Lowest eigenvalues of the full sector Hamiltonian in a truncated Fock space.

    When ``check_convergence`` is set, the diagonalization is repeated at twice
    the cutoff and the relative movement of the reported levels is recorded;
    a movement of 1e-9 or more is flagged in the report as non-convergence,
    never raised.
    """
    from scipy.linalg import eigh

    if cutoff < 50:
        raise ValueError(f"cutoff must be >= 50, got {cutoff}")
    if n_levels < 1 or n_levels > cutoff:
        raise ValueError(f"n_levels must be in [1, cutoff], got {n_levels}")
    levels = eigh(_assemble(p, cfg, cutoff), eigvals_only=True)[:n_levels]
    if check_convergence:
        refined = eigh(_assemble(p, cfg, 2 * cutoff), eigvals_only=True)[:n_levels]
        scale = np.maximum(p.hbar_omega, np.abs(refined))
        max_change = float(np.max(np.abs(levels - refined) / scale))
        return OracleReport(
            levels=tuple(float(v) for v in refined),
            cutoff_used=2 * cutoff,
            converged=max_change < _RTOL,
            max_rel_change=max_change,
        )
    return OracleReport(
        levels=tuple(float(v) for v in levels),
        cutoff_used=cutoff,
        converged=True,
        max_rel_change=float("nan"),
    )


def ground_state_moments(p: ModelParams, cfg: FermionConfig, cutoff: int = 400) -> GroundStateMoments:
    """Quadrature moments of the sector ground state, from the raw eigenvector."""
    from scipy.linalg import eigh

    h = _assemble(p, cfg, cutoff)
    _, vecs = eigh(h, subset_by_index=(0, 0))
    gs = vecs[:, 0]
    x = _position_matrix(cutoff)
    mean_big_x = float(gs @ x @ gs)
    mean_big_x2 = float(gs @ (x @ x) @ gs)
    n_op = np.arange(cutoff + 1, dtype=float)
    return GroundStateMoments(
        mean_x=mean_big_x / math.sqrt(2.0),
        var_x=(mean_big_x2 - mean_big_x**2) / 2.0,
        displacement=mean_big_x / 2.0,
        photon_number=float(gs @ (n_op * gs)),
    )


def compare_spectra(
    analytic: Sequence[float],
    oracle: Union[OracleReport, Sequence[float]],
    tol: float,
    fit_offset: bool = False,
    scale: float = 1.0,
) -> SpectrumComparison:
    """Level-by-level check of analytic values against oracle eigenvalues.

    Relative error of level i is |a_i - o_i - c| / max(scale, |o_i|) where the
    shared constant c is zero unless ``fit_offset`` is set, in which case it is
    the mean residual (used for spectra that agree only up to an additive
    constant).  The ``scale`` floor keeps levels at or near zero comparable.
    """
    a = np.asarray(analytic, dtype=float)
    levels = oracle.levels if isinstance(oracle, OracleReport) else oracle
    o = np.asarray(levels, dtype=float)
    if a.shape != o.shape:
        raise ValueError(f"spectrum length mismatch: {a.shape} vs {o.shape}")
    offset = float(np.mean(a - o)) if fit_offset else 0.0
    rel = np.abs(a - o - offset) / np.maximum(scale, np.abs(o))
    worst = int(np.argmax(rel))
    return SpectrumComparison(
        passed=bool(rel[worst] <= tol),
        rel_errors=tuple(float(r) for r in rel),
        max_rel_error=float(rel[worst]),
        argmax_level=worst,
        offset=offset,
    )
