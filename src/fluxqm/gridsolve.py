"""Finite-difference bound states of -c d^2/dy^2 + V(y) with hard walls.

Second-order central differences on a uniform grid give a symmetric
tridiagonal matrix whose lowest eigenpairs come from LAPACK's bisection
solver.  Refinement doubles the interval count (keeping the endpoints on the
same grid family) and Romberg-extrapolates the levels in h^2, whose error
expansion is even in the spacing, until the extrapolated levels stop moving.
``_refine`` is that stopping rule; the Fock-basis solvers of ``tbring`` and
``kerr`` use it for their cutoff doublings too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConvergenceError, GridDomainError

__all__ = ["GridSolution", "bound_states", "converged_bound_states"]

_RTOL = 5e-7  # relative stationarity of the extrapolated levels
_MAX_REFINEMENTS = 6  # grid doublings after the first solve
_WALL_TOL = 1e-6  # wall amplitude, relative to the peak, that flags a too-small domain


@dataclass(frozen=True)
class GridSolution:
    levels: np.ndarray  # Romberg-extrapolated levels
    n_points: int  # the finest grid's
    max_rel_change: float


def _refine(estimates: Iterable, rtol: float, scale: float, failure: str):
    """Return ``(levels, size, change)`` of the first estimate that moved less than ``rtol``.

    ``estimates`` yields ``(size, levels)`` from ever finer discretisations;
    the change relative to the previous levels is floored at ``scale`` so
    levels near zero do not stall the refinement.  When ``estimates`` runs
    out first, raises ConvergenceError (message ``failure``, ``{size}`` the
    last size) carrying the last change as its residual.
    """
    previous, size, change = None, None, np.inf
    for size, levels in estimates:
        if previous is not None:
            change = float(np.max(np.abs(levels - previous) / np.maximum(scale, np.abs(levels))))
            if change < rtol:
                return levels, size, change
        previous = levels
    raise ConvergenceError(f"{failure.format(size=size)}: relative change {change}", residual=change)


def bound_states(
    potential: Callable[[np.ndarray], np.ndarray],
    x_min: float,
    x_max: float,
    n_points: int,
    kinetic_coef: float,
    n_levels: int,
):
    """One fixed-grid solve; returns (levels, grid, states)."""
    from scipy.linalg import eigh_tridiagonal

    if n_points < 8:
        raise ValueError(f"n_points must be >= 8, got {n_points}")
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    if kinetic_coef <= 0:
        raise ValueError("kinetic_coef must be positive")
    x = np.linspace(x_min, x_max, n_points)
    h = x[1] - x[0]
    diag = 2.0 * kinetic_coef / h**2 + potential(x)
    offdiag = np.full(n_points - 1, -kinetic_coef / h**2)
    levels, states = eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, n_levels - 1))
    return levels, x, states


def _check_walls(states):
    amp_edge = np.maximum(np.abs(states[0, :]), np.abs(states[-1, :]))
    amp_peak = np.abs(states).max(axis=0)
    bad = np.nonzero(amp_edge > _WALL_TOL * amp_peak)[0]
    if bad.size:
        raise GridDomainError(
            f"grid too small: level {int(bad[0])} has relative wall amplitude "
            f"{amp_edge[bad[0]] / amp_peak[bad[0]]:.2e} (> {_WALL_TOL:g}); widen the domain"
        )


def converged_bound_states(
    potential: Callable[[np.ndarray], np.ndarray],
    x_min: float,
    x_max: float,
    n_points: int,
    kinetic_coef: float,
    n_levels: int,
    scale: float = 1.0,
) -> GridSolution:
    """Refine the grid by doubling and Romberg-extrapolate until the levels move less than 5e-7.

    Each doubling extends a Romberg row, R_j = R_{j-1} + (R_{j-1} - R'_{j-1})
    / (4^j - 1) with R' the row of the previous grid, and the newest diagonal
    entry is the estimate.  The returned ``levels`` are that estimate and
    ``n_points`` is the finest grid's.  The relative change is floored at
    ``scale`` so levels near zero do not stall the refinement.  Wavefunction
    amplitude at the walls above 1e-6 of the peak raises GridDomainError on
    any grid: the domain, not the grid spacing, is the problem then.
    """

    def romberg(n_points):
        row = []
        for _ in range(_MAX_REFINEMENTS + 1):
            levels, _, states = bound_states(potential, x_min, x_max, n_points, kinetic_coef, n_levels)
            _check_walls(states)
            new_row = [levels]
            for j, coarse in enumerate(row, start=1):
                new_row.append(new_row[-1] + (new_row[-1] - coarse) / (4**j - 1))
            row = new_row
            yield n_points, row[-1]
            n_points = 2 * n_points - 1  # same endpoints, halved spacing

    levels, n_points, change = _refine(romberg(n_points), _RTOL, scale, "grid levels not converged at {size} points")
    return GridSolution(levels=levels, n_points=n_points, max_rel_change=change)
