"""Finite-difference bound states of -c d^2/dy^2 + V(y) with hard walls.

Second-order central differences on a uniform grid give a symmetric
tridiagonal matrix whose lowest eigenpairs come from LAPACK's bisection
solver.  Refinement doubles the interval count (keeping the endpoints on the
same grid family) and Romberg-extrapolates the levels in h^2, whose error
expansion is even in the spacing, until the extrapolated levels stop moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, GridDomainError

__all__ = ["GridSolution", "bound_states", "converged_bound_states"]


@dataclass(frozen=True)
class GridSolution:
    levels: np.ndarray  # Romberg-extrapolated levels
    grid: np.ndarray  # the finest grid
    states: np.ndarray  # column k is the k-th eigenvector on the grid
    n_points: int
    max_rel_change: float


def bound_states(
    potential: Callable[[np.ndarray], np.ndarray],
    x_min: float,
    x_max: float,
    n_points: int,
    kinetic_coef: float,
    n_levels: int,
):
    """One fixed-grid solve; returns (levels, grid, states)."""
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


def _check_walls(states, wall_tol: float):
    amp_edge = np.maximum(np.abs(states[0, :]), np.abs(states[-1, :]))
    amp_peak = np.abs(states).max(axis=0)
    bad = np.nonzero(amp_edge > wall_tol * amp_peak)[0]
    if bad.size:
        raise GridDomainError(
            f"grid too small: level {int(bad[0])} has relative wall amplitude "
            f"{amp_edge[bad[0]] / amp_peak[bad[0]]:.2e} (> {wall_tol:g}); widen the domain"
        )


def converged_bound_states(
    potential: Callable[[np.ndarray], np.ndarray],
    x_min: float,
    x_max: float,
    n_points: int,
    kinetic_coef: float,
    n_levels: int,
    rtol: float = 5e-7,
    scale: float = 1.0,
    max_refinements: int = 6,
    wall_tol: float = 1e-6,
) -> GridSolution:
    """Refine the grid by doubling and Romberg-extrapolate until the levels move less than rtol.

    Each doubling extends a Romberg row, R_j = R_{j-1} + (R_{j-1} - R'_{j-1})
    / (4^j - 1) with R' the row of the previous grid, and the newest diagonal
    entry is the estimate.  The returned ``levels`` are that estimate;
    ``grid``, ``states`` and ``n_points`` belong to the finest grid.  The
    relative change is floored at ``scale`` so levels near zero do not stall
    the refinement.  Wavefunction amplitude at the walls above ``wall_tol`` of
    the peak raises GridDomainError: the domain, not the grid spacing, is the
    problem then.
    """
    levels, x, states = bound_states(potential, x_min, x_max, n_points, kinetic_coef, n_levels)
    _check_walls(states, wall_tol)  # domain problems surface regardless of spacing
    row = [levels]
    change = np.inf
    for _ in range(max_refinements):
        n_points = 2 * n_points - 1  # same endpoints, halved spacing
        refined, x, states = bound_states(potential, x_min, x_max, n_points, kinetic_coef, n_levels)
        _check_walls(states, wall_tol)
        new_row = [refined]
        for j, coarse in enumerate(row, start=1):
            new_row.append(new_row[-1] + (new_row[-1] - coarse) / (4**j - 1))
        change = float(np.max(np.abs(new_row[-1] - row[-1]) / np.maximum(scale, np.abs(new_row[-1]))))
        row = new_row
        if change < rtol:
            return GridSolution(levels=row[-1], grid=x, states=states, n_points=n_points, max_rel_change=change)
    raise ConvergenceError(
        f"grid levels not converged at {n_points} points: relative change {change}",
        residual=change,
    )
