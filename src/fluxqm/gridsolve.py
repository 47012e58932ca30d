"""Bound states of -c d^2/dy^2 + V(y) on a finite uniform grid.

``converged_bound_states`` solves the sinc discrete-variable representation
(DVR; Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)): on a grid of spacing
h the kinetic matrix is (c/h^2) T with T = pi^2/3 on the diagonal and
2(-1)^(i-j)/(i-j)^2 off it, the potential is diagonal, and the dense matrix is
solved with ``numpy.linalg.eigh``.  The levels converge spectrally in h, so
about a hundred points reach the 5e-7 stopping rule.  Refinement doubles the
interval count (keeping the endpoints on the same grid family) until the
levels stop moving; ``_refine`` is that stopping rule.  ``_fock_ladder`` is
the one cutoff ladder of the Fock-basis solvers of ``kerr`` and ``tbring``.

``bound_states`` is an independent fixed-grid reference: second-order central
differences, a symmetric tridiagonal matrix solved by LAPACK's bisection
solver through scipy.  No solver of the package calls it.

Both check their grid before any solve, raising ValueError unless it has at
least 8 points, finite bounds x_min < x_max, a finite kinetic coefficient c > 0
and 1 <= n_levels <= n_points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .core import _check_int, _finite, _positive
from .errors import ConvergenceError, GridDomainError

if TYPE_CHECKING:  # annotations only; the functions that use numpy import it
    import numpy as np

__all__ = ["GridSolution", "bound_states", "converged_bound_states"]

_RTOL = 5e-7  # relative stationarity of the levels
_MAX_REFINEMENTS = 4  # grid doublings after the first solve; each solve is dense, O(n_points^3)
_WALL_TOL = 1e-6  # wall amplitude, relative to the peak, that flags a too-small domain
_FOCK_MAX_LEVELS = 32  # n_levels cap of the Fock ladder
_FOCK_FIRST_CUTOFF = 48  # the ladder's first cutoff, unless 4 n_levels is larger
_FOCK_MAX_CUTOFF = 4096  # the largest cutoff, a dense basis of 4,097 states
_FOCK_RTOL = 1e-9  # relative level change that ends the ladder


@dataclass(frozen=True)
class GridSolution:
    levels: np.ndarray  # the finest grid's
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
    import numpy as np
    previous, size, change = None, None, np.inf
    for size, levels in estimates:
        if previous is not None:
            change = float(np.max(np.abs(levels - previous) / np.maximum(scale, np.abs(levels))))
            if change < rtol:
                return levels, size, change
        previous = levels
    raise ConvergenceError(f"{failure.format(size=size)}: relative change {change}", residual=change)


def _fock_ladder(levels_at: Callable[[int], np.ndarray], n_levels: int, scale: float, failure: str) -> np.ndarray:
    """The lowest ``n_levels`` of ``levels_at(cutoff)``, ascending, at the first cutoff where they are stationary.

    n_levels must be an integer in [1, 32], checked before any solve.  The
    cutoff starts at max(4 n_levels, 48) and doubles while it stays <= 4096,
    until the levels move less than 1e-9 relative, floored at ``scale``;
    failing that, ConvergenceError (message ``failure``) carries the residual.
    """
    n_levels = _check_int(n_levels, "n_levels", 1, _FOCK_MAX_LEVELS)
    first = max(4 * n_levels, _FOCK_FIRST_CUTOFF)
    cutoffs = (first << k for k in range((_FOCK_MAX_CUTOFF // first).bit_length()))  # first 2^k while <= the largest
    levels, _, _ = _refine(((c, levels_at(c)[:n_levels]) for c in cutoffs), _FOCK_RTOL, scale, failure)
    return levels


def _check_grid(x_min: float, x_max: float, n_points: int, kinetic_coef: float, n_levels: int) -> int:
    """Return n_points as an int, raising ValueError unless the grid and n_levels pass the module docstring's checks."""
    n_points = _check_int(n_points, "n_points", lo=8)
    _finite(x_min, "x_min")
    _finite(x_max, "x_max")
    if not x_max > x_min:
        raise ValueError(f"x_max must exceed x_min, got x_min={x_min}, x_max={x_max}")
    _positive(kinetic_coef, "kinetic_coef")
    _check_int(n_levels, "n_levels", 1, n_points)
    return n_points


def bound_states(
    potential: Callable[[np.ndarray], np.ndarray],
    x_min: float,
    x_max: float,
    n_points: int,
    kinetic_coef: float,
    n_levels: int,
):
    """One fixed-grid second-order finite-difference solve; returns the lowest ``n_levels`` levels."""
    n_points = _check_grid(x_min, x_max, n_points, kinetic_coef, n_levels)
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(x_min, x_max, n_points)
    h = x[1] - x[0]
    diag = 2.0 * kinetic_coef / h**2 + potential(x)
    offdiag = np.full(n_points - 1, -kinetic_coef / h**2)
    return eigh_tridiagonal(diag, offdiag, eigvals_only=True, select="i", select_range=(0, n_levels - 1))


def _check_walls(states):
    import numpy as np
    amp_edge = np.maximum(np.abs(states[0, :]), np.abs(states[-1, :]))
    amp_peak = np.abs(states).max(axis=0)
    bad = np.nonzero(amp_edge > _WALL_TOL * amp_peak)[0]
    if bad.size:
        raise GridDomainError(
            f"grid too small: level {int(bad[0])} has relative wall amplitude "
            f"{amp_edge[bad[0]] / amp_peak[bad[0]]:.2e} (> {_WALL_TOL:g}); widen the domain"
        )


def _dvr_bound_states(potential, x_min, x_max, n_points, kinetic_coef, n_levels):
    """One sinc-DVR solve on ``n_points`` points spanning [x_min, x_max]; returns (levels, states)."""
    import numpy as np
    x = np.linspace(x_min, x_max, n_points)
    h = x[1] - x[0]
    k = np.arange(n_points)
    band = np.empty(n_points)  # T[i, j] = band[|i - j|]
    band[0] = np.pi**2 / 3.0
    band[1:] = 2.0 / k[1:] ** 2
    band[1::2] *= -1.0
    hamiltonian = (kinetic_coef / h**2) * band[np.abs(k[:, None] - k)]
    hamiltonian[k, k] += potential(x)
    levels, states = np.linalg.eigh(hamiltonian)
    return levels[:n_levels], states[:, :n_levels]


def converged_bound_states(
    potential: Callable[[np.ndarray], np.ndarray],
    x_min: float,
    x_max: float,
    n_points: int,
    kinetic_coef: float,
    n_levels: int,
    scale: float = 1.0,
) -> GridSolution:
    """Solve the sinc-DVR, doubling the grid until the levels move less than 5e-7.

    The returned ``levels`` are the finest grid's and ``n_points`` is its
    size; at most four doublings follow the first solve.  The relative change
    is floored at ``scale``, which must be finite and > 0, so levels near zero
    do not stall the refinement.  Wavefunction amplitude at the walls above
    1e-6 of the peak on the last grid solved, converged or not, raises
    GridDomainError: the domain, not the grid spacing, is the problem then.
    """
    n_points = _check_grid(x_min, x_max, n_points, kinetic_coef, n_levels)
    _positive(scale, "scale")

    states = None

    def solves(n_points):
        nonlocal states
        for _ in range(_MAX_REFINEMENTS + 1):
            levels, states = _dvr_bound_states(potential, x_min, x_max, n_points, kinetic_coef, n_levels)
            yield n_points, levels
            n_points = 2 * n_points - 1  # same endpoints, halved spacing

    # Only the last grid's states are checked: on an unresolved grid the sinc basis spreads algebraic
    # tails to the walls, and a domain too small makes the levels drift with the spacing instead of converge.
    try:
        levels, n_points, change = _refine(solves(n_points), _RTOL, scale, "grid levels not converged at {size} points")
    except ConvergenceError:
        _check_walls(states)
        raise
    _check_walls(states)
    return GridSolution(levels=levels, n_points=n_points, max_rel_change=change)
