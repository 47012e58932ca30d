import numpy as np
import pytest

from fluxqm import ConvergenceError, GridDomainError, gridsolve, tbring
from fluxqm.gridsolve import _refine, converged_bound_states


def harmonic(x):
    return 0.5 * x * x


def test_dvr_harmonic_levels():
    # (1/2)(-d^2/dx^2 + x^2) has levels n + 1/2; the sinc-DVR converges spectrally in the spacing
    solution = converged_bound_states(harmonic, -14.0, 14.0, 96, kinetic_coef=0.5, n_levels=5)
    assert solution.n_points <= 200
    assert np.max(np.abs(solution.levels - (np.arange(5) + 0.5))) <= 1e-12


def test_walls_are_checked_on_the_converged_grid_only():
    # a deep well leaves the 96-point DVR states algebraic tails above 1e-6 at the walls;
    # the converged grid resolves them, so no GridDomainError is raised
    def deep_well(x):
        return 0.5 * x * x - 60.0 * np.cos(3.0 * x)

    _, first_states = gridsolve._dvr_bound_states(deep_well, -14.0, 14.0, 96, 0.5, 5)
    edge = np.maximum(np.abs(first_states[0]), np.abs(first_states[-1]))
    assert np.max(edge / np.abs(first_states).max(axis=0)) > 1e-6
    solution = converged_bound_states(deep_well, -14.0, 14.0, 96, kinetic_coef=0.5, n_levels=5)
    assert solution.n_points > 96 and solution.max_rel_change < 5e-7


def test_dvr_refines_until_levels_move_less_than_its_tolerance(monkeypatch):
    # 20 levels of ring sector {0} of 6 sites at t = 0.5, eta = 3: the 96 -> 191 doubling moves them by
    # 2.9e-6 relative, above 5e-7 and below 5e-4, so the rule must take one more doubling
    solutions = []

    def recorded(*args, **kwargs):
        solutions.append(converged_bound_states(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(tbring, "converged_bound_states", recorded)
    tbring.sector_spectrum_xrep(tbring.sector_constants([0], 6), t=0.5, eta=3.0, hbar_omega=1.0, n_levels=20)
    assert [solution.n_points for solution in solutions] == [381]


@pytest.mark.parametrize("solve", [gridsolve.bound_states, converged_bound_states])
@pytest.mark.parametrize("x_min, x_max, n_points, kinetic_coef, message", [
    (-5.0, 5.0, 7, 0.5, "n_points must be >= 8, got 7"),
    (5.0, -5.0, 32, 0.5, "x_max must exceed x_min, got x_min=5.0, x_max=-5.0"),
    (-5.0, 5.0, 32, 0.0, "kinetic_coef must be positive, got 0.0"),
])
def test_grid_is_checked_before_any_solve(solve, x_min, x_max, n_points, kinetic_coef, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(harmonic, x_min, x_max, n_points, kinetic_coef, 2)


@pytest.mark.parametrize("solve", [gridsolve.bound_states, converged_bound_states])
@pytest.mark.parametrize("n_levels", [0, 33])
def test_levels_are_checked_with_the_grid(solve, n_levels):
    # bound_states once handed these to scipy, which failed with its own select_range text
    with pytest.raises(ValueError, match=rf"^n_levels must lie in \[1, 32\], got {n_levels}$"):
        solve(harmonic, -5.0, 5.0, 32, 0.5, n_levels)


def test_too_small_domain_raises():
    # the second well's ground state reaches the walls at 1.2e-5 of its peak: above 1e-6, below 1e-3
    for potential, half_span, kinetic_coef, n_levels in ((harmonic, 2.0, 0.5, 3), (lambda x: x * x, 4.5, 1.0, 1)):
        with pytest.raises(GridDomainError, match="wall amplitude"):
            converged_bound_states(potential, -half_span, half_span, 96, kinetic_coef=kinetic_coef, n_levels=n_levels)


def test_refinement_limit_raises(monkeypatch):
    # 32 and 63 points span 28 oscillator lengths too coarsely to resolve the fifth level
    monkeypatch.setattr(gridsolve, "_MAX_REFINEMENTS", 1)
    with pytest.raises(ConvergenceError, match="grid levels not converged at 63 points") as info:
        converged_bound_states(harmonic, -14.0, 14.0, 32, kinetic_coef=0.5, n_levels=5)
    assert info.value.residual > 5e-7


def test_refine_returns_first_stationary_estimate():
    sequence = [(1, np.array([1.0, 3.0])), (2, np.array([1.5, 3.0])), (4, np.array([1.5 + 1e-8, 3.0])),
                (8, np.array([1.5 + 2e-8, 3.0]))]
    consumed = []

    def estimates():
        for size, levels in sequence:
            consumed.append(size)
            yield size, levels

    levels, size, change = _refine(estimates(), 1e-6, 1.0, "not converged at {size}")
    assert size == 4 and levels is sequence[2][1]
    moved = sequence[2][1][0]
    assert change == (moved - 1.5) / moved
    assert consumed == [1, 2, 4]  # finer estimates are never computed


def test_refine_change_floored_at_scale():
    # relative to |levels| alone the change is 1; floored at scale = 1 it is 1e-7
    sequence = [(1, np.array([0.0])), (2, np.array([1e-7]))]
    assert _refine(iter(sequence), 1e-6, 1.0, "{size}")[1:] == (2, 1e-7)
    with pytest.raises(ConvergenceError):
        _refine(iter(sequence), 1e-6, 1e-9, "{size}")


def test_refine_exhausted_raises_last_change():
    sequence = [(10, np.array([1.0])), (20, np.array([2.0])), (40, np.array([2.5]))]
    with pytest.raises(ConvergenceError, match=r"^not converged at 40: relative change 0\.2$") as info:
        _refine(iter(sequence), 1e-6, 1.0, "not converged at {size}")
    assert info.value.residual == 0.5 / 2.5


@pytest.mark.parametrize("scale, message", [
    (np.inf, "scale must be finite, got inf"),  # once reported convergence without comparing a level
    (np.nan, "scale must be finite, got nan"),  # once ran all five solves, then failed on a NaN change
    (0.0, "scale must be positive, got 0.0"),
])
def test_scale_is_checked_before_any_solve(monkeypatch, scale, message):
    def no_solve(*args):
        raise AssertionError("a grid was solved")

    monkeypatch.setattr(gridsolve, "_dvr_bound_states", no_solve)
    with pytest.raises(ValueError, match=f"^{message}$"):
        converged_bound_states(harmonic, -14.0, 14.0, 96, kinetic_coef=0.5, n_levels=3, scale=scale)
