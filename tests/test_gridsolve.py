import numpy as np
import pytest

from fluxqm import ConvergenceError
from fluxqm.gridsolve import converged_bound_states


def harmonic(x):
    return 0.5 * x * x


def test_romberg_harmonic_levels():
    # (1/2)(-d^2/dx^2 + x^2) has levels n + 1/2
    solution = converged_bound_states(harmonic, -14.0, 14.0, 513, kinetic_coef=0.5, n_levels=5)
    assert solution.n_points <= 4097
    assert np.max(np.abs(solution.levels - (np.arange(5) + 0.5))) <= 1e-9
    assert solution.grid.size == solution.n_points
    assert solution.states.shape == (solution.n_points, 5)


def test_refinement_limit_raises():
    with pytest.raises(ConvergenceError) as info:
        converged_bound_states(harmonic, -14.0, 14.0, 513, kinetic_coef=0.5, n_levels=5, max_refinements=1)
    assert info.value.residual > 5e-7
