import math
from functools import lru_cache

import numpy as np
import pytest

from fluxqm import (
    ConvergenceError,
    ModelParams,
    QuarticSector,
    anharmonic_spectrum,
    displacement_root,
    dressed_frequency,
    full_levels,
    gaussian_frequency,
    kerr,
)
from fluxqm.gridsolve import bound_states


def _p(**kwargs):
    defaults = dict(g=0.2, g_eff=0.2, phi=0.5, n_particles=20, hbar_omega=1.0)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def fd_levels(potential, a_coef, n_levels, span=16.0, n_points=32769):
    """Grid-diagonalization oracle for A P^2 + V(X).

    [X, P] = 2i puts the kinetic operator at -4A d^2/dX^2.  One Richardson
    step removes the leading h^2 discretization error.
    """
    coarse = bound_states(potential, -span, span, (n_points - 1) // 2 + 1, 4.0 * a_coef, n_levels)
    fine = bound_states(potential, -span, span, n_points, 4.0 * a_coef, n_levels)
    return (4.0 * fine - coarse) / 3.0


def fd_oracle_levels(a_coef, b_eff, beta3, alpha4, n_levels):
    """Grid-diagonalization oracle for A P^2 + B_eff X^2 + beta3 X^3 + alpha4 X^4."""
    return fd_levels(lambda x: b_eff * x**2 + beta3 * x**3 + alpha4 * x**4, a_coef, n_levels)


@lru_cache(maxsize=None)
def raw_sector_levels(m_total, alpha4, s2, n_levels):
    """FD levels of the undisplaced sector g S2 + A P^2 + B X^2 - C M X + alpha4 X^4 at ``_p()``.

    A = hbar_omega/4, B = hbar_omega/4 + g phi^2 N and C = 2 g phi come from the raw couplings, so no
    displaced-frame coefficient of ``kerr`` (x0, b_eff, beta3, v_eff) enters the reference.
    """
    p = _p()
    b_coef = p.hbar_omega / 4 + p.g * p.phi**2 * p.n_particles
    c_m = 2 * p.g * p.phi * m_total
    levels = fd_levels(lambda x: b_coef * x**2 - c_m * x + alpha4 * x**4, p.hbar_omega / 4, n_levels)
    return p.g * s2 + levels


def full_levels_error(m_total, alpha4, s2, n_levels):
    """Largest deviation of ``kerr.full_levels`` at ``_p()`` from the undisplaced FD reference."""
    p = _p()
    levels = full_levels(displacement_root(m_total, p, alpha4), p, s2=s2, n_levels=n_levels)
    return np.max(np.abs(levels - raw_sector_levels(m_total, alpha4, s2, n_levels)))


def test_root_zero_momentum():
    sector = displacement_root(0, _p(), 0.02)
    assert sector.x0 == 0.0
    assert sector.beta3 == 0.0
    assert sector.v_eff == 0.0


def test_root_harmonic_limit():
    p = _p(g=0.3, phi=0.8, n_particles=5)
    linear = displacement_root(4, p, 0.0)
    assert linear.x0 == pytest.approx(linear.c_coef * 4 / (2 * linear.b_coef), rel=1e-15)
    nearly = displacement_root(4, p, 1e-12)
    assert nearly.x0 == pytest.approx(linear.x0, rel=1e-9)


def test_root_cubic_example():
    # B = 1/2, alpha4 = 1/4, C M = 3 reduces the stationarity cubic to x^3 + x = 3
    p = ModelParams(g=0.25, g_eff=0.25, phi=1.0, n_particles=1, hbar_omega=1.0)
    sector = displacement_root(6, p, 0.25)
    assert sector.b_coef == pytest.approx(0.5, rel=1e-15)
    assert sector.c_coef * 6 == pytest.approx(3.0, rel=1e-15)
    assert sector.x0 == pytest.approx(1.2134116627622296, rel=1e-12)
    assert abs(sector.x0**3 + sector.x0 - 3.0) <= 1e-12


def test_root_residual_bound_randomized():
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = _p(
            g=float(rng.uniform(0.05, 1.5)),
            phi=float(rng.uniform(0.0, 2.0)),
            n_particles=int(rng.integers(1, 30)),
            hbar_omega=float(rng.uniform(0.3, 3.0)),
        )
        sector = displacement_root(int(rng.integers(-50, 51)), p, float(rng.uniform(0.0, 0.5)))
        x0, rhs = sector.x0, sector.c_coef * sector.m_total
        residual = 4 * sector.alpha4 * x0**3 + 2 * sector.b_coef * x0 - rhs
        assert abs(residual) <= 1e-10 * max(1.0, abs(rhs))
        assert 2 * sector.b_coef + 12 * sector.alpha4 * sector.x0**2 > 0


@pytest.mark.parametrize("alpha4", [math.nan, math.inf, -math.inf])
def test_root_rejects_non_finite_alpha4(alpha4):
    with pytest.raises(ValueError, match="alpha4 must be finite"):
        displacement_root(2, ModelParams(g=1.0, g_eff=1.0, phi=0.3, n_particles=3), alpha4)


@pytest.mark.parametrize("alpha4", [1e-12, 0.05, 3.0])
@pytest.mark.parametrize("m_total", [1, 7, -50])
@pytest.mark.parametrize("phi", [1e-11, 1e-9, 1e-5, 0.5])
def test_root_matches_mpmath(phi, m_total, alpha4):
    # the real root of the sector's own float cubic, by 50-digit Newton from the harmonic root;
    # the cubic is increasing and convex beyond its root, so the iterates approach it from outside
    import mpmath

    sector = displacement_root(m_total, ModelParams(g=1.0, g_eff=1.0, phi=phi, n_particles=3), alpha4)
    with mpmath.workdps(50):
        a, b, rhs = mpmath.mpf(alpha4), mpmath.mpf(sector.b_coef), mpmath.mpf(sector.c_coef) * m_total
        x = rhs / (2 * b)
        for _ in range(100):
            x -= (4 * a * x**3 + 2 * b * x - rhs) / (12 * a * x**2 + 2 * b)
        assert abs(sector.x0 - x) <= 1e-14 * abs(x)


def test_sector_validation_rejects_inconsistent_root():
    # the root is derived, so a sector cannot be given one
    with pytest.raises(TypeError, match="x0"):
        QuarticSector(m_total=1, alpha4=0.1, a_coef=0.25, b_coef=0.5, c_coef=1.0, x0=5.0)


def test_sector_derives_a_small_root():
    # the root is 4e-11: an absolute residual floor of 1e-10 could not tell it from x0 = 0
    sector = QuarticSector(m_total=1, alpha4=0.05, a_coef=0.25, b_coef=0.25, c_coef=2e-11)
    assert sector.x0 == pytest.approx(4e-11, rel=1e-15)
    rhs = sector.c_coef * sector.m_total
    residual = 4 * sector.alpha4 * sector.x0**3 + 2 * sector.b_coef * sector.x0 - rhs
    assert abs(residual) <= 1e-15 * abs(rhs)


def test_root_overflow_names_x0():
    # 6 alpha4 x_h^2 / B overflows, and the closed form returns NaN
    p = ModelParams(g=1e150, g_eff=1.0, phi=1e-75, n_particles=3, hbar_omega=1e-150)
    with pytest.raises(ValueError, match="x0 must be finite"):
        displacement_root(10**6, p, 1e200)


def test_overflowing_square_names_b_coef():
    # float ** raises OverflowError where * would give inf
    with pytest.raises(ValueError, match=r"^b_coef must be finite, but 1e\+160\*\*2 overflows$"):
        displacement_root(0, _p(phi=1e160), 0.0)


def test_overflowing_square_of_the_harmonic_root_names_x0():
    # x_h = 3.08e160, and x_h**2 in the quartic root once raised the anonymous "(34, 'Numerical result out of range')"
    with pytest.raises(ValueError, match=r"^x0 must be finite, but 3\.076957332126948e\+160\*\*2 overflows$"):
        displacement_root(10, _p(g=1.0, phi=1e-160, n_particles=3, hbar_omega=1e-320), 0.05)


def test_gaussian_frequency_matches_linear_model_at_zero_momentum():
    p = _p()
    sector = displacement_root(0, p, 0.0)
    assert gaussian_frequency(sector) == pytest.approx(dressed_frequency(p), rel=1e-14)
    # the quartic term does not move the M = 0 curvature (x0 stays 0)
    quartic = displacement_root(0, p, 0.02)
    assert gaussian_frequency(quartic) == pytest.approx(dressed_frequency(p), rel=1e-14)


@pytest.mark.parametrize("hbar_omega", [1e-160, 1e-170])
def test_gaussian_frequency_of_a_product_below_the_normal_floats(hbar_omega):
    # A B_eff is subnormal at 1e-160 and 0 at 1e-170; 4 sqrt(A B_eff) once read 1.00197 and 0 times hbar_omega
    sector = displacement_root(0, _p(phi=0.0, hbar_omega=hbar_omega), 0.0)
    assert gaussian_frequency(sector) == pytest.approx(hbar_omega, rel=1e-15, abs=0.0)


def test_harmonic_offset_skips_the_quartic_term():
    # x0 = 4e141, so x0**4 overflowed although alpha4 = 0 zeroes the term
    sector = displacement_root(10, _p(g=1.0, phi=1e-160, n_particles=3, hbar_omega=1e-300), 0.0)
    assert sector.x0 == pytest.approx(4e141, rel=1e-15)
    assert sector.v_eff == pytest.approx(-4e-18, rel=1e-15, abs=0.0)


def test_harmonic_root_skips_the_squares_that_alpha4_zeroes():
    # x0 = x_h = 3.08e160: x_h**2 in x0, and x0**2 in b_eff, overflowed although alpha4 = 0 zeroes both terms
    sector = displacement_root(10, _p(g=1.0, phi=1e-160, n_particles=3, hbar_omega=1e-320), 0.0)
    assert sector.x0 == sector.c_coef * sector.m_total / (2.0 * sector.b_coef)
    assert sector.b_eff == sector.b_coef
    # v_eff = B x0^2 - C M x0 needs x0^2, which no float holds
    with pytest.raises(ValueError, match=r"^v_eff must be finite, but 3\.076957332126948e\+160\*\*2 overflows$"):
        sector.v_eff


def test_gaussian_frequency_even_in_momentum():
    p = _p()
    for m in (1, 7, 23, 40):
        up = displacement_root(m, p, 0.02)
        down = displacement_root(-m, p, 0.02)
        assert up.x0 == pytest.approx(-down.x0, rel=1e-12)
        assert gaussian_frequency(up) == pytest.approx(gaussian_frequency(down), rel=1e-13)


def test_gaussian_frequency_stiffens_with_momentum():
    p = _p()
    freqs = [gaussian_frequency(displacement_root(m, p, 0.02)) for m in range(0, 41, 5)]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))


def test_harmonic_spectrum_is_exact_ladder():
    sector = displacement_root(3, _p(), 0.0)  # displaced but purely quadratic
    spacing = gaussian_frequency(sector)
    eps = anharmonic_spectrum(sector, n_levels=5)
    for n in range(5):
        assert eps[n] == pytest.approx(spacing * (n + 0.5), rel=1e-10)


def test_perturbative_quartic_shift():
    # first order: eps0 = spacing/2 + 3 alpha4 s^4 with s = (A/B_eff)^(1/4)
    alpha4 = 1e-4
    sector = displacement_root(0, _p(), alpha4)
    eps = anharmonic_spectrum(sector, n_levels=1)
    s4 = sector.a_coef / sector.b_eff
    predicted = 0.5 * gaussian_frequency(sector) + 3 * alpha4 * s4
    assert eps[0] == pytest.approx(predicted, rel=1e-6)


def test_pure_quartic_against_grid_oracle():
    sector = QuarticSector(m_total=0, alpha4=0.1, a_coef=1.0, b_coef=1.0, c_coef=0.0)
    eps = anharmonic_spectrum(sector, n_levels=5)
    oracle = fd_oracle_levels(1.0, 1.0, 0.0, 0.1, 5)
    assert np.max(np.abs(eps - oracle) / np.maximum(1.0, np.abs(oracle))) <= 1e-6


def test_displaced_cubic_sector_against_grid_oracle():
    assert full_levels_error(10, 0.02, 0, 4) <= 1e-6


@pytest.mark.parametrize("name, mutated", [
    ("beta3", lambda sector: 1.01 * 4.0 * sector.alpha4 * sector.x0),
    ("beta3", lambda sector: 0.0),
    ("v_eff", lambda sector: sector.b_coef * sector.x0**2 - sector.c_coef * sector.m_total * sector.x0
     + 1.01 * sector.alpha4 * sector.x0**4),
    ("v_eff", lambda sector: sector.b_coef * sector.x0**2 - sector.c_coef * sector.m_total * sector.x0),
], ids=["beta3-scaled", "beta3-zero", "v_eff-quartic-scaled", "v_eff-quartic-dropped"])
def test_grid_oracle_catches_a_wrong_displaced_coefficient(monkeypatch, name, mutated):
    # the reference reads no displaced-frame coefficient, so a wrong one moves full_levels away from it
    monkeypatch.setattr(QuarticSector, name, property(mutated))
    assert full_levels_error(10, 0.02, 0, 4) > 1e-6


def test_spectrum_invariant_under_momentum_reflection():
    p = _p()
    eps_up = anharmonic_spectrum(displacement_root(12, p, 0.02), n_levels=5)
    eps_down = anharmonic_spectrum(displacement_root(-12, p, 0.02), n_levels=5)
    assert np.max(np.abs(eps_up - eps_down)) <= 1e-10


def test_levels_increase_with_quartic_strength():
    # variational bound: a stronger positive quartic raises every level
    p = _p()
    weak = anharmonic_spectrum(displacement_root(0, p, 0.05), n_levels=4)
    strong = anharmonic_spectrum(displacement_root(0, p, 0.10), n_levels=4)
    assert np.all(strong > weak)


def test_full_levels_offsets():
    assert full_levels_error(5, 0.02, 9, 3) <= 1e-6


def test_n_levels_cap_is_refused_before_any_solve(monkeypatch):
    # the basis starts at 4 n_levels and may double five times, so n_levels is capped at 32 before any solve
    def no_solve(*args):
        raise AssertionError("a basis was diagonalised")

    monkeypatch.setattr(kerr, "_oscillator_levels", no_solve)
    with pytest.raises(ValueError, match=r"^n_levels must lie in \[1, 32\], got 33$"):
        anharmonic_spectrum(displacement_root(0, _p(), 0.02), n_levels=33)


def test_cutoff_guard_and_convergence_error(monkeypatch):
    # the first cutoff is at least 4 n_levels; an unreachable tolerance ends the doublings
    monkeypatch.setattr(kerr, "_RTOL", 0.0)
    monkeypatch.setattr(kerr, "_MAX_DOUBLINGS", 2)
    sector = displacement_root(0, _p(), 0.02)
    with pytest.raises(ConvergenceError, match="not converged at cutoff 192") as excinfo:
        anharmonic_spectrum(sector, n_levels=2)
    assert excinfo.value.residual is not None
    with pytest.raises(ConvergenceError, match="not converged at cutoff 320"):
        anharmonic_spectrum(sector, n_levels=20)
