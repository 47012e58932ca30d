import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fluxqm import (
    FermionConfig,
    ModelParams,
    NoTransitionError,
    critical_eta,
    critical_flux,
    critical_flux_spin,
    hessian,
    locking_ratio,
    oracle_spectrum,
    sector_energy,
)


def _p(**kwargs):
    defaults = dict(g=1.0, g_eff=1.0, phi=0.0, n_particles=3, hbar_omega=1.0, eta=0.0)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def test_spin_energy_reduces_to_orbital_ladder_at_zero_eta():
    p = _p(g=0.8, g_eff=1.1, phi=0.7, n_particles=3, hbar_omega=1.3)
    cfg = FermionConfig([-1, 0, 2], spins=[1, -1, 1])
    plain = FermionConfig([-1, 0, 2])
    for n in range(4):
        assert sector_energy(p, cfg, n) == pytest.approx(sector_energy(p, plain, n), rel=1e-13)


def test_spin_energy_zeeman_only_against_oracle():
    # fully spin-polarized sector at zero flux: only the Zeeman drive remains
    p = _p(g=1.0, g_eff=0.9, phi=0.0, eta=0.35)
    cfg = FermionConfig([-1, 0, 1], spins=[1, 1, 1])
    report = oracle_spectrum(p, cfg, cutoff=200, n_levels=4, check_convergence=False)
    for n, level in enumerate(report.levels):
        analytic = sector_energy(p, cfg, n)
        assert analytic == pytest.approx(level, rel=1e-8, abs=1e-8)


def test_spin_energy_z2_invariance():
    p = _p(g=0.9, g_eff=1.0, phi=0.6, eta=0.4)
    cfg = FermionConfig([0, 1, 2], spins=[1, -1, 1])
    flipped = FermionConfig([0, -1, -2], spins=[-1, 1, -1])
    assert sector_energy(p, cfg, 0) == pytest.approx(sector_energy(p, flipped, 0), rel=1e-15)


def test_hessian_decoupled_is_diagonal_and_stable():
    p = _p(g=1.0, g_eff=0.8, phi=0.0, n_particles=4, eta=0.0)
    rep = hessian(p)
    assert rep.ms == 0.0
    assert rep.mm == pytest.approx(2 * p.g_eff / p.n_particles, rel=1e-15)
    assert rep.ss == pytest.approx(p.g_eff * p.n_particles / 2, rel=1e-15)
    assert rep.stable
    assert rep.determinant == pytest.approx(rep.eigenvalues[0] * rep.eigenvalues[1], rel=1e-12)


def _hessian_draws(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield _p(g=rng.uniform(0.5, 2.0), g_eff=rng.uniform(0.5, 2.0), phi=rng.uniform(0.0, 1.0),
                 n_particles=int(rng.integers(1, 21)), hbar_omega=rng.uniform(0.5, 2.0), eta=rng.uniform(0.0, 3.0))


def test_hessian_eigenvalues_match_mpmath():
    import mpmath

    worst = 0.0
    with mpmath.workdps(50):
        for p in _hessian_draws(2000, seed=7):
            rep = hessian(p)
            mm, ms, ss = (mpmath.mpf(v) for v in (rep.mm, rep.ms, rep.ss))
            mid, half = (mm + ss) / 2, mpmath.sqrt(((mm - ss) / 2) ** 2 + ms * ms)
            for got, exact in zip(rep.eigenvalues, (mid - half, mid + half)):
                worst = max(worst, float(abs(got - exact) / max(1, abs(exact))))
    # mid - half cancelled to 2.4e-15 on these draws
    assert worst <= 1e-15


def test_hessian_eigenvalues_of_a_diagonal_hessian_are_its_entries():
    # eta = 0 decouples M and S: the eigenvalues are mm and ss bit for bit
    for p in _hessian_draws(2000, seed=8):
        rep = hessian(replace(p, eta=0.0))
        assert rep.ms == 0.0
        assert rep.eigenvalues == tuple(sorted((rep.mm, rep.ss)))


def test_hessian_determinant_vanishes_at_critical_eta():
    # at g_eff = g the threshold is flux independent
    for phi in (0.0, 0.4, 1.1):
        p = _p(g=0.8, g_eff=0.8, phi=phi, n_particles=3, hbar_omega=1.3)
        eta_c = critical_eta(p)
        critical = replace(p, eta=eta_c)
        assert abs(hessian(critical).determinant) <= 1e-10


def test_hessian_determinant_vanishes_at_decoupled_spin_threshold():
    # phi = 0 decouples the channels; the spin diagonal crosses zero at
    # eta^2 = g_eff N hbar_omega / 4
    p = _p(g=1.2, g_eff=0.9, phi=0.0, n_particles=5, hbar_omega=0.7,
           eta=math.sqrt(0.9 * 5 * 0.7 / 4))
    assert abs(hessian(p).determinant) <= 1e-12


def test_critical_eta_value_and_scaling():
    assert critical_eta(_p(g=1.0, g_eff=1.0, n_particles=4)) == pytest.approx(1.0, rel=1e-15)
    small = critical_eta(_p(g=1.3, g_eff=1.3, n_particles=2, hbar_omega=0.9))
    large = critical_eta(_p(g=1.3, g_eff=1.3, n_particles=8, hbar_omega=0.9))
    assert large == pytest.approx(2 * small, rel=1e-14)


def test_critical_eta_marks_stability_flip():
    p = _p(g=0.7, g_eff=0.7, phi=0.5, n_particles=3, hbar_omega=1.1)
    eta_c = critical_eta(p)
    assert hessian(replace(p, eta=eta_c * (1 - 1e-6))).stable
    assert not hessian(replace(p, eta=eta_c * (1 + 1e-6))).stable


def test_critical_eta_at_unequal_couplings():
    # eta_c^2 = N g_eff hw / 4 + N^2 g (g_eff - g) phi^2 = 3 * 1.2 / 4 + 9 * 0.2 * 0.09
    p = _p(g=1.0, g_eff=1.2, phi=0.3)
    eta_c = critical_eta(p)
    assert eta_c == pytest.approx(math.sqrt(0.9 + 0.162), rel=1e-15)
    assert hessian(replace(p, eta=eta_c * (1 - 1e-6))).stable
    assert not hessian(replace(p, eta=eta_c * (1 + 1e-6))).stable
    # g > g_eff: below the orbital critical flux a threshold exists, at or past it the orbital channel is soft
    p = _p(g=2.0, g_eff=0.5, n_particles=3)
    phi_orb = critical_flux(p)
    inside = replace(p, phi=0.5 * phi_orb)
    assert critical_flux_spin(replace(inside, eta=critical_eta(inside))) == pytest.approx(inside.phi, rel=1e-12)
    for phi in (phi_orb * (1 + 1e-9), 2 * phi_orb):
        assert hessian(replace(p, phi=phi)).mm <= 0
        with pytest.raises(NoTransitionError):
            critical_eta(replace(p, phi=phi))


@pytest.mark.parametrize("threshold, p, message", [
    # g (g_eff - g) underflows to 0, but the signs say a threshold exists: phi_c overflows
    (critical_flux_spin, _p(g=1e-300, g_eff=2e-300, n_particles=3, eta=2.0), "phi_c must be finite, got inf"),
    # N g_eff hw / 4 overflows
    (critical_eta, _p(g=1e300, g_eff=1e300, n_particles=30, hbar_omega=1e300), "eta_c must be finite, got inf"),
    # N g_eff hw / 4 underflows to 0, although eta_c = 5e-201 is a float
    (critical_eta, _p(g=1e-200, g_eff=1e-200, n_particles=1, hbar_omega=1e-200), "eta_c must be positive, got 0.0"),
    # float ** raises OverflowError where * would give inf
    (critical_eta, _p(phi=1e160), "eta_c must be finite, but 1e+160**2 overflows"),
    (critical_flux_spin, _p(g_eff=2.0, eta=1e200), "phi_c must be finite, but 1e+200**2 overflows"),
], ids=["phi_c-overflow", "eta_c-overflow", "eta_c-underflow", "eta_c-square-overflow", "phi_c-square-overflow"])
def test_threshold_that_floats_cannot_hold_raises(threshold, p, message):
    with pytest.raises(ValueError) as info:
        threshold(p)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("entry, p, message", [
    (hessian, _p(g=1e200, phi=1.0), "mm must be finite, but 1e+200**2 overflows"),
    (hessian, _p(eta=1e200), "ss must be finite, but 1e+200**2 overflows"),
    (locking_ratio, _p(g=1e200, phi=1.0, eta=1.0), "locking_ratio must be finite, but 1e+200**2 overflows"),
], ids=["mm", "ss", "locking_ratio"])
def test_overflowing_square_names_its_quantity(entry, p, message):
    # float ** raises OverflowError where * would give inf
    with pytest.raises(ValueError) as info:
        entry(p)
    assert type(info.value) is ValueError and str(info.value) == message


def test_overflowing_determinant_names_its_quantity():
    # mm ss ~ 1e600 once read inf, while both eigenvalues are finite
    rep = hessian(_p(n_particles=5, g_eff=1e300))
    assert all(math.isfinite(e) for e in rep.eigenvalues)
    with pytest.raises(ValueError, match=r"^determinant must be finite, got inf$"):
        rep.determinant


def test_critical_eta_matches_determinant_bisection():
    p = _p(g=0.8, g_eff=0.8, phi=0.9, n_particles=5, hbar_omega=1.4)
    root = brentq(lambda eta: hessian(replace(p, eta=eta)).determinant, 1e-9, 10.0,
                  xtol=1e-14, rtol=8.9e-16)
    assert root == pytest.approx(critical_eta(p), rel=1e-8)


def test_critical_flux_spin_example_and_bisection():
    p = _p(g=1.0, g_eff=2.0, phi=0.0, n_particles=1, eta=1.0)
    phi_c = critical_flux_spin(p)
    assert phi_c == pytest.approx(math.sqrt(0.5), rel=1e-14)
    root = brentq(lambda phi: hessian(replace(p, phi=phi)).determinant, 1e-9, 10.0,
                  xtol=1e-14, rtol=8.9e-16)
    assert root == pytest.approx(phi_c, rel=1e-8)


def test_critical_flux_spin_reduces_to_orbital_form_at_zero_eta():
    p = _p(g=1.6, g_eff=0.9, phi=0.0, n_particles=4, hbar_omega=1.2, eta=0.0)
    assert critical_flux_spin(p) == pytest.approx(critical_flux(p), rel=1e-13)


def test_critical_flux_spin_errors():
    with pytest.raises(ValueError):
        critical_flux_spin(_p(g=1.0, g_eff=1.0, eta=0.5))
    # spin-driven branch needs g_eff > g once eta exceeds the decoupled threshold
    with pytest.raises(NoTransitionError):
        critical_flux_spin(_p(g=2.0, g_eff=0.5, n_particles=1, eta=10.0))


def test_locking_ratio_trivial_cases():
    assert locking_ratio(_p(phi=0.0, eta=0.7)) == 0.0
    p = _p(g=0.9, g_eff=0.9, phi=0.4, n_particles=3, eta=0.5)
    # odd in phi: flip the sign through the numerator convention
    plus = locking_ratio(p)
    minus_drive = replace(p, eta=-p.eta)
    assert locking_ratio(minus_drive) == pytest.approx(-plus, rel=1e-15)


def test_locking_ratio_equals_soft_eigenvector_slope():
    # evaluate on the critical manifold, both for g_eff = g and away from it
    p1 = _p(g=0.8, g_eff=0.8, phi=0.7, n_particles=4, hbar_omega=1.1)
    p1 = replace(p1, eta=critical_eta(p1))
    p2 = _p(g=1.0, g_eff=2.0, phi=0.0, n_particles=1, eta=1.0)
    p2 = replace(p2, phi=critical_flux_spin(p2))
    for p in (p1, p2):
        rep = hessian(p)
        assert abs(rep.eigenvalues[0]) < 1e-10
        slope = rep.soft_vector[0] / rep.soft_vector[1]
        assert slope == pytest.approx(locking_ratio(p), rel=1e-8)


@pytest.mark.parametrize("n_particles", [6, 10])
def test_closed_shell_exact_ground_state_leaves_balance_at_critical_eta(n_particles):
    """Brute-force spinful ground state against the Hessian threshold on closed shells.

    At phi = 0 and g_eff = g, a closed shell (N = 2 mod 4, N >= 6) stays
    balanced just below eta_c and polarizes just above it, so the exact
    spectrum and hessian(p).stable put the transition at the same eta.
    """
    p = _p(g=0.8, g_eff=0.8, phi=0.0, n_particles=n_particles, hbar_omega=1.0)
    eta_c = critical_eta(p)
    # the energy depends only on (M, Sigma, W): keep one smallest-W configuration per (M, Sigma)
    lowest = {}
    for orbs in itertools.combinations([(m, s) for m in range(-4, 5) for s in (-1, 1)], n_particles):
        m_sigma = (sum(m for m, _ in orbs), sum(s for _, s in orbs))
        w = sum(m * m for m, _ in orbs)
        if m_sigma not in lowest or w < lowest[m_sigma][0]:
            lowest[m_sigma] = (w, orbs)
    lowest = [FermionConfig([m for m, _ in orbs], spins=[s for _, s in orbs]) for _, orbs in lowest.values()]

    def ground_m_sigma(eta):
        q = replace(p, eta=eta)
        cfg = min(lowest, key=lambda c: sector_energy(q, c, 0))
        return cfg.m_total, cfg.sigma_total

    assert ground_m_sigma(eta_c * (1 - 1e-9)) == (0, 0)
    assert ground_m_sigma(eta_c * (1 + 1e-9))[1] != 0
    assert hessian(replace(p, eta=eta_c * (1 - 1e-9))).stable
    assert not hessian(replace(p, eta=eta_c * (1 + 1e-9))).stable
