import math

import numpy as np
import pytest
from scipy.linalg import eigh

from fluxqm import (
    DiracParams,
    NoTransitionError,
    critical_flux_dirac,
    effective_energy,
    flux_displacement,
    induced_coupling_dirac,
    optimal_chirality,
)
from reference import diamagnetic_stiffness


def _p(**kwargs):
    defaults = dict(eps0=1.0, hbar_omega=1.0, phi=0.0, n_electrons=8, degeneracy=4, d_eff=0.0)
    defaults.update(kwargs)
    return DiracParams(**defaults)


# --- independent oracles -----------------------------------------------------


def exact_band_stiffness(eps0, filling, n_sites, phi):
    """-(phi/N_s)^2 <H0> with <H0> summed exactly over the filled cosine band."""
    n_fill = round(filling * n_sites)
    energies = np.sort(-2.0 * eps0 * np.cos(2.0 * np.pi * np.arange(n_sites) / n_sites))
    return -((phi / n_sites) ** 2) * float(energies[:n_fill].sum())


def displaced_boson_ground_energy(hbar_omega, lam, j, cutoff=200):
    """Brute-force ground energy of hw a^dag a + lam j (a + a^dag)."""
    x = np.zeros((cutoff + 1, cutoff + 1))
    k = np.arange(cutoff)
    x[k, k + 1] = np.sqrt(k + 1.0)
    x[k + 1, k] = x[k, k + 1]
    h = hbar_omega * np.diag(np.arange(cutoff + 1.0)) + lam * j * x
    return float(eigh(h, eigvals_only=True)[0])


def consecutive_filling_energy(n_plus, n_minus, eps0, degeneracy):
    """Exact kinetic sum: each branch fills levels (r - 1/2) eps0, capacity g_d."""
    total = 0.0
    for n_branch in (n_plus, n_minus):
        full, rem = divmod(n_branch, degeneracy)
        total += degeneracy * eps0 * full**2 / 2.0
        total += rem * eps0 * (full + 0.5)
    return total


# --- diamagnetic stiffness ---------------------------------------------------


def test_stiffness_half_filling_value():
    d = diamagnetic_stiffness(1.0, 0.5, 100, 1.0)
    assert d == pytest.approx(2.0 / (100.0 * math.pi), rel=1e-14)
    assert d == pytest.approx(0.006366197723675814, rel=1e-12)


def test_stiffness_empty_band_limit():
    assert diamagnetic_stiffness(1.0, 1e-9, 50, 1.0) < 1e-10


def test_stiffness_spin_doubling():
    single = diamagnetic_stiffness(1.0, 0.3, 80, 0.7)
    assert diamagnetic_stiffness(1.0, 0.3, 80, 0.7, spinful=True) == pytest.approx(2 * single, rel=1e-15)


def test_stiffness_matches_exact_band_sum_small_ring():
    # N_s = 10: the closed form is the large-N_s limit, O(1/N_s^2) off
    est = diamagnetic_stiffness(1.0, 0.5, 10, 1.0)
    exact = exact_band_stiffness(1.0, 0.5, 10, 1.0)
    assert abs(est - exact) / exact <= 1.0 / 10**2 * 5


def test_stiffness_matches_exact_band_sum_large_ring():
    est = diamagnetic_stiffness(1.0, 0.5, 200, 1.0)
    exact = exact_band_stiffness(1.0, 0.5, 200, 1.0)
    assert abs(est - exact) / exact <= 1e-3


def test_stiffness_domain_errors():
    with pytest.raises(ValueError):
        diamagnetic_stiffness(1.0, 0.0, 50, 1.0)
    with pytest.raises(ValueError):
        diamagnetic_stiffness(1.0, 1.0, 50, 1.0)
    with pytest.raises(ValueError):
        diamagnetic_stiffness(1.0, 0.5, 1, 1.0)


# --- induced coupling --------------------------------------------------------


def test_coupling_zero_flux():
    assert induced_coupling_dirac(_p(phi=0.0)) == 0.0


def test_coupling_strict_value_against_displacement_oracle():
    # lam = eps0 phi = 1, hw = 2: chi must be exactly 1/2, and the brute-force
    # ground energy of the driven mode must shift by -chi j^2
    p = _p(eps0=1.0, phi=1.0, hbar_omega=2.0, d_eff=0.0)
    chi = induced_coupling_dirac(p)
    assert chi == pytest.approx(0.5, rel=1e-15)
    for j in (1, 2):
        e = displaced_boson_ground_energy(2.0, p.coupling_lambda, j)
        assert e == pytest.approx(-chi * j * j, rel=1e-10, abs=1e-10)


def test_coupling_overflow_is_rejected():
    # eps0 * phi overflows to inf without raising; chi = inf would make every energy NaN
    with pytest.raises(ValueError, match="chi must be finite, got inf"):
        induced_coupling_dirac(_p(eps0=1e300, phi=1e10, n_electrons=3))


def test_overflowing_square_names_its_quantity():
    # float ** raises OverflowError where * would give inf
    with pytest.raises(ValueError, match=r"^chi must be finite, but 1e\+200\*\*2 overflows$"):
        induced_coupling_dirac(_p(eps0=1e200, phi=1.0))
    with pytest.raises(ValueError, match=r"^mode_stiffness must be finite, but 1e\+160\*\*2 overflows$"):
        _p(phi=1e160, d_eff=1.0).mode_stiffness
    with pytest.raises(ValueError, match=r"^d_eff must be finite, but 1e\+160\*\*2 overflows$"):
        diamagnetic_stiffness(1.0, 0.5, 10, 1e160)


def test_overflowing_closed_forms_name_their_quantity():
    # 2 D_eff phi^2 overflows: chi = lambda^2 / inf once read 0.0, where the true chi is 5e-301
    with pytest.raises(ValueError, match=r"^mode_stiffness must be finite, got inf$"):
        induced_coupling_dirac(_p(d_eff=1e300, phi=1e5))
    with pytest.raises(ValueError, match=r"^mode_stiffness must be finite, got inf$"):
        flux_displacement(2, _p(d_eff=1e300, phi=1e5))
    # eps0 N^2 / (4 g_d) overflows: the energy once read inf, where the true energy is 4e308
    with pytest.raises(ValueError, match=r"^energy must be finite, got inf$"):
        effective_energy(0, _p(eps0=1e308))
    # <a> = 8e155 squares to inf: the photon number once read inf
    with pytest.raises(ValueError, match=r"^photon_number must be finite, got inf$"):
        flux_displacement(8, _p(hbar_omega=1e-10, phi=1e145))


def test_coupling_saturation_with_stiffness():
    weak = induced_coupling_dirac(_p(phi=1.0, d_eff=1e6))
    assert weak < 1e-5
    saturating = [induced_coupling_dirac(_p(phi=1.0, d_eff=d)) for d in (0.0, 0.1, 1.0)]
    assert saturating[0] > saturating[1] > saturating[2]


# --- effective energy and the jump -------------------------------------------


def test_effective_energy_balanced_value():
    p = _p(eps0=1.2, n_electrons=8, degeneracy=4)
    assert effective_energy(0, p, chi=0.3) == pytest.approx(1.2 / 16 * 64, rel=1e-14)


def test_effective_energy_flat_at_critical_coupling():
    p = _p(eps0=1.0, n_electrons=6, degeneracy=2)
    chi_c = p.eps0 / (4 * p.degeneracy)
    values = [effective_energy(j, p, chi=chi_c) for j in range(-6, 7)]
    assert max(values) - min(values) <= 1e-12


def test_effective_energy_against_consecutive_filling():
    # continuum quadratic form vs the exact branch-filling sum: O(1) apart
    p = _p(eps0=1.0, n_electrons=8, degeneracy=4)
    exact = consecutive_filling_energy(6, 2, p.eps0, p.degeneracy)
    assert exact == pytest.approx(6.0, rel=1e-14)  # frozen brute-force value
    continuum = effective_energy(6 - 2, p, chi=0.0)
    assert continuum == pytest.approx(5.0, rel=1e-14)
    assert abs(exact - continuum) <= 2.0 * p.eps0  # O(1) correction, not O(N)


def test_effective_energy_bounds_j():
    with pytest.raises(ValueError):
        effective_energy(9, _p(n_electrons=8), chi=0.0)


@pytest.mark.parametrize("chi", [math.inf, -math.inf, math.nan])
def test_supplied_chi_must_be_finite(chi):
    # unchecked, optimal_chirality returned 0 (balanced) and effective_energy NaN
    p = _p(n_electrons=8)
    with pytest.raises(ValueError, match=f"chi must be finite, got {chi}"):
        effective_energy(3, p, chi=chi)
    with pytest.raises(ValueError, match=f"chi must be finite, got {chi}"):
        optimal_chirality(p, chi=chi)


def test_optimal_chirality_jump_across_threshold():
    p = _p(eps0=1.0, n_electrons=8, degeneracy=4)
    chi_c = p.eps0 / (4 * p.degeneracy)
    assert optimal_chirality(p, chi=chi_c * (1 - 1e-9)) == 0
    assert abs(optimal_chirality(p, chi=chi_c * (1 + 1e-9))) == p.n_electrons
    # no intermediate minima on either side
    for chi in (chi_c * 0.5, chi_c * 1.5):
        best = optimal_chirality(p, chi=chi)
        assert best in (0, -8, 8)


@pytest.mark.parametrize("degeneracy", [1, 2, 4])
@pytest.mark.parametrize("n_electrons", [1, 4, 5, 8])
def test_optimal_chirality_is_the_first_brute_force_minimum(n_electrons, degeneracy):
    p = _p(eps0=1.3, n_electrons=n_electrons, degeneracy=degeneracy)
    chi_c = p.eps0 / (4 * p.degeneracy)
    # at chi = chi_c every j ties exactly, and +-j always tie
    for chi in (0.0, 0.5 * chi_c, chi_c, 1.5 * chi_c, 3.0):
        for j_max in range(n_electrons % 2, n_electrons + 1):
            # N electrons fill only sectors whose J has N's parity
            reachable = [j for j in range(-j_max, j_max + 1) if (j - n_electrons) % 2 == 0]
            # min keeps the first minimum: smaller |j| first, then the negative branch
            order = sorted(reachable, key=lambda j: (abs(j), j))
            expected = min(order, key=lambda j: effective_energy(j, p, chi))
            assert optimal_chirality(p, chi, j_max) == expected


def test_optimal_chirality_respects_cap():
    # above chi_c the largest reachable |J| within the cap wins: the cap itself only at N's parity
    for n_electrons, j_max, expected in [(8, 5, 4), (8, 6, 6), (5, 4, 3), (5, 5, 5)]:
        assert abs(optimal_chirality(_p(n_electrons=n_electrons), chi=1.0, j_max=j_max)) == expected


# --- critical flux ------------------------------------------------------------


def test_critical_flux_strict_dirac_value():
    p = _p(eps0=1.3, hbar_omega=0.9, degeneracy=4, d_eff=0.0)
    phi_c = critical_flux_dirac(p)
    assert phi_c**2 == pytest.approx(0.9 / (16 * 1.3), rel=1e-13)


def test_critical_flux_existence_boundary():
    p = _p(eps0=1.0, degeneracy=4, d_eff=8.0)  # 2 d_eff == 4 g_d eps0
    with pytest.raises(NoTransitionError):
        critical_flux_dirac(p)


def test_critical_flux_that_underflows_to_zero_raises():
    # hbar_omega / (4 g_d eps0) underflows to 0.0 for a subnormal hbar_omega, which once returned phi_c = 0.0
    p = DiracParams(eps0=1.0, hbar_omega=5e-324, phi=0.0, n_electrons=1)
    with pytest.raises(ValueError, match="^phi_c must be positive, got 0.0$"):
        critical_flux_dirac(p)


def test_critical_flux_lattice_value_and_scan_bracket():
    p = _p(eps0=1.0, hbar_omega=1.0, degeneracy=4, d_eff=0.1)
    phi_c = critical_flux_dirac(p)
    assert phi_c**2 == pytest.approx(1.0 / 15.8, rel=1e-13)
    # the minimizer scan over phi must jump exactly around phi_c
    grid = np.linspace(0.0, 2 * phi_c, 401)
    polarized = [
        abs(optimal_chirality(DiracParams(eps0=1.0, hbar_omega=1.0, phi=float(v),
                                          n_electrons=8, degeneracy=4, d_eff=0.1))) > 0
        for v in grid
    ]
    flips = [i for i in range(400) if polarized[i] != polarized[i + 1]]
    assert len(flips) == 1
    assert grid[flips[0]] <= phi_c <= grid[flips[0] + 1]


# --- displacement observables -------------------------------------------------


def test_displacement_balanced_phase_is_dark():
    assert flux_displacement(0, _p(phi=0.7)) == (0.0, 0.0)


def test_displacement_parity_in_j():
    p = _p(phi=0.6, d_eff=0.05)
    a_plus, n_plus = flux_displacement(3, p)
    a_minus, n_minus = flux_displacement(-3, p)
    assert a_minus == -a_plus
    assert n_minus == n_plus


def test_displacement_value_against_potential_minimizer():
    # lam = 1, j = 5, hw = 1, no stiffness: <a> = -5, <n> = 25, and the
    # quadratic mode potential (hw/4 + phi^2 D/2) X^2 + lam X j has its
    # minimum at X = 2 <a>
    p = _p(eps0=1.0, phi=1.0, hbar_omega=1.0, d_eff=0.0, n_electrons=8)
    amp, photons = flux_displacement(5, p)
    assert amp == pytest.approx(-5.0, rel=1e-15)
    assert photons == pytest.approx(25.0, rel=1e-15)
    curvature = 2 * (p.hbar_omega / 4 + p.phi**2 * p.d_eff / 2)
    x_min = -p.coupling_lambda * 5 / curvature
    assert x_min == pytest.approx(2 * amp, rel=1e-14)


def test_linear_expansion_identity():
    # sum |m + b + f| - sum |m + b| = f * J whenever no occupied level crosses
    rng = np.random.default_rng(21)
    beta = 0.5  # the ring levels are eps0 |m + 1/2|
    for _ in range(40):
        n = int(rng.integers(1, 9))
        orbitals = rng.choice(np.arange(-7, 7), size=n, replace=False)
        # m >= 0 fills the + branch and m <= -1 the - branch
        j = sum(1 for m in orbitals if m >= 0) - sum(1 for m in orbitals if m < 0)
        f = float(rng.uniform(-0.49, 0.49))
        lhs = sum(abs(m + beta + f) for m in orbitals) - sum(abs(m + beta) for m in orbitals)
        assert lhs == pytest.approx(f * j, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.0, n_electrons=4, degeneracy=3)
    with pytest.raises(ValueError):
        DiracParams(eps0=-1.0, hbar_omega=1.0, phi=0.0, n_electrons=4)


@pytest.mark.parametrize("field", ["eps0", "hbar_omega", "phi", "d_eff"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite(field, value):
    kwargs = {"eps0": 1.0, "hbar_omega": 1.0, "phi": 0.0, "n_electrons": 4, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DiracParams(**kwargs)
