import math

import numpy as np
import pytest

from fluxqm import (
    FermionConfig,
    ModelParams,
    compare_spectra,
    dressed_frequency,
    ground_state_moments,
    induced_coupling,
    mode_displacement,
    oracle_spectrum,
    quadrature_variances,
    sector_energy,
    squeeze_parameter,
)


def test_dressed_frequency_decoupled_limits():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=3)
    assert dressed_frequency(p) == pytest.approx(p.hbar_omega, rel=1e-15)
    # vanishing orbital scale decouples the mode as well
    weak = ModelParams(g=1e-300, g_eff=1.0, phi=1.0, n_particles=3)
    assert dressed_frequency(weak) == pytest.approx(weak.hbar_omega, rel=1e-15)


def test_dressed_frequency_against_oracle_spacing():
    # level spacing of the brute-force boson sector equals the dressed quantum
    p = ModelParams(g=0.25, g_eff=1.0, phi=1.0, n_particles=4, hbar_omega=1.0)
    report = oracle_spectrum(p, FermionConfig([0, 1, 2, 3]), cutoff=240, n_levels=3,
                             check_convergence=False)
    spacing = report.levels[1] - report.levels[0]
    assert spacing == pytest.approx(dressed_frequency(p), rel=1e-9)
    assert dressed_frequency(p) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_dressed_frequency_never_below_bare():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = ModelParams(
            g=float(rng.uniform(0.05, 3.0)),
            g_eff=1.0,
            phi=float(rng.uniform(0.0, 3.0)),
            n_particles=int(rng.integers(1, 8)),
            hbar_omega=float(rng.uniform(0.2, 4.0)),
        )
        assert dressed_frequency(p) >= p.hbar_omega
        assert dressed_frequency(p) ** 2 == pytest.approx(
            p.hbar_omega * (p.hbar_omega + 4 * p.g * p.n_particles * p.phi**2), rel=1e-13
        )


@pytest.mark.parametrize("entry", [
    dressed_frequency,
    induced_coupling,
    squeeze_parameter,
    quadrature_variances,
    lambda p: sector_energy(p, FermionConfig([-1, 0, 1])),
    lambda p: mode_displacement(p, 1),
], ids=["dressed_frequency", "induced_coupling", "squeeze_parameter", "quadrature_variances",
        "sector_energy", "mode_displacement"])
def test_stiffness_overflow_is_rejected(entry):
    # 4 g N phi^2 overflows to inf without raising; chi = inf / inf once made the sector energies NaN
    p = ModelParams(g=1.0, g_eff=1.0, phi=1e154, n_particles=3)
    with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
        entry(p)


_HUGE_QUANTUM = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=1, hbar_omega=1e200)
_SUBNORMAL_QUANTUM = ModelParams(g=1.0, g_eff=1.0, phi=1.0, n_particles=1, hbar_omega=1e-320)


@pytest.mark.parametrize("entry, p, message", [
    # hbar_omega * D overflows, although hbar_Omega = 1e200
    (dressed_frequency, _HUGE_QUANTUM, "hbar_Omega must be finite, got inf"),
    (lambda p: sector_energy(p, FermionConfig([0])), _HUGE_QUANTUM, "hbar_Omega must be finite, got inf"),
    # D / hbar_omega overflows, although r is about 184.5
    (squeeze_parameter, _SUBNORMAL_QUANTUM, "r must be finite, got inf"),
    (quadrature_variances, _SUBNORMAL_QUANTUM, "r must be finite, got inf"),
    # the Zeeman term eta S (4 g phi M + eta S) / D overflows
    (lambda p: sector_energy(p, FermionConfig([0, 1], [1, 1])),
     ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=2, eta=1e200), "energy must be finite, got -inf"),
    # float ** raises OverflowError where * would give inf
    (dressed_frequency, ModelParams(g=1.0, g_eff=1.0, phi=1e160, n_particles=3),
     "beta must be finite, but 1e+160**2 overflows"),
    (induced_coupling, ModelParams(g=1e200, g_eff=1.0, phi=1.0, n_particles=3),
     "chi must be finite, but 1e+200**2 overflows"),
], ids=["dressed_frequency", "sector_energy-quantum", "squeeze_parameter", "quadrature_variances",
        "sector_energy-zeeman", "beta-square", "chi-square"])
def test_result_that_floats_cannot_hold_raises(entry, p, message):
    with pytest.raises(ValueError) as info:
        entry(p)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("hbar_omega", [1e-160, 1e-170])
def test_dressed_quantum_of_a_product_below_the_normal_floats(hbar_omega):
    # hbar_omega * D is subnormal at 1e-160 and 0 at 1e-170; its root once read 9.99994e-161 and 0.0
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=1, hbar_omega=hbar_omega)
    assert dressed_frequency(p) == pytest.approx(hbar_omega, rel=1e-15, abs=0.0)
    assert sector_energy(p, FermionConfig([0]), 1) == pytest.approx(hbar_omega, rel=1e-15, abs=0.0)


def test_induced_coupling_zero_flux():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=2)
    assert induced_coupling(p) == 0.0


def test_induced_coupling_value_against_oracle():
    # with one particle the ground-energy cost of m=0 -> m=1 is g - chi;
    # here chi must come out exactly 1/2
    p = ModelParams(g=1.0, g_eff=1.0, phi=1.0, n_particles=1, hbar_omega=4.0)
    chi = induced_coupling(p)
    assert chi == pytest.approx(0.5, rel=1e-15)
    e0 = oracle_spectrum(p, FermionConfig([0]), cutoff=200, n_levels=1, check_convergence=False)
    e1 = oracle_spectrum(p, FermionConfig([1]), cutoff=200, n_levels=1, check_convergence=False)
    assert e1.levels[0] - e0.levels[0] == pytest.approx(p.g - chi, rel=1e-8)


def test_induced_coupling_saturates_below_g_over_n():
    p = ModelParams(g=1.3, g_eff=1.0, phi=1e8, n_particles=5)
    assert induced_coupling(p) == pytest.approx(p.g / p.n_particles, rel=1e-12)
    for phi in (0.3, 1.0, 4.0):
        finite = ModelParams(g=1.3, g_eff=1.0, phi=phi, n_particles=5)
        assert 0.0 <= induced_coupling(finite) < finite.g / finite.n_particles


def test_squeeze_vacuum_limit():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=3)
    assert squeeze_parameter(p) == 0.0
    assert quadrature_variances(p) == (0.5, 0.5)


def test_uncertainty_product_is_quarter():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = ModelParams(
            g=float(rng.uniform(0.05, 3.0)),
            g_eff=1.0,
            phi=float(rng.uniform(0.0, 3.0)),
            n_particles=int(rng.integers(1, 9)),
            hbar_omega=float(rng.uniform(0.2, 4.0)),
        )
        var_x, var_p = quadrature_variances(p)
        assert var_x * var_p == pytest.approx(0.25, abs=1e-12)
        assert var_x <= 0.5 <= var_p


def test_squeeze_parameter_quarter_log4_and_oracle_variance():
    # beta/alpha = 4 at 4 g phi^2 N = 3 hbar_omega
    p = ModelParams(g=0.75, g_eff=1.0, phi=1.0, n_particles=1, hbar_omega=1.0)
    assert squeeze_parameter(p) == pytest.approx(0.25 * math.log(4.0), rel=1e-14)
    assert squeeze_parameter(p) == pytest.approx(0.34657359027997264, rel=1e-12)
    moments = ground_state_moments(p, FermionConfig([1]), cutoff=240)
    assert abs(moments.var_x - quadrature_variances(p)[0]) <= 1e-6


def test_sector_energy_trivial_zero():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=1)
    assert sector_energy(p, FermionConfig([0]), 0) == pytest.approx(0.0, abs=1e-15)


def test_sector_energy_balanced_three():
    # W = 2 for the symmetric three-particle sea, M = 0
    p = ModelParams(g=0.6, g_eff=0.8, phi=0.9, n_particles=3, hbar_omega=1.2)
    cfg = FermionConfig([-1, 0, 1])
    expected = 2 * p.g_eff + 0.5 * (dressed_frequency(p) - p.hbar_omega)
    assert sector_energy(p, cfg, 0) == pytest.approx(expected, rel=1e-14)


def test_sector_energy_ladder_is_linear():
    p = ModelParams(g=0.5, g_eff=1.0, phi=1.3, n_particles=2, hbar_omega=0.7)
    cfg = FermionConfig([0, 2])
    spacing = dressed_frequency(p)
    energies = [sector_energy(p, cfg, n) for n in range(6)]
    for n in range(5):
        assert energies[n + 1] - energies[n] == pytest.approx(spacing, rel=1e-13)


def test_sector_energy_matches_oracle_ladder():
    p = ModelParams(g=0.5, g_eff=0.5, phi=1.0, n_particles=2, hbar_omega=1.0)
    cfg = FermionConfig([0, 1])
    analytic = [sector_energy(p, cfg, n) for n in range(6)]
    report = oracle_spectrum(p, cfg, cutoff=300, n_levels=6, check_convergence=False)
    assert compare_spectra(analytic, report.levels, scale=p.hbar_omega) <= 1e-8


def test_sector_energy_exhaustive_small_instances():
    # every occupation set with N <= 3 and |m_i| <= 2, against brute force
    import itertools

    window = range(-2, 3)
    for n in (1, 2, 3):
        for orbs in itertools.combinations(window, n):
            cfg = FermionConfig(orbs)
            for g, phi in ((0.7, 0.6), (1.6, 1.2)):
                p = ModelParams(g=g, g_eff=1.0, phi=phi, n_particles=n)
                analytic = [sector_energy(p, cfg, k) for k in range(3)]
                report = oracle_spectrum(p, cfg, cutoff=200, n_levels=3,
                                         check_convergence=False)
                max_rel_error = compare_spectra(analytic, report.levels, scale=p.hbar_omega)
                assert max_rel_error <= 1e-8, (orbs, g, phi, max_rel_error)


def test_sector_energy_rejects_negative_photon_index():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.5, n_particles=1)
    with pytest.raises(ValueError):
        sector_energy(p, FermionConfig([0]), -1)


def test_mode_displacement_sign_and_value_against_oracle():
    p = ModelParams(g=0.7, g_eff=1.0, phi=0.9, n_particles=3, hbar_omega=1.0)
    cfg = FermionConfig([0, 1, 3])  # M = 4
    moments = ground_state_moments(p, cfg, cutoff=300)
    predicted = mode_displacement(p, cfg.m_total)
    assert predicted > 0  # positive M displaces toward positive quadrature
    assert moments.displacement == pytest.approx(predicted, rel=1e-8)
    # total quanta = coherent part + squeezing part
    r = squeeze_parameter(p)
    assert moments.photon_number == pytest.approx(predicted**2 + math.sinh(r) ** 2, rel=1e-6)


def test_mode_displacement_vanishes_at_zero_m():
    p = ModelParams(g=0.7, g_eff=1.0, phi=0.9, n_particles=3)
    assert mode_displacement(p, 0) == 0.0


def test_solution_internal_consistency():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = ModelParams(
            g=float(rng.uniform(0.05, 2.0)),
            g_eff=1.0,
            phi=float(rng.uniform(0.0, 2.5)),
            n_particles=int(rng.integers(1, 7)),
            hbar_omega=float(rng.uniform(0.3, 3.0)),
        )
        # hbar_Omega = sqrt(alpha beta) and r = ln(beta / alpha) / 4 give hbar_Omega = alpha e^{2r}
        r = squeeze_parameter(p)
        assert r >= 0.0
        assert dressed_frequency(p) == pytest.approx(p.hbar_omega * math.exp(2.0 * r), rel=1e-13)


@pytest.mark.parametrize("entry", [
    lambda p, cfg: sector_energy(p, cfg),
    lambda p, cfg: oracle_spectrum(p, cfg),
    lambda p, cfg: ground_state_moments(p, cfg),
], ids=["sector_energy", "oracle_spectrum", "ground_state_moments"])
def test_particle_count_must_match_the_configuration(entry):
    # three particles in the parameters, two in the configuration: the oracle once returned the
    # same wrong energy as the closed form (1.8965 against the two-particle 1.2653)
    p = ModelParams(g=2.0, g_eff=1.0, phi=0.8, n_particles=3)
    with pytest.raises(ValueError, match="^configuration has 2 particles, but n_particles = 3$"):
        entry(p, FermionConfig([0, 1]))
