import itertools
import math

import numpy as np
import pytest

from fluxqm import (
    ConvergenceError,
    GridDomainError,
    ModelParams,
    RfSquidParams,
    displacement_operator,
    rf_squid_map,
    rf_squid_spectrum,
    TBSector,
    sector_constants,
    sector_spectrum_fock,
    sector_spectrum_xrep,
    gridsolve,
    kerr,
    tbring,
)
from fluxqm.gridsolve import _dvr_bound_states


def series_displacement_element(m, n, lam, terms=30, margin=60):
    """Oracle: exp(i lam (a+a^dag)) by explicit power series, 30 terms; lam may be negative."""
    dim = max(m, n) + margin
    x = np.zeros((dim + 1, dim + 1))
    k = np.arange(dim)
    x[k, k + 1] = np.sqrt(k + 1.0)
    x[k + 1, k] = x[k, k + 1]
    arg = 1j * lam * x
    acc = np.eye(dim + 1, dtype=complex)
    term = np.eye(dim + 1, dtype=complex)
    for order in range(1, terms + 1):
        term = term @ arg / order
        acc = acc + term
    return complex(acc[m, n])


# --- sector constants ---------------------------------------------------------


def test_sector_single_particle():
    sector = sector_constants([0], 8)
    assert sector.c_sum == pytest.approx(1.0, rel=1e-15)
    assert sector.s_sum == pytest.approx(0.0, abs=1e-15)
    assert sector.delta == 0.0


def test_sector_full_band_sums_to_zero():
    # all roots of unity: both trigonometric moments vanish
    sector = sector_constants(range(6), 6)
    assert abs(sector.c_sum) <= 1e-12
    assert abs(sector.s_sum) <= 1e-12


def test_sector_two_particle_example():
    sector = sector_constants([0, 1], 6)
    assert sector.c_sum == pytest.approx(1.5, rel=1e-14)
    assert sector.s_sum == pytest.approx(math.sin(math.pi / 3), rel=1e-14)
    assert sector.e_j_amp == pytest.approx(math.hypot(1.5, math.sin(math.pi / 3)), rel=1e-14)


def test_sector_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        sector_constants([1, 1], 6)
    with pytest.raises(ValueError):
        sector_constants([6], 6)


@pytest.mark.parametrize("occupations, m_sites", [((0, 0), 6), ((1, 6), 6), ((-1,), 6), ((), 6), ((0,), 0)],
                         ids=["duplicate", "index-at-m_sites", "negative-index", "empty", "no-sites"])
def test_sector_built_directly_is_checked(occupations, m_sites):
    # a Pauli-violating (0, 0) sector used to be accepted and solved without an error
    with pytest.raises(ValueError):
        TBSector(occupations, m_sites)


def test_sector_moments_follow_from_the_occupations():
    sector = TBSector((4, 1, 2), 7)
    assert sector == sector_constants([1, 2, 4], 7)
    assert sector.occupations == (1, 2, 4)
    assert sector.c_sum == math.fsum(math.cos(2.0 * math.pi * n / 7) for n in (1, 2, 4))
    assert sector.s_sum == math.fsum(math.sin(2.0 * math.pi * n / 7) for n in (1, 2, 4))
    with pytest.raises(TypeError):
        TBSector((0, 1), 6, c_sum=1.5, s_sum=5.0)  # the moments are not settable


@pytest.mark.parametrize("hbar_omega", [0.0, -1.0])
def test_fock_solver_rejects_non_positive_quantum_up_front(hbar_omega):
    # it used to run the whole cutoff ladder, then report levels not converged at cutoff 2048
    with pytest.raises(ValueError, match=f"hbar_omega must be positive, got {hbar_omega}"):
        sector_spectrum_fock(sector_constants([0, 1], 6), 0.5, 1.0, hbar_omega)


def test_compression_identity_pointwise():
    # C cos(t) - S sin(t) == sqrt(C^2+S^2) cos(t + delta) for every angle
    rng = np.random.default_rng(2)
    x = np.linspace(-9.0, 9.0, 301)
    for _ in range(20):
        c, s = rng.uniform(-3, 3, size=2)
        amp = math.hypot(c, s)
        delta = math.atan2(s, c)
        lhs = c * np.cos(x) - s * np.sin(x)
        rhs = amp * np.cos(x + delta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, amp)


# --- displacement matrix elements ----------------------------------------------


def test_element_identity_at_zero():
    assert displacement_operator(0.0, 3)[3, 3] == 1.0
    assert displacement_operator(0.0, 3)[3, 1] == 0.0


def test_element_vacuum_overlap():
    lam = 0.7
    assert displacement_operator(lam, 0)[0, 0] == pytest.approx(math.exp(-lam**2 / 2), rel=1e-14)


def test_element_two_zero_value():
    # closed form at (2, 0): -(lam^2/sqrt(2)) e^(-lam^2/2)
    lam = 0.5
    expected = -(lam**2 / math.sqrt(2.0)) * math.exp(-lam**2 / 2)
    value = displacement_operator(lam, 2)[2, 0]
    assert value.real == pytest.approx(expected, rel=1e-13)
    assert value.real == pytest.approx(-0.15600488604842286, rel=1e-12)
    assert value.imag == 0.0


def test_elements_match_power_series_oracle():
    for lam in (0.3, 0.9):
        for m, n in ((0, 0), (2, 0), (5, 3), (7, 7), (1, 6)):
            got = displacement_operator(lam, max(m, n))[m, n]
            want = series_displacement_element(m, n, lam)
            assert got == pytest.approx(want, abs=1e-12)


def test_element_symmetry_and_conjugation():
    lam = 0.8
    op = displacement_operator(lam, 6)
    a, b = op[6, 2], op[2, 6]
    assert a == b  # the operator matrix is symmetric (not Hermitian-conjugated)
    # exp(-i lam (a + a^dag)) has the conjugate elements
    assert series_displacement_element(6, 2, -lam) == pytest.approx(a.conjugate(), abs=1e-12)


def test_operator_column_norms_unit():
    # truncation rule: columns up to n are unitary once cutoff >= n + 20 lam^2 + 40
    for lam in (0.5, 1.2):
        n_check = 20
        cutoff = n_check + math.ceil(20 * lam**2 + 40)
        op = displacement_operator(lam, cutoff)
        norms = np.linalg.norm(op, axis=0)
        assert np.max(np.abs(norms[: n_check + 1] - 1.0)) <= 1e-8


def test_operator_large_index_stability():
    # deep in the matrix the elements stay finite and tiny, no overflow artifacts
    op = displacement_operator(0.9, 600)
    assert np.all(np.isfinite(op.real)) and np.all(np.isfinite(op.imag))
    assert abs(op[600, 0]) < 1e-200


def test_operator_band_phases_exact():
    # i^D: even bands real, odd bands imaginary, exactly, at any band index
    cutoff = 300
    rows, cols = np.indices((cutoff + 1, cutoff + 1))
    odd = (rows - cols) % 2 == 1
    op = displacement_operator(0.9, cutoff)
    assert np.all(op.real[odd] == 0.0)
    assert np.all(op.imag[~odd] == 0.0)


def test_element_matches_mpmath_at_large_lam():
    import mpmath

    mpmath.mp.dps = 50
    for lam in (30.0, 37.0):
        x = mpmath.mpf(lam) ** 2
        want = float(mpmath.exp(-x / 2) * mpmath.laguerre(1600, 0, x))
        got = displacement_operator(lam, 1600)[1600, 1600]
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-12 * abs(want)


def test_element_rejects_underflowing_lam():
    for lam in (40.0, 45.0):
        with pytest.raises(ValueError, match=f"lam = {lam}"):
            displacement_operator(lam, 1600)


# --- sector spectra -------------------------------------------------------------


def test_fock_spectrum_bare_oscillator():
    sector = sector_constants([0, 3], 12)
    levels = sector_spectrum_fock(sector, t=0.0, eta=0.9, hbar_omega=1.3, n_levels=5)
    assert np.allclose(levels, 1.3 * np.arange(5), atol=1e-10)


def test_fock_spectrum_zero_eta_rigid_shift():
    sector = sector_constants([0, 1], 6)
    levels = sector_spectrum_fock(sector, t=0.7, eta=0.0, hbar_omega=1.0, n_levels=4)
    assert np.allclose(levels, np.arange(4) - 2 * 0.7 * sector.c_sum, atol=1e-12)


def test_fock_spectrum_unconverged_raises(monkeypatch):
    # an unreachable tolerance runs the ladder 48, 96, 192 to its last cutoff below the patched cap
    monkeypatch.setattr(gridsolve, "_FOCK_RTOL", 0.0)
    monkeypatch.setattr(gridsolve, "_FOCK_MAX_CUTOFF", 256)
    with pytest.raises(ConvergenceError, match="Fock-basis levels not converged at cutoff 192") as info:
        sector_spectrum_fock(sector_constants([0, 1], 6), t=0.7, eta=1.0, hbar_omega=1.0, n_levels=4)
    assert 0.0 <= info.value.residual < 1e-9


@pytest.mark.parametrize("occupied", [(0,), (0, 1), (1, 2, 4)])
@pytest.mark.parametrize("eta", [0.3, 2.0, 7.0])
def test_fock_levels_are_those_of_the_displacement_operator(occupied, eta):
    # the real build takes cos and sin band by band: bit for bit the real and imaginary parts of the operator
    sector, t, hw, cutoff = sector_constants(occupied, 6), 0.7, 1.3, 96
    d = displacement_operator(eta / math.sqrt(2.0), cutoff)
    h = hw * np.diag(np.arange(cutoff + 1, dtype=float)) - 2.0 * t * (sector.c_sum * d.real - sector.s_sum * d.imag)
    assert np.array_equal(tbring._fock_levels(sector, t, eta, hw, cutoff), np.linalg.eigvalsh(h))


def test_fock_ladder_stops_only_on_converged_levels():
    # one fixed-cutoff solve is the reference: cutoff 512 holds these sectors' lowest 12 levels for eta <= 6
    hw = 1.0
    for occupied, t, eta in itertools.product(((0, 1), (1, 2, 4)), (0.5, 3.0), (0.5, 2.0, 6.0)):
        sector = sector_constants(occupied, 6)
        reference = tbring._fock_levels(sector, t, eta, hw, 512)
        for n_levels in (1, 12):
            levels = sector_spectrum_fock(sector, t, eta, hw, n_levels=n_levels)
            want = reference[:n_levels]
            assert np.max(np.abs(levels - want) / np.maximum(hw, np.abs(want))) <= 1e-9, (occupied, t, eta, n_levels)


def test_dual_solver_agreement_single_case():
    sector = sector_constants([0, 1], 6)
    t, eta, hw = 1.0, 1.0, 1.0
    fock = sector_spectrum_fock(sector, t, eta, hw, n_levels=5)
    xrep = sector_spectrum_xrep(sector, t, eta, hw, n_levels=5)
    rel = np.abs((xrep - hw / 2) - fock) / np.maximum(hw, np.abs(fock))
    assert np.max(rel) <= 1e-6


def test_dual_solvers_agree_tightly():
    # the acceptance criterion-8 cases, bounded well below its 1e-6
    hw = 1.0
    sectors = [sector_constants(occ, 6) for occ in ((0,), (0, 1), (1, 2, 4))]
    for sector, t, eta in itertools.product(sectors, (0.4, 1.0, 1.6), (0.6, 1.0, 1.4)):
        fock = sector_spectrum_fock(sector, t, eta, hw, n_levels=5)
        xrep = sector_spectrum_xrep(sector, t, eta, hw, n_levels=5)  # rf_squid_spectrum(rf_squid_map(...))
        assert np.max(np.abs((xrep - hw / 2) - fock) / np.maximum(hw, np.abs(fock))) <= 1e-8


def test_xrep_bare_oscillator_carries_zero_point():
    sector = sector_constants([0], 4)
    levels = sector_spectrum_xrep(sector, t=0.0, eta=1.0, hbar_omega=1.0, n_levels=4)
    assert np.allclose(levels, np.arange(4) + 0.5, atol=1e-5)


def test_xrep_parity_alternates_for_symmetric_potential():
    # S = 0 keeps the real-space sector potential even; eigenfunctions alternate even/odd
    sector = sector_constants([0], 4)  # C = 1, S = 0
    t, eta = 0.8, 1.1

    def potential(x):
        return 0.5 * x * x - 2.0 * t * sector.c_sum * np.cos(eta * x)

    _, states = _dvr_bound_states(potential, -14.0, 14.0, 191, kinetic_coef=0.5, n_levels=4)
    for k in range(4):
        psi = states[:, k]
        parity = (-1) ** k
        assert np.max(np.abs(psi - parity * psi[::-1])) <= 1e-6


def test_xrep_grid_too_small_raises(monkeypatch):
    monkeypatch.setattr(tbring, "_SQUID_HALF_SPAN", 2.0)  # X in [-2, 2] at eta = 1
    sector = sector_constants([0], 4)
    with pytest.raises(GridDomainError):
        sector_spectrum_xrep(sector, t=0.0, eta=1.0, hbar_omega=1.0, n_levels=5)


# --- junction-circuit map --------------------------------------------------------


def test_squid_map_values():
    sector = sector_constants([0], 2)  # C = 1, S = 0
    squid = rf_squid_map(sector, t=1.0, eta=1.0, hbar_omega=1.0)
    assert squid.e_j == pytest.approx(2.0, rel=1e-14)
    assert squid.e_l == pytest.approx(1.0, rel=1e-14)
    assert squid.e_c == pytest.approx(0.125, rel=1e-14)
    assert squid.beta_ratio == pytest.approx(2.0, rel=1e-14)
    assert squid.phi_ext == 0.0


def test_squid_charging_inductive_product_fixed():
    rng = np.random.default_rng(4)
    sector = sector_constants([0, 2], 7)
    for _ in range(20):
        t = float(rng.uniform(0.1, 3.0))
        eta = float(rng.uniform(0.1, 2.5))
        hw = float(rng.uniform(0.3, 2.0))
        squid = rf_squid_map(sector, t, eta, hw)
        assert squid.e_c * squid.e_l == pytest.approx(hw**2 / 8, rel=1e-12)


def test_squid_map_rejects_zero_eta():
    for solver in (rf_squid_map, sector_spectrum_xrep):
        with pytest.raises(ValueError):
            solver(sector_constants([0], 2), t=1.0, eta=0.0, hbar_omega=1.0)


@pytest.mark.parametrize("solver", [sector_spectrum_fock, sector_spectrum_xrep, rf_squid_map])
@pytest.mark.parametrize("name", ["t", "eta", "hbar_omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_entry_points_reject_non_finite(solver, name, value):
    args = dict(t=1.0, eta=1.0, hbar_omega=1.0)
    args[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        solver(sector_constants([0, 1], 6), **args)


def _kerr_levels(n_levels):
    sector = kerr.displacement_root(0, ModelParams(g=1.0, g_eff=1.0, phi=0.3, n_particles=3), 0.05)
    return kerr.anharmonic_spectrum(sector, n_levels=n_levels)


@pytest.mark.parametrize("spectrum", [
    lambda n: sector_spectrum_fock(sector_constants([0, 1], 6), 0.5, 1.0, 1.0, n_levels=n),
    lambda n: sector_spectrum_xrep(sector_constants([0, 1], 6), 0.5, 1.0, 1.0, n_levels=n),
    lambda n: rf_squid_spectrum(RfSquidParams(e_j=1.0, phi_ext=0.0, eta=1.0, hbar_omega=1.0), n_levels=n),
    _kerr_levels,
], ids=["fock", "xrep", "rf_squid", "kerr"])
@pytest.mark.parametrize("n_levels", [0, -1])
def test_spectra_reject_n_levels_below_one(spectrum, n_levels):
    with pytest.raises(ValueError, match=f"n_levels must .*got {n_levels}$"):
        spectrum(n_levels)


@pytest.mark.parametrize("name", ["e_j", "phi_ext", "eta", "hbar_omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_squid_params_reject_non_finite(name, value):
    fields = dict(e_j=2.0, phi_ext=0.0, eta=1.0, hbar_omega=1.0)
    fields[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RfSquidParams(**fields)


@pytest.mark.parametrize(
    "eta,hbar_omega,message",
    [(0.0, 1.0, "eta must be nonzero"), (1.0, 0.0, "hbar_omega must be positive"),
     (1.0, -1.0, "hbar_omega must be positive"), (1e-160, 1.0, "e_l must be finite"),
     # float ** raises OverflowError, and an eta^2 of 0 once raised ZeroDivisionError
     (1e160, 1.0, r"^e_l must be finite, but 1e\+160\*\*2 overflows$"),
     (1e-170, 1.0, r"^e_l must be finite, but 1e-170\*\*2 underflows to 0$"),
     (1e154, 10.0, "^e_c must be finite, got inf$"), (1e150, 1e-30, "^e_l must be positive, got 0.0$")],
)
def test_squid_params_reject_degenerate_scales(eta, hbar_omega, message):
    with pytest.raises(ValueError, match=message):
        RfSquidParams(e_j=1.0, phi_ext=0.0, eta=eta, hbar_omega=hbar_omega)


def test_squid_spectrum_matches_fock_up_to_constant():
    sector = sector_constants([0, 1], 6)
    t, eta, hw = 1.1, 0.9, 1.0
    fock = sector_spectrum_fock(sector, t, eta, hw, n_levels=5)
    squid = rf_squid_spectrum(rf_squid_map(sector, t, eta, hw), n_levels=5)
    shifted = squid - hw / 2  # quadrature-form zero point
    assert np.max(np.abs(shifted - fock)) <= 1e-6


def test_squid_sign_flip_reflection():
    # S -> -S sends phi_ext -> -phi_ext; the spectrum is reflection invariant
    plus = sector_constants([1, 2], 6)
    minus = sector_constants([4, 5], 6)  # conjugate momenta: same C, opposite S
    assert minus.c_sum == pytest.approx(plus.c_sum, rel=1e-12)
    assert minus.s_sum == pytest.approx(-plus.s_sum, rel=1e-12)
    t, eta, hw = 0.9, 1.2, 1.0
    up = sector_spectrum_fock(plus, t, eta, hw, n_levels=4)
    down = sector_spectrum_fock(minus, t, eta, hw, n_levels=4)
    assert np.max(np.abs(up - down)) <= 1e-9


def test_double_well_splitting_shrinks_with_beta():
    # phi_ext = pi sector: C = -1.  beta = 2 t eta^2 / hw; past beta ~ 1 the two
    # lowest levels become a tunnel doublet whose splitting falls with beta
    sector = sector_constants([1], 2)
    assert sector.delta == pytest.approx(math.pi, rel=1e-12)
    hw, eta = 1.0, 1.0
    splittings = []
    for beta in (1.0, 2.0, 4.0):
        t = beta * hw / (2 * eta**2)
        levels = sector_spectrum_fock(sector, t, eta, hw, n_levels=2)
        splittings.append(float(levels[1] - levels[0]))
    assert splittings[0] > splittings[1] > splittings[2]
    assert splittings[-1] < 0.5 * hw
