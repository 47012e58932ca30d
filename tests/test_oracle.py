import math

import numpy as np
import pytest
from scipy.linalg import eigh

from fluxqm import (
    FermionConfig,
    ModelParams,
    compare_spectra,
    ground_state_moments,
    oracle,
    oracle_spectrum,
)


# --- dense brute-force reference ----------------------------------------------
# The oracle keeps only the bands of the sector matrix.  This reference builds
# the whole matrix the plain way, X^2 included as a dense product, and
# diagonalizes it with a full symmetric eigensolver.


def dense_position(cutoff):
    x = np.zeros((cutoff + 1, cutoff + 1))
    k = np.arange(cutoff)
    x[k, k + 1] = np.sqrt(k + 1.0)
    x[k + 1, k] = x[k, k + 1]
    return x


def dense_sector_matrix(p, cfg, cutoff):
    x = dense_position(cutoff)
    drive = 2.0 * p.g * p.phi * cfg.m_total + 0.5 * p.eta * cfg.sigma_total
    h = (
        p.hbar_omega * np.diag(np.arange(cutoff + 1, dtype=float))
        + p.g * p.n_particles * p.phi**2 * (x @ x)
        - drive * x
    )
    return h + p.g_eff * cfg.w_kinetic * np.eye(cutoff + 1)


def expand_bands(ab):
    """Full symmetric matrix from upper band storage ab[u + i - j, j] = h[i, j]."""
    u = ab.shape[0] - 1
    h = np.diag(ab[u])
    for k in range(1, u + 1):
        h = h + np.diag(ab[u - k, k:], k) + np.diag(ab[u - k, k:], -k)
    return h


# spinless sectors, and spin sectors with eta != 0 (the Sigma drive); the last two sit at phi = 0, where
# the sector matrix is diagonal (spinless) or tridiagonal (the Sigma drive alone)
REFERENCE_SECTORS = [
    (ModelParams(g=0.8, g_eff=1.0, phi=1.1, n_particles=2), FermionConfig([0, 1])),
    (ModelParams(g=2.0, g_eff=0.7, phi=0.8, n_particles=3, hbar_omega=1.25), FermionConfig([0, 1, 2])),
    (ModelParams(g=0.5, g_eff=1.3, phi=0.4, n_particles=1, hbar_omega=0.8), FermionConfig([-2])),
    (ModelParams(g=1.0, g_eff=0.9, phi=0.6, n_particles=3, eta=0.4), FermionConfig([-1, 0, 1], spins=[1, 1, -1])),
    (ModelParams(g=1.5, g_eff=1.0, phi=1.2, n_particles=2, hbar_omega=0.9, eta=-0.7),
     FermionConfig([1, 2], spins=[1, 1])),
    (ModelParams(g=1.2, g_eff=0.8, phi=0.0, n_particles=3, hbar_omega=1.1), FermionConfig([-2, 0, 1])),
    (ModelParams(g=0.9, g_eff=1.1, phi=0.0, n_particles=2, eta=0.6), FermionConfig([0, 1], spins=[1, 1])),
]


@pytest.mark.parametrize("cutoff", [50, 120])
@pytest.mark.parametrize("p, cfg", REFERENCE_SECTORS)
def test_band_storage_equals_dense_assembly(p, cfg, cutoff):
    # symmetric by construction; every stored element must match the dense build to rounding
    ab = oracle._assemble(p, cfg, cutoff)
    dense = dense_sector_matrix(p, cfg, cutoff)
    bands = max(k for k in range(3) if k == 0 or np.any(np.diag(dense, k)))  # the dense matrix's superdiagonals
    assert ab.shape == (bands + 1, cutoff + 1)
    np.testing.assert_allclose(expand_bands(ab), dense, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("cutoff", [50, 120, 300])
@pytest.mark.parametrize("p, cfg", REFERENCE_SECTORS)
def test_banded_levels_match_dense_eigh(p, cfg, cutoff):
    dense = eigh(dense_sector_matrix(p, cfg, cutoff), eigvals_only=True)[:6]
    report = oracle_spectrum(p, cfg, cutoff=cutoff, n_levels=6, check_convergence=False)
    np.testing.assert_allclose(report.levels, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p, cfg", REFERENCE_SECTORS)
def test_ground_state_moments_match_dense_eigenvector(p, cfg):
    cutoff = 120
    _, vecs = eigh(dense_sector_matrix(p, cfg, cutoff), subset_by_index=(0, 0))
    gs = vecs[:, 0]
    x = dense_position(cutoff)
    mean_big_x = gs @ x @ gs
    moments = ground_state_moments(p, cfg, cutoff=cutoff)
    assert moments.mean_x == pytest.approx(mean_big_x / np.sqrt(2.0), rel=1e-12, abs=1e-12)
    assert moments.var_x == pytest.approx((gs @ (x @ x) @ gs - mean_big_x**2) / 2.0, rel=1e-12, abs=1e-12)
    assert moments.displacement == pytest.approx(mean_big_x / 2.0, rel=1e-12, abs=1e-12)
    assert moments.photon_number == pytest.approx(gs @ (np.arange(cutoff + 1) * gs), rel=1e-12, abs=1e-12)


def test_decoupled_levels_are_exact():
    # phi = 0: the mode and the fermions separate, levels are g_eff W + hw n
    p = ModelParams(g=1.0, g_eff=0.7, phi=0.0, n_particles=3, hbar_omega=1.3)
    cfg = FermionConfig([-1, 0, 2])
    report = oracle_spectrum(p, cfg, cutoff=80, n_levels=5, check_convergence=False)
    for n, level in enumerate(report.levels):
        assert level == pytest.approx(p.g_eff * cfg.w_kinetic + p.hbar_omega * n, rel=1e-12)


def test_levels_ascending_and_convergence_flag():
    p = ModelParams(g=0.8, g_eff=1.0, phi=1.1, n_particles=2)
    report = oracle_spectrum(p, FermionConfig([0, 1]), cutoff=120, n_levels=6)
    levels = np.array(report.levels)
    assert np.all(np.diff(levels) > 0)
    assert report.converged
    assert report.max_rel_change < 1e-9
    assert report.cutoff_used == 240


def test_unchecked_report_is_not_converged():
    # a skipped check once reported converged=True for a check it never ran
    p = ModelParams(g=0.8, g_eff=1.0, phi=1.1, n_particles=2)
    report = oracle_spectrum(p, FermionConfig([0, 1]), cutoff=120, n_levels=6, check_convergence=False)
    assert report.converged is False
    assert math.isnan(report.max_rel_change)
    assert report.cutoff_used == 120


@pytest.mark.parametrize("entry", [oracle_spectrum, ground_state_moments])
def test_overflowing_square_names_its_quantity(entry):
    # float ** raises OverflowError where * would give inf
    p = ModelParams(g=1.0, g_eff=1.0, phi=1e160, n_particles=1)
    with pytest.raises(ValueError, match=r"^quad must be finite, but 1e\+160\*\*2 overflows$"):
        entry(p, FermionConfig([0]))


def test_ground_level_monotone_nonincreasing_in_cutoff():
    # truncation is a projection, so enlarging the space can only lower E0
    p = ModelParams(g=1.5, g_eff=1.0, phi=1.5, n_particles=4, hbar_omega=0.8)
    cfg = FermionConfig([0, 1, 2, 3])
    e_prev = np.inf
    for cutoff in (60, 120, 240):
        e0 = oracle_spectrum(p, cfg, cutoff=cutoff, n_levels=1, check_convergence=False).levels[0]
        assert e0 <= e_prev + 1e-10
        e_prev = e0


def test_oracle_rejects_small_cutoff():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.5, n_particles=1)
    with pytest.raises(ValueError):
        oracle_spectrum(p, FermionConfig([0]), cutoff=10)


def test_ground_state_moments_reject_small_cutoff():
    # cutoff = 1 used to return var_x = 0.0014 where the converged value is 0.1236
    p = ModelParams(g=2.0, g_eff=1.0, phi=0.8, n_particles=3)
    with pytest.raises(ValueError, match="cutoff must be >= 50, got 49"):
        ground_state_moments(p, FermionConfig([0, 1, 2]), cutoff=49)


def test_zeeman_sector_against_closed_form():
    # phi = 0 with spins: displaced oscillator, levels g_eff W - (eta Sigma)^2/hw + hw n
    p = ModelParams(g=1.0, g_eff=0.9, phi=0.0, n_particles=3, hbar_omega=1.0, eta=0.4)
    cfg = FermionConfig([-1, 0, 1], spins=[1, 1, 1])
    report = oracle_spectrum(p, cfg, cutoff=150, n_levels=4, check_convergence=False)
    for n, level in enumerate(report.levels):
        expected = (
            p.g_eff * cfg.w_kinetic
            - (0.5 * p.eta * cfg.sigma_total) ** 2 / p.hbar_omega
            + p.hbar_omega * n
        )
        assert level == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_ground_state_moments_photon_number_decoupled():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=1)
    moments = ground_state_moments(p, FermionConfig([0]), cutoff=60)
    assert moments.mean_x == pytest.approx(0.0, abs=1e-12)
    assert moments.var_x == pytest.approx(0.5, rel=1e-12)
    assert moments.photon_number == pytest.approx(0.0, abs=1e-12)


def test_compare_identical_lists_pass():
    assert compare_spectra([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_compare_fault_injection_localizes_error():
    clean = [0.5, 1.5, 2.5, 3.5, 4.5]
    dirty = list(clean)
    dirty[3] += 1e-3
    # relative to level 3's 3.5, not to any other level's magnitude
    assert compare_spectra(dirty, clean) == pytest.approx(1e-3 / 3.5, rel=1e-6)


def test_compare_length_mismatch_is_usage_error():
    with pytest.raises(ValueError):
        compare_spectra([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("levels, kwargs, message", [
    # scale=0 on a zero level gave max_rel_error=nan, and empty spectra failed inside numpy
    # with "attempt to get argmax of an empty sequence"
    ([0.0, 2.0], dict(scale=-0.0), "scale must be positive, got -0.0"),
    ([0.0, 2.0], dict(scale=-math.inf), "scale must be finite, got -inf"),
    ([0.0, 2.0], dict(scale=0.0), "scale must be positive, got 0.0"),
    ([0.0, 2.0], dict(scale=-1.0), "scale must be positive, got -1.0"),
    ([0.0, 2.0], dict(scale=math.inf), "scale must be finite, got inf"),
    ([0.0, 2.0], dict(scale=math.nan), "scale must be finite, got nan"),
    ([], {}, "spectrum length must be >= 1, got 0"),
])
def test_compare_checks_its_inputs_by_name(levels, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        compare_spectra(levels, list(levels), **kwargs)
