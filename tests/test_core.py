import math
import re

import numpy as np
import pytest
import scipy.constants
from scipy.constants import hbar

from fluxqm import FermionConfig, LCParams, ModelParams, core, derive_ring, diracring, gridsolve, kerr, linearmode
from fluxqm import oracle, phases, tbring
from fluxqm.diracring import DiracParams
from reference import balanced_config, diamagnetic_stiffness


def test_si_constants_equal_scipy():
    assert core.HBAR == scipy.constants.hbar
    assert core.ELECTRON_MASS == scipy.constants.m_e


def test_unit_lc_values():
    lc = LCParams(1.0, 1.0)
    assert lc.omega == pytest.approx(1.0, rel=1e-15)
    assert lc.impedance == pytest.approx(1.0, rel=1e-15)


def test_zero_point_product_is_half_hbar():
    # identity enforced by the defining formulas, for any (L, C)
    for L, C in [(1.0, 1.0), (hbar / 2, 2 / hbar), (1e-9, 1e-12), (3.3e-6, 4.7e-15)]:
        lc = LCParams(L, C)
        assert lc.phi_zpf * lc.q_zpf == pytest.approx(hbar / 2, rel=1e-12)


def test_nanohenry_picofarad_frequency():
    # 1/sqrt(1e-9 * 1e-12) = 10^10.5, cross-checked by direct high-precision arithmetic
    lc = LCParams(1e-9, 1e-12)
    assert lc.omega == pytest.approx(10**10.5, rel=1e-12)
    assert lc.omega == pytest.approx(3.1622776601683795e10, rel=1e-12)


@pytest.mark.parametrize("L,C", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_lc_rejects_nonpositive(L, C):
    with pytest.raises(ValueError):
        LCParams(L, C)


@pytest.mark.parametrize("name", ["inductance", "capacitance"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_lcparams_rejects_non_finite(name, value):
    kwargs = {"inductance": 1.0, "capacitance": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LCParams(**kwargs)


def test_ring_mass_scaling():
    e0 = 1.602e-19
    g1, geff1 = derive_ring(5e-7, 1.0, e0)
    assert geff1 == g1
    g2, geff2 = derive_ring(5e-7, 2.0, e0)
    assert g2 == g1
    assert geff2 == pytest.approx(g1 / 2, rel=1e-15)


def test_ring_radius_scaling():
    g1, _ = derive_ring(1e-7, 1.0, 1e-19)
    g2, _ = derive_ring(2e-7, 1.0, 1e-19)
    assert g2 == pytest.approx(g1 / 4, rel=1e-12)


def test_ring_rejects_bad_inputs():
    with pytest.raises(ValueError):
        derive_ring(-1e-7, 1.0, 1e-19)
    with pytest.raises(ValueError):
        derive_ring(1e-7, 0.0, 1e-19)


@pytest.mark.parametrize("args, message", [
    # float ** raises OverflowError where * would give inf
    ((1e160, 1.0, 1.0), "g must be finite, but 1e+160**2 overflows"),
    # 2 m0 R^2 underflows to 0, and the division once raised ZeroDivisionError
    ((1e-170, 1.0, 1.0), "g must be finite, but 2 m0 1e-170**2 underflows to 0"),
    ((1e-6, 1e-100, 1e-300), "g_eff must be finite, got inf"),
    ((1e100, 1.0, 1e100), "g must be positive, got 0.0"),
], ids=["radius-square-overflows", "radius-square-underflows", "g_eff-overflows", "g-underflows"])
def test_ring_scale_that_floats_cannot_hold_raises(args, message):
    with pytest.raises(ValueError) as info:
        derive_ring(*args)
    assert str(info.value) == message


def test_geff_times_ratio_recovers_g():
    for ratio in (0.25, 0.5, 1.0, 3.7, 12.0):
        g, geff = derive_ring(2e-7, ratio, 1e-20)
        assert geff * ratio == pytest.approx(g, rel=1e-12)


def test_config_rejects_duplicate_orbitals():
    with pytest.raises(ValueError):
        FermionConfig([0, 1, 1])


def test_config_spinful_allows_shared_orbital():
    cfg = FermionConfig([0, 0], spins=[1, -1])
    assert cfg.m_total == 0
    assert cfg.sigma_total == 0
    with pytest.raises(ValueError):
        FermionConfig([0, 0], spins=[1, 1])


def test_config_rejects_bad_spins():
    with pytest.raises(ValueError):
        FermionConfig([0, 1], spins=[1, 0])
    with pytest.raises(ValueError):
        FermionConfig([0, 1], spins=[1])


def test_config_sorted_and_spin_alignment():
    cfg = FermionConfig([2, -1, 0], spins=[1, -1, 1])
    assert cfg.orbitals == (-1, 0, 2)
    assert cfg.spins == (-1, 1, 1)


def test_config_cached_sums_match_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        orbs = rng.choice(np.arange(-9, 10), size=n, replace=False)
        cfg = FermionConfig(orbs)
        assert cfg.m_total == sum(cfg.orbitals)
        assert cfg.w_kinetic == sum(m * m for m in cfg.orbitals)
        assert cfg.n_particles == n


def test_config_requires_particles():
    with pytest.raises(ValueError):
        FermionConfig([])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"g": 0.0, "g_eff": 1.0, "phi": 0.0, "n_particles": 1},
        {"g": 1.0, "g_eff": -1.0, "phi": 0.0, "n_particles": 1},
        {"g": 1.0, "g_eff": 1.0, "phi": -0.1, "n_particles": 1},
        {"g": 1.0, "g_eff": 1.0, "phi": 0.0, "n_particles": 0},
        {"g": 1.0, "g_eff": 1.0, "phi": 0.0, "n_particles": 1, "hbar_omega": 0.0},
    ],
)
def test_model_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("field", ["g", "g_eff", "phi", "hbar_omega", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_params_reject_non_finite(field, value):
    kwargs = {"g": 1.0, "g_eff": 1.0, "phi": 0.0, "n_particles": 1, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**kwargs)


_GRID = dict(potential=lambda x: 0.5 * x * x, x_min=-5.0, x_max=5.0, n_points=32, kinetic_coef=0.5, n_levels=2)
_RANGE_RULE_ENTRIES = [
    (derive_ring, dict(radius=1e-6, m_eff_ratio=1.0, energy_unit=1e-24), ("radius", "m_eff_ratio", "energy_unit")),
    (diamagnetic_stiffness, dict(eps0=1.0, filling=0.5, n_sites=10, phi=0.3), ("eps0", "phi")),
    (tbring.displacement_operator, dict(lam=0.5, cutoff=4), ("lam",)),
    # a non-finite c_coef was once blamed on the closed-form root: "x0 must be finite"
    (kerr.QuarticSector, dict(m_total=1, alpha4=0.0, a_coef=1.0, b_coef=1.0, c_coef=1.0),
     ("a_coef", "b_coef", "c_coef")),
    (gridsolve.bound_states, _GRID, ("x_min", "x_max", "kinetic_coef")),
    (gridsolve.converged_bound_states, _GRID, ("x_min", "x_max", "kinetic_coef")),
]


@pytest.mark.parametrize("entry, kwargs, name", [
    pytest.param(entry, kwargs, name, id=f"{entry.__name__}-{name}")
    for entry, kwargs, names in _RANGE_RULE_ENTRIES for name in names
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_range_rule_rejects_non_finite_floats(entry, kwargs, name, value):
    # each of these once returned NaN or +-inf, ran a solver ladder, or accepted the value
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        entry(**{**kwargs, name: value})


def dirac_rules(**values):
    """DiracParams of the given fields, which its rules check: phi and d_eff share the non-negative one."""
    return DiracParams(**{"eps0": 1.0, "hbar_omega": 1.0, "n_electrons": 4, **values})


def model_rules(**values):
    """ModelParams of the given fields, which its rules check: g, g_eff and hbar_omega share the positive one."""
    return ModelParams(**{"g": 1.0, "g_eff": 1.0, "phi": 0.0, "n_particles": 3, **values})


@pytest.mark.parametrize("check, values, message", [
    (core._check_positive, dict(w=1.0, x=0.0, y=-1.0), "x must be positive, got 0.0"),
    (dirac_rules, dict(phi=0.0, d_eff=-1e-300), "d_eff must be non-negative, got -1e-300"),
    # every value of a check, or of a model's rule, is checked finite before any is range-checked
    (core._check_positive, dict(w=-1.0, x=math.nan), "x must be finite, got nan"),
    (dirac_rules, dict(phi=-1.0, d_eff=-math.inf), "d_eff must be finite, got -inf"),
    (model_rules, dict(g=-1.0, g_eff=0.0, hbar_omega=math.inf), "hbar_omega must be finite, got inf"),
])
def test_range_helpers_name_the_first_bad_value(check, values, message):
    check(**{key: 1.0 for key in values})
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(**values)


@pytest.mark.parametrize("value, lo, hi, message", [
    (2.0, None, None, "k must be an integer, got 2.0"),
    (np.float64(0.5), 0, None, "k must be an integer, got np.float64(0.5)"),
    ("3", None, None, "k must be an integer, got '3'"),
    (0, 1, None, "k must be >= 1, got 0"),
    (np.int8(5), None, 4, "k must be <= 4, got 5"),
    (-1, 0, 4, "k must lie in [0, 4], got -1"),
    (5, 0, 4, "k must lie in [0, 4], got 5"),
])
def test_integer_rule_names_the_value_and_its_bounds(value, lo, hi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        core._check_int(value, "k", lo, hi)


@pytest.mark.parametrize("value, lo, hi", [
    (0, 0, 4), (4, 0, 4), (np.int64(7), 1, None), (np.uint8(3), None, 3), (True, None, None),
])
def test_integer_rule_returns_a_python_int(value, lo, hi):
    result = core._check_int(value, "k", lo, hi)
    assert type(result) is int and result == value


_P = dict(g=1.0, g_eff=1.0, phi=0.2, n_particles=1)
_DIRAC = DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.5, n_electrons=8)


@pytest.mark.parametrize("call, name", [
    (lambda: FermionConfig([0.7, 1.2]), "orbital"),
    (lambda: FermionConfig([0, 1], [1, -1.7]), "spin"),
    (lambda: tbring.TBSector((0.9, 1.5), 6), "occupation"),
    (lambda: phases.critical_flux(ModelParams(g=2.0, g_eff=1.0, phi=0.3, n_particles=2.5)), "n_particles"),
    (lambda: linearmode.sector_energy(ModelParams(**_P), FermionConfig([0]), 0.5), "photon index n"),
    (lambda: linearmode.mode_displacement(ModelParams(**_P), 1.5), "m_total"),
    (lambda: kerr.displacement_root(1.5, ModelParams(**_P), 0.1), "m_total"),
    (lambda: diracring.effective_energy(0.5, _DIRAC), "j"),
    (lambda: diracring.flux_displacement(0.5, _DIRAC), "j"),
], ids=["orbitals", "spins", "occupations", "n_particles", "photon-index", "mode_displacement", "displacement_root",
        "effective_energy", "flux_displacement"])
def test_integer_arguments_refuse_fractions(call, name):
    # each of these once truncated the value, or computed with it, and returned a number
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ModelParams(**{**_P, "n_particles": 0}), "n_particles must be >= 1, got 0"),
    (lambda: linearmode.sector_energy(ModelParams(**_P), FermionConfig([0]), -1),
     "photon index n must be >= 0, got -1"),
    (lambda: linearmode.mode_displacement(ModelParams(**_P), 2.0), "m_total must be an integer, got 2.0"),
    (lambda: balanced_config(0), "n must be >= 1, got 0"),
    (lambda: balanced_config(4), "balanced_config requires odd n, got 4"),
    (lambda: phases.ground_state_search(ModelParams(**_P), 1.0), "m_max must be an integer, got 1.0"),
    (lambda: phases.ground_state_search(ModelParams(**{**_P, "n_particles": 5}), 1),
     "m_max must satisfy 2*m_max+1 >= n_particles = 5, got 1"),
    (lambda: DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.5, n_electrons=0), "n_electrons must be >= 1, got 0"),
    (lambda: DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.5, n_electrons=4, degeneracy=2.0),
     "degeneracy must be an integer, got 2.0"),
    (lambda: DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.5, n_electrons=4, degeneracy=3),
     "degeneracy must be 1, 2 or 4, got 3"),
    (lambda: diamagnetic_stiffness(1.0, 0.5, 1, 1.0), "n_sites must be >= 2, got 1"),
    (lambda: diracring.effective_energy(9, _DIRAC), "j must lie in [-8, 8], got 9"),
    (lambda: diracring.flux_displacement(-9, _DIRAC), "j must lie in [-8, 8], got -9"),
    (lambda: diracring.optimal_chirality(_DIRAC, j_max=9), "j_max must lie in [0, 8], got 9"),
    (lambda: diracring.optimal_chirality(_DIRAC, j_max=-1), "j_max must lie in [0, 8], got -1"),
    # J has N's parity, so an odd-N ring has no sector below |J| = 1
    (lambda: diracring.optimal_chirality(DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.5, n_electrons=5), j_max=0),
     "j_max must lie in [1, 5], got 0"),
    (lambda: kerr.QuarticSector(0.5, 0.0, 1.0, 1.0, 1.0), "m_total must be an integer, got 0.5"),
    (lambda: kerr.full_levels(kerr.displacement_root(0, ModelParams(**_P), 0.0), ModelParams(**_P), 1.5),
     "s2 must be an integer, got 1.5"),
    (lambda: kerr.full_levels(kerr.displacement_root(0, ModelParams(**_P), 0.0), ModelParams(**_P), -1),
     "s2 must be >= 0, got -1"),
    (lambda: kerr.anharmonic_spectrum(kerr.displacement_root(0, ModelParams(**_P), 0.1), n_levels=0),
     "n_levels must lie in [1, 32], got 0"),
    (lambda: tbring.TBSector((0,), 0), "m_sites must be >= 1, got 0"),
    (lambda: tbring.TBSector((0, 6), 6), "occupation must lie in [0, 5], got 6"),
    (lambda: tbring.TBSector((-1, 2), 6), "occupation must lie in [0, 5], got -1"),
    (lambda: tbring.TBSector((1, 1), 6), "Pauli exclusion violated: duplicate momentum indices in (1, 1)"),
    (lambda: tbring.displacement_operator(0.5, -1), "cutoff must be >= 0, got -1"),
    (lambda: tbring.sector_spectrum_fock(tbring.TBSector((0, 1), 6), 0.5, 1.0, 1.0, n_levels=33),
     "n_levels must lie in [1, 32], got 33"),
    (lambda: tbring.rf_squid_spectrum(tbring.RfSquidParams(1.0, 0.0, 1.0, 1.0), n_levels=0),
     "n_levels must lie in [1, 96], got 0"),
    (lambda: gridsolve.converged_bound_states(**{**_GRID, "n_points": 7.0}), "n_points must be an integer, got 7.0"),
    (lambda: oracle.oracle_spectrum(ModelParams(**_P), FermionConfig([0]), cutoff=49), "cutoff must be >= 50, got 49"),
    (lambda: oracle.oracle_spectrum(ModelParams(**_P), FermionConfig([0]), cutoff=60, n_levels=61),
     "n_levels must lie in [1, 60], got 61"),
    (lambda: FermionConfig([0, 1], [1, 0]), "spins must be +1 or -1, got (1, 0)"),
])
def test_integer_rule_refuses_out_of_range_values(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda k: ModelParams(**{**_P, "n_particles": k}),
    lambda k: linearmode.sector_energy(ModelParams(**_P), FermionConfig([0]), k),
    lambda k: linearmode.mode_displacement(ModelParams(**_P), k),
    lambda k: balanced_config(k),
    lambda k: phases.ground_state_search(ModelParams(**{**_P, "n_particles": 3}), k),
    lambda k: diracring.effective_energy(k, _DIRAC),
    lambda k: diracring.flux_displacement(k, _DIRAC),
    lambda k: diracring.optimal_chirality(_DIRAC, chi=1.0, j_max=k),
    lambda k: kerr.displacement_root(k, ModelParams(**_P), 0.1).x0,
    lambda k: tbring.displacement_operator(0.5, k),
    lambda k: oracle.oracle_spectrum(ModelParams(**_P), FermionConfig([0]), cutoff=50 + k, n_levels=k,
                                     check_convergence=False).levels,
], ids=["ModelParams", "sector_energy", "mode_displacement", "balanced_config", "ground_state_search",
        "effective_energy", "flux_displacement", "optimal_chirality", "displacement_root", "displacement_operator",
        "oracle_spectrum"])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
def test_numpy_integers_give_the_python_int_result(call, dtype):
    np.testing.assert_equal(call(dtype(3)), call(3))


def test_records_store_numpy_integers_as_python_ints():
    cfg = FermionConfig(np.array([1, 0], dtype=np.int8), np.array([-1, 1]))
    assert (cfg.orbitals, cfg.spins) == ((0, 1), (1, -1))
    sector = tbring.TBSector(np.array([4, 1], dtype=np.int16), np.int64(6))
    assert sector.occupations == (1, 4)
    p = ModelParams(**{**_P, "n_particles": np.int8(3)})
    dirac = DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.5, n_electrons=np.int8(100), degeneracy=np.uint8(2))
    # n_electrons**2 overflowed int8 while the value was stored as given
    assert diracring.effective_energy(0, dirac, chi=0.0) == dirac.branch_stiffness * 100**2
    quartic = kerr.displacement_root(np.int16(2), p, 0.1)
    for value in (*cfg.orbitals, *cfg.spins, cfg.m_total, cfg.sigma_total, cfg.w_kinetic, *sector.occupations,
                  sector.m_sites, p.n_particles, dirac.n_electrons, dirac.degeneracy, quartic.m_total):
        assert type(value) is int
