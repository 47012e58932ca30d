import math

import numpy as np
import pytest
import scipy.constants
from scipy.constants import hbar

from fluxqm import FermionConfig, LCParams, ModelParams, core, derive_ring, gridsolve, kerr, tbring
from fluxqm.diracring import diamagnetic_stiffness
from fluxqm.linearmode import AnalyticSolution


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
    (tbring.displacement_matrix_element, dict(m=1, n=2, lam=0.5), ("lam",)),
    (tbring.displacement_operator, dict(lam=0.5, cutoff=4), ("lam",)),
    (AnalyticSolution, dict(chi=0.1, alpha=1.0, beta=2.0), ("chi", "alpha", "beta")),
    (kerr.QuarticSector, dict(m_total=1, alpha4=0.0, a_coef=1.0, b_coef=1.0, c_coef=1.0), ("a_coef", "b_coef")),
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


@pytest.mark.parametrize("check, values, message", [
    (core._check_positive, dict(w=1.0, x=0.0, y=-1.0), "x must be positive, got 0.0"),
    (core._check_non_negative, dict(w=0.0, x=-1e-300, y=-1.0), "x must be non-negative, got -1e-300"),
    # every value is checked finite before any is range-checked
    (core._check_positive, dict(w=-1.0, x=math.nan), "x must be finite, got nan"),
    (core._check_non_negative, dict(w=-1.0, x=1.0, y=-math.inf), "y must be finite, got -inf"),
])
def test_range_helpers_name_the_first_bad_value(check, values, message):
    check(**{key: 1.0 for key in values})
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(**values)
