"""Identities between stored fields and the properties derived from them, over drawn valid inputs,
the closed-form sector levels, spinless and Zeeman-coupled, against the brute-force oracle on
drawn sectors, and the unitarity of the truncated displacement operator within its cutoff."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxqm import (
    FermionConfig,
    ModelParams,
    compare_spectra,
    derive_lc,
    displacement_operator,
    dressed_frequency,
    hessian,
    oracle_spectrum,
    rf_squid_map,
    sector_constants,
    sector_energy,
    squeeze_solution,
)
from fluxqm.core import HBAR

PROPERTY = settings(derandomize=True, max_examples=100, database=None, deadline=None)

positive = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def model_params(draw, eta=st.just(0.0)):
    return ModelParams(
        g=draw(positive),
        g_eff=draw(positive),
        phi=draw(st.floats(min_value=0.0, max_value=10.0)),
        n_particles=draw(st.integers(min_value=1, max_value=50)),
        hbar_omega=draw(positive),
        eta=draw(eta),
    )


@PROPERTY
@given(st.floats(min_value=1e-15, max_value=1e3), st.floats(min_value=1e-15, max_value=1e3))
def test_lc_zero_point_product_is_half_hbar(inductance, capacitance):
    lc = derive_lc(inductance, capacitance)
    assert math.isclose(lc.phi_zpf * lc.q_zpf, HBAR / 2, rel_tol=1e-12)


@PROPERTY
@given(
    st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=12, unique=True),
    st.floats(min_value=-10.0, max_value=10.0),
    positive.flatmap(lambda eta: st.sampled_from([eta, -eta])),
    positive,
)
def test_squid_energies_obey_the_junction_map(occupied, t, eta, hbar_omega):
    squid = rf_squid_map(sector_constants(occupied, 12), t, eta, hbar_omega)
    assert math.isclose(squid.e_c * squid.e_l, hbar_omega**2 / 8, rel_tol=1e-12)
    assert math.isclose(squid.beta_ratio * squid.e_l, squid.e_j, rel_tol=1e-12)


@PROPERTY
@given(model_params())
def test_normal_mode_quantum_equals_dressed_frequency(p):
    assert squeeze_solution(p).omega_dressed == dressed_frequency(p)


@PROPERTY
@given(model_params(eta=st.floats(min_value=-10.0, max_value=10.0)))
def test_hessian_determinant_is_eigenvalue_product(p):
    rep = hessian(p)
    low, high = rep.eigenvalues
    assert math.isclose(rep.determinant, low * high, abs_tol=1e-12 * max(abs(low), abs(high)) ** 2)


orbital = st.integers(min_value=-3, max_value=3)
spinless_configs = st.lists(orbital, min_size=1, max_size=7, unique=True).map(FermionConfig)
spinful_configs = st.lists(st.tuples(orbital, st.sampled_from([-1, 1])), min_size=1, max_size=7, unique=True).map(
    lambda pairs: FermionConfig([m for m, _ in pairs], spins=[s for _, s in pairs])
)
etas = st.floats(min_value=1e-3, max_value=1.0, exclude_min=True).flatmap(lambda eta: st.sampled_from([eta, -eta]))


def assert_sector_levels_match_the_oracle(cfg, g, g_eff, phi, hbar_omega, eta):
    p = ModelParams(g=g, g_eff=g_eff, phi=phi, n_particles=cfg.n_particles, hbar_omega=hbar_omega, eta=eta)
    report = oracle_spectrum(p, cfg, n_levels=6, check_convergence=True)
    assert report.converged, report.max_rel_change
    analytic = [sector_energy(p, cfg, k) for k in range(6)]
    result = compare_spectra(analytic, report, tol=1e-8, scale=hbar_omega)
    assert result.passed, result.max_rel_error


@settings(PROPERTY, max_examples=50)
@given(
    spinless_configs,
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.8, max_value=1.25),
    etas,
)
def test_sector_levels_match_the_oracle(cfg, g, g_eff, phi, hbar_omega, eta):
    # a spinless configuration has S = 0, so eta must leave its levels untouched
    assert_sector_levels_match_the_oracle(cfg, g, g_eff, phi, hbar_omega, eta)


@settings(PROPERTY, max_examples=50)
@given(
    spinful_configs,
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.8, max_value=1.25),
    etas,
)
def test_spin_ladder_matches_the_oracle(cfg, g, g_eff, phi, hbar_omega, eta):
    # the same sector_energy, now with the Zeeman-coupled spin term
    assert_sector_levels_match_the_oracle(cfg, g, g_eff, phi, hbar_omega, eta)


@PROPERTY
@given(st.floats(min_value=0.0, max_value=3.0), st.integers(min_value=60, max_value=300))
def test_displacement_operator_is_unitary_within_its_cutoff(lam, cutoff):
    # documented truncation rule: column n is unit-norm once cutoff >= n + 20 lam^2 + 40
    n_max = math.floor(cutoff - 20 * lam**2 - 40)
    assume(n_max >= 0)
    cols = displacement_operator(lam, cutoff)[:, : n_max + 1]
    gram = cols.conj().T @ cols
    assert np.max(np.abs(gram - np.eye(n_max + 1))) <= 1e-10
