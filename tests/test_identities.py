"""Identities between stored fields and the properties derived from them, over drawn valid inputs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fluxqm import ModelParams, derive_lc, dressed_frequency, hessian, rf_squid_map, sector_constants, squeeze_solution
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
