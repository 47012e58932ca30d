"""Identities between stored fields and the properties derived from them, over drawn valid inputs,
the closed-form sector levels, spinless and Zeeman-coupled, against the brute-force oracle on
drawn sectors, the closed-form stability Hessian against a dense eigensolver, the Dirac-ring
chirality argmin against a brute-force minimum at and beside the branch stiffness, the unitarity of the
truncated displacement operator within its cutoff, the orbital ground-state search against a minimum over
every configuration of its window, the CLI scan grid against ``numpy.linspace``, and
the CLI output bytes: the streamed JSON writer against ``json.dumps(indent=2)``, the CSV writer against
``_format_cell`` of every cell, any worker count
against one worker, and a scan that binds each value into its parsed model against points parsed anew."""

import copy
import csv
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluxqm import (
    DiracParams,
    FermionConfig,
    HessianReport,
    LCParams,
    ModelParams,
    NoTransitionError,
    compare_spectra,
    critical_eta,
    critical_flux,
    critical_flux_spin,
    displacement_operator,
    dressed_frequency,
    effective_energy,
    ground_state_search,
    hessian,
    optimal_chirality,
    oracle_spectrum,
    quadrature_variances,
    rf_squid_map,
    rf_squid_spectrum,
    sector_constants,
    sector_energy,
    sector_spectrum_fock,
)
from fluxqm import cli, gridsolve
from fluxqm.core import HBAR
from reference import brute_force_ground_state

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
    lc = LCParams(inductance, capacitance)
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
def test_squeezed_variance_is_the_bare_over_the_dressed_quantum(p):
    # 0.5 e^{-2r} with r = ln(D / hbar_omega) / 4 is 0.5 sqrt(hbar_omega / D) = hbar_omega / (2 hbar_Omega)
    assert math.isclose(quadrature_variances(p)[0], 0.5 * p.hbar_omega / dressed_frequency(p), rel_tol=1e-12)


@PROPERTY
@given(model_params(eta=st.floats(min_value=-10.0, max_value=10.0)))
def test_hessian_determinant_is_eigenvalue_product(p):
    rep = hessian(p)
    low, high = rep.eigenvalues
    assert math.isclose(rep.determinant, low * high, abs_tol=1e-12 * max(abs(low), abs(high)) ** 2)


def assert_matches_eigh(rep):
    values, vectors = np.linalg.eigh(np.array([[rep.mm, rep.ms], [rep.ms, rep.ss]]))
    low, high = rep.eigenvalues
    scale = max(1.0, abs(values[0]), abs(values[1]))  # the matrix norm, floor 1
    assert abs(low - values[0]) <= 1e-14 * scale and abs(high - values[1]) <= 1e-14 * scale
    if rep.ms == 0 and rep.mm == rep.ss:  # a multiple of the identity
        assert rep.soft_vector == (1.0, 0.0) == tuple(vectors[:, 0])
        return
    # the convention hessian kept when it called eigh: the dominant component positive, M on a tie
    soft = vectors[:, 0]
    lead = int(np.argmax(np.abs(soft)))
    if soft[lead] < 0:
        soft = -soft
    # an eigenvector is determined to eps * norm / gap, and not at all once the gap rounds to zero
    gap = values[1] - values[0]
    tol = 1e-14 * max(1.0, scale / gap) if gap > 0 else math.inf
    m, s = rep.soft_vector
    assert math.hypot(m, s) == pytest.approx(1.0, abs=1e-15)
    assert (m if abs(m) >= abs(s) else s) > 0
    if abs(abs(soft[0]) - abs(soft[1])) <= tol:  # the components tie within tolerance, so the sign may flip
        m, s = (m, s) if m * soft[0] + s * soft[1] >= 0 else (-m, -s)
    assert abs(m - soft[0]) <= tol and abs(s - soft[1]) <= tol


maybe_zero = st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0))


@PROPERTY
@given(
    positive,
    positive,
    maybe_zero.map(abs),
    st.integers(min_value=1, max_value=50),
    positive,
    maybe_zero,
)
def test_hessian_matches_a_dense_eigensolver(g, g_eff, phi, n_particles, hbar_omega, eta):
    # phi = 0 or eta = 0 makes ms = 0
    assert_matches_eigh(hessian(ModelParams(g=g, g_eff=g_eff, phi=phi, n_particles=n_particles,
                                            hbar_omega=hbar_omega, eta=eta)))


entry = st.floats(min_value=-1e3, max_value=1e3)


@PROPERTY
@given(entry, st.one_of(st.just(0.0), entry), st.one_of(st.none(), entry))
def test_closed_form_2x2_matches_a_dense_eigensolver(mm, ms, ss):
    # ss = None draws mm = ss, where both candidate vectors are equally long
    assert_matches_eigh(HessianReport(mm=mm, ms=ms, ss=mm if ss is None else ss))


@PROPERTY
@given(model_params())
def test_critical_eta_is_where_the_balanced_state_turns_unstable(p):
    # eta_c^2 = N g_eff hw / 4 + N^2 g (g_eff - g) phi^2 = mm N^2 D / 8: a threshold exists exactly while mm > 0
    if hessian(p).mm <= 0:
        with pytest.raises(NoTransitionError):
            critical_eta(p)
        return
    eta_c = critical_eta(p)
    # the flip, not det = 0: at eta_c the determinant's two terms cancel
    assert hessian(replace(p, eta=eta_c * (1 - 1e-3))).stable
    assert not hessian(replace(p, eta=eta_c * (1 + 1e-3))).stable
    # critical_flux_spin solves the same condition for phi, unless g_eff = g drops phi from it or
    # eta_c^2 - N g_eff hw / 4 = N^2 g (g_eff - g) phi^2 cancels to rounding
    if p.n_particles * p.g * abs(p.g_eff - p.g) * p.phi**2 >= 1e-5 * p.g_eff * p.hbar_omega / 4:
        assert math.isclose(critical_flux_spin(replace(p, eta=eta_c)), p.phi, rel_tol=1e-9)


@st.composite
def dirac_argmin_cases(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    p = DiracParams(eps0=draw(positive), hbar_omega=1.0, phi=0.0, n_electrons=n,
                    degeneracy=draw(st.sampled_from([1, 2, 4])))
    stiffness = p.branch_stiffness
    # on the stiffness every |j| ties; within 1e-15 of it the energies differ in their last bits or not at all
    chi = draw(st.one_of(
        st.just(stiffness),
        st.floats(min_value=-1e-15, max_value=1e-15).map(lambda r: stiffness * (1.0 + r)),
        st.floats(min_value=0.0, max_value=3.0 * stiffness),
    ))
    # J has N's parity, so an odd-N ring needs j_max >= 1
    return p, chi, draw(st.integers(min_value=n % 2, max_value=n))


@PROPERTY
@given(dirac_argmin_cases())
def test_optimal_chirality_is_the_first_minimum_of_the_effective_energy(case):
    p, chi, j_max = case
    reachable = [j for j in range(-j_max, j_max + 1) if (j - p.n_electrons) % 2 == 0]
    # ties go to the smaller |j|, then to the negative branch
    expected = min(reachable, key=lambda j: (effective_energy(j, p, chi), abs(j), j))
    assert optimal_chirality(p, chi, j_max) == expected


@st.composite
def orbital_windows(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m_max = draw(st.integers(min_value=n // 2, max_value=7))  # n // 2 is the narrowest window that holds n
    g_eff = draw(positive)
    # g / g_eff from 1e-3 to 1e3, from either side of 1 (a transition needs g > g_eff)
    decades = draw(st.one_of(st.floats(min_value=-3.0, max_value=0.0), st.floats(min_value=0.0, max_value=3.0)))
    p = ModelParams(g=g_eff * 10**decades, g_eff=g_eff, phi=0.0, n_particles=n, hbar_omega=draw(positive))
    # phi in units of phi_c, or of 1 where g <= g_eff leaves no transition
    scale = critical_flux(p) if p.g > p.g_eff else 1.0
    return replace(p, phi=scale * draw(st.floats(min_value=0.0, max_value=3.0))), m_max


@PROPERTY
@given(orbital_windows())
@example((ModelParams(g=2.5, g_eff=1.0, phi=0.5, n_particles=5), 2))  # a full window: every optimum is on the edge
@example((ModelParams(g=2.5, g_eff=1.0, phi=0.5, n_particles=4), 7))  # cutoff-limited polarization
@example((ModelParams(g=0.5, g_eff=1.0, phi=2.0, n_particles=4), 3))  # no transition: even N, balanced at M = -2 or +2
def test_ground_state_search_is_the_first_minimum_over_every_configuration(case):
    p, m_max = case
    gs = ground_state_search(p, m_max)
    orbs, label = brute_force_ground_state(p, m_max)
    assert gs.config.orbitals == orbs
    assert gs.phase_label == label
    assert gs.boundary_contact == (max(map(abs, orbs)) == m_max)


orbital = st.integers(min_value=-3, max_value=3)
spinless_configs = st.lists(orbital, min_size=1, max_size=7, unique=True).map(FermionConfig)
spinful_configs = st.lists(st.tuples(orbital, st.sampled_from([-1, 1])), min_size=1, max_size=7, unique=True).map(
    lambda pairs: FermionConfig([m for m, _ in pairs], spins=[s for _, s in pairs])
)
etas = st.floats(min_value=1e-3, max_value=1.0, exclude_min=True).flatmap(lambda eta: st.sampled_from([eta, -eta]))
# (orbital, spin) occupation lists, spin None for a spinless configuration, each with a second ordering
occupations = st.one_of(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=12, unique=True).map(
        lambda ms: [(m, None) for m in ms]),
    st.lists(st.tuples(st.integers(min_value=-40, max_value=40), st.sampled_from([-1, 1])), min_size=1, max_size=12,
             unique=True),
).flatmap(lambda pairs: st.tuples(st.just(pairs), st.permutations(pairs)))


def config_of(pairs):
    spinless = pairs[0][1] is None
    return FermionConfig([m for m, _ in pairs], None if spinless else [s for _, s in pairs])


@PROPERTY
@given(occupations)
def test_config_sums_follow_the_occupations_in_any_order(case):
    pairs, reordered = case
    cfg, other = config_of(pairs), config_of(reordered)
    assert cfg.m_total == sum(m for m, _ in pairs)
    assert cfg.sigma_total == sum(s or 0 for _, s in pairs)
    assert cfg.w_kinetic == sum(m * m for m, _ in pairs)
    assert list(zip(cfg.orbitals, cfg.spins or [None] * len(pairs))) == sorted(pairs)
    assert cfg == other and hash(cfg) == hash(other)


def assert_sector_levels_match_the_oracle(cfg, g, g_eff, phi, hbar_omega, eta):
    p = ModelParams(g=g, g_eff=g_eff, phi=phi, n_particles=cfg.n_particles, hbar_omega=hbar_omega, eta=eta)
    report = oracle_spectrum(p, cfg, n_levels=6, check_convergence=True)
    assert report.converged, report.max_rel_change
    analytic = [sector_energy(p, cfg, k) for k in range(6)]
    max_rel_error = compare_spectra(analytic, report.levels, scale=hbar_omega)
    assert max_rel_error <= 1e-8, max_rel_error


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


@settings(PROPERTY, max_examples=40)
@given(
    st.sampled_from([(0,), (0, 1), (1, 2, 4)]),
    st.floats(min_value=0.3, max_value=0.6),
    st.floats(min_value=0.5, max_value=1.5),
)
def test_junction_levels_match_finite_differences_and_the_fock_basis(occupied, t, eta):
    sector = sector_constants(occupied, 6)
    squid = rf_squid_map(sector, t, eta, 1.0)
    levels = rf_squid_spectrum(squid, n_levels=5)
    # the Fock form drops the hbar_omega / 2 zero point
    fock = sector_spectrum_fock(sector, t, eta, 1.0, n_levels=5)
    assert np.max(np.abs(levels - 0.5 - fock) / np.maximum(1.0, np.abs(fock))) <= 1e-11

    # second-order finite differences on the same phi window, one Richardson step over two grids
    half_span = 14.0 * (8.0 * squid.e_c / squid.e_l) ** 0.25

    def potential(y):
        return 0.5 * squid.e_l * (y - squid.phi_ext) ** 2 - squid.e_j * np.cos(y)

    coarse, fine = (
        gridsolve.bound_states(potential, squid.phi_ext - half_span, squid.phi_ext + half_span, n,
                               4.0 * squid.e_c, 5)
        for n in (2049, 4097)
    )
    assert np.max(np.abs(levels - (4.0 * fine - coarse) / 3.0)) <= 1e-7


scan_bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-306, max_value=1e-306),  # subnormal spans, whose step can underflow to zero
    st.floats(min_value=-10.0, max_value=10.0),
)


@PROPERTY
@given(scan_bounds, scan_bounds, st.integers(min_value=1, max_value=400))
@example(0.3, 0.3, 1)
@example(-0.0, 0.0, 1)
@example(-0.0, 1.0, 7)
@example(2.5, 2.5, 6)
@example(-3.7, -1.1, 13)
@example(5e-324, 2e-323, 9)
@example(-1e-310, 3e-310, 400)
def test_scan_grid_is_numpy_linspace_bit_for_bit(a, b, steps):
    lo, hi = sorted((a, b))
    assume(math.isfinite(hi - lo))
    scan = {"scan_param": "phi", "scan_min": repr(lo), "scan_max": repr(hi), "scan_steps": str(steps)}
    values = cli.build_run_config("phase-scan", scan, "out.csv", "csv", None).scan_values
    assert [v.hex() for v in values] == [float(v).hex() for v in np.linspace(lo, hi, steps)]


# text that the JSON encoder must escape, and the row separator of the streamed writer
awkward_text = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\u00e9", "\u2603", "\U0001f600", "a", " "]), max_size=8)
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(awkward_text, st.text(max_size=8), st.just('"},\n      {"')),
)
# the column names and, for each row, one cell per column
named_rows = st.lists(awkward_text, min_size=1, max_size=6, unique=True).flatmap(
    lambda names: st.tuples(st.just(names), st.lists(st.lists(cells, min_size=len(names), max_size=len(names)),
                                                     max_size=4)))


def json_value(value):
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


@settings(PROPERTY, max_examples=50)
@given(named_rows, st.dictionaries(awkward_text, cells, max_size=3), st.booleans())
def test_streamed_json_equals_an_indented_dump(named_rows, summary, scanned):
    names, rows = named_rows
    scan = ("eta", (0.0, 0.5, 1.0)) if scanned else (None, ())
    config = cli.RunConfig("spin-phase", {"n_particles": "5", "g": "1.0"}, *scan, out="", format="json", jobs=None)
    columns = [(name, "a column") for name in names]
    expected = {
        "meta": {
            "schema_version": cli.SCHEMA_VERSION,
            "command": "spin-phase",
            "params": {"g": "1.0", "n_particles": "5"},
            "scan": {"param": "eta", "min": 0.0, "max": 1.0, "steps": 3} if scanned else None,
            "columns": [{"name": name, "description": desc} for name, desc in columns],
            "summary": {key: json_value(value) for key, value in summary.items()},
        },
        "rows": [{name: json_value(cell) for name, cell in zip(names, row)} for row in rows],
    }
    fh = io.StringIO()
    cli._write_json(fh, config, columns, copy.deepcopy(rows), dict(summary))
    assert fh.getvalue() == json.dumps(expected, indent=2, allow_nan=False) + "\n"


@PROPERTY
@given(named_rows)
def test_csv_rows_are_their_formatted_cells(named_rows):
    # the writer leaves a cell to csv wherever csv writes _format_cell's text by itself
    names, rows = named_rows
    config = cli.RunConfig("dirac-scan", {"n_electrons": "8"}, None, (), out="", format="csv", jobs=None)
    columns = [(name, "a column") for name in names]
    expected = io.StringIO()
    cli._write_csv(expected, config, columns, [], {})
    writer = csv.writer(expected, lineterminator="\n")
    for row in rows:
        writer.writerow(map(cli._format_cell, row))
    fh = io.StringIO()
    cli._write_csv(fh, config, columns, copy.deepcopy(rows), {})
    assert fh.getvalue() == expected.getvalue()


def test_streamed_json_batches_equal_an_indented_dump():
    # rows over three batches, the later ones holding a non-finite cell and the encoded row separator as text
    names = ["eta", "determinant", "stable", "status"]
    rows = [[0.5 * i, float(i) ** 0.5, i % 3 == 0, "ok"] for i in range(600)]
    assert len(rows) > 2 * cli._JSON_BATCH
    rows[cli._JSON_BATCH + 1][1] = -math.inf
    rows[cli._JSON_BATCH + 2][3] = '"},\n      {"'
    rows[-1][1] = math.nan
    config = cli.RunConfig("spin-phase", {"n_particles": "5"}, None, (), out="", format="json", jobs=None)
    columns = [(name, "a column") for name in names]
    expected = {
        "meta": {"schema_version": cli.SCHEMA_VERSION, "command": "spin-phase", "params": {"n_particles": "5"},
                 "scan": None, "columns": [{"name": name, "description": desc} for name, desc in columns],
                 "summary": {}},
        "rows": [{name: json_value(cell) for name, cell in zip(names, row)} for row in rows],
    }
    fh = io.StringIO()
    cli._write_json(fh, config, columns, rows, {})
    assert fh.getvalue() == json.dumps(expected, indent=2, allow_nan=False) + "\n"


class _Discard:
    """A text sink that keeps nothing it is given."""

    def write(self, text):
        return len(text)


def test_json_rows_stream_in_batches():
    # 20,000 spin-phase rows: encoded in one batch they peak at about 22 MB of dicts and text
    names = ["eta", *(name for name, _ in cli._SPIN_COLUMNS), "status"]
    rows = [(0.7 * i / 19_999, 0.1 + i, -0.2 - i, 1.3 + i, i < 10_000, 0.6 + i, -0.8 + i, 1 / (1 + i), "ok")
            for i in range(20_000)]
    config = cli.RunConfig("spin-phase", {"n_particles": "5"}, "eta", (0.0, 0.7), out="", format="json", jobs=None)
    columns = [(name, "a column") for name in names]
    tracemalloc.start()
    try:
        cli._write_json(_Discard(), config, columns, rows, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def diagonalising_scans():
    tbjj = st.builds(
        lambda occupied, t, eta, n_levels, solver: [
            "tbjj", "--set", "m_sites=6", "--set", "occupied=" + ",".join(map(str, occupied)),
            "--set", f"t={t}", "--set", f"n_levels={n_levels}", "--set", f"solver={solver}",
            "--set", "scan_param=eta", "--set", f"scan_min={eta}", "--set", f"scan_max={eta + 0.5}",
            "--set", "scan_steps=3"],
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3, unique=True),
        st.floats(min_value=0.2, max_value=0.8),
        st.floats(min_value=0.5, max_value=1.5),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["fock", "both"]),
    )
    nonlinear = st.builds(
        lambda g, phi, alpha4, n_levels, low: [
            "nonlinear", "--set", "n_particles=3", "--set", f"g={g}", "--set", f"g_eff={g}",
            "--set", f"phi={phi}", "--set", f"alpha4={alpha4}", "--set", f"n_levels={n_levels}",
            "--set", "scan_param=m_total", "--set", f"scan_min={low}", "--set", f"scan_max={low + 3}",
            "--set", "scan_steps=4"],
        st.floats(min_value=0.5, max_value=1.5),
        st.floats(min_value=0.2, max_value=0.6),
        st.floats(min_value=0.0, max_value=0.1),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-6, max_value=3),
    )
    return st.one_of(tbjj, nonlinear)


@settings(PROPERTY, max_examples=6)
@given(diagonalising_scans(), st.sampled_from(["csv", "json"]))
def test_worker_count_does_not_change_the_bytes_of_diagonalising_scans(args, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        serial, pooled = Path(tmp) / "serial", Path(tmp) / "pooled"
        code = cli.main([*args, "--format", fmt, "--out", str(serial), "--jobs", "1"])
        assert cli.main([*args, "--format", fmt, "--out", str(pooled), "--jobs", "2"]) == code == 0
        assert pooled.read_bytes() == serial.read_bytes()


# each closed-form command's fixed keys, with or without optional ones, and the model fields it can scan
FIELD_SCANS = {
    "spectrum": ((["orbitals=-1,0,2", "spins=1,-1,1"], ["orbitals=-1,0,2", "spins=1,-1,1", "n_levels=2"]),
                 ("g", "g_eff", "phi", "hbar_omega", "eta")),
    "phase-scan": ((["n_particles=3", "m_max=3"], ["n_particles=3", "m_max=3", "g=2"]),
                   ("g", "g_eff", "phi", "hbar_omega", "n_particles")),
    "spin-phase": ((["n_particles=4"], ["n_particles=4", "eta=0.4", "phi=0.2"]),
                   ("g", "g_eff", "phi", "hbar_omega", "eta", "n_particles")),
    "dirac-scan": ((["n_electrons=6"], ["n_electrons=6", "phi=0.5"], ["n_electrons=6", "j_max=4", "phi=0.5"]),
                   ("eps0", "hbar_omega", "phi", "n_electrons", "degeneracy", "d_eff")),
    "nonlinear": ((["n_particles=3", "m_total=2", "alpha4=0.05"], ["n_particles=3", "m_total=-1", "phi=0.3"]),
                  ("g", "g_eff", "phi", "hbar_omega", "n_particles")),
}


@st.composite
def field_scans(draw, command):
    """A scan of one of the command's model fields that reaches below its range, and past overflow at scale 1e155."""
    bases, axes = FIELD_SCANS[command]
    scale = draw(st.sampled_from([1.0, 1e155]))
    lo = draw(st.floats(min_value=-1.5, max_value=2.0)) * scale
    hi = lo + draw(st.floats(min_value=0.0, max_value=8.0)) * scale
    return [command, *(arg for key in draw(st.sampled_from(bases)) for arg in ("--set", key)),
            "--set", f"scan_param={draw(st.sampled_from(axes))}", "--set", f"scan_min={lo!r}",
            "--set", f"scan_max={hi!r}", "--set", f"scan_steps={draw(st.integers(min_value=2, max_value=9))}"]


@pytest.mark.parametrize("command", sorted(FIELD_SCANS))
@settings(PROPERTY, max_examples=40)
@given(data=st.data())
def test_a_bound_scan_writes_the_rows_of_points_parsed_anew(command, data):
    args = data.draw(field_scans(command))
    bound, field_binder = [], cli._field_binder

    def counted(p, key):  # the binder of the run, counting the values it binds
        bind = field_binder(p, key)
        return lambda value: bound.append(value) or bind(value)

    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for name, binder in (("bound", counted), ("parsed", lambda p, key: None)):  # None: parse each point anew
            out = Path(tmp) / name
            with mock.patch.object(cli, "_field_binder", binder):
                code = cli.main([*args, "--out", str(out)])
            runs[name] = code, out.read_bytes() if out.exists() else None
    assert runs["bound"] == runs["parsed"]
    code, text = runs["bound"]
    # every point was bound unless the whole run failed (exit 2) before any row
    assert (code == 2) == (text is None) and (code == 2 or len(bound) == int(args[-1].split("=")[1]))
