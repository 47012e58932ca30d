import math

import numpy as np
import pytest

from fluxqm import (
    FermionConfig,
    ModelParams,
    NoTransitionError,
    critical_flux,
    ground_state_search,
    induced_coupling,
    sector_energy,
)
from fluxqm.diracring import DiracParams, critical_flux_dirac
from fluxqm.phases import _MAX_WINDOW_ROWS, _check_window, _sector_table
from reference import balanced_config, boosted_config, brute_force_ground_state, critical_chi


def test_balanced_config_examples():
    assert balanced_config(1).orbitals == (0,)
    assert balanced_config(1).w_kinetic == 0
    cfg3 = balanced_config(3)
    assert cfg3.orbitals == (-1, 0, 1)
    assert cfg3.w_kinetic == 2
    cfg5 = balanced_config(5)
    assert cfg5.orbitals == (-2, -1, 0, 1, 2)
    assert cfg5.w_kinetic == 10


def test_balanced_config_closed_form_weight():
    # sum of m^2 over -K..K is K(K+1)(2K+1)/3
    for n in (1, 3, 5, 7, 9, 11):
        k = (n - 1) // 2
        assert balanced_config(n).w_kinetic == k * (k + 1) * (2 * k + 1) // 3
        assert balanced_config(n).m_total == 0


def test_balanced_config_rejects_even_n():
    with pytest.raises(ValueError):
        balanced_config(4)
    with pytest.raises(ValueError):
        balanced_config(0)


def test_boost_identity_and_inverse():
    cfg = balanced_config(5)
    assert boosted_config(cfg, 0) == cfg
    assert boosted_config(boosted_config(cfg, -1), 1) == cfg


def test_boost_shifts_m_and_w():
    cfg = balanced_config(3)
    up = boosted_config(cfg, 1)
    assert up.m_total == 3
    assert up.w_kinetic == 5  # W_bal + N * s^2 = 2 + 3


def test_boost_cost_independent_of_internal_structure():
    # rigid-boost cost from any M = 0 configuration is N s^2 integer units
    rng = np.random.default_rng(5)
    produced = 0
    while produced < 40:
        n = int(rng.integers(1, 8))
        orbs = rng.choice(np.arange(-9, 10), size=n, replace=False)
        if orbs.sum() != 0:
            continue
        produced += 1
        cfg = FermionConfig(orbs)
        for s in (-3, -1, 1, 2, 3):
            assert boosted_config(cfg, s).w_kinetic - cfg.w_kinetic == n * s * s


def test_critical_chi_per_unit_stiffness():
    # returned value is in units of g_eff
    n = 4
    assert critical_chi(w_pol=n, w_bal=0, m_pol=n) == pytest.approx(1.0 / n, rel=1e-15)
    assert critical_chi(w_pol=7, w_bal=7, m_pol=3) == 0.0
    # two-unit rigid shift of the N = 3 sea: delta W = 12, M = 6
    assert critical_chi(w_pol=14, w_bal=2, m_pol=6) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_critical_chi_rejects_zero_polarization():
    with pytest.raises(ValueError):
        critical_chi(5, 2, 0)


def test_critical_flux_example():
    p = ModelParams(g=2.0, g_eff=1.0, phi=0.0, n_particles=1, hbar_omega=8.0)
    assert critical_flux(p) == pytest.approx(1.0, rel=1e-15)


def test_critical_flux_no_transition():
    with pytest.raises(NoTransitionError):
        critical_flux(ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=3))
    with pytest.raises(NoTransitionError):
        critical_flux(ModelParams(g=0.5, g_eff=1.0, phi=0.0, n_particles=3))


def test_critical_flux_small_cavity_quantum_limit():
    p = ModelParams(g=2.0, g_eff=1.0, phi=0.0, n_particles=3, hbar_omega=1e-9)
    assert critical_flux(p) < 1e-4


def test_critical_flux_equals_coupling_crossing():
    # chi(phi_c) must hit g_eff / N exactly
    p = ModelParams(g=1.7, g_eff=0.6, phi=0.0, n_particles=5, hbar_omega=1.3)
    phi_c = critical_flux(p)
    at_crossing = ModelParams(g=p.g, g_eff=p.g_eff, phi=phi_c, n_particles=5, hbar_omega=1.3)
    assert induced_coupling(at_crossing) == pytest.approx(p.g_eff / p.n_particles, rel=1e-13)


def test_search_zero_flux_returns_balanced():
    p = ModelParams(g=2.0, g_eff=1.0, phi=0.0, n_particles=3)
    gs = ground_state_search(p, m_max=5)
    assert gs.phase_label == "balanced"
    assert gs.order_m == 0
    assert gs.config == balanced_config(3)
    assert gs.displacement_a == 0.0
    assert not gs.boundary_contact
    assert gs.energy == sector_energy(p, gs.config, 0)


def test_search_polarizes_above_crossing():
    # push chi just past g_eff / N: the jump is first order and cutoff-limited
    base = ModelParams(g=2.0, g_eff=1.0, phi=0.0, n_particles=3)
    phi_c = critical_flux(base)
    p = ModelParams(g=2.0, g_eff=1.0, phi=phi_c * 1.02, n_particles=3)
    gs = ground_state_search(p, m_max=6)
    assert gs.phase_label == "polarized"
    assert abs(gs.order_m) >= 3
    assert gs.boundary_contact  # polarization runs into the orbital window
    assert gs.photon_number == pytest.approx(gs.displacement_a**2, rel=1e-15)


def test_search_single_particle_boundary_flag():
    # chi > g_eff drives a single particle to the window edge
    p = ModelParams(g=2.0, g_eff=1.0, phi=5.0, n_particles=1)
    assert induced_coupling(p) > p.g_eff
    gs = ground_state_search(p, m_max=4)
    assert gs.boundary_contact
    assert abs(gs.order_m) == 4


def test_search_degenerate_branches_tie_break():
    p = ModelParams(g=2.0, g_eff=1.0, phi=2.0, n_particles=3)
    gs = ground_state_search(p, m_max=5)
    assert gs.phase_label == "polarized"
    # the mirrored configuration is exactly degenerate
    mirrored = FermionConfig([-m for m in gs.config.orbitals])
    assert sector_energy(p, mirrored, 0) == gs.energy
    # deterministic selection: lexicographically smallest orbital list wins,
    # which is the negative-M branch
    assert gs.order_m < 0
    assert ground_state_search(p, m_max=5) == gs


def test_search_energy_invariant_under_reflection():
    p = ModelParams(g=1.4, g_eff=1.0, phi=0.8, n_particles=4)
    rng = np.random.default_rng(9)
    for _ in range(20):
        orbs = rng.choice(np.arange(-6, 7), size=4, replace=False)
        cfg = FermionConfig(orbs)
        flipped = FermionConfig([-m for m in orbs])
        assert sector_energy(p, cfg, 0) == pytest.approx(sector_energy(p, flipped, 0), rel=1e-15)


def test_search_even_particle_number():
    # no symmetric zero-momentum sea of minimal kinetic weight exists for even N;
    # the kinetic optimum carries |M| = 1 and is labeled balanced
    p = ModelParams(g=2.0, g_eff=1.0, phi=0.0, n_particles=2)
    gs = ground_state_search(p, m_max=5)
    assert gs.phase_label == "balanced"
    assert abs(gs.order_m) == 1
    assert gs.config.w_kinetic == 1


def test_search_rejects_too_small_window():
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=5)
    with pytest.raises(ValueError):
        ground_state_search(p, m_max=1)


@pytest.mark.parametrize("n", range(1, 11))
def test_entry_cap_keeps_every_window_of_the_row_cap_up_to_ten_orbitals(n):
    # bisect for the widest window whose C(2 m_max + 1, N) rows fit the row cap; no table is built
    lo, hi = n // 2, 2_000_000  # C(2 lo + 1, N) >= 1 rows fit, C(4,000,001, N) do not
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if math.comb(2 * mid + 1, n) <= _MAX_WINDOW_ROWS else (lo, mid - 1)
    assert _check_window(n, lo) == lo
    with pytest.raises(ValueError, match=rf"^m_max must keep the window's C\(2\*m_max\+1, {n}\) configurations "
                                         r"at most 4,000,000, got"):
        _check_window(n, lo + 1)


def test_entry_cap_refuses_a_window_of_few_long_rows():
    # 1,000,001 rows of a million orbitals: under the row cap, but a table of 10^12 entries
    with pytest.raises(ValueError, match=r"^m_max must keep the window's C\(2\*m_max\+1, 1000000\) configurations "
                                         r"of 1000000 orbitals at most 40,000,000 entries, got 500000$"):
        _check_window(1_000_000, 500_000)
    assert _check_window(40, 20) == 20  # C(41, 40) = 41 rows of 40 orbitals


def test_search_brackets_critical_flux():
    # quick version of the bracketing property on a coarse grid
    p0 = ModelParams(g=2.5, g_eff=1.0, phi=0.0, n_particles=3, hbar_omega=1.0)
    phi_c = critical_flux(p0)
    grid = np.linspace(0.0, 2 * phi_c, 81)
    labels = [
        ground_state_search(
            ModelParams(g=2.5, g_eff=1.0, phi=float(v), n_particles=3), m_max=5
        ).phase_label
        for v in grid
    ]
    flips = [i for i in range(80) if labels[i] != labels[i + 1]]
    assert len(flips) == 1
    lo, hi = grid[flips[0]], grid[flips[0] + 1]
    assert lo <= phi_c <= hi


def _search_cases():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for m_max in sorted({n // 2, n // 2 + 1, 4}):  # n // 2 fills the window for odd N
            if 2 * m_max + 1 < n:
                continue
            g, g_eff = float(rng.uniform(1.2, 3.0)), float(rng.uniform(0.3, 1.0))
            phi_c = critical_flux(ModelParams(g=g, g_eff=g_eff, phi=0.0, n_particles=n))
            for phi in (0.0, phi_c, *rng.uniform(0.0, 3.0 * phi_c, size=6)):
                yield ModelParams(g=g, g_eff=g_eff, phi=float(phi), n_particles=n), m_max


def test_search_matches_brute_force():
    cases = list(_search_cases())
    assert any(2 * m_max + 1 == p.n_particles for p, m_max in cases)
    for p, m_max in cases:
        gs = ground_state_search(p, m_max)
        orbs, label = brute_force_ground_state(p, m_max)
        assert gs.config.orbitals == orbs, (p, m_max)
        assert gs.energy == sector_energy(p, FermionConfig(orbs), 0)
        assert gs.phase_label == label
        assert gs.boundary_contact == (max(abs(v) for v in orbs) == m_max)


@pytest.mark.parametrize("n, m_max", [(1, 0), (1, 3), (3, 1), (4, 3), (5, 4), (6, 3), (1, 128), (2, 127)])
def test_sector_table_rows_distinct_and_ordered(n, m_max):
    configs, rows = _sector_table(n, m_max)[:2]
    # the smallest signed type that holds -m_max..m_max, which _check_window's bytes per row assume
    assert configs.dtype == (np.int8 if m_max <= 127 else np.int16)
    configs = [tuple(row) for row in configs.tolist()]
    assert len(configs) == len(set(configs)) == math.comb(2 * m_max + 1, n)
    assert all(list(row) == sorted(set(row)) and max(map(abs, row)) <= m_max for row in configs)
    assert configs == sorted(configs)
    reps = [configs[index] for index in rows.tolist()]
    m_top = n * m_max - n * (n - 1) // 2  # every M from -m_top to m_top is reachable, each once
    assert sorted(sum(row) for row in reps) == list(range(-m_top, m_top + 1))
    assert reps == sorted(reps, key=lambda row: (abs(sum(row)), row))


@pytest.mark.parametrize("n, m_max", [(5, 4), (4, 7), (1, 2897), (2, 127)])
def test_sector_table_keeps_first_row_of_each_sector(n, m_max):
    # One row per M sector: the first of least W in lexicographic order.  For (1, 2897) W and M^2
    # reach 2897^2 = 8.4e6; for (2, 127) M^2 = 253^2 = 64,009 overflows the int16 that holds W <= 2 * 127^2.
    configs, rows, w, m2, _ = _sector_table(n, m_max)
    configs = configs.tolist()
    first = {}
    for index, row in enumerate(configs):
        m, wk = sum(row), sum(v * v for v in row)
        if m not in first or wk < first[m][1]:
            first[m] = index, wk
    expected = sorted((index for index, _ in first.values()), key=lambda i: (abs(sum(configs[i])), configs[i]))
    assert rows.tolist() == expected
    assert w.tolist() == [float(sum(v * v for v in configs[i])) for i in expected]
    assert m2.tolist() == [float(sum(configs[i]) ** 2) for i in expected]


def test_overflowing_photon_number_names_its_quantity():
    # <a> = -5e154 at a subnormal hbar_omega: its square once raised an anonymous OverflowError
    gs = ground_state_search(ModelParams(g=2.0, g_eff=1.0, phi=1e-155, n_particles=5, hbar_omega=1e-320), 3)
    message = r"^photon_number must be finite, but -4\.999999999987515e\+154\*\*2 overflows$"
    with pytest.raises(ValueError, match=message):
        gs.photon_number


@pytest.mark.parametrize("phi_c, message", [
    # 4 g N (g - g_eff) underflows to 0.0, where the division once raised ZeroDivisionError
    (lambda: critical_flux(ModelParams(g=1e-300, g_eff=5e-301, phi=0.0, n_particles=3)), "finite, got inf"),
    # hbar_omega / (4 g_d eps0) overflows before the square root, which once gave inf for ~2.5e159
    (lambda: critical_flux_dirac(DiracParams(eps0=1e-320, hbar_omega=1.0, phi=0.0, n_electrons=8)), "finite, got inf"),
    # g_eff hbar_omega = 1e-330 underflows to 0.0, so the root was once 0.0 where phi_c ~ 2.5e-166
    (lambda: critical_flux(ModelParams(g=2.0, g_eff=1e-300, phi=0.0, n_particles=1, hbar_omega=1e-30)),
     "positive, got 0.0"),
], ids=["phases", "diracring", "phases-underflow"])
def test_unrepresentable_critical_flux_raises(phi_c, message):
    with pytest.raises(ValueError, match=f"^phi_c must be {message}$"):
        phi_c()
