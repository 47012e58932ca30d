"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertion carries the same information for the test report.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fluxqm import (
    FermionConfig,
    ModelParams,
    compare_spectra,
    critical_eta,
    critical_flux,
    critical_flux_dirac,
    critical_flux_spin,
    DiracParams,
    displacement_operator,
    dressed_frequency,
    ground_state_moments,
    ground_state_search,
    hessian,
    locking_ratio,
    optimal_chirality,
    oracle_spectrum,
    quadrature_variances,
    rf_squid_map,
    sector_constants,
    sector_energy,
    sector_spectrum_fock,
    sector_spectrum_xrep,
)
from fluxqm.cli import main as cli_main
from reference import balanced_config, boosted_config, diamagnetic_stiffness


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_analytic_oracle_equivalence():
    """Lowest 6 levels of every sector match brute force to 1e-8 across the grid."""
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for n, ratio, phi in itertools.product((1, 3, 5), (0.5, 1.0, 2.0), (0.0, 0.5, 1.0, 2.0)):
        p = ModelParams(g=ratio, g_eff=1.0, phi=phi, n_particles=n, hbar_omega=1.0)
        for cfg in (balanced_config(n), boosted_config(balanced_config(n), 1)):
            assert max(abs(m) for m in cfg.orbitals) <= 3
            analytic = [sector_energy(p, cfg, k) for k in range(6)]
            report = oracle_spectrum(p, cfg, cutoff=400, n_levels=6, check_convergence=False)
            max_rel_error = compare_spectra(analytic, report.levels, scale=1.0)
            worst = max(worst, max_rel_error)
            points += 1
            assert max_rel_error <= 1e-8, (n, ratio, phi, cfg.orbitals, max_rel_error)
    elapsed = time.perf_counter() - start
    ok = points >= 50 and worst <= 1e-8 and elapsed <= 60.0
    _report(
        "criterion 1 (analytic-oracle spectrum equivalence)",
        ok,
        f"{points} sector points, max rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_squeezing_identities():
    """Uncertainty product exact to 1e-12; oracle variance matches 0.5 e^(-2r) to 1e-6."""
    worst_product = 0.0
    rng = np.random.default_rng(2026)
    for _ in range(200):
        p = ModelParams(
            g=float(rng.uniform(0.05, 3.0)),
            g_eff=1.0,
            phi=float(rng.uniform(0.0, 3.0)),
            n_particles=int(rng.integers(1, 10)),
            hbar_omega=float(rng.uniform(0.2, 4.0)),
        )
        var_x, var_p = quadrature_variances(p)
        worst_product = max(worst_product, abs(var_x * var_p - 0.25))
    worst_var = 0.0
    for g, phi, n, orbitals in ((0.75, 1.0, 1, (1,)), (0.5, 1.5, 3, (-1, 0, 1)), (2.0, 0.7, 2, (0, 2))):
        p = ModelParams(g=g, g_eff=1.0, phi=phi, n_particles=n, hbar_omega=1.0)
        moments = ground_state_moments(p, FermionConfig(orbitals), cutoff=300)
        worst_var = max(worst_var, abs(moments.var_x - quadrature_variances(p)[0]))
    ok = worst_product <= 1e-12 and worst_var <= 1e-6
    _report(
        "criterion 2 (squeezing identities)",
        ok,
        f"max |var_x var_p - 1/4| = {worst_product:.2e}, max oracle variance dev = {worst_var:.2e}",
    )


def test_criterion_3_boost_cost_exact():
    """Rigid-boost energy cost at zero flux is g_eff N s^2, exactly."""
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 8))
        orbs = rng.choice(np.arange(-9, 10), size=n, replace=False)
        if orbs.sum() != 0:
            continue
        checked += 1
        cfg = FermionConfig(orbs)
        g_eff = float(rng.integers(1, 65)) / 16.0  # dyadic: products stay exact
        p = ModelParams(g=1.0, g_eff=g_eff, phi=0.0, n_particles=n, hbar_omega=1.0)
        s = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        shifted = boosted_config(cfg, s)
        assert shifted.w_kinetic - cfg.w_kinetic == n * s * s  # integer identity
        delta = sector_energy(p, shifted, 0) - sector_energy(p, cfg, 0)
        assert delta == g_eff * (n * s * s), (orbs, s, g_eff, delta)
    _report("criterion 3 (boost cost exact)", checked == 100, f"{checked} random balanced configs")


def test_criterion_4_critical_flux_bracketing():
    """Search jump brackets the closed-form critical flux within one grid step."""
    transition_sets = [
        (2.0, 1.0, 3, 1.0), (1.5, 1.0, 3, 1.0), (3.0, 1.0, 3, 0.5), (2.0, 1.0, 5, 1.0),
        (1.2, 1.0, 5, 2.0), (2.5, 0.8, 3, 1.0), (1.8, 0.6, 7, 1.0), (4.0, 1.0, 1, 1.0),
        (2.0, 1.5, 3, 1.0), (1.1, 1.0, 3, 1.0),
    ]
    for g, g_eff, n, hw in transition_sets:
        p0 = ModelParams(g=g, g_eff=g_eff, phi=0.0, n_particles=n, hbar_omega=hw)
        phi_c = critical_flux(p0)
        grid = np.linspace(0.0, 2.0 * phi_c, 400)
        m_max = (n - 1) // 2 + 3
        labels = [
            ground_state_search(replace(p0, phi=float(v)), m_max).phase_label for v in grid
        ]
        flips = [i for i in range(len(grid) - 1) if labels[i] != labels[i + 1]]
        assert len(flips) == 1, (g, g_eff, n, hw, len(flips))
        lo, hi = grid[flips[0]], grid[flips[0] + 1]
        assert lo <= phi_c <= hi, (g, g_eff, n, hw, lo, phi_c, hi)
    for g, g_eff, n in ((1.0, 1.0, 3), (0.5, 1.0, 3), (1.0, 1.2, 5)):
        grid = np.linspace(0.0, 10.0, 400)
        labels = {
            ground_state_search(
                ModelParams(g=g, g_eff=g_eff, phi=float(v), n_particles=n), (n - 1) // 2 + 3
            ).phase_label
            for v in grid
        }
        assert labels == {"balanced"}, (g, g_eff, n, labels)
    _report(
        "criterion 4 (critical flux bracketing)",
        True,
        "10 transition sets bracketed within one step; 3 no-transition sets stay balanced",
    )


def test_criterion_5_spin_orbit_criticality():
    """Determinant roots match closed forms; soft-mode slope matches the locking ratio."""
    # equal couplings: eta root of det H, flux independent
    p_eq = ModelParams(g=0.8, g_eff=0.8, phi=0.7, n_particles=3, hbar_omega=1.3)
    eta_root = brentq(lambda eta: hessian(replace(p_eq, eta=eta)).determinant,
                      1e-9, 5.0, xtol=1e-15, rtol=8.9e-16)
    eta_err = abs(eta_root - critical_eta(p_eq)) / critical_eta(p_eq)
    # zero Zeeman coupling: flux root of det H matches the orbital closed form
    p_orb = ModelParams(g=1.6, g_eff=0.9, phi=0.0, n_particles=4, hbar_omega=1.2)
    phi_root = brentq(lambda phi: hessian(replace(p_orb, phi=phi)).determinant,
                      1e-9, 5.0, xtol=1e-15, rtol=8.9e-16)
    phi_err = abs(phi_root - critical_flux(p_orb)) / critical_flux(p_orb)
    # locking ratio equals the zero-eigenvector slope on the critical manifold
    p1 = replace(p_eq, eta=critical_eta(p_eq))
    p2 = ModelParams(g=1.0, g_eff=2.0, phi=0.0, n_particles=1, hbar_omega=1.0, eta=1.0)
    p2 = replace(p2, phi=critical_flux_spin(p2))
    slope_err = 0.0
    for p in (p1, p2):
        rep = hessian(p)
        slope = rep.soft_vector[0] / rep.soft_vector[1]
        slope_err = max(slope_err, abs(slope - locking_ratio(p)) / abs(locking_ratio(p)))
    ok = eta_err <= 1e-8 and phi_err <= 1e-8 and slope_err <= 1e-8
    _report(
        "criterion 5 (spin-orbit criticality)",
        ok,
        f"eta-root rel err {eta_err:.2e}, phi-root rel err {phi_err:.2e}, "
        f"locking-slope rel err {slope_err:.2e}",
    )


def test_criterion_6_dirac_ring():
    """Imbalance jump at the branch stiffness; critical flux; stiffness estimator."""
    p = DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.0, n_electrons=8, degeneracy=4)
    chi_c = p.eps0 / (4 * p.degeneracy)
    below = optimal_chirality(p, chi=chi_c * (1 - 1e-9))
    above = optimal_chirality(p, chi=chi_c * (1 + 1e-9))
    jump_ok = below == 0 and abs(above) == p.n_electrons
    phi_c = critical_flux_dirac(DiracParams(eps0=1.3, hbar_omega=0.9, phi=0.0,
                                            n_electrons=8, degeneracy=4, d_eff=0.0))
    flux_err = abs(phi_c**2 - 0.9 / (16 * 1.3)) / (0.9 / (16 * 1.3))
    n_sites, filling, phi_amp = 200, 0.5, 1.0
    n_fill = round(filling * n_sites)
    band = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n_sites) / n_sites))
    exact = -((phi_amp / n_sites) ** 2) * float(band[:n_fill].sum())
    estimate = diamagnetic_stiffness(1.0, filling, n_sites, phi_amp)
    stiff_err = abs(estimate - exact) / exact
    ok = jump_ok and flux_err <= 1e-12 and stiff_err <= 1e-3
    _report(
        "criterion 6 (linear-dispersion ring)",
        ok,
        f"jump 0 -> +/-{abs(above)}, phi_c^2 rel err {flux_err:.2e}, "
        f"stiffness estimator rel err {stiff_err:.2e}",
    )


def test_criterion_7_stiffness_table(tmp_path):
    """Emitted Omega(M) table: symmetric, softest at M = 0, stiffening outward."""
    out = tmp_path / "omega.csv"
    start = time.perf_counter()
    code = cli_main([
        "nonlinear", "--set", "n_particles=20", "--set", "g=0.2", "--set", "phi=0.5",
        "--set", "alpha4=0.02", "--set", "hbar_omega=1.0",
        "--set", "scan_param=m_total", "--set", "scan_min=-40", "--set", "scan_max=40",
        "--set", "scan_steps=81", "--out", str(out), "--jobs", "1",
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    table = {}
    with open(out) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    header = rows[0].strip().split(",")
    m_idx, w_idx = header.index("m_total"), header.index("omega_ratio")
    for line in rows[1:]:
        cells = line.strip().split(",")
        table[int(cells[m_idx])] = float(cells[w_idx])
    assert set(table) == set(range(-40, 41))
    symmetry = max(abs(table[m] - table[-m]) for m in range(41))
    expected_center = math.sqrt(1.0 + 4.0 * 0.2 * 0.25 * 20.0)
    center_err = abs(table[0] - expected_center)
    monotone = all(table[m + 1] > table[m] for m in range(40))
    minimum_at_zero = min(table, key=lambda m: (table[m], abs(m))) == 0
    ok = (symmetry <= 1e-12 and center_err <= 1e-12 and monotone
          and minimum_at_zero and elapsed <= 1.0)
    _report(
        "criterion 7 (sector-dependent mode stiffening table)",
        ok,
        f"symmetry dev {symmetry:.1e}, center dev {center_err:.1e}, "
        f"monotone={monotone}, runtime {elapsed:.2f} s",
    )


def test_criterion_8_junction_dual_solver():
    """Fock vs real-space spectra, junction-circuit equivalence, exact identities."""
    start = time.perf_counter()
    hw = 1.0
    sectors = [sector_constants(occ, 6) for occ in ((0,), (0, 1), (1, 2, 4))]
    worst_dual = 0.0
    worst_product = 0.0
    for sector, t, eta in itertools.product(sectors, (0.4, 1.0, 1.6), (0.6, 1.0, 1.4)):
        fock = sector_spectrum_fock(sector, t, eta, hw, n_levels=5)
        # the real-space solve is the junction circuit's spectrum, so this also checks the circuit map
        xrep = sector_spectrum_xrep(sector, t, eta, hw, n_levels=5)
        rel = np.max(np.abs((xrep - hw / 2) - fock) / np.maximum(hw, np.abs(fock)))
        worst_dual = max(worst_dual, float(rel))
        squid = rf_squid_map(sector, t, eta, hw)
        worst_product = max(worst_product, abs(squid.e_c * squid.e_l - hw**2 / 8) / (hw**2 / 8))
    worst_norm = 0.0
    for eta in (0.6, 1.0, 1.4):
        lam = eta / math.sqrt(2.0)
        n_check = 20
        cutoff = n_check + math.ceil(20 * lam**2 + 40)
        op = displacement_operator(lam, cutoff)
        norms = np.linalg.norm(op, axis=0)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms[: n_check + 1] - 1.0))))
    elapsed = time.perf_counter() - start
    ok = (worst_dual <= 1e-6 and worst_product <= 1e-12
          and worst_norm <= 1e-8 and elapsed <= 120.0)
    _report(
        "criterion 8 (synthetic junction dual solver)",
        ok,
        f"dual-solver rel {worst_dual:.2e}, "
        f"E_C*E_L rel {worst_product:.2e}, column-norm dev {worst_norm:.2e}, {elapsed:.0f} s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Scan output bytes are identical for any worker count."""
    scans = [
        (
            ["phase-scan", "--set", "n_particles=3", "--set", "g=2.0", "--set", "g_eff=1.0",
             "--set", "m_max=5", "--set", "scan_param=phi", "--set", "scan_min=0",
             "--set", "scan_max=0.5", "--set", "scan_steps=400", "--format", "csv"],
            "phase.csv",
        ),
        (
            ["dirac-scan", "--set", "n_electrons=8", "--set", "d_eff=0.05",
             "--set", "scan_param=phi", "--set", "scan_min=0", "--set", "scan_max=0.6",
             "--set", "scan_steps=100", "--format", "json"],
            "dirac.json",
        ),
    ]
    for args, name in scans:
        path_serial = tmp_path / f"serial_{name}"
        path_pooled = tmp_path / f"pooled_{name}"
        assert cli_main(args + ["--out", str(path_serial), "--jobs", "1"]) == 0
        assert cli_main(args + ["--out", str(path_pooled), "--jobs", "4"]) == 0
        assert path_serial.read_bytes() == path_pooled.read_bytes(), name
    _report("criterion 9 (scan determinism)", True, "csv and json runs byte-identical at jobs 1 vs 4")
