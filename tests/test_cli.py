import csv
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from fluxqm import (
    DiracParams,
    FermionConfig,
    ModelParams,
    critical_eta,
    critical_flux,
    critical_flux_spin,
    dressed_frequency,
    ground_state_search,
    induced_coupling,
    optimal_chirality,
    oracle_spectrum,
    quadrature_variances,
    rf_squid_map,
    sector_constants,
    sector_energy,
    sector_spectrum_fock,
    squeeze_parameter,
)
from fluxqm import cli
from fluxqm.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    comments, data = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                data.append(line)
    rows = list(csv.reader(data))
    return comments, rows[0], rows[1:]


def read_summary(comments):
    """The ``# summary key = value`` footer lines of a CSV as a dict of text values."""
    return dict(line[len("# summary "):].split(" = ") for line in comments if line.startswith("# summary "))


def no_rows(monkeypatch):
    """Make any row that runs, parsed anew or bound into the parsed model, fail the test."""
    def no_row(point_of, value):
        raise AssertionError("a row ran")

    monkeypatch.setattr(cli, "_eval_point", no_row)


def test_unknown_parameter_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli("phase-scan", "--set", "n_particles=3", "--set", "bogus=1",
                   "--out", str(out))
    assert code == 2
    assert not out.exists()
    capsys.readouterr()
    # no phase-scan or nonlinear row depends on eta, so setting it is refused rather than ignored
    for command in ("phase-scan", "nonlinear"):
        assert run_cli(command, "--set", "n_particles=3", "--set", "eta=0.3", "--out", str(out)) == 2
        assert capsys.readouterr().err == "fluxqm: error: unknown parameter(s): eta\n"
        assert not out.exists()


def test_missing_required_parameter_is_usage_error(tmp_path):
    assert run_cli("phase-scan", "--out", str(tmp_path / "x.csv")) == 2


def test_incomplete_scan_is_usage_error(tmp_path):
    code = run_cli("phase-scan", "--set", "n_particles=3", "--set", "scan_param=phi",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_bad_scan_bounds_are_usage_errors(tmp_path):
    base = ["phase-scan", "--set", "n_particles=3", "--set", "scan_param=phi",
            "--set", "scan_max=0.0", "--set", "scan_steps=5", "--out", str(tmp_path / "x.csv")]
    assert run_cli(*base, "--set", "scan_min=1.0") == 2  # min > max
    assert run_cli(*base[:-2], "--set", "scan_min=0.0", "--set", "scan_steps=0",
                   "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("args, key", [
    (("phase-scan", "--set", "n_particles=3", "--set", "g=nan"), "g"),
    (("dirac-scan", "--set", "n_electrons=8", "--set", "eps0=inf"), "eps0"),
    (("phase-scan", "--set", "n_particles=3", "--set", "scan_param=phi", "--set", "scan_min=nan",
      "--set", "scan_max=1.0", "--set", "scan_steps=5"), "scan_min"),
    (("phase-scan", "--set", "n_particles=3", "--set", "scan_param=phi", "--set", "scan_min=0.0",
      "--set", "scan_max=-inf", "--set", "scan_steps=5"), "scan_max"),
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "t=nan"), "t"),
])
def test_non_finite_parameter_is_usage_error(tmp_path, capsys, args, key):
    # a command key is refused by its layer's own check during the parse; a scan bound, which no
    # layer reads, by the scan declaration
    text = next(arg.partition("=")[2] for arg in args if arg.startswith(f"{key}="))
    if key.startswith("scan_"):
        message = f"parameter '{key}' must be finite, got {text!r}"
    else:
        message = f"{key} must be finite, got {float(text)}"
    out = tmp_path / "x.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == 2
    assert capsys.readouterr().err == f"fluxqm: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "n_levels=33"), "n_levels"),
    (("oracle-check", "--set", "cutoff=49"), "cutoff"),
    (("oracle-check", "--set", "n_levels=0"), "n_levels"),
    (("oracle-check", "--set", "cutoff=60", "--set", "n_levels=61"), "n_levels"),
    (("phase-scan", "--set", "n_particles=5", "--set", "m_max=1"), "m_max"),
    (("dirac-scan", "--set", "n_electrons=8", "--set", "j_max=9"), "j_max"),
    (("dirac-scan", "--set", "n_electrons=8", "--set", "j_max=-1"), "j_max"),
    (("oracle-check", "--set", "hbar_omega=-1"), "hbar_omega"),
    # a parameter invalid at every scan point
    (("dirac-scan", "--set", "n_electrons=8", "--set", "degeneracy=3"), "degeneracy"),
    (("phase-scan", "--set", "n_particles=3", "--set", "g=-1"), "g"),
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "eta=0",
      "--set", "scan_param=t", "--set", "scan_min=0.5", "--set", "scan_max=1.5", "--set", "scan_steps=3"), "eta"),
    (("nonlinear", "--set", "n_particles=3", "--set", "alpha4=-1"), "alpha4"),
    (("spectrum", "--set", "orbitals=0,1", "--set", "spins=1"), "spins"),
    (("oracle-check", "--set", "tol=-1"), "tol"),
    # text a parse cannot read, and integer limits checked in the parse
    (("phase-scan", "--set", "n_particles=3", "--set", "g=abc"), "'g'"),
    (("spectrum", "--set", "orbitals=0,x"), "'orbitals'"),
    (("spectrum", "--set", "orbitals=0,1", "--set", "n_levels=0"), "n_levels"),
    (("nonlinear", "--set", "n_particles=3", "--set", "n_levels=-1"), "n_levels"),
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "solver=dense"), "solver"),
    # J has N's parity, so no 5-electron sector fits |J| <= 0
    (("dirac-scan", "--set", "n_electrons=5", "--set", "j_max=0"), "j_max"),
    # C(201, 5) = 2.6 billion configurations: the enumeration table would need about 13 GB
    (("phase-scan", "--set", "n_particles=5", "--set", "m_max=100"), "m_max"),
    # C(1,000,001, 1,000,000) = 1,000,001 configurations of a million orbitals: 10^12 table entries
    (("phase-scan", "--set", "n_particles=1000000", "--set", "m_max=500000"), "m_max"),
])
def test_whole_run_config_error_exits_two_before_any_row(tmp_path, capsys, monkeypatch, args, key):
    no_rows(monkeypatch)
    out = tmp_path / "x.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == 2
    assert f"{key} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("phase-scan", "--config", "{tmp}/missing.cfg"), "cannot read config file {tmp}/missing.cfg: "),
    (("phase-scan", "--config", "{tmp}/no_equals.cfg"), "{tmp}/no_equals.cfg:2: expected 'key = value', got 'g 2.0'"),
    (("phase-scan", "--set", "n_particles"), "--set expects KEY=VALUE, got 'n_particles'"),
    (("phase-scan", "--set", "n_particles=3", "--set", "scan_min=0"), "scan_min/scan_max/scan_steps require scan_param"),
    (("phase-scan", "--set", "n_particles=3", "--jobs", "0"), "jobs must be >= 1, got 0"),
    # no spinless spectrum cell depends on eta, so setting it is refused rather than ignored
    (("spectrum", "--set", "orbitals=0,1", "--set", "eta=0.3"), "unknown parameter(s): eta"),
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "solver=both", "--set", "scan_param=eta",
      "--set", "scan_min=0.5", "--set", "scan_max=1.5", "--set", "scan_steps=12", "--out", "{tmp}/missing/x.csv"),
     "output directory of '{tmp}/missing/x.csv' does not exist"),
    # the Kerr basis grows with n_levels, so nonlinear caps it as tbjj does; 0 means no levels
    (("nonlinear", "--set", "n_particles=3", "--set", "n_levels=33"), "n_levels must lie in [0, 32], got 33"),
    (("nonlinear", "--set", "n_particles=3", "--set", "n_levels=-1"), "n_levels must lie in [0, 32], got -1"),
    (("spectrum", "--set", "orbitals=0,1", "--set", "n_levels=0"), "n_levels must be >= 1, got 0"),
    # a model key's name, type and place in the read order are its record field's
    (("dirac-scan",), "missing required parameter 'n_electrons'"),
    (("dirac-scan", "--set", "n_electrons=8", "--set", "degeneracy=abc"),
     "parameter 'degeneracy' must be an integer, got 'abc'"),
    (("phase-scan", "--set", "n_particles=x", "--set", "g=y"), "parameter 'n_particles' must be an integer, got 'x'"),
    (("spin-phase", "--set", "n_particles=3", "--set", "eta=abc"), "parameter 'eta' must be a number, got 'abc'"),
])
def test_unusable_run_exits_two_before_any_row(tmp_path, capsys, monkeypatch, args, message):
    no_rows(monkeypatch)
    (tmp_path / "no_equals.cfg").write_text("n_particles = 3\ng 2.0\n")
    out = tmp_path / "x.csv"
    # the case's own --out or --jobs, given later, takes precedence
    assert run_cli("--out", str(out), "--jobs", "1", *(arg.format(tmp=tmp_path) for arg in args)) == 2
    assert capsys.readouterr().err.startswith(f"fluxqm: error: {message.format(tmp=tmp_path)}")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["no_equals.cfg"]


@pytest.mark.parametrize("args, layer", [
    (("phase-scan", "--set", "n_particles=5", "--set", "m_max=1"),
     lambda: ground_state_search(ModelParams(g=1.0, g_eff=1.0, phi=0.0, n_particles=5), 1)),
    (("dirac-scan", "--set", "n_electrons=8", "--set", "j_max=9"),
     lambda: optimal_chirality(DiracParams(eps0=1.0, hbar_omega=1.0, phi=0.0, n_electrons=8), j_max=9)),
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "n_levels=33"),
     lambda: sector_spectrum_fock(sector_constants([0, 1], 6), 1.0, 1.0, 1.0, n_levels=33)),
    (("oracle-check", "--set", "cutoff=49"),
     lambda: oracle_spectrum(ModelParams(g=0.5, g_eff=1.0, phi=0.0, n_particles=1), FermionConfig([0]), cutoff=49)),
    (("oracle-check", "--set", "cutoff=60", "--set", "n_levels=61"),
     lambda: oracle_spectrum(ModelParams(g=0.5, g_eff=1.0, phi=0.0, n_particles=1), FermionConfig([0]),
                             cutoff=60, n_levels=61)),
], ids=["m_max", "j_max", "tbjj-n_levels", "oracle-cutoff", "oracle-n_levels"])
def test_cli_limit_error_is_the_layers_error(tmp_path, capsys, args, layer):
    # each limit is checked once, in its layer, whether the CLI parse or the solver meets it
    with pytest.raises(ValueError) as exc:
        layer()
    out = tmp_path / "x.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == 2
    assert capsys.readouterr().err == f"fluxqm: error: {exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, error", [
    (("nonlinear", "--set", "n_particles=3", "--set", "scan_param=phi", "--set", "scan_min=-1"),
     "phi must be non-negative, got -1.0"),
    (("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "scan_param=eta", "--set", "scan_min=0"),
     "eta must be nonzero"),
], ids=["nonlinear", "tbjj"])
def test_invalid_first_scan_point_flags_only_its_row(tmp_path, args, error):
    out = tmp_path / "x.csv"
    code = run_cli(*args, "--set", "scan_max=1", "--set", "scan_steps=3", "--out", str(out), "--jobs", "1")
    assert code == 1
    _, header, rows = read_csv(out)
    status = [dict(zip(header, row))["status"] for row in rows]
    assert status[0].startswith(f"error: ValueError: {error}")
    assert status[1:] == ["ok", "ok"]


@pytest.mark.parametrize("args, error", [
    # m_max = 1 holds at most 3 of the 5 particles; m_max = 2 .. 6 hold them all
    (("phase-scan", "--set", "n_particles=5", "--set", "g=2", "--set", "scan_param=m_max",
      "--set", "scan_min=1", "--set", "scan_max=6", "--set", "scan_steps=6"),
     "m_max must satisfy 2*m_max+1 >= n_particles = 5, got 1"),
    # j_max = 6 exceeds n_electrons = 4 only; the scan runs 4, 6, 8, 10
    (("dirac-scan", "--set", "n_electrons=8", "--set", "j_max=6", "--set", "scan_param=n_electrons",
      "--set", "scan_min=4", "--set", "scan_max=10", "--set", "scan_steps=4"),
     "j_max must lie in [0, 4], got 6"),
], ids=["phase-scan", "dirac-scan"])
def test_out_of_range_scan_point_flags_only_its_row(tmp_path, args, error):
    out = tmp_path / "x.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == 1
    _, header, rows = read_csv(out)
    status = [dict(zip(header, row))["status"] for row in rows]
    assert status[0] == f"error: ValueError: {error}"
    assert set(status[1:]) == {"ok"} and len(status) > 2


@pytest.mark.parametrize("args", [
    ("spectrum", "--set", "orbitals=0,1", "--set", "phi=0.3", "--set", "scan_min=1"),
    ("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "scan_min=1"),
    # n_levels = 0 writes no level column at all
    ("nonlinear", "--set", "n_particles=3", "--set", "alpha4=0.1", "--set", "scan_min=0"),
], ids=["spectrum", "tbjj", "nonlinear"])
def test_scan_that_changes_the_columns_exits_two_before_any_row(tmp_path, capsys, monkeypatch, args):
    # the rows used to be written under the first point's columns, dropping the other points' levels
    no_rows(monkeypatch)
    out = tmp_path / "x.csv"
    code = run_cli(*args, "--set", "scan_param=n_levels", "--set", "scan_max=3", "--set", "scan_steps=3",
                   "--out", str(out), "--jobs", "1")
    assert code == 2
    assert "scanning 'n_levels' changes the output columns" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_scan_span_is_usage_error(tmp_path, capsys):
    # scan_max - scan_min overflows to inf, and the grid used to hold a NaN that was blamed on eta
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("spin-phase", "--set", "n_particles=3", "--set", "scan_param=eta",
                       "--set", "scan_min=-1e308", "--set", "scan_max=1e308", "--set", "scan_steps=5",
                       "--out", str(out))
    assert code == 2
    assert "scan_max - scan_min must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_dirac_coupling_flags_its_row(tmp_path):
    # eps0 * phi overflows to inf; the row used to read chi=inf, energy=nan, j_opt=0 and status=ok
    out = tmp_path / "x.csv"
    code = run_cli("dirac-scan", "--set", "n_electrons=3", "--set", "eps0=1e300", "--set", "phi=1e10",
                   "--out", str(out))
    assert code == 1
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["status"] == "error: ValueError: chi must be finite, got inf"
    assert row["chi"] == row["energy"] == row["j_opt"] == ""


def test_phase_scan_of_m_max_flags_only_its_oversized_windows(tmp_path):
    # m_max = 4 and 16 hold C(9, 5) and C(33, 5) = 237,336 configurations; from 28 on, C(57, 5) > 4,000,000
    out = tmp_path / "scan.csv"
    code = run_cli("phase-scan", "--set", "n_particles=5", "--set", "g=2", "--set", "phi=0.3",
                   "--set", "scan_param=m_max", "--set", "scan_min=4", "--set", "scan_max=100", "--set", "scan_steps=9",
                   "--out", str(out), "--jobs", "1")
    assert code == 1
    _, header, rows = read_csv(out)
    status = [r[header.index("status")] for r in rows]
    assert [r[header.index("m_max")] for r in rows] == [str(m) for m in range(4, 101, 12)]
    assert status[:2] == ["ok", "ok"]
    assert all(s.startswith("error: ValueError: m_max must keep the window's C(2*m_max+1, 5) configurations "
                            "at most 4,000,000, got ") for s in status[2:])


@pytest.mark.parametrize("sets, j_opt, phase", [
    # J = N - 2 N_minus has N's parity: these rows once read j_opt = 0, balanced, and j_opt = -7
    (["n_electrons=5", "phi=0.1"], -1, "balanced"),
    (["n_electrons=5", "phi=0.6"], -5, "polarized"),
    (["n_electrons=8", "j_max=7", "phi=0.6"], -6, "polarized"),
], ids=["odd-balanced", "odd-polarized", "even-odd-cap"])
def test_dirac_scan_visits_only_sectors_of_n_parity(tmp_path, sets, j_opt, phase):
    out = tmp_path / "dirac.csv"
    assert run_cli("dirac-scan", *(arg for key in sets for arg in ("--set", key)), "--out", str(out)) == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["status"], int(row["j_opt"]), row["phase"]) == ("ok", j_opt, phase)
    # <a> = -eps0 phi j_opt / hbar_omega, nonzero for a balanced odd-N ring too
    phi = float(dict(key.split("=") for key in sets)["phi"])
    assert float(row["displacement_a"]) == pytest.approx(-phi * j_opt, rel=1e-15)


def test_dirac_scan_of_n_electrons_caps_each_row_at_its_own_n(tmp_path):
    # with no j_max, each point's cutoff is its own N: a cutoff kept from the first point would cap every row at -2
    out = tmp_path / "dirac.csv"
    assert run_cli("dirac-scan", "--set", "phi=0.6", "--set", "scan_param=n_electrons", "--set", "scan_min=2",
                   "--set", "scan_max=12", "--set", "scan_steps=6", "--out", str(out), "--jobs", "1") == 0
    _, header, rows = read_csv(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert [(int(c["n_electrons"]), int(c["j_opt"]), c["phase"]) for c in cells] == [
        (n, -n, "polarized") for n in range(2, 13, 2)]


@pytest.mark.parametrize("command, sets", [
    ("spin-phase", ["n_particles=5", "phi=0.3", "scan_param=eta"]),
    ("dirac-scan", ["n_electrons=8", "d_eff=0.1", "scan_param=phi"]),
])
def test_scan_of_a_model_field_parses_only_its_first_and_last_points(tmp_path, monkeypatch, command, sets):
    # a cost guard in place of a timing test: every other point binds its value into the parsed model
    parse, calls = cli._COMMANDS[command].parse, []

    def counted(ps):
        calls.append(ps)
        return parse(ps)

    monkeypatch.setitem(cli._COMMANDS, command, replace(cli._COMMANDS[command], parse=counted))
    out = tmp_path / "scan.csv"
    assert run_cli(command, *(arg for key in sets for arg in ("--set", key)), "--set", "scan_min=0",
                   "--set", "scan_max=2", "--set", "scan_steps=2000", "--out", str(out), "--jobs", "1") == 0
    assert len(read_csv(out)[2]) == 2000
    assert len(calls) <= 2


@pytest.mark.parametrize("args, message", [
    # phi = 1e154 overflows the mode stiffness to inf; phase-scan and spin-phase once wrote NaN rows with status=ok
    (["spectrum", "--set", "orbitals=-1,0,1", "--set", "phi=1e154"], "beta must be finite, got inf"),
    (["phase-scan", "--set", "n_particles=3", "--set", "phi=1e154"], "beta must be finite, got inf"),
    (["spin-phase", "--set", "n_particles=3", "--set", "eta=1.0", "--set", "phi=1e154"],
     "beta must be finite, got inf"),
    # the closed forms below once wrote inf cells with status=ok: hbar_omega * D overflows in the dressed quantum ...
    (["spectrum", "--set", "orbitals=0", "--set", "hbar_omega=1e200"], "hbar_Omega must be finite, got inf"),
    (["phase-scan", "--set", "n_particles=3", "--set", "hbar_omega=1e200"], "hbar_Omega must be finite, got inf"),
    # ... the Zeeman term of the sector energy overflows ...
    (["spectrum", "--set", "orbitals=0,1", "--set", "spins=1,1", "--set", "eta=1e200"],
     "energy must be finite, got -inf"),
    # ... and D / hbar_omega overflows for a subnormal hbar_omega (var_x read 0.0)
    (["spectrum", "--set", "orbitals=0", "--set", "hbar_omega=1e-320", "--set", "phi=1"], "r must be finite, got inf"),
    # ... the Dirac cavity stiffness overflows (chi read 0.0), and so does eps0 N^2 / (4 g_d) ...
    (["dirac-scan", "--set", "n_electrons=8", "--set", "d_eff=1e300", "--set", "phi=1e5"],
     "mode_stiffness must be finite, got inf"),
    (["dirac-scan", "--set", "n_electrons=8", "--set", "eps0=1e308"], "energy must be finite, got inf"),
    # ... mm ss overflows while both Hessian eigenvalues are finite ...
    (["spin-phase", "--set", "n_particles=5", "--set", "g_eff=1e300"], "determinant must be finite, got inf"),
    # ... the Kerr curvature spacing over a subnormal hbar_omega overflows ...
    (["nonlinear", "--set", "n_particles=1", "--set", "g=1e300", "--set", "phi=1e4", "--set", "hbar_omega=1e-310"],
     "omega_ratio must be finite, got inf"),
    # ... and <a> = 8e155 squares to inf in the Dirac photon number
    (["dirac-scan", "--set", "n_electrons=8", "--set", "phi=1e145", "--set", "hbar_omega=1e-10"],
     "photon_number must be finite, got inf"),
], ids=["spectrum", "phase-scan", "spin-phase", "spectrum-dressed-quantum", "phase-scan-dressed-quantum",
        "spectrum-zeeman-energy", "spectrum-squeeze", "dirac-mode-stiffness", "dirac-energy", "spin-determinant",
        "nonlinear-omega-ratio", "dirac-photon-number"])
def test_overflowing_mode_stiffness_flags_its_row(tmp_path, args, message):
    out = tmp_path / "overflow.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == 1
    _, header, rows = read_csv(out)
    assert rows[0][header.index("status")] == f"error: ValueError: {message}"
    assert set(rows[0][:-1]) == {""}  # no cell holds inf


@pytest.mark.parametrize("args, code, message", [
    (["nonlinear", "--set", "n_particles=3", "--set", "phi=1e160"], 2,
     "b_coef must be finite, but 1e+160**2 overflows"),
    # x0 = 3.08e160 needs no square at alpha4 = 0, but v_eff does; this exited 2 with "(34, ...)"
    (["nonlinear", "--set", "n_particles=3", "--set", "hbar_omega=1e-320", "--set", "phi=1e-160",
      "--set", "m_total=10"], 1, "v_eff must be finite, but 3.076957332126948e+160**2 overflows"),
    # at alpha4 > 0 the root itself squares x_h = 3.08e160; this exited 2 with "(34, ...)" too
    (["nonlinear", "--set", "n_particles=3", "--set", "hbar_omega=1e-320", "--set", "phi=1e-160",
      "--set", "m_total=10", "--set", "alpha4=0.05"], 2, "x0 must be finite, but 3.076957332126948e+160**2 overflows"),
    (["spin-phase", "--set", "n_particles=3", "--set", "phi=1e160", "--set", "eta=1"], 1,
     "beta must be finite, but 1e+160**2 overflows"),
    (["spin-phase", "--set", "n_particles=3", "--set", "eta=1e200"], 1, "ss must be finite, but 1e+200**2 overflows"),
    (["phase-scan", "--set", "n_particles=3", "--set", "g=1e200", "--set", "phi=1"], 1,
     "chi must be finite, but 1e+200**2 overflows"),
    (["phase-scan", "--set", "n_particles=5", "--set", "g=2", "--set", "phi=1e-155", "--set", "hbar_omega=1e-320"], 1,
     "photon_number must be finite, but -2.9999999999925097e+155**2 overflows"),
    (["dirac-scan", "--set", "n_electrons=4", "--set", "eps0=1e200", "--set", "phi=1"], 1,
     "chi must be finite, but 1e+200**2 overflows"),
    (["tbjj", "--set", "m_sites=6", "--set", "occupied=0", "--set", "eta=1e160"], 2,
     "e_l must be finite, but 1e+160**2 overflows"),
    # eta^2 underflows to 0, and hbar_omega / eta^2 once failed with "float division by zero"
    (["tbjj", "--set", "m_sites=6", "--set", "occupied=0", "--set", "eta=1e-170"], 2,
     "e_l must be finite, but 1e-170**2 underflows to 0"),
], ids=["nonlinear", "nonlinear-v_eff", "nonlinear-x0", "spin-phase-phi", "spin-phase-eta", "phase-scan",
        "phase-scan-photon-number", "dirac-scan", "tbjj-eta-huge", "tbjj-eta-tiny"])
def test_overflowing_square_names_its_quantity(tmp_path, capsys, args, code, message):
    # float ** raises OverflowError where * gives inf; these once reported "(34, 'Numerical result out of range')"
    out = tmp_path / "overflow.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == code
    if code == 2:  # the fixed point fails in the parse, so no point can run
        assert capsys.readouterr().err == f"fluxqm: error: {message}\n"
        assert not out.exists()
    else:
        _, header, rows = read_csv(out)
        assert rows[0][header.index("status")] == f"error: ValueError: {message}"


@pytest.mark.parametrize("args, expected", [
    # hbar_omega * D is subnormal at 1e-160 and 0 at 1e-170: omega_dressed read 9.99994e-161 and 0.0, e1 -5e-171
    (["spectrum", "--set", "orbitals=0", "--set", "n_levels=2", "--set", "hbar_omega=1e-160"],
     {"omega_dressed": 1e-160, "e1": 1e-160}),
    (["spectrum", "--set", "orbitals=0", "--set", "n_levels=2", "--set", "hbar_omega=1e-170"],
     {"omega_dressed": 1e-170, "e1": 1e-170}),
    # 4 sqrt(A B_eff) likewise: omega_ratio read 1.00197 and 0.0
    (["nonlinear", "--set", "n_particles=3", "--set", "hbar_omega=1e-160"], {"omega_ratio": 1.0}),
    (["nonlinear", "--set", "n_particles=3", "--set", "hbar_omega=1e-170"], {"omega_ratio": 1.0}),
    # alpha4 x0^4 overflowed at x0 = 4e141 although alpha4 = 0 zeroes it
    (["nonlinear", "--set", "n_particles=3", "--set", "hbar_omega=1e-300", "--set", "phi=1e-160",
      "--set", "m_total=10"], {"x0": 4e141, "v_eff": -4e-18, "omega_ratio": 1.0}),
], ids=["spectrum-subnormal", "spectrum-zero", "nonlinear-subnormal", "nonlinear-zero", "nonlinear-huge-x0"])
def test_tiny_quantum_writes_its_closed_forms(tmp_path, args, expected):
    out = tmp_path / "tiny.csv"
    assert run_cli(*args, "--out", str(out), "--jobs", "1") == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["status"] == "ok"
    for key, value in expected.items():
        assert float(row[key]) == pytest.approx(value, rel=1e-15, abs=0.0), key


@pytest.mark.parametrize("args", [
    ["--set", "phi=1e160", "--set", "scan_param=eta"],
    ["--set", "eta=1e200", "--set", "g_eff=2", "--set", "scan_param=phi"],
], ids=["eta-axis", "phi-axis"])
def test_threshold_whose_square_overflows_writes_no_closed_form(tmp_path, args):
    # the threshold's OverflowError once ended the run with exit 1 and no file
    out = tmp_path / "scan.csv"
    code = run_cli("spin-phase", "--set", "n_particles=3", *args, "--set", "scan_min=0", "--set", "scan_max=1",
                   "--set", "scan_steps=2", "--out", str(out), "--jobs", "1")
    assert code == 1
    comments, header, rows = read_csv(out)
    assert len(rows) == 2 and all(row[header.index("status")].startswith("error: ValueError: ") for row in rows)
    assert [line for line in comments if "closed_form" in line] == []


def test_csv_and_json_write_the_same_rows(tmp_path):
    # row 0 (phi = -1) is flagged, so its cells are empty in CSV and null in JSON
    args = ["nonlinear", "--set", "n_particles=3", "--set", "alpha4=0.05", "--set", "n_levels=2",
            "--set", "scan_param=phi", "--set", "scan_min=-1", "--set", "scan_max=1",
            "--set", "scan_steps=3", "--jobs", "1"]
    csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
    code = run_cli(*args, "--out", str(csv_out))
    assert run_cli(*args, "--format", "json", "--out", str(json_out)) == code == 1
    _, header, csv_rows = read_csv(csv_out)
    doc = json.loads(json_out.read_text())
    assert [c["name"] for c in doc["meta"]["columns"]] == header
    assert len(doc["rows"]) == len(csv_rows) == 3
    for csv_row, json_row in zip(csv_rows, doc["rows"]):
        assert list(json_row) == header
        assert csv_row == [cli._format_cell(value) for value in json_row.values()]
    assert doc["rows"][0]["x0"] is None and csv_rows[0][header.index("x0")] == ""


def test_non_finite_cells_are_valid_json(tmp_path):
    # g_eff D / N = 4 g^2 phi^2 here, so locking_ratio is a signed infinity
    args = ["spin-phase", "--set", "n_particles=1", "--set", "g=1.0", "--set", "g_eff=0.5",
            "--set", "eta=0.3", "--set", "phi=0.5", "--jobs", "1"]
    csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert run_cli(*args, "--out", str(csv_out)) == 0
    assert run_cli(*args, "--format", "json", "--out", str(json_out)) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads(json_out.read_text(), parse_constant=reject)
    assert doc["rows"][0]["locking_ratio"] == "inf"
    _, header, csv_rows = read_csv(csv_out)
    assert csv_rows[0][header.index("locking_ratio")] == "inf"
    assert csv_rows[0] == [cli._format_cell(value) for value in doc["rows"][0].values()]


def test_unknown_command_is_usage_error(tmp_path):
    assert run_cli("frobnicate", "--out", str(tmp_path / "x.csv")) == 2


def test_spectrum_row_matches_api(tmp_path):
    out = tmp_path / "spectrum.csv"
    for spins, eta in ((None, 0.0), ((1, 1, -1), 0.3)):
        spin_args = ("--set", f"spins={','.join(map(str, spins))}", "--set", f"eta={eta}") if spins else ()
        code = run_cli("spectrum", "--set", "orbitals=-1,0,1", "--set", "g=0.6",
                       "--set", "g_eff=0.8", "--set", "phi=0.9", "--set", "n_levels=3", *spin_args,
                       "--out", str(out), "--jobs", "1")
        assert code == 0
        comments, header, rows = read_csv(out)
        assert "# schema_version = 1" in comments
        assert any(c.startswith("# column omega_dressed:") for c in comments)
        assert len(rows) == 1
        p = ModelParams(g=0.6, g_eff=0.8, phi=0.9, n_particles=3, eta=eta)
        cfg = FermionConfig([-1, 0, 1], spins)
        expected = {
            "omega_dressed": dressed_frequency(p),
            "chi": induced_coupling(p),
            "squeeze_r": squeeze_parameter(p),
            "var_x": quadrature_variances(p)[0],
            **{f"e{k}": sector_energy(p, cfg, k) for k in range(3)},
        }
        # every cell, bit for bit: the CSV writes repr(float), which round-trips
        assert header == [*expected, "status"]
        assert [float(cell) for cell in rows[0][:-1]] == list(expected.values()), spins
        assert rows[0][-1] == "ok"


def test_spinful_spectrum_equals_the_oracle_levels(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = run_cli("spectrum", "--set", "orbitals=-1,0,1", "--set", "spins=1,1,-1",
                   "--set", "phi=0.4", "--set", "eta=0.3", "--set", "n_levels=3",
                   "--out", str(out), "--jobs", "1")
    assert code == 0
    comments, header, rows = read_csv(out)
    assert "# column e0: sector level 0 (photon index 0)" in comments
    row = dict(zip(header, rows[0]))
    p = ModelParams(g=1.0, g_eff=1.0, phi=0.4, n_particles=3, eta=0.3)
    report = oracle_spectrum(p, FermionConfig([-1, 0, 1], spins=[1, 1, -1]), n_levels=3)
    assert report.converged
    for k, level in enumerate(report.levels):
        assert float(row[f"e{k}"]) == pytest.approx(level, rel=1e-8, abs=1e-8)


_PHI_C = critical_flux(ModelParams(g=2.0, g_eff=1.0, phi=0.0, n_particles=3))


@pytest.mark.parametrize("m_max, scan_max, steps", [
    (5, 2 * _PHI_C, 101),
    (6, 0.5, 400),  # the README example
], ids=["twice-phi_c", "readme"])
def test_phase_scan_bracket_contains_closed_form(tmp_path, m_max, scan_max, steps):
    out = tmp_path / "scan.csv"
    code = run_cli("phase-scan", "--set", "n_particles=3", "--set", "g=2.0", "--set", "g_eff=1.0",
                   "--set", f"m_max={m_max}", "--set", "scan_param=phi",
                   "--set", "scan_min=0", "--set", f"scan_max={scan_max}",
                   "--set", f"scan_steps={steps}", "--out", str(out), "--jobs", "1")
    assert code == 0
    comments, header, rows = read_csv(out)
    summary = read_summary(comments)
    lo, hi = float(summary["jump_phi_low"]), float(summary["jump_phi_high"])
    assert lo <= _PHI_C <= hi
    assert hi - lo == pytest.approx(scan_max / (steps - 1), rel=1e-9)
    assert float(summary["phi_c_closed_form"]) == _PHI_C


@pytest.mark.parametrize("axis, fixed, threshold, other", [
    ("eta", ("phi", 0.4), critical_eta, "phi"),
    ("phi", ("eta", 2.0), critical_flux_spin, "eta"),
], ids=["eta", "phi"])
def test_spin_phase_bracket_contains_closed_form_at_unequal_couplings(tmp_path, axis, fixed, threshold, other):
    out = tmp_path / "scan.csv"
    key, value = fixed
    x_c = threshold(ModelParams(**{"g": 1.0, "g_eff": 1.6, "phi": 0.0, "n_particles": 5, key: value}))
    code = run_cli("spin-phase", "--set", "n_particles=5", "--set", "g=1.0", "--set", "g_eff=1.6",
                   "--set", f"{key}={value}", "--set", f"scan_param={axis}", "--set", "scan_min=0",
                   "--set", f"scan_max={2 * x_c}", "--set", "scan_steps=101", "--out", str(out), "--jobs", "1")
    assert code == 0
    summary = read_summary(read_csv(out)[0])
    assert summary["jump_column"] == "stable"
    assert float(summary[f"jump_{axis}_low"]) <= x_c <= float(summary[f"jump_{axis}_high"])
    assert float(summary[f"{axis}_c_closed_form"]) == x_c
    assert f"{other}_c_closed_form" not in summary


def test_summary_brackets_the_first_change_of_its_jump_column(tmp_path, monkeypatch):
    # stable only for |eta| < eta_c = 1, so an eta scan across zero changes `stable` twice; the flagged
    # row at eta = 0 lies between the two changes
    hessian = cli.spinorbit.hessian

    def hessian_failing_at_zero(p):
        if abs(p.eta) < 1e-9:  # the middle grid point, -1.8 + 3 * 0.6
            raise ValueError("planted failure")
        return hessian(p)

    monkeypatch.setattr(cli.spinorbit, "hessian", hessian_failing_at_zero)
    out = tmp_path / "scan.csv"
    code = run_cli("spin-phase", "--set", "n_particles=4", "--set", "scan_param=eta", "--set", "scan_min=-1.8",
                   "--set", "scan_max=1.8", "--set", "scan_steps=7", "--out", str(out), "--jobs", "1")
    assert code == 1
    comments, header, rows = read_csv(out)
    assert [r[header.index("stable")] for r in rows] == ["false", "false", "true", "", "true", "false", "false"]
    summary = read_summary(comments)
    assert summary["jump_column"] == "stable"
    assert float(summary["jump_eta_low"]) == pytest.approx(-1.2)
    assert float(summary["jump_eta_high"]) == pytest.approx(-0.6)


@pytest.mark.parametrize("args", [
    ["phase-scan", "--set", "n_particles=3", "--set", "g=2", "--set", "scan_param=g_eff"],
    ["dirac-scan", "--set", "n_electrons=8", "--set", "scan_param=eps0"],
    ["spin-phase", "--set", "n_particles=3", "--set", "g_eff=1.6", "--set", "phi=0.4", "--set", "scan_param=g"],
], ids=["phase-scan", "dirac-scan", "spin-phase"])
def test_closed_forms_are_written_only_on_their_own_axis(tmp_path, args):
    # each threshold depends on the scanned key here, so the first point's value would not hold at the others
    out = tmp_path / "scan.csv"
    code = run_cli(*args, "--set", "scan_min=0.5", "--set", "scan_max=1.5", "--set", "scan_steps=5",
                   "--out", str(out), "--jobs", "1")
    assert code == 0
    comments, _, rows = read_csv(out)
    assert len(rows) == 5
    assert [key for key in read_summary(comments) if key.endswith("_c_closed_form")] == []


@pytest.mark.parametrize("args", [
    ["phase-scan", "--set", "n_particles=3", "--set", "g=1.0", "--set", "g_eff=1.5"],
    # 2 D_eff = 4 = 4 g_d eps0: the stiffness-saturated coupling never reaches the branch stiffness
    ["dirac-scan", "--set", "n_electrons=8", "--set", "degeneracy=1", "--set", "d_eff=2.0"],
    # phi_c exists but floats cannot hold it: 4 g N (g - g_eff) underflows to 0 ...
    ["phase-scan", "--set", "n_particles=3", "--set", "g=1e-300", "--set", "g_eff=5e-301"],
    # ... or hbar_omega / (4 g_d eps0) overflows to inf before the square root
    ["dirac-scan", "--set", "n_electrons=8", "--set", "eps0=1e-320"],
    # ... or N^2 g (g_eff - g) underflows to 0, while its sign says eta = 2 drives a transition
    ["spin-phase", "--set", "n_particles=3", "--set", "g=1e-300", "--set", "g_eff=2e-300", "--set", "eta=2.0"],
    # ... or g_eff hbar_omega underflows to 0, so the root is 0.0, not phi_c ~ 2.5e-166
    ["phase-scan", "--set", "n_particles=1", "--set", "g=2", "--set", "g_eff=1e-300", "--set", "hbar_omega=1e-30"],
], ids=["phase-scan", "dirac-scan", "phase-scan-underflow", "dirac-scan-overflow", "spin-phase-underflow",
        "phase-scan-root-underflow"])
def test_phi_axis_without_a_transition_writes_no_closed_form(tmp_path, args):
    out = tmp_path / "scan.csv"
    code = run_cli(*args, "--set", "scan_param=phi", "--set", "scan_min=0", "--set", "scan_max=2",
                   "--set", "scan_steps=5", "--out", str(out), "--jobs", "1")
    assert code == 0
    comments, _, rows = read_csv(out)
    assert len(rows) == 5
    assert [line for line in comments if line.startswith("# summary phi_c_closed_form")] == []


def test_json_output_structure(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli("spin-phase", "--set", "n_particles=4", "--set", "phi=0.5",
                   "--set", "scan_param=eta", "--set", "scan_min=0",
                   "--set", "scan_max=2.0", "--set", "scan_steps=21",
                   "--format", "json", "--out", str(out), "--jobs", "1")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["schema_version"] == 1
    assert doc["meta"]["command"] == "spin-phase"
    assert doc["meta"]["scan"]["steps"] == 21
    assert len(doc["rows"]) == 21
    names = {c["name"] for c in doc["meta"]["columns"]}
    assert {"eta", "determinant", "stable", "status"} <= names
    # g = g_eff = 1: stability flips at eta_c = sqrt(g N hw)/2 = 1
    flips = [
        (a["eta"], b["eta"])
        for a, b in zip(doc["rows"], doc["rows"][1:])
        if a["stable"] != b["stable"]
    ]
    assert len(flips) == 1
    assert flips[0][0] <= 1.0 <= flips[0][1]


def test_failed_points_flag_rows_and_exit_one(tmp_path, monkeypatch):
    # a single basis cutoff gives the refinement nothing to compare, so every row's levels fail to converge
    monkeypatch.setattr(cli.gridsolve, "_FOCK_MAX_CUTOFF", cli.gridsolve._FOCK_FIRST_CUTOFF)
    out = tmp_path / "bad.csv"
    code = run_cli("nonlinear", "--set", "n_particles=5", "--set", "g=0.2",
                   "--set", "phi=0.5", "--set", "alpha4=0.1", "--set", "n_levels=2",
                   "--set", "scan_param=m_total", "--set", "scan_min=0",
                   "--set", "scan_max=2", "--set", "scan_steps=3",
                   "--out", str(out), "--jobs", "1")
    assert code == 1
    _, header, rows = read_csv(out)
    status_idx = header.index("status")
    assert len(rows) == 3
    assert all(r[status_idx].startswith("error: ConvergenceError: anharmonic levels not converged") for r in rows)


def test_wrong_length_row_fails_the_run_and_writes_no_file(tmp_path, monkeypatch, capsys):
    # a row one cell short would write its cells under the wrong columns with status=ok and exit 0
    parse = cli._COMMANDS["dirac-scan"].parse

    def short_parse(ps):
        point = parse(ps)
        return point._replace(row=lambda p: point.row(p)[:-1])

    monkeypatch.setitem(cli._COMMANDS, "dirac-scan", replace(cli._COMMANDS["dirac-scan"], parse=short_parse))
    out = tmp_path / "dirac.csv"
    code = run_cli("dirac-scan", "--set", "n_electrons=8", "--set", "scan_param=phi", "--set", "scan_min=0",
                   "--set", "scan_max=1", "--set", "scan_steps=3", "--out", str(out), "--jobs", "1")
    assert code == 1
    assert not out.exists()
    assert "dirac-scan row has 6 cells for its 7 columns" in capsys.readouterr().err


def test_oracle_check_default_suite_passes(tmp_path):
    out = tmp_path / "oracle.csv"
    assert run_cli("oracle-check", "--out", str(out), "--jobs", "1") == 0
    _, header, rows = read_csv(out)
    passed_idx = header.index("passed")
    assert rows and all(r[passed_idx] == "true" for r in rows)


def test_oracle_check_flags_unconverged_cutoff(tmp_path, monkeypatch):
    # no level change passes a zero threshold, so every row fails its own cutoff check
    monkeypatch.setattr(cli.oracle, "_RTOL", 0.0)
    out = tmp_path / "oracle.csv"
    assert run_cli("oracle-check", "--set", "cutoff=60", "--out", str(out), "--jobs", "1") == 1
    _, header, rows = read_csv(out)
    passed_idx = header.index("passed")
    assert rows and all(r[passed_idx] == "false" for r in rows)


def test_oracle_check_fails_the_cases_unconverged_at_the_minimum_cutoff(tmp_path):
    # at cutoff 50 every analytic error is at most 7e-15, but doubling the cutoff moves cases 11, 15 and 19
    # by 8.1e-8, 9.4e-6 and 2.5e-6 relative: above the 1e-9 rule and below 1e-4, so convergence alone fails them
    out = tmp_path / "oracle.csv"
    assert run_cli("oracle-check", "--set", "cutoff=50", "--out", str(out), "--jobs", "1") == 1
    _, header, rows = read_csv(out)
    case, error, passed = (header.index(name) for name in ("case", "max_rel_error", "passed"))
    assert [int(r[case]) for r in rows if r[passed] == "false"] == [11, 15, 19]
    assert all(r[-1] == "ok" and float(r[error]) <= 7e-15 for r in rows)


def test_oracle_check_rejects_scan(tmp_path):
    code = run_cli("oracle-check", "--set", "scan_param=tol", "--set", "scan_min=0",
                   "--set", "scan_max=1", "--set", "scan_steps=2",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_oracle_check_rejects_case(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("oracle-check", "--set", "case=3", "--out", str(out), "--jobs", "1") == 2
    assert not out.exists()


def test_config_file_with_set_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# three-particle scan\n"
        "n_particles = 3\n"
        "g = 2.0\n"
        "g_eff = 1.0\n"
        "m_max = 4\n"
        "phi = 0.1\n"
    )
    out = tmp_path / "out.csv"
    code = run_cli("phase-scan", "--config", str(cfg), "--set", "phi=0.0",
                   "--out", str(out), "--jobs", "1")
    assert code == 0
    comments, header, rows = read_csv(out)
    assert "# param phi = 0.0" in comments  # override wins
    row = dict(zip(header, rows[0]))
    assert row["phase"] == "balanced"


def test_tbjj_row_matches_api(tmp_path):
    out = tmp_path / "tb.csv"
    code = run_cli("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1",
                   "--set", "t=1.0", "--set", "eta=1.0", "--set", "n_levels=3",
                   "--out", str(out), "--jobs", "1")
    assert code == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    sector = sector_constants([0, 1], 6)
    squid = rf_squid_map(sector, 1.0, 1.0, 1.0)
    assert float(row["e_j"]) == squid.e_j
    assert float(row["beta_ratio"]) == squid.beta_ratio
    fock = sector_spectrum_fock(sector, 1.0, 1.0, 1.0, n_levels=3)
    assert float(row["fock_e2"]) == pytest.approx(float(fock[2]), rel=1e-12)


def test_tbjj_dual_solver_columns(tmp_path):
    out = tmp_path / "tb2.csv"
    code = run_cli("tbjj", "--set", "m_sites=6", "--set", "occupied=0",
                   "--set", "t=0.5", "--set", "eta=0.8", "--set", "n_levels=2",
                   "--set", "solver=both", "--out", str(out), "--jobs", "1")
    assert code == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    # the two routes agree once the quadrature zero point is removed
    assert float(row["xrep_e0"]) - 0.5 == pytest.approx(float(row["fock_e0"]), abs=1e-5)


def test_tbjj_levels_are_even_in_eta(tmp_path):
    # parity x -> -x maps H(-eta) onto H(eta): both solvers give the same levels at -eta
    lines = {}
    for eta in ("0.7", "-0.7"):
        out = tmp_path / f"eta{eta}.csv"
        code = run_cli("tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", f"eta={eta}",
                       "--set", "solver=both", "--set", "n_levels=3", "--set", "scan_param=t",
                       "--set", "scan_min=0.2", "--set", "scan_max=1.0", "--set", "scan_steps=3",
                       "--out", str(out), "--jobs", "1")
        assert code == 0
        lines[eta] = out.read_text().splitlines()
    assert len(lines["0.7"]) == len(lines["-0.7"])
    differing = [(a, b) for a, b in zip(lines["0.7"], lines["-0.7"]) if a != b]
    assert differing == [("# param eta = 0.7", "# param eta = -0.7")]


@pytest.mark.parametrize("args", [
    # closed form: runs in the main process for any --jobs
    ["dirac-scan", "--set", "n_electrons=8", "--set", "d_eff=0.05",
     "--set", "scan_param=phi", "--set", "scan_min=0",
     "--set", "scan_max=0.6", "--set", "scan_steps=25"],
    # diagonalises: --jobs 3 runs the worker pool
    ["nonlinear", "--set", "n_particles=5", "--set", "g=0.2", "--set", "g_eff=0.2",
     "--set", "phi=0.5", "--set", "alpha4=0.05", "--set", "n_levels=2",
     "--set", "scan_param=m_total", "--set", "scan_min=-3",
     "--set", "scan_max=3", "--set", "scan_steps=7"],
    ["tbjj", "--set", "m_sites=6", "--set", "occupied=0,1", "--set", "t=0.5",
     "--set", "solver=both", "--set", "n_levels=2",
     "--set", "scan_param=eta", "--set", "scan_min=0.6", "--set", "scan_max=1.4", "--set", "scan_steps=3"],
    # the shipped suite of oracle-check
    ["oracle-check"],
    ["tbjj", "--set", "m_sites=6", "--set", "occupied=0", "--set", "eta=0.8", "--set", "n_levels=2",
     "--set", "scan_param=t", "--set", "scan_min=0.2", "--set", "scan_max=0.6", "--set", "scan_steps=4",
     "--format", "json"],
    # an integer axis through the pool
    ["nonlinear", "--set", "g=0.2", "--set", "g_eff=0.2", "--set", "phi=0.5", "--set", "alpha4=0.05",
     "--set", "n_levels=2", "--set", "scan_param=n_particles", "--set", "scan_min=3",
     "--set", "scan_max=6", "--set", "scan_steps=4", "--format", "json"],
], ids=["dirac-scan", "nonlinear", "tbjj", "oracle-check", "tbjj-json", "nonlinear-n_particles"])
def test_worker_count_does_not_change_bytes(tmp_path, args):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1), "--jobs", "1") == 0
    assert run_cli(*args, "--out", str(out2), "--jobs", "3") == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, args, key", [
    ("phase-scan", [], "n_particles"),
    ("phase-scan", ["--set", "n_particles=7"], "m_max"),  # from 3: m_max = 2 holds 5 of the 7 and would flag its row
    ("spin-phase", [], "n_particles"),
    ("dirac-scan", [], "n_electrons"),
    ("dirac-scan", ["--set", "n_electrons=8"], "j_max"),
    # rows that diagonalise, run by the worker pool
    ("nonlinear", ["--set", "g=0.2", "--set", "phi=0.5", "--set", "alpha4=0.05", "--set", "n_levels=1"],
     "n_particles"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_integer_scan_axis_follows_the_parse(tmp_path, command, args, key, fmt):
    # 2.6 .. 7.4 in three steps rounds to 3, 5, 7: the parse reads the key as an integer
    out = tmp_path / f"int.{fmt}"
    code = run_cli(command, *args, "--set", f"scan_param={key}", "--set", "scan_min=2.6",
                   "--set", "scan_max=7.4", "--set", "scan_steps=3", "--format", fmt,
                   "--out", str(out), "--jobs", "2")
    assert code == 0
    if fmt == "csv":
        comments, header, rows = read_csv(out)
        assert f"# scan {key}: 3 .. 7, 3 points" in comments
        assert [row[header.index(key)] for row in rows] == ["3", "5", "7"]
    else:
        doc = json.loads(out.read_text())
        assert doc["meta"]["scan"] == {"param": key, "min": 3, "max": 7, "steps": 3}
        cells = [row[key] for row in doc["rows"]]
        assert cells == [3, 5, 7] and all(type(v) is int for v in cells)


def test_fixed_integer_parameter_must_be_written_as_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli("phase-scan", "--set", "n_particles=3.0", "--out", str(out)) == 2
    assert "parameter 'n_particles' must be an integer, got '3.0'" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fluxqm", "spectrum", "--set", "orbitals=0",
         "--set", "n_levels=2", "--out", str(out)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
