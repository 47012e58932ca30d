"""What ``fluxqm`` imports at start-up and before its worker pool forks, and the names it exports.

pytest itself loads scipy, so every import check runs in a fresh interpreter.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
LAYERS = ("cli", "phases", "spinorbit", "diracring", "linearmode", "kerr", "oracle", "tbring", "gridsolve")


# the layers whose __all__ the package namespace re-exports
EXPORTING_LAYERS = ("core", "diracring", "kerr", "linearmode", "oracle", "phases", "spinorbit", "tbring")


def test_package_exports_exactly_the_layers_all_and_the_errors():
    import fluxqm

    public = {name for name, value in vars(fluxqm).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    layers = [importlib.import_module(f"fluxqm.{layer}") for layer in EXPORTING_LAYERS]
    declared = {name for layer in layers for name in layer.__all__}
    assert public == declared | {"ConvergenceError", "GridDomainError", "NoTransitionError"}
    for layer in layers:
        assert all(getattr(fluxqm, name) is getattr(layer, name) for name in layer.__all__)


def run_python(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        cwd=cwd,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_every_layer_and_no_numpy_scipy_or_pool(tmp_path):
    # the layers import numpy and scipy inside the functions that use them, and run() the pool
    loaded = run_python(
        "import json, sys, fluxqm.cli; print(json.dumps(sorted(sys.modules)))", tmp_path
    )
    assert [name for name in loaded if name.startswith(("numpy", "scipy", "concurrent.futures.process"))] == []
    assert [layer for layer in LAYERS if f"fluxqm.{layer}" not in loaded] == []


# Commands whose rows only evaluate closed forms, each a 3-point scan; nonlinear
# diagonalises only when n_levels > 0.
_CLOSED_FORM = {
    "nonlinear": ["--set", "n_particles=5", "--set", "g=0.2", "--set", "phi=0.5", "--set", "alpha4=0.05",
                  "--set", "scan_param=m_total", "--set", "scan_min=0", "--set", "scan_max=2", "--set", "scan_steps=3"],
    "phase-scan": ["--set", "n_particles=3", "--set", "g=2.0", "--set", "scan_param=phi",
                   "--set", "scan_min=0.0", "--set", "scan_max=1.0", "--set", "scan_steps=3"],
    "spin-phase": ["--set", "n_particles=4", "--set", "eta=0.3", "--set", "scan_param=phi",
                   "--set", "scan_min=0.0", "--set", "scan_max=0.5", "--set", "scan_steps=3"],
    "dirac-scan": ["--set", "n_electrons=8", "--set", "scan_param=phi",
                   "--set", "scan_min=0.0", "--set", "scan_max=1.0", "--set", "scan_steps=3"],
    "spectrum": ["--set", "orbitals=0,1", "--set", "n_levels=3", "--set", "scan_param=phi",
                 "--set", "scan_min=0.0", "--set", "scan_max=0.5", "--set", "scan_steps=3"],
}


def run_without(package, argv, cwd):
    """Run the CLI with ``package`` blocked, so an import of it here or in a forked worker fails the row."""
    return run_python(
        "import json, sys\n"
        f"sys.modules[{package!r}] = None\n"
        "from fluxqm import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(json.dumps({{'code': code, {package!r}: sorted(m for m in sys.modules if m.startswith({package + '.'!r}))}}))",
        cwd,
    )


# scipy cannot load without numpy, so only phase-scan, which loads numpy, needs its own scipy check.
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["phase-scan"])
def test_closed_form_commands_never_load_scipy(tmp_path, command, jobs):
    argv = [command, *_CLOSED_FORM[command], "--out", "out.csv", "--jobs", jobs]
    result = run_without("scipy", argv, tmp_path)
    assert result == {"code": 0, "scipy": []}, (tmp_path / "out.csv").read_text()


# phase-scan enumerates its orbital window into a numpy table; the other closed forms are pure Python.
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(set(_CLOSED_FORM) - {"phase-scan"}))
def test_closed_form_commands_never_load_numpy(tmp_path, command, jobs):
    argv = [command, *_CLOSED_FORM[command], "--out", "out.csv", "--jobs", jobs]
    result = run_without("numpy", argv, tmp_path)
    assert result == {"code": 0, "numpy": []}, (tmp_path / "out.csv").read_text()


def run_recording_pool(argv, cwd):
    """Run the CLI, noting each pool's max_workers and which of numpy and scipy.linalg were loaded when it was built."""
    return run_python(
        "import concurrent.futures, json, sys\n"
        "from fluxqm import cli\n"
        "seen = []\n"
        "pool = concurrent.futures.ProcessPoolExecutor\n"
        "def recording_pool(*args, **kwargs):\n"
        "    seen.append({'loaded': [m for m in ('numpy', 'scipy.linalg') if m in sys.modules],\n"
        "                 'max_workers': kwargs['max_workers']})\n"
        "    return pool(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = recording_pool  # where cli.run imports it from\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'seen': seen}))",
        cwd,
    )


@pytest.mark.parametrize("command", sorted(_CLOSED_FORM))
def test_closed_form_commands_run_without_a_pool(tmp_path, command):
    argv = [command, *_CLOSED_FORM[command], "--out", "out.csv", "--jobs", "2"]
    result = run_recording_pool(argv, tmp_path)
    assert result == {"code": 0, "seen": []}, (tmp_path / "out.csv").read_text()


_NONLINEAR = ["--set", "n_particles=5", "--set", "g=0.2", "--set", "g_eff=0.2", "--set", "phi=0.5",
              "--set", "alpha4=0.05", "--set", "n_levels=2", "--set", "scan_param=m_total",
              "--set", "scan_min=0", "--set", "scan_max=1", "--set", "scan_steps=2"]
_TBJJ = ["--set", "m_sites=6", "--set", "occupied=0,1", "--set", "n_levels=2",
         "--set", "scan_param=t", "--set", "scan_min=0.5", "--set", "scan_max=1.0", "--set", "scan_steps=2"]


# Dense Fock-basis levels come from numpy, and solver=both adds the DVR grid solve; at --jobs 1 the rows
# run in the main process, and at --jobs 2 a scipy import in a forked worker flags its row, so the run exits 1.
@pytest.mark.parametrize(("command", "argv", "jobs"), [
    pytest.param("nonlinear", _NONLINEAR, "1", id="nonlinear-1"),
    pytest.param("nonlinear", _NONLINEAR, "2", id="nonlinear-2"),
    pytest.param("tbjj", [*_TBJJ, "--set", "solver=fock"], "2", id="tbjj-2"),
    pytest.param("tbjj", [*_TBJJ, "--set", "solver=both"], "1", id="tbjj-both-1"),
    pytest.param("tbjj", [*_TBJJ, "--set", "solver=both"], "2", id="tbjj-both-2"),
])
def test_diagonalising_rows_never_load_scipy(tmp_path, command, argv, jobs):
    result = run_without("scipy", [command, *argv, "--out", "out.csv", "--jobs", jobs], tmp_path)
    assert result == {"code": 0, "scipy": []}, (tmp_path / "out.csv").read_text()


# Only oracle-check's rows load scipy (eig_banded), so only its pool imports scipy.linalg before forking.
_LOADS_SCIPY = {"oracle-check": ["--set", "n_levels=2"]}


@pytest.mark.parametrize("command", sorted(_LOADS_SCIPY))
def test_diagonalising_commands_import_scipy_linalg_before_the_pool(tmp_path, command):
    argv = [command, *_LOADS_SCIPY[command], "--out", "out.csv", "--jobs", "2"]
    result = run_recording_pool(argv, tmp_path)
    expected = [{"loaded": ["numpy", "scipy.linalg"], "max_workers": 2}]
    assert result == {"code": 0, "seen": expected}, (tmp_path / "out.csv").read_text()


# tbjj, and nonlinear with n_levels > 0, diagonalise with numpy alone: each run imports numpy before it
# starts its one pool, so the workers share it, and never scipy.
@pytest.mark.parametrize(("command", "argv"), [
    pytest.param("nonlinear", _NONLINEAR, id="nonlinear"),
    pytest.param("tbjj", [*_TBJJ, "--set", "solver=fock"], id="tbjj-fock"),
    pytest.param("tbjj", [*_TBJJ, "--set", "solver=both"], id="tbjj-both"),
])
def test_numpy_diagonalising_commands_start_one_pool_without_scipy(tmp_path, command, argv):
    result = run_recording_pool([command, *argv, "--out", "out.csv", "--jobs", "2"], tmp_path)
    assert result == {"code": 0, "seen": [{"loaded": ["numpy"], "max_workers": 2}]}, (tmp_path / "out.csv").read_text()


# A pool forks all of its workers at its first task, so a run never asks for more workers than rows,
# and a run of one row starts none.
@pytest.mark.parametrize(("argv", "jobs", "seen"), [
    pytest.param(_TBJJ, "3", [{"loaded": ["numpy"], "max_workers": 2}], id="two-rows-three-jobs"),
    pytest.param(["--set", "m_sites=6", "--set", "occupied=0,1", "--set", "n_levels=2"], "2", [],
                 id="one-row-two-jobs"),
])
def test_pool_never_outnumbers_its_rows(tmp_path, argv, jobs, seen):
    result = run_recording_pool(["tbjj", *argv, "--out", "out.csv", "--jobs", jobs], tmp_path)
    assert result == {"code": 0, "seen": seen}, (tmp_path / "out.csv").read_text()
