"""Smoke-size tests of the benchmark itself: output contract, checkers, spans.

Run from the repository root:  python -m pytest benchmarks/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import tracing
import workloads
from conftest import BENCH_DIR, ROOT
from fluxqm.cli import main as cli_main

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, workload, section", [
    ("0", "dense-verify", "end_to_end"),
    ("1", "phase-wide", "per_layer"),
])
def test_every_metric_is_printed_with_its_unit(trace, workload, section):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "1":  # spans reached the phase search: 400 scan points, one cold C(33, 5) table
        assert result["metrics"]["phases.calls"]["value"] >= 400
        assert result["metrics"]["phases.configs"]["value"] == math.comb(33, 5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "phase-wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_inputs_follow_the_seed():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)
    for name in workloads.NAMES:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def _output(tmp_path, inv):
    out = tmp_path / f"{inv.command}.{inv.fmt}"
    assert cli_main(inv.argv(str(out), jobs=1)) == 0
    return out


def _corrupt(path, column, row_index, delta):
    """Add ``delta`` to one cell of a CSV output, keeping every other byte."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].rstrip("\n").split(",")
    cells = lines[data[1 + row_index]].rstrip("\n").split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) + delta)
    lines[data[1 + row_index]] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


SMOKE = [
    (workloads.Invocation("tbjj", {"m_sites": 6, "occupied": "0,1", "t": 0.4, "hbar_omega": 1.0, "n_levels": 3,
                                   "solver": "both", "scan_param": "eta", "scan_min": 0.6, "scan_max": 1.0,
                                   "scan_steps": 2}, "csv", 2), "fock_e2", 1, 1),
    (workloads.Invocation("nonlinear", {"n_particles": 3, "g": 1.0, "g_eff": 1.0, "phi": 0.4, "hbar_omega": 1.0,
                                        "alpha4": 0.05, "n_levels": 4, "scan_param": "m_total", "scan_min": -3,
                                        "scan_max": 3, "scan_steps": 7}, "csv", 7), "eps3", 5, 2),
    (workloads.Invocation("phase-scan", {"n_particles": 5, "m_max": 6, "g": 2.0, "g_eff": 1.0, "hbar_omega": 1.0,
                                         "scan_param": "phi", "scan_min": 0.0, "scan_max": 0.3,
                                         "scan_steps": 40}, "csv", 40), "energy", 30, 1),
    (workloads.Invocation("dirac-scan", {"n_electrons": 8, "degeneracy": 4, "eps0": 1.0, "hbar_omega": 1.0,
                                         "d_eff": 0.1, "scan_param": "phi", "scan_min": 0.0, "scan_max": 0.5,
                                         "scan_steps": 40}, "csv", 40), "displacement_a", 35, 1),
]


@pytest.mark.parametrize("inv, column, row_index, n_bad", SMOKE, ids=[s[0].command for s in SMOKE])
def test_checker_accepts_output_and_rejects_a_level_shifted_by_1e_3(tmp_path, inv, column, row_index, n_bad):
    out = _output(tmp_path, inv)
    assert checks.check_output(inv, out) == (inv.expected_rows, 0, [])
    _corrupt(out, column, row_index, 1e-3)
    seen, failed, reasons = checks.check_output(inv, out)
    assert (seen, failed) == (inv.expected_rows, n_bad)
    assert reasons


def test_checker_fails_every_row_when_the_jump_bracket_misses(tmp_path):
    inv = SMOKE[2][0]
    out = _output(tmp_path, inv)
    text = out.read_text(encoding="utf-8")
    low = next(line for line in text.splitlines() if line.startswith("# summary jump_phi_low"))
    out.write_text(text.replace(low, "# summary jump_phi_low = 0.29"), encoding="utf-8")
    assert checks.check_output(inv, out)[1] == inv.expected_rows


def test_missing_output_fails_every_row(tmp_path):
    inv = SMOKE[0][0]
    assert checks.check_output(inv, tmp_path / "absent.csv")[:2] == (0, inv.expected_rows)


def test_self_times_of_a_hand_built_span_tree():
    spans = [
        tracing.Span("cli.main", 0, 100),
        tracing.Span("phases.ground_state_search", 10, 40, parent=0),
        tracing.Span("linearmode.sector_energy", 15, 25, parent=1),
        tracing.Span("linearmode.induced_coupling", 20, 30, parent=1),  # overlaps its sibling
        tracing.Span("tbring.sector_spectrum_xrep", 50, 90, parent=0),
        tracing.Span("gridsolve.converged_bound_states", 45, 95, parent=4),  # clipped to its parent
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40, 30 - 15, 10, 10, 0, 50]


def test_tracer_records_module_boundaries_only():
    tracer = tracing.Tracer("run-1")

    def inner():
        return 1

    def same_layer():
        return wrapped_inner()

    wrapped_inner = tracer.wrap("kerr.inner", inner)
    outer = tracer.wrap("oracle.outer", lambda: tracer.wrap("oracle.same", same_layer)())
    assert outer() == 1
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("oracle.outer", None, "run-1"), ("kerr.inner", 0, "run-1")]
    assert all(s.end >= s.start for s in tracer.spans)

    failing = tracer.wrap("gridsolve.fail", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tracer.spans[-1].error
