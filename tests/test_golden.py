"""Byte-for-byte golden outputs of the closed-form commands.

Each case runs one scan with a flagged row (and, on a command with a jump
column, a summary) in CSV and in JSON, and compares the file with the one
under ``tests/data/``.  The diagonalising commands are left out: the last
bits of their levels depend on the LAPACK build.  After a deliberate output
change, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and explain the change.
"""

from pathlib import Path

import pytest

from fluxqm.cli import main

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = {
    # no jump column, so no summary; phi < 0 flags the first row
    "spectrum": ["spectrum", "--set", "orbitals=-1,0,2", "--set", "n_levels=3",
                 "--set", "scan_param=phi", "--set", "scan_min=-0.25", "--set", "scan_max=1", "--set", "scan_steps=6"],
    "phase-scan": ["phase-scan", "--set", "n_particles=3", "--set", "g=2.0", "--set", "g_eff=1.0", "--set", "m_max=3",
                   "--set", "scan_param=phi", "--set", "scan_min=-0.1", "--set", "scan_max=0.5", "--set", "scan_steps=4"],
    "spin-phase": ["spin-phase", "--set", "n_particles=4", "--set", "g_eff=0.5", "--set", "eta=0.5",
                   "--set", "scan_param=phi", "--set", "scan_min=-0.1", "--set", "scan_max=0.4", "--set", "scan_steps=6"],
    "dirac-scan": ["dirac-scan", "--set", "n_electrons=8",
                   "--set", "scan_param=phi", "--set", "scan_min=-0.25", "--set", "scan_max=1", "--set", "scan_steps=6"],
    # the axis is a column of the command, so the flagged row keeps its scan value there; x0**2 overflows
    "nonlinear": ["nonlinear", "--set", "n_particles=3", "--set", "g=0.5", "--set", "g_eff=0.5", "--set", "phi=0.4",
                  "--set", "alpha4=0.05", "--set", "n_levels=0",
                  "--set", "scan_param=m_total", "--set", "scan_min=-3", "--set", "scan_max=1e200", "--set", "scan_steps=2"],
}


def write(name, fmt, out):
    return main([*GOLDEN[name], "--format", fmt, "--out", str(out), "--jobs", "1"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_closed_form_output_matches_its_golden_file(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert write(name, fmt, out) == 1  # the flagged row
    assert out.read_bytes() == (DATA / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    for name in GOLDEN:
        for fmt in ("csv", "json"):
            write(name, fmt, DATA / f"{name}.{fmt}")
