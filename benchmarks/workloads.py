"""Seeded workload generator for the fluxqm benchmark.

A workload is a fixed list of ``fluxqm`` CLI invocations.  ``generate(name,
seed)`` draws each invocation's physical parameters from stated ranges with
a generator seeded by the workload name and ``seed``, at a fixed problem size,
so the same seed always gives the same ``--set`` values.  The CLI receives only
those values; the checkers in ``checks.py`` evaluate the closed forms from the
same drawn parameters.

The parameter ranges are chosen so that the cost of a run does not depend on
the draw: every finite-difference solve in ``junction-dual`` converges at
65,537 grid points, every Kerr scan in ``dense-verify`` converges at the same
basis cutoffs, and the scans place the closed-form transition inside the
scanned window.  Why each workload exists is stated in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checks

JOBS = 2  # worker processes per invocation; with one BLAS thread each, a run uses at most 2 cores
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Invocation:
    """One ``fluxqm`` process: command, ``--set`` values, output format, row count."""

    command: str
    params: dict
    fmt: str
    expected_rows: int

    def argv(self, out: str, jobs: int = JOBS) -> list:
        args = [self.command]
        for key, value in self.params.items():
            args += ["--set", f"{key}={value}"]  # str(float) is the shortest round-trip form
        return args + ["--format", self.fmt, "--out", out, "--jobs", str(jobs)]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple


def _phase_wide(rng):
    g, g_eff, hw = rng.uniform(1.5, 3.0), rng.uniform(0.5, 1.2), rng.uniform(0.8, 1.25)
    params = {"n_particles": 5, "m_max": 16, "g": g, "g_eff": g_eff, "hbar_omega": hw}
    phi_c = checks.phase_critical_flux(params)
    params.update(scan_param="phi", scan_min=0.0, scan_max=phi_c * rng.uniform(1.6, 2.4), scan_steps=400)
    return (Invocation("phase-scan", params, "csv", 400),)


def _junction_dual(rng):
    t = rng.uniform(0.3, 0.6)
    eta_low = rng.uniform(0.5, 0.7)
    out = []
    for occupied in ("0", "0,1", "1,2,4"):
        params = {"m_sites": 6, "occupied": occupied, "t": t, "hbar_omega": 1.0, "n_levels": 5,
                  "solver": "both", "scan_param": "eta", "scan_min": eta_low,
                  "scan_max": eta_low + 0.8, "scan_steps": 6}
        out.append(Invocation("tbjj", params, "csv", 6))
    return tuple(out)


def _dense_verify(rng):
    oracle_params = {"cutoff": 800, "hbar_omega": rng.uniform(0.8, 1.25)}
    kerr_params = {"n_particles": 3, "g": rng.uniform(0.5, 1.5), "g_eff": rng.uniform(0.5, 1.5),
                   "phi": rng.uniform(0.2, 0.6), "hbar_omega": rng.uniform(0.8, 1.25),
                   "alpha4": rng.uniform(0.02, 0.1), "n_levels": 24, "scan_param": "m_total",
                   "scan_min": -12, "scan_max": 12, "scan_steps": 25}
    return (Invocation("oracle-check", oracle_params, "csv", checks.ORACLE_SUITE_SIZE),
            Invocation("nonlinear", kerr_params, "csv", 25))


def _many_rows(rng):
    g = rng.uniform(0.5, 2.0)
    spin = {"n_particles": 5, "g": g, "g_eff": g, "phi": rng.uniform(0.1, 0.8),
            "hbar_omega": rng.uniform(0.8, 1.25)}
    spin.update(scan_param="eta", scan_min=0.0,
                scan_max=checks.spin_critical_eta(spin) * rng.uniform(1.6, 2.4), scan_steps=20000)
    dirac = {"n_electrons": 8, "degeneracy": 4, "eps0": rng.uniform(0.5, 2.0),
             "hbar_omega": rng.uniform(0.8, 1.25), "d_eff": rng.uniform(0.0, 0.2)}
    dirac.update(scan_param="phi", scan_min=0.0,
                 scan_max=checks.dirac_critical_flux(dirac) * rng.uniform(1.6, 2.4), scan_steps=20000)
    return (Invocation("spin-phase", spin, "json", 20000), Invocation("dirac-scan", dirac, "csv", 20000))


_GENERATORS = {
    "phase-wide": _phase_wide,
    "junction-dual": _junction_dual,
    "dense-verify": _dense_verify,
    "many-rows": _many_rows,
}

NAMES = tuple(_GENERATORS)


def generate(name: str, seed: int) -> Workload:
    """The invocations of workload ``name`` for ``seed``; raises KeyError for unknown names."""
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, seed, _GENERATORS[name](rng))
