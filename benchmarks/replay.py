"""Replay one benchmark invocation in-process, in a fresh interpreter.

Usage: python replay.py SPEC.json RESULT.json

SPEC.json holds ``mode`` and either ``argv`` (the CLI arguments) or, for mode
``micro``, ``workload`` and ``params``.  Modes:

* ``plain``  - time ``fluxqm.cli.main(argv)``; the import is not timed;
* ``traced`` - the same with a span around every call into a fluxqm module;
* ``micro``  - time single layer functions at fixed sizes for one workload.

The result (wall seconds, exit code, spans, counts) is written once, at the
end, to RESULT.json.  The caller sets PYTHONPATH to the checkout's ``src`` and
pins the BLAS thread count in the environment.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import tracing


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _grid_solution(solution) -> dict:
    return {"n_points": solution.n_points, "max_rel_change": solution.max_rel_change}


def _count_table_builds(counts: dict):
    """Count configurations enumerated by cold builds of the phase sector table.

    Reads the private ``phases._sector_table`` cache; reports nothing once the
    table no longer exists.
    """
    phases = sys.modules["fluxqm.phases"]
    table = getattr(phases, "_sector_table", None)
    if table is None or not hasattr(table, "cache_info"):
        return lambda: None

    def counted(*args):
        misses = table.cache_info().misses
        result = table(*args)
        if table.cache_info().misses > misses:
            counts["phases.configs"] = counts.get("phases.configs", 0) + len(result[0])
        return result

    phases._sector_table = counted
    return lambda: setattr(phases, "_sector_table", table)


def _micro_junction(params) -> dict:
    import numpy as np

    from fluxqm import gridsolve, tbring

    t, hw = params["t"], params["hbar_omega"]
    eta = 0.5 * (params["scan_min"] + params["scan_max"])
    lam = eta / math.sqrt(2.0)
    out = {}
    for cutoff in (256, 512, 1024, 2048):
        out[f"tbring.displacement_operator_{cutoff}_s"] = _timed(lambda: tbring.displacement_operator(lam, cutoff))
    sector = tbring.sector_constants((0, 1), 6)

    def potential(x):  # the real-space sector potential of tbring.sector_spectrum_xrep
        return 0.5 * hw * x * x - 2.0 * t * (sector.c_sum * np.cos(eta * x) - sector.s_sum * np.sin(eta * x))

    out["gridsolve.bound_states_65537_s"] = statistics.median(
        _timed(lambda: gridsolve.bound_states(potential, -14.0, 14.0, 65537, 0.5 * hw, 5)) for _ in range(3))
    out["gridsolve.rf_squid_s"] = statistics.median(
        _timed(lambda: tbring.rf_squid_spectrum(tbring.rf_squid_map(tbring.sector_constants(occ, 6), t, eta, hw),
                                                 n_levels=5))
        for occ in ((0,), (0, 1), (1, 2, 4)))
    return out


def _micro_dense(params) -> dict:
    from fluxqm import oracle
    from fluxqm.core import FermionConfig, ModelParams

    cfg = FermionConfig((0, 1, 2))
    times, cutoffs = [], []
    for ratio in (0.5, 2.0):
        for phi in (0.0, 0.8):
            p = ModelParams(g=ratio, g_eff=1.0, phi=phi, n_particles=cfg.n_particles, hbar_omega=params["hbar_omega"])
            start = time.perf_counter()
            report = oracle.oracle_spectrum(p, cfg, cutoff=params["cutoff"], n_levels=6, check_convergence=True)
            times.append(time.perf_counter() - start)
            cutoffs.append(report.cutoff_used)
    return {"oracle.spectrum_checked_s": statistics.median(times), "oracle.cutoff_used": max(cutoffs)}


MICRO = {"junction-dual": _micro_junction, "dense-verify": _micro_dense}

OBSERVERS = {"gridsolve.converged_bound_states": _grid_solution}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import fluxqm.cli

    result = {"file": fluxqm.cli.__file__}
    if spec["mode"] == "micro":
        result["micro"] = MICRO[spec["workload"]](spec["params"])
    else:
        undo = restore_table = None
        if spec["mode"] == "traced":
            tracer = tracing.Tracer(spec["run_id"])
            counts: dict = {}
            restore_table = _count_table_builds(counts)
            undo = tracing.install(tracer, OBSERVERS)
        start = time.perf_counter()
        result["exit"] = fluxqm.cli.main(spec["argv"])
        result["seconds"] = time.perf_counter() - start
        if undo is not None:
            undo()
            restore_table()
            result["spans"] = [span.as_list() for span in tracer.spans]
            result["counts"] = counts
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
