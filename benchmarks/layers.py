"""The traced run: per-layer metrics of one workload.

Each invocation of the workload is replayed in-process (``replay.py``) in
three modes, each in a fresh interpreter: serially without tracing, serially
with a span around every call into a fluxqm module, and with the worker pool.
The three modes are replayed in ``REPLAY_ROUNDS`` rounds, the order of the
modes rotating from round to round, and every metric is the median of its
per-round values.  The spans give each module's calls, errors and self time;
the plain and traced runs of a round give that round's tracing overhead.
Workloads whose layers have size-dependent kernels also time those kernels at
fixed sizes.  Import times come from ``-X importtime``.

A layer the workload never calls reports 0 for its times and counts.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from replay import MICRO
from workloads import JOBS

BENCH_DIR = Path(__file__).resolve().parent
IMPORT_PROBES = 3
REPLAY_ROUNDS = 3
MODES = (("plain", 1), ("traced", 1), ("pool", JOBS))
MICRO_METRICS = (  # timed by replay.py at fixed sizes, on the workloads in replay.MICRO
    "tbring.displacement_operator_256_s",
    "tbring.displacement_operator_512_s",
    "tbring.displacement_operator_1024_s",
    "tbring.displacement_operator_2048_s",
    "gridsolve.bound_states_65537_s",
    "gridsolve.rf_squid_s",
    "oracle.spectrum_checked_s",
    "oracle.cutoff_used",
)


def remaining(deadline: float) -> float:
    """Seconds a child may still run before the run's deadline (``time.monotonic``)."""
    return max(1.0, deadline - time.monotonic())


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def import_times(env, cwd, deadline: float) -> dict:
    """Cumulative import seconds of ``fluxqm.cli`` and of ``scipy.constants``."""
    totals, constants = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fluxqm.cli"], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=remaining(deadline), check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        totals.append(cumulative.get("fluxqm", 0.0) + cumulative.get("fluxqm.cli", 0.0))
        constants.append(cumulative.get("scipy.constants", 0.0))
    return {"core.import_s": _median(totals), "core.scipy_constants_import_s": _median(constants)}


def _replay(spec: dict, env, work: Path, tag: str, deadline: float) -> dict:
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH_DIR / "replay.py"), str(spec_path), str(result_path)],
                   env=env, cwd=work, timeout=remaining(deadline), check=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def traced_run(workload, env, work: Path, deadline: float):
    """(per-layer metrics, attempted rows, failed rows, failure reasons, spans)."""
    metrics = dict.fromkeys(MICRO_METRICS, 0)
    metrics.update(import_times(env, work, deadline))
    rounds = []  # rounds[r][i][mode]: replay result of invocation i
    for r in range(REPLAY_ROUNDS):
        order = MODES[r % len(MODES):] + MODES[:r % len(MODES)]
        replays = []
        for i, inv in enumerate(workload.invocations):
            runs = {}
            for mode, jobs in order:
                out = work / f"{mode}{r}-{i}.{inv.fmt}"
                spec = {"mode": "traced" if mode == "traced" else "plain", "argv": inv.argv(str(out), jobs),
                        "run_id": f"{workload.name}:{workload.seed}:{r}:{i}"}
                runs[mode] = _replay(spec, env, work, f"{mode}{r}-{i}", deadline)
                runs[mode]["out"] = out
            replays.append(runs)
        rounds.append(replays)
    attempted = failed = rows = bytes_out = 0
    oracle_error = 0.0
    reasons = []
    for i, inv in enumerate(workload.invocations):
        runs = [round_[i][mode] for round_ in rounds for mode, _ in MODES]
        serial = runs[0]["out"]
        attempted += inv.expected_rows
        if any(run["exit"] != 0 for run in runs):
            bad, why = inv.expected_rows, [f"{inv.command}: non-zero exit in a replay"]
        elif any(run["out"].read_bytes() != serial.read_bytes() for run in runs):
            bad, why = inv.expected_rows, [f"{inv.command}: serial, traced and pool outputs differ"]
        else:
            seen, bad, why = checks.check_output(inv, serial)
            rows += seen
            bytes_out += serial.stat().st_size
            if inv.command == "oracle-check":
                oracle_error = max(float(row["max_rel_error"]) for row in checks.read_output(serial, inv.fmt)[0])
        failed += bad
        reasons += why
    micro = {}
    if workload.name in MICRO:
        spec = {"mode": "micro", "workload": workload.name, "params": workload.invocations[0].params}
        micro = _replay(spec, env, work, "micro", deadline)["micro"]
    metrics.update(micro)
    per_round = [layer_metrics(workload, replays) for replays in rounds]
    metrics.update({name: _median(m[name] for m in per_round) for name in per_round[0]})
    metrics.update({"cli.rows": rows, "cli.bytes_out": bytes_out, "oracle.max_rel_error": oracle_error})
    spans = [span for runs in rounds[0] for span in runs["traced"]["spans"]]
    return metrics, attempted, failed, reasons, spans


def layer_metrics(workload, replays) -> dict:
    """Metrics of one round; ``replays`` holds the plain, traced and pool runs of each invocation."""
    durations: dict = {}
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    calls = dict.fromkeys(tracing.LAYERS, 0)
    errors = dict.fromkeys(tracing.LAYERS, 0)
    xrep, grids, configs = [], [], 0
    for runs in replays:
        spans = [tracing.Span.from_list(item) for item in runs["traced"]["spans"]]
        for span, own in zip(spans, tracing.self_times(spans)):
            seconds = (span.end - span.start) / 1e9
            durations.setdefault(span.name, []).append(seconds)
            self_s[span.layer] += own / 1e9
            calls[span.layer] += 1
            errors[span.layer] += span.error
            if span.name == "gridsolve.converged_bound_states":
                grids.append(span.info)
                if span.parent is not None and spans[span.parent].name == "tbring.sector_spectrum_xrep":
                    xrep.append(seconds)
        configs += runs["traced"]["counts"].get("phases.configs", 0)

    def median(name):
        return _median(durations.get(name, ()))

    searches = durations.get("phases.ground_state_search", [])
    serial = sum(runs["plain"]["seconds"] for runs in replays)
    pool = sum(runs["pool"]["seconds"] for runs in replays)
    traced = sum(runs["traced"]["seconds"] for runs in replays)
    dirac_rows = sum(inv.expected_rows for inv in workload.invocations if inv.command == "dirac-scan")
    metrics = {
        "cli.run_serial_s": serial,
        "cli.run_pool_s": pool,
        "cli.pool_speedup": serial / pool,
        "phases.first_search_s": searches[0] if searches else 0.0,
        "phases.search_s": _median(searches[1:]),
        "phases.configs": configs,
        "spinorbit.hessian_s": median("spinorbit.hessian"),
        "diracring.row_s": self_s["diracring"] / dirac_rows if dirac_rows else 0.0,
        "linearmode.sector_energy_s": median("linearmode.sector_energy"),
        "kerr.displacement_root_s": median("kerr.displacement_root"),
        "kerr.anharmonic_s": median("kerr.anharmonic_spectrum"),
        "oracle.spectrum_s": median("oracle.oracle_spectrum"),
        "tbring.fock_s": median("tbring.sector_spectrum_fock"),
        "gridsolve.xrep_s": _median(xrep),
        "gridsolve.points_used": max((info["n_points"] for info in grids), default=0),
        "gridsolve.max_rel_change": max((info["max_rel_change"] for info in grids), default=0.0),
        "trace.overhead_frac": traced / serial - 1.0,
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.errors"] = errors[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
