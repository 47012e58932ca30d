"""The fluxqm benchmark: whole-process CLI workloads, checked against closed forms.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop in one process: the workload's ``fluxqm``
invocations (see ``workloads.py``) run one after another, each as
``python -m fluxqm ... --jobs 2`` with one BLAS thread per process, and the
pass repeats until ``--seconds`` have gone by.  Every output file is checked
(``checks.py``).  With ``--trace 0`` the end-to-end metrics are printed:

* ``wall_s``      - wall time of one pass, process start to exit summed over its
                    invocations; median over passes;
* ``cpu_s``       - user + system CPU of one pass, each invocation's whole
                    process tree from its own ``os.wait4`` rusage; median over passes;
* ``peak_rss_mb`` - largest resident set of any process in a pass; median over passes;
* ``setup_s``     - wall time of a fresh interpreter running ``import fluxqm.cli``,
                    probed after every invocation so that the probes span the
                    whole run; median of them, after one untimed warm-up;
* ``ok_frac``     - rows that passed all checks / rows attempted.

With ``--trace 1`` the per-layer metrics of ``layers.py`` are printed instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, versions and settings of the run.  The exit code is 0
when every row passed, 1 when a check failed and 2 when the checkout has no
fluxqm source to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170  # a hung child is killed so that every run ends within 180 s

_PROBE = """
import json, sys
import fluxqm.cli, numpy, scipy

def blas(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:
        return "unknown"

print(json.dumps({"fluxqm": fluxqm.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def run_process(args, env, cwd, deadline: float) -> Sample:
    """Run one child to exit; rusage of its whole process tree from ``os.wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(layers.remaining(deadline), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), **workloads.BLAS_PIN)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env, work, args, deadline: float) -> dict:
    """Versions and settings of this run; also the untimed warm-up import."""
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=work, capture_output=True, text=True,
                           timeout=layers.remaining(deadline), check=True)
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    info.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        cpu=_cpu_model(),
        machine=platform.machine(),
        commit=_git_commit(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        jobs=workloads.JOBS,
        blas_pin=workloads.BLAS_PIN,
    )
    return info


def measured_run(workload, env, work: Path, seconds: float, deadline: float):
    """(end-to-end metrics, attempted rows, failed rows, failure reasons)."""
    setup = []
    passes = []
    attempted = failed = 0
    reasons = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        samples = []
        for i, inv in enumerate(workload.invocations):
            out = work / f"out{i}.{inv.fmt}"
            out.unlink(missing_ok=True)
            sample = run_process([sys.executable, "-m", "fluxqm", *inv.argv(str(out))], env, work, deadline)
            samples.append(sample)
            attempted += inv.expected_rows
            if sample.exit_code != 0:
                failed += inv.expected_rows
                reasons.append(f"{inv.command}: exit code {sample.exit_code}")
            else:
                _, bad, why = checks.check_output(inv, out)
                failed += bad
                reasons += why
            setup.append(run_process([sys.executable, "-c", "import fluxqm.cli"], env, work, deadline))
            if setup[-1].exit_code != 0:
                raise RuntimeError("import fluxqm.cli failed")
        passes.append(samples)
    metrics = {
        "wall_s": statistics.median(sum(s.wall_s for s in p) for p in passes),
        "cpu_s": statistics.median(sum(s.cpu_s for s in p) for p in passes),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in passes),
        "setup_s": statistics.median(s.wall_s for s in setup),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fluxqm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    src = ROOT / "src"
    if not (src / "fluxqm" / "cli.py").is_file():
        print(f"benchmark: no fluxqm source at {src}; run from the root of a fluxqm checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.generate(args.workload, args.seed)
    env = child_env(src)
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info = environment(env, work, args, deadline)
        imported = Path(info["fluxqm"]).resolve()
        if not imported.is_relative_to(src.resolve()):
            print(f"benchmark: imported fluxqm from {imported}, not from {src}", file=sys.stderr)
            return 2
        info["fluxqm"] = str(imported.relative_to(ROOT.resolve()))
        if args.trace:
            metrics, attempted, failed, reasons, spans = layers.traced_run(workload, env, work, deadline)
            (scratch / f"spans-{args.workload}.json").write_text(json.dumps(spans), encoding="utf-8")
        else:
            metrics, attempted, failed, reasons = measured_run(workload, env, work, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    for reason in reasons[:20]:
        print(f"benchmark: check failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
