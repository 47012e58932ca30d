"""Record a point of the benchmark trajectory: repeated runs summarised per workload.

Usage (from the root of a checkout):

    python3 benchmarks/record.py --out benchmarks/trajectory/BENCH_1.json

For every workload of ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed in ``SEEDS`` and ``run.py --trace 1`` once, with the first seed, then
writes each end-to-end metric's median, quartiles and spread (interquartile
distance over median) with the per-layer values, the seeds and the run
environment.  A spread at or above a third of the metric's bound is flagged as
unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = tuple(range(1, 11))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarise(values):
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (quartiles[2] - quartiles[0]) / median if median else 0.0
    return {"median": median, "q1": quartiles[0], "q3": quartiles[2], "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "trace_seed": SEEDS[0], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        for seed in SEEDS:
            env, result = _run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        doc["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
        _, traced = _run(workload, SEEDS[0], spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "end_to_end": {name: summarise(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, summary in doc["workloads"][workload]["end_to_end"].items():
            unsteady = summary["spread"] >= bounds[name] / 3
            print(f"{workload} {name}: median {summary['median']:.4g} spread {summary['spread']:.4f}"
                  f"{'  UNSTEADY' if unsteady else ''}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
