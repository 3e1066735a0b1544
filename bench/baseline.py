#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise the spread.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 10 --out bench/BENCH_baseline.json

For each workload it makes one untraced run per seed (seeds 1..N) and one
traced run, then reports for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The spread of
each metric should stay below a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def one_run(workload, seed, seconds, trace):
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return meta, json.loads(lines[-1])


def summarise(runs, bounds):
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": bound,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    document = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in run.WORKLOADS:
        runs, meta = [], None
        for seed in range(1, args.seeds + 1):
            meta, result = one_run(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        entry = {"meta": meta, "runs": runs, "summary": summarise(runs, bounds),
                 "traced": one_run(workload, args.seeds + 1, spec["run_seconds"], 1)[1]}
        document["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            flag = "ok" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:<13} {name:<12} median {s['median']:<12.6g} {s['unit']:<4} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag}", flush=True)
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
