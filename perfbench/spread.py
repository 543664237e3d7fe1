"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/spread.py [--runs 10] [--first-seed 0] [--trace 0|1]
                                [--workloads a,b] [--out FILE]

Each run is one `run.py` invocation of run_seconds (BENCHMARK.json), with
seeds first-seed, first-seed + 1, ...  For every end-to-end metric it prints
the median over the runs, the quartile spread (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4), and the metric's bound; a
spread above a third of the bound is flagged.  With --trace 1 it collects
the per-layer values of each seed instead.  --out merges the figures, with
the core count and the Python and numpy versions, into a baseline JSON
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_contract
from workloads import WORKLOADS


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    contract = load_contract()
    specs = contract["per_layer" if args.trace else "end_to_end"]
    section = {}
    env = None
    for workload in args.workloads.split(","):
        results = []
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            env, result = run_once(workload, seed, contract["run_seconds"], args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} not correct: {result}")
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        figures = {"seeds": seeds}
        for m in specs:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if args.trace:
                figures[m["name"]] = values
                continue
            figures[m["name"]] = s = stats(values)
            flag = "  ABOVE BOUND/3" if s["spread"] > m["bound"] / 3 else ""
            print(f"  {workload} {m['name']}: median {s['median']:.6g} {m['unit']}, "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
        section[workload] = figures
    if args.out:
        baseline = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                baseline = json.load(fh)
        baseline["env"] = env
        baseline["run_seconds"] = contract["run_seconds"]
        baseline.setdefault("per_layer" if args.trace else "end_to_end", {}).update(section)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
