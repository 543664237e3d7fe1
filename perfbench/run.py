"""sqfpairs benchmark: time the CLI on one workload and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: each sample runs sqfpairs.cli.main(argv) once
in a fresh child process (child.py), one child at a time, with the numeric
thread pools pinned to one thread and the address space capped.  Every
output is checked against reference.json (refcheck.py); a child that exits
non-zero, hits the ceiling, runs out of time or prints a wrong table is a
failed sample.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; an import-only
child before each sample measures setup_s.  --trace 1 alternates untraced
and traced children and reports the per-layer metrics (tracer.py) with the
tracing overhead.  Values are medians over the
samples of the run.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status 0 means correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refcheck
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Address-space ceiling of every child.  The largest baseline footprint is
#: pairs-wide at about 420 MiB resident and 500 MiB virtual, so 2 GiB leaves
#: room for honest changes while a flag window grown tenfold fails the
#: sample instead of exhausting the machine's memory.
MEM_LIMIT_MB = 2048

#: A run must end within 180 s; a child still running then is killed.
HARD_LIMIT_S = 170.0

#: The time of a traced sample that no layer below cli.main claims (the
#: CLI's own argument parsing and output, about 8 ms at the baseline, or
#: under 1% of every workload's wall time) must stay within UNCLAIMED_TOL_S
#: plus UNCLAIMED_TOL_FRAC of the wall time.
UNCLAIMED_TOL_S = 0.025
UNCLAIMED_TOL_FRAC = 0.02

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here at all (as opposed to a failed sample)."""


def _tail(text: str) -> str:
    return " | ".join(text.strip().splitlines()[-3:])


def run_child(argv, workdir, trace=False, deadline=None, mem_limit_mb=MEM_LIMIT_MB):
    """One child process; returns (record, "") or (None, reason it failed).

    argv None only imports the package.  The record adds setup_s, the time
    from spawning the child until sqfpairs.cli was imported, and the output
    text to what child.py reports.
    """
    out = Path(workdir) / "out.csv"
    out.unlink(missing_ok=True)
    spec = {"argv": None if argv is None else list(argv) + ["--out", str(out)],
            "src": str(SRC), "mem_limit_mb": mem_limit_mb, "trace": trace}
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    timeout = max((deadline or time.monotonic() + HARD_LIMIT_S) - time.monotonic(), 0.1)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=workdir, env=env, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"killed after {timeout:.1f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        return None, f"child exited with {proc.returncode}: {_tail(stderr)}"
    record = json.loads(stdout.strip().splitlines()[-1])
    if "error" in record:
        return None, record["error"]
    if argv is not None and record["rc"] != 0:
        return None, f"cli.main returned {record['rc']}: {_tail(stderr)}"
    record["setup_s"] = record["imported"] - spawned
    record["output"] = out.read_text(encoding="utf-8") if argv is not None else None
    return record, ""


def measure(argv, ref, seconds, trace):
    """Samples for `seconds`: {False: untraced records, True: traced records},
    the set-up times, the failure reasons, the number of samples attempted
    and the numpy version.

    Without trace, each round is one import-only child, whose set-up time
    is recorded, and one untraced child.  The set-up probes are spread over
    the whole run, so they see the same drift of the machine as the samples.
    With trace, each round is one untraced and one traced child, and at
    least two rounds run so that the traced counts can be compared.  A new
    round starts only if a round of median length still fits in `seconds`.
    """
    deadline = time.monotonic() + HARD_LIMIT_S
    records = {False: [], True: []}
    setups = []
    failures = []
    attempted = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        warm, why = run_child(None, workdir, deadline=deadline)
        if warm is None:
            raise BenchError(f"importing sqfpairs failed: {why}")
        kinds = (False, True) if trace else (False,)
        min_rounds = 2 if trace else 1
        start = time.monotonic()
        rounds = []
        while time.monotonic() < deadline and (
                len(rounds) < min_rounds
                or time.monotonic() - start + statistics.median(rounds) <= seconds):
            round_start = time.monotonic()
            if not trace:
                probe, why = run_child(None, workdir, deadline=deadline)
                if probe is None:
                    raise BenchError(f"importing sqfpairs failed: {why}")
                setups.append(probe["setup_s"])
            # alternate which kind goes first, so drift hits both alike
            for traced in kinds if len(rounds) % 2 == 0 else kinds[::-1]:
                record, why = run_child(argv, workdir, traced, deadline)
                attempted += 1
                if record is not None and (bad := refcheck.compare(record["output"], ref)):
                    record, why = None, "output differs from reference: " + "; ".join(bad[:3])
                if record is None:
                    failures.append(why)
                else:
                    record["round"] = len(rounds)
                    records[traced].append(record)
            rounds.append(time.monotonic() - round_start)
    return records, setups, failures, attempted, warm["numpy"]


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than 11 samples."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return None
    return 100.0 * k / (len(xs) - 1), xs[k]


def end_to_end_samples(records, setups, prime_terms) -> dict:
    return {
        "wall_s": [r["wall_s"] for r in records],
        "primes_per_s": [prime_terms / r["wall_s"] for r in records],
        "setup_s": setups,
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in records],
    }


def overhead_ratios(traced, untraced) -> list:
    """Traced over untraced wall time, per round in which both succeeded.
    The two samples of a round run back to back, so drift in the machine's
    speed mostly cancels in their ratio."""
    untraced_wall = {r["round"]: r["wall_s"] for r in untraced}
    return [r["wall_s"] / untraced_wall[r["round"]]
            for r in traced if r["round"] in untraced_wall]


def per_layer_values(traced, ratios, max_n) -> dict:
    """Per-layer metrics: median self times, counts from the first traced
    sample (check_trace requires them to repeat exactly) and the median
    tracing overhead over the rounds."""
    def self_s(layer):
        return statistics.median(r["layers"].get(layer, {}).get("self_s", 0.0)
                                 for r in traced)

    first = traced[0]["layers"]

    def count(layer, key="work"):
        return first.get(layer, {}).get(key, 0)

    prime_cells = count("sieves.prime")
    sqf_cells = count("sieves.sqf")
    floors_n = count("alpha.floors")
    return {
        "sieves.prime_s": self_s("sieves.prime"),
        "sieves.prime_cells": prime_cells,
        "sieves.prime_passes": prime_cells / max_n,
        "sieves.sqf_s": self_s("sieves.sqf"),
        "sieves.sqf_cells": sqf_cells,
        # two flags are looked up per prime floor
        "sieves.sqf_useful": 2 * floors_n / sqf_cells if sqf_cells else 0.0,
        "alpha.floors_s": self_s("alpha.floors"),
        "alpha.floors_n": floors_n,
        "alpha.exact_calls": count("alpha.exact", "calls"),
        "alpha.exact_s": self_s("alpha.exact"),
        "alpha.phases_s": self_s("alpha.phases"),
        "alpha.phases_n": count("alpha.phases"),
        "alpha.parse_s": self_s("alpha.parse"),
        "constants.sigma_s": self_s("constants.sigma"),
        "counting.self_s": self_s("counting"),
        "expsum.self_s": self_s("expsum"),
        "cli.self_s": self_s("cli"),
        "trace.overhead": statistics.median(ratios) - 1.0,
    }


def unclaimed(traced) -> list:
    """Per traced sample: wall time minus the self times of every layer
    below cli.main, that is cli.main's own time plus the outer wrapper's."""
    return [r["wall_s"] - sum(layer["self_s"] for name, layer in r["layers"].items()
                              if name != "cli")
            for r in traced]


def check_trace(traced, w, prime_terms) -> list:
    """Problems with the traced samples themselves; empty when consistent.

    Work that leaves the traced names must fail the trace rather than read
    as a gain: the CLI's own time stays small, every value up to the
    largest N passes through the traced prime sieve, the workload's term
    layer takes exactly one step per prime term of the reference, and
    every layer the workload exercises records work.
    """
    problems = []
    for r, rest in zip(traced, unclaimed(traced)):
        if rest > UNCLAIMED_TOL_S + UNCLAIMED_TOL_FRAC * r["wall_s"]:
            problems.append(f"{rest:.6f} s of {r['wall_s']:.6f} s is claimed by no layer "
                            f"below cli.main")
        work = {name: layer["work"] for name, layer in r["layers"].items()}
        # the sieve covers [2, N], N - 1 values
        if work.get("sieves.prime", 0) < w.max_n - 1:
            problems.append(f"the traced prime sieve saw {work.get('sieves.prime', 0)} values, "
                            f"fewer than the {w.max_n - 1} in [2, {w.max_n}]")
        if work.get(w.term_layer, 0) != prime_terms:
            problems.append(f"{w.term_layer} did {work.get(w.term_layer, 0)} steps, "
                            f"not one per prime term ({prime_terms})")
        problems += [f"layer {layer} recorded no work" for layer in w.layers
                     if not work.get(layer)]
    counts = [{k: (v["calls"], v["work"]) for k, v in r["layers"].items()} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"layer counts differ between traced runs: {counts}")
    return problems


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str, member: int) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload][member]


def benchmark(w, seed, seconds, trace, ref=None):
    """Run the Workload w once; returns (report lines, result object).
    ref replaces the frozen reference of the member the seed picks."""
    if not (SRC / "sqfpairs" / "cli.py").is_file():
        raise BenchError(f"no sqfpairs sources under {SRC}")
    contract = load_contract()
    member = w.member(seed)
    argv = w.argv_for(member)
    if ref is None:
        ref = load_reference(w.name, member)
    records, setups, failures, attempted, numpy_version = measure(argv, ref, seconds, trace)
    lines = [f"workload {w.name}, seed {seed}: member {member}, "
             f"sqfpairs {' '.join(argv)}",
             "env " + json.dumps({"cores": os.cpu_count(),
                                  "python": platform.python_version(),
                                  "numpy": numpy_version})]
    lines += [f"failed sample: {why}" for why in failures]
    problems = []
    values = {}
    ratios = overhead_ratios(records[True], records[False])
    if trace and ratios:
        problems = check_trace(records[True], w, ref["prime_terms"])
        values = per_layer_values(records[True], ratios, w.max_n)
        lines.append(f"trace: {len(records[True])} traced and {len(records[False])} "
                     f"untraced samples; largest time claimed by no layer below "
                     f"cli.main {max(unclaimed(records[True])):.6f} s")
        lines += [f"trace check failed: {p}" for p in problems]
    elif not trace and records[False]:
        for name, xs in end_to_end_samples(records[False], setups,
                                           ref["prime_terms"]).items():
            values[name] = statistics.median(xs)
            tail = tail_percentile(xs)
            lines.append(f"{name}: median {values[name]:.6g} over {len(xs)} samples; "
                         + (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                            else "no percentile has ten samples above it"))
    lines.append(f"failed_frac: {len(failures) / attempted:.6g} "
                 f"({len(failures)} of {attempted} samples)")
    metrics = {}
    if values:
        specs = contract["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
        lines += [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": not failures and not problems and bool(metrics),
              "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
