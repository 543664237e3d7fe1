"""Smoke test of the benchmark itself, on tiny inputs (N = 1e4).

    python3 perfbench/smoke.py

Checks that untraced and traced runs of every workload print each metric of
BENCHMARK.json by name and unit, that the trace check fails when work moves
out of the traced layers, that a corrupted reference makes every sample
fail while a last-bit float change passes, that a child over its memory
ceiling is a failed sample, and that the benchmark refuses to run without
the sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import refcheck
import run
from freeze import freeze_member
from workloads import WORKLOADS

TINY_N = {"pairs-sweep": "1e2,1e3,1e4", "pairs-wide": "1e4", "decompose": "1e4",
          "dyadic": "1e4"}

#: Per workload: a float column to change in its last bit, and a column
#: with the change that makes it wrong (an off-by-one count, or a phase sum
#: far outside its tolerance).
WRONG = {
    "pairs-sweep": ("prediction", "count", lambda v: v + 1),
    "pairs-wide": ("prediction", "count", lambda v: v + 1),
    "decompose": ("z", "sigma1", lambda v: v + 1),
    "dyadic": ("lhs", "lhs", lambda v: v * (1 + 1e-6)),
}

#: Requests a squarefree-flag window of about 5 GB.
OVERSIZED = ["pairs", "--alpha", "poly:-2000000000,0,0,1@1259/1,1260/1", "--n", "1e7"]

def tiny(workload):
    argv = list(workload.argv)
    argv[argv.index("--n") + 1] = TINY_N[workload.name]
    # at N = 1e4 no float floor comes close enough to an integer to need
    # the exact fallback
    layers = tuple(layer for layer in workload.layers if layer != "alpha.exact")
    return replace(workload, argv=tuple(argv), layers=layers)


def corrupt(ref: dict, column: str, change) -> dict:
    """ref with `column` of the first data row replaced by change(value)."""
    header, rows = refcheck.parse_table(ref["output"])
    lines = ref["output"].split("\n")
    cells = lines[1].split(",")
    i = header.index(column)
    cells[i] = repr(change(rows[0][column]))
    lines[1] = ",".join(cells)
    bad = copy.deepcopy(ref)
    bad["output"] = "\n".join(lines)
    return bad


def names_units(metrics: dict) -> list:
    return [(name, m["unit"]) for name, m in metrics.items()]


def escaped(record: dict, w) -> dict:
    """Doctored copies of a traced record, each as if some work had left
    the traced names."""
    def with_work(layer, value):
        r = copy.deepcopy(record)
        r["layers"][layer]["work"] = value
        return r

    to_cli = copy.deepcopy(record)
    to_cli["wall_s"] += 0.5
    to_cli["layers"]["cli"]["self_s"] += 0.5
    term_steps = record["layers"][w.term_layer]["work"]
    cases = {"0.5 s more in cli.main itself": to_cli,
             "a value of [2, N] sieved outside sieve_segment":
                 with_work("sieves.prime", w.max_n - 2),
             f"a {w.term_layer} step short": with_work(w.term_layer, term_steps - 1)}
    for layer in w.layers:
        cases[f"{layer} bypassed"] = with_work(layer, 0)
    return cases


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    contract = run.load_contract()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for name, full in WORKLOADS.items():
            w = tiny(full)
            ref = freeze_member(w.argv_for(0), workdir)
            float_col, wrong_col, wrong = WRONG[name]
            last_bit = corrupt(ref, float_col, lambda v: v * (1 + 4e-16))
            check(not refcheck.compare(ref["output"], last_bit),
                  f"{name}: a last-bit change of {float_col} passes the reference check")
            bad_ref = corrupt(ref, wrong_col, wrong)
            check(bool(refcheck.compare(ref["output"], bad_ref)),
                  f"{name}: a wrong {wrong_col} fails the reference check")

            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                _, result = run.benchmark(w, 0, 1.0, trace, ref=ref)
                want = [(m["name"], m["unit"]) for m in contract[kind]]
                check(result["correct"] and names_units(result["metrics"]) == want,
                      f"{name}: --trace {int(trace)} is correct and prints every "
                      f"{kind} metric with its unit")
            record, why = run.run_child(w.argv_for(0), workdir, trace=True)
            check(record is not None and not run.check_trace([record], w, ref["prime_terms"]),
                  f"{name}: a traced sample passes the trace check ({why})")
            for what, bad in escaped(record, w).items():
                check(bool(run.check_trace([bad], w, ref["prime_terms"])),
                      f"{name}: the trace check fails on {what}")

            _, result = run.benchmark(w, 0, 1.0, False, ref=bad_ref)
            check(not result["correct"] and result["failed"] == result["attempted"] >= 1,
                  f"{name}: a corrupted reference counts every sample as failed")

        record, why = run.run_child(OVERSIZED, workdir, mem_limit_mb=512)
        check(record is None and "memory ceiling" in why,
              f"a child over its memory ceiling is a failed sample ({why})")

        bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=workdir)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dyadic",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the sources the benchmark exits non-zero and prints no result")
    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
