"""Freeze the reference output of every workload member into reference.json.

    python3 perfbench/freeze.py

Run it at the commit whose outputs define "correct"; it overwrites
reference.json.  Each entry keeps the CLI output text, the phase precision
PHASE_EPS and prime_terms, the number of (prime, phase) terms the command
evaluates, which refcheck.py needs for its tolerances and run.py for
primes_per_s.
"""

from __future__ import annotations

import json
import sys
import tempfile

from refcheck import parse_table
from run import HERE, ROOT, SRC, run_child
from workloads import WORKLOADS

sys.path.insert(0, str(SRC))
from sqfpairs.expsum import PHASE_EPS  # noqa: E402
from sqfpairs.sieves import prime_count  # noqa: E402


def prime_terms(output: str) -> int:
    """Sum over rows of pi(N), times the number of (h, d, t) triples of a
    dyadic exp-sum row: one term per prime per triple."""
    total = 0
    for row in parse_table(output)[1]:
        triples = 1
        if "H" in row:
            for x in (row["H"], row["D"], row["T"]):
                triples *= int(2 * x) - int(x)
        total += triples * prime_count(row["N"])
    return total


def freeze_member(argv, workdir) -> dict:
    record, why = run_child(argv, workdir)
    if record is None:
        raise SystemExit(f"sqfpairs {' '.join(argv)} failed: {why}")
    return {"argv": list(argv), "prime_terms": prime_terms(record["output"]),
            "phase_eps": PHASE_EPS, "output": record["output"]}


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for w in WORKLOADS.values():
            reference[w.name] = [freeze_member(w.argv_for(i), workdir)
                                 for i in range(len(w.family))]
            print(f"{w.name}: {len(w.family)} members frozen", file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
