"""Run the mutation battery: each named mutant must make its test module fail.

    python .github/scripts/mutants.py

A mutant is one text edit of a module under src/, which must occur exactly
once in that module, and the test module expected to kill it.  The script
copies src/, tests/ and pyproject.toml beside this script's checkout into a
temporary directory, without any .hypothesis database, and runs

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 <module>

there: first once per test module on the unmutated copy, then once per
mutant with its edit applied, the edit undone and the .hypothesis directory
removed after each run.  A mutant is killed when the run exits non-zero.
The script prints each run's result and time, and exits 1 when a baseline
run fails, an edit does not apply, or a mutant survives.

EQUIVALENT lists mutants that change no output, only the work done, with
the reason; they are not run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: (name, module under src/sqfpairs, text, replacement, test module that kills it)
MUTANTS = [
    # p = isqrt(n) would take the at-most-once branch and lose its second hit
    ("square-hits-split-left", "sieves.py",
     'split = int(np.searchsorted(ps, math.isqrt(n), side="right"))',
     'split = int(np.searchsorted(ps, math.isqrt(n), side="left"))',
     "tests/test_sieves.py"),
    # a block end at x = k + 1/2 would lose its last integer
    ("dyadic-ends-strict-half", "expsum.py",
     "int(x - lo >= 0.5)", "int(x - lo > 0.5)",
     "tests/test_expsum.py"),
    ("decompose-z-cap-doubled", "counting.py",
     "z_cap = (alpha.to_float() * N) ** (2.0 / 3.0)",
     "z_cap = 2 * (alpha.to_float() * N) ** (2.0 / 3.0)",
     "tests/test_counting.py"),
    # the stream's own budget check would still refuse, but only after sieving
    ("dyadic-triples-twice-budget", "expsum.py",
     "if n_triples > budget:", "if n_triples > 2 * budget:",
     "tests/test_expsum.py"),
    # radical 2 (4 | g, no other small square) would count as squarefree
    ("flag-wheel-rad-le-2", "sieves.py",
     "flags = radicals == 1", "flags = radicals <= 2",
     "tests/test_sieves.py"),
    ("buffer-one-cell-short", "sieves.py",
     "out.size < n)", "out.size < n - 1)",
     "tests/test_sieves.py"),
]

#: (name, why it changes no output)
EQUIVALENT = [
    ("prime-strikes-from-3p",
     "striking each base prime p from 3 * p instead of p * p clears the same cells: "
     "every odd multiple of p below p * p has a smaller prime factor; only slower"),
    ("decompose-merges-every-run",
     "merging each run tally into the class tally at once gives the same sorted "
     "(keys, counts) pair; only slower"),
]


def _pytest(copy: Path, module: str) -> tuple[bool, float]:
    """(passed, seconds) of one run of module in copy, from a fresh .hypothesis."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", module],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0, time.perf_counter() - start


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")

        for module in sorted({m[-1] for m in MUTANTS}):
            passed, seconds = _pytest(copy, module)
            print(f"{'baseline ok' if passed else 'BASELINE FAILS':16s} {seconds:6.1f} s  {module}",
                  flush=True)
            failed |= not passed
        if failed:
            return 1

        for name, target, text, replacement, module in MUTANTS:
            path = copy / "src" / "sqfpairs" / target
            source = path.read_text()
            if source.count(text) != 1:
                print(f"{'EDIT NOT APPLIED':16s} {'':8s}  {name}: {text!r} occurs "
                      f"{source.count(text)} times in {target}", flush=True)
                failed = True
                continue
            path.write_text(source.replace(text, replacement))
            try:
                survived, seconds = _pytest(copy, module)
            finally:
                path.write_text(source)
            print(f"{'SURVIVED' if survived else 'killed':16s} {seconds:6.1f} s  {name} ({module})",
                  flush=True)
            failed |= survived

    for name, reason in EQUIVALENT:
        print(f"{'equivalent':16s} {'':8s}  {name}: {reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
