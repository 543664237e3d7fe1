"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
recorded diagnostics.  Every tolerance is pinned here; regression fixtures
were frozen from the first run of this implementation.
"""

import math
import time
from pathlib import Path

import pytest

import oracles
from sqfpairs import (
    DyadicQuery,
    carlitz_count,
    congruence_pair_count,
    coprime_double_sum,
    crt_residue,
    decompose,
    error_table,
    pair_count,
    parse_alpha,
    primes_in,
    ratio_scan,
    sigma_enclosure,
    sigma_partial_product,
    single_count,
)
from sqfpairs.cli import COLUMNS, COMMANDS
from sqfpairs.cli import main as cli_main
from sqfpairs.counting import basel_midpoint, sigma_midpoint

SQRT2 = parse_alpha("sqrt:2")
GOLDEN = parse_alpha("quad:1,1,2,5")
POLY2 = parse_alpha("poly:-2,0,1@1/1,2/1")

# Dyadic-bound ratio fixtures (H, D=T, N) -> lhs/rhs, frozen from the first run.
RATIO_FIXTURE = {
    (1, 1, 10 ** 3): 0.016429812493686632,
    (1, 1, 10 ** 4): 0.0071698794600221676,
    (1, 1, 10 ** 5): 0.00182052056941589,
    (1, 2, 10 ** 3): 0.008750157972974246,
    (1, 2, 10 ** 4): 0.0046345405980613933,
    (1, 2, 10 ** 5): 0.0017338759072263372,
    (2, 1, 10 ** 3): 0.011939844000180652,
    (2, 1, 10 ** 4): 0.0073029969921123523,
    (2, 1, 10 ** 5): 0.0032682846015435084,
    (2, 2, 10 ** 3): 0.0096193798903829401,
    (2, 2, 10 ** 4): 0.0056835744422507545,
    (2, 2, 10 ** 5): 0.00166964627846082,
    (4, 1, 10 ** 3): 0.015873847073730216,
    (4, 1, 10 ** 4): 0.0067594228372502988,
    (4, 1, 10 ** 5): 0.0029239401595339358,
    (4, 2, 10 ** 3): 0.012777428065415701,
    (4, 2, 10 ** 4): 0.0040599734058187672,
    (4, 2, 10 ** 5): 0.0023541242864913857,
}


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_sigma_constant():
    start = time.perf_counter()
    enc = sigma_enclosure(10 ** 6)
    independent = sigma_partial_product(10 ** 7)
    bridge_gap = abs(enc.midpoint() - coprime_double_sum(2000))
    elapsed = time.perf_counter() - start
    ok = (enc.width() < 1e-5 and enc.contains(independent)
          and bridge_gap < 1e-3 and elapsed < 10.0)
    report(1, ok,
           f"sigma width={enc.width():.3e}, contains P=1e7 recompute "
           f"{independent:.12f}, bridge gap={bridge_gap:.3e}, {elapsed:.1f}s")


def test_criterion_02_carlitz_convergence():
    start = time.perf_counter()
    smid = sigma_midpoint()
    errors = []
    for N in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7):
        errors.append(abs(carlitz_count(N) / N - smid))
    elapsed = time.perf_counter() - start
    monotone = all(e2 <= 1.1 * e1 for e1, e2 in zip(errors, errors[1:]))
    ok = errors[-1] < 0.002 and monotone and elapsed < 60.0
    report(2, ok,
           f"|ratio-sigma|={['%.2e' % e for e in errors]}, final<0.002 and "
           f"nonincreasing (10% slack), {elapsed:.1f}s")


def test_criterion_03_main_theorem_desk_check():
    start = time.perf_counter()
    smid = sigma_midpoint()
    details = []
    ok = True
    for alpha in (SQRT2, GOLDEN):
        rep = pair_count(alpha, 10 ** 6)
        dev = abs(rep.count / rep.prime_count - smid)
        # includes the optional 10^7 point; it is cheap here
        table = error_table(alpha, [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
        theta = table.fitted_exponent
        ok = ok and dev < 0.02 and theta is not None and math.isfinite(theta)
        details.append(f"{alpha.spec}: dev={dev:.4f}, theta_hat={theta:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1200.0
    report(3, ok, "; ".join(details) + f" (no assertion vs 0.9), {elapsed:.1f}s")


def test_criterion_04_single_squarefree_density():
    rep = single_count(SQRT2, 10 ** 6)
    dev = abs(rep.count / rep.prime_count - basel_midpoint())
    report(4, dev < 0.02, f"single count dev from 6/pi^2 = {dev:.4f}")


def test_criterion_05_oracle_equivalence_at_1e4():
    N = 10 ** 4
    scaled = oracles.SQRT2_SCALED
    ok = pair_count(SQRT2, N).count == oracles.brute_pair_count(N, scaled)
    ok = ok and single_count(SQRT2, N).count == oracles.brute_single_count(N, scaled)
    checked = 0
    for d in range(1, 7):
        for t in range(1, 7):
            if math.gcd(d, t) != 1:
                continue
            ok = ok and congruence_pair_count(SQRT2, N, d, t) == \
                oracles.brute_congruence_count(N, scaled, d, t)
            checked += 1
    report(5, ok, f"pair/single/congruence ({checked} coprime pairs) match "
                  "the 256-bit brute force exactly")


def test_criterion_06_decomposition_identity():
    ok = True
    cases = 0
    for N in (10 ** 3, 10 ** 4):
        expected = pair_count(SQRT2, N).count
        cap = (SQRT2.to_float() * N) ** (2.0 / 3.0)
        for z in (2.0, N ** 0.1, N ** 0.3, cap):
            rep = decompose(SQRT2, N, z)
            ok = ok and rep.sigma1 + rep.sigma2 == rep.total == expected
            cases += 1
    report(6, ok, f"sigma1+sigma2 == pair count exactly in {cases} (N, z) cases")


def test_criterion_07_congruence_window_chain():
    N = 10 ** 4
    primes = primes_in(2, N + 1).tolist()
    ok = True
    checked = 0
    for d in range(1, 7):
        for t in range(1, 7):
            if math.gcd(d, t) != 1:
                continue
            m = (d * t) ** 2
            q = crt_residue(d, t)
            via_window = sum(1 for p in primes if SQRT2.frac_in_window(p, m, q))
            ok = ok and via_window == congruence_pair_count(SQRT2, N, d, t)
            checked += 1
    report(7, ok, f"CRT-residue route == fractional-window route for "
                  f"{checked} coprime pairs at N=1e4")


def test_criterion_08_exact_floors_both_representations():
    ok = True
    for n in range(10 ** 5 + 1):
        ref = math.isqrt(2 * n * n)
        if SQRT2.floor_times(n) != ref or POLY2.floor_times(n) != ref:
            ok = False
            break
    report(8, ok, "floor(sqrt2 * n) == isqrt(2 n^2) for n <= 1e5, "
                  "quadratic and poly-root representations")


def test_criterion_09_erdos_turan_harness():
    from sqfpairs import beatty_frac_points, erdos_turan_bound

    pts = beatty_frac_points(SQRT2, 10 ** 4, 36)
    ratios = []
    ok = True
    for q in (0, 8, 35):
        rep = erdos_turan_bound(pts, 100, (q / 36.0, (q + 1) / 36.0))
        ratios.append(rep.ratio)
        ok = ok and rep.lhs <= 4.0 * rep.rhs
    report(9, ok, f"lhs <= 4*rhs at q in (0, 8, 35); ratios="
                  f"{['%.4f' % r for r in ratios]}")


def test_criterion_10_dyadic_bound_ratio_scan():
    grid = [DyadicQuery(float(H), float(DT), float(DT), N)
            for H in (1, 2, 4) for DT in (1, 2)
            for N in (10 ** 3, 10 ** 4, 10 ** 5)]
    reps = ratio_scan(SQRT2, grid, 0.01)
    ok = True
    worst = 0.0
    for q, rep in zip(grid, reps):
        fixture = RATIO_FIXTURE[(int(q.H), int(q.D), q.N)]
        ok = ok and math.isfinite(rep.ratio)
        ok = ok and fixture / 1.05 <= rep.ratio <= fixture * 1.05
        worst = max(worst, rep.ratio)
    report(10, ok, f"{len(reps)} ratios finite and within 1.05x of frozen "
                   f"fixtures; max ratio={worst:.6f}")


#: The argvs whose outputs criterion 11 reruns and CI's outputs-vs-base job
#: diffs against the base commit; every command and mode has one.
BATTERY = [
    ("sigma.json", ["sigma", "--P", "1e6", "--format", "json"]),
    ("sigma.csv", ["sigma", "--P", "1e4"]),
    ("carlitz.csv", ["carlitz", "--n", "1e3,1e4"]),
    # three windows of 2**20 flags
    ("carlitz_runs.csv", ["carlitz", "--n", "3e6"]),
    ("pairs.csv", ["pairs", "--alpha", "sqrt:2", "--n", "1e3,1e4"]),
    ("pairs_poly.csv", ["pairs", "--alpha", "poly:-30000,0,0,1@31/1,32/1", "--n", "1e4,1e5"]),
    # about 90 flag runs of 2**20 cells across three prime windows
    ("pairs_wide.csv", ["pairs", "--alpha", "poly:-30000,0,0,1@31/1,32/1", "--n", "3e6"]),
    ("single.csv", ["single", "--alpha", "quad:1,1,2,5", "--n", "1e3,1e4"]),
    ("decompose.csv", ["decompose", "--alpha", "sqrt:2", "--n", "1e3,1e4",
                       "--z", "pow:0.3"]),
    ("expsum_dyadic.csv", ["expsum", "--alpha", "sqrt:2", "--n", "1e3,1e4"]),
    ("expsum_single.csv", ["expsum", "--alpha", "sqrt:2", "--n", "1e4",
                           "--h", "2", "--d", "2", "--t", "3"]),
    # two prime windows of 2**22 values, whose width fixes the sums' bits
    ("expsum_windows.csv", ["expsum", "--alpha", "sqrt:2", "--n", "5e6", "--h", "1"]),
    ("discrepancy.csv", ["discrepancy", "--alpha", "sqrt:2", "--n", "1e4",
                         "--d", "2", "--t", "3"]),
    ("erdos_turan.json", ["discrepancy", "--alpha", "sqrt:2", "--n", "1e4",
                          "--d", "2", "--t", "3", "--interval", "0,0.027777778",
                          "--h", "100", "--format", "json"]),
    # rows for two K, each read from the points of the largest
    ("discrepancy_ks.csv", ["discrepancy", "--alpha", "sqrt:2", "--n", "1e3,1e4",
                            "--d", "2", "--t", "3"]),
    ("erdos_turan_ks.csv", ["discrepancy", "--alpha", "sqrt:2", "--n", "1e3,1e4",
                            "--interval", "0,0.5", "--h", "50"]),
    ("fit.csv", ["fit", "--alpha", "sqrt:2", "--n", "1e3,1e4,1e5"]),
    # the JSON-array writer of a table command
    ("fit.json", ["fit", "--alpha", "sqrt:2", "--n", "1e3,1e4,1e5", "--format", "json"]),
    ("expsum_single.json", ["expsum", "--alpha", "sqrt:2", "--n", "1e4",
                            "--h", "2", "--d", "2", "--t", "3", "--format", "json"]),
]


def test_criterion_11_byte_identical_reruns(tmp_path):
    digests = []
    for run_dir in ("first", "second"):
        base = tmp_path / run_dir
        base.mkdir()
        blobs = {}
        for name, argv in BATTERY:
            out = base / name
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, (name, code)
            blobs[name] = out.read_bytes()
        digests.append(blobs)
    ok = digests[0] == digests[1]
    report(11, ok, f"{len(BATTERY)} experiment files byte-identical across "
                   "repeated runs")


def _columns_key(argv):
    """The COLUMNS key of a battery argv, from its command and mode."""
    command = argv[0]
    if command == "expsum":
        return "expsum_single" if "--h" in argv else "expsum_dyadic"
    if command == "discrepancy":
        return "discrepancy_et" if "--interval" in argv else "discrepancy"
    return command


def test_battery_covers_every_command_and_mode():
    # a new command or mode fails here until the byte-identity gate runs it
    assert {argv[0] for _, argv in BATTERY} >= set(COMMANDS)
    assert {_columns_key(argv) for _, argv in BATTERY} >= set(COLUMNS)
