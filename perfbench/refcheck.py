"""Compare a CLI output table with its frozen reference.

Integer columns (counts, prime counts, decomposition sums) must match
exactly: a wrong count is a failed run.  Float columns get a tolerance
derived from how the CLI computes them, wide enough that a change which
only reorders floating-point arithmetic (last-bit changes, about 1e-15
relative) passes, and far below any change of a count:

* prediction, z, rhs, term1..term4 and the other plain floats: relative
  FLOAT_RTOL.
* abs_error = |count - prediction| cancels, so its tolerance is FLOAT_RTOL
  times the prediction; rel_error = abs_error / prediction gets FLOAT_RTOL.
* theta_hat, the least-squares slope of log(abs_error + 1) against log N,
  gets the first-order propagation of those abs_error tolerances.
* lhs, a sum of moduli of exponential sums over primes: each of its
  prime_terms phase terms is accurate to PHASE_EPS (sqfpairs.expsum), so
  it may move by prime_terms * 2*pi * PHASE_EPS; ratio = lhs / rhs gets
  that bound divided by rhs.

FLOAT_RTOL = 1e-9: the CLI prints 15 significant digits and every float
column is a few operations away from exact integers and the certified
sigma midpoint, so a rewrite that keeps the arithmetic moves them by about
1e-15, while a change of the density constant or of the formulas moves
them by far more than 1e-9.
"""

from __future__ import annotations

import math

INT_COLUMNS = frozenset({"N", "count", "pi_N", "sigma1", "sigma2", "total"})
FLOAT_RTOL = 1e-9


def parse_table(text: str) -> tuple:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        return (), []
    header = tuple(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = {}
        for col, cell in zip(header, cells):
            try:
                row[col] = int(cell)
            except ValueError:
                try:
                    row[col] = float(cell)
                except ValueError:
                    row[col] = cell   # "na"
        rows.append(row)
    return header, rows


def _theta_tol(rows) -> float:
    xs = [math.log(r["N"]) for r in rows]
    xbar = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    return math.fsum(abs(x - xbar) / sxx * FLOAT_RTOL * r["prediction"] / (r["abs_error"] + 1.0)
                     for x, r in zip(xs, rows))


def _tolerance(col: str, ref_row: dict, ref_rows: list, ref: dict) -> float:
    value = abs(ref_row[col])
    if col == "abs_error":
        return FLOAT_RTOL * abs(ref_row["prediction"])
    if col == "rel_error":
        return FLOAT_RTOL
    if col == "theta_hat":
        return _theta_tol(ref_rows)
    if col in ("lhs", "ratio"):
        lhs_tol = ref["prime_terms"] * 2.0 * math.pi * ref["phase_eps"]
        if col == "lhs":
            return lhs_tol + FLOAT_RTOL * value
        return lhs_tol / ref_row["rhs"] + FLOAT_RTOL * value
    return FLOAT_RTOL * value


def compare(text: str, ref: dict) -> list:
    """Mismatches between a CLI output and ref; an empty list means it passed.

    ref holds the frozen "output" text, "prime_terms" and "phase_eps".
    """
    header, rows = parse_table(text)
    ref_header, ref_rows = parse_table(ref["output"])
    if header != ref_header:
        return [f"header {','.join(header)!r} != {','.join(ref_header)!r}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != {len(ref_rows)}"]
    bad = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for col in header:
            got, want = row.get(col), ref_row[col]
            if got is None:
                bad.append(f"row {i}: {col} missing")
            elif col in INT_COLUMNS or isinstance(want, str) or isinstance(got, str):
                if got != want:
                    bad.append(f"row {i}: {col} = {got!r}, reference {want!r}")
            elif not abs(got - want) <= _tolerance(col, ref_row, ref_rows, ref):
                bad.append(f"row {i}: {col} = {got!r}, reference {want!r}")
    return bad
