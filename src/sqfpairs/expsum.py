"""Exponential sums over primes and the empirical bound harness.

The dyadic-block aggregates and the discrepancy/uniformity inequalities both
carry unspecified absolute constants, so nothing here asserts a bound with an
invented constant: reports record the lhs/rhs ratio and the test suite
freezes first-run values as regressions.

Primes are streamed once per call, segment by segment in ascending order,
and never materialized up to N.  A dyadic block evaluates all of its
(h, d, t) triples on each segment of that one stream; every triple keeps its
own complex sum, added to segment by segment exactly as exp_sum_primes does
(both go through _phase_sum), so the results are deterministic and equal to
the per-query sums.

_phase_sum evaluates phases, exp and sum over chunks of _PHASE_CHUNK = 4096
primes of a segment: numpy's pairwise summation within a chunk, the chunk
sums added in ascending order.  The chunks keep every float64 and complex128
temporary at 32 or 64 KiB, under glibc's default mmap threshold of 128 KiB,
so the temporaries reuse warm heap pages.  Whole-segment temporaries of a
segment of 78498 primes (N = 1e6) are 0.6 to 1.3 MB each; glibc serves
those with a fresh mmap and page faults, unless some earlier large free
happened to raise its dynamic threshold.  Once the prime sieve stopped
freeing an 8 MB array per window, nothing did.  On the CLI's dyadic query
(sqrt:2, N = 1e6, H = 4, d = t = 2; 2-core VM, one fresh process per run,
median of 10) wall time went from 0.113 s with the int64 sieve array to
0.170 s without it; with chunks it reads 0.093 s.  Over 10 alternating
pairs of 30 s perfbench runs the dyadic workload read 0.120 s before both
changes and 0.115 s after, peak RSS 40.7 -> 32.1 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alpha import MAX_H, AlgebraicAlpha
from .errors import BudgetExceededError, ConfigError, InvalidRangeError, RangeCapError
from .sieves import DEFAULT_SEGMENT_CAP, iter_prime_segments

#: Per-call cap on the number of evaluated (h, d, t, p) tuples.
DEFAULT_BUDGET = 10 ** 6

#: Cap keeping phase arithmetic well inside the exact range; the cap MAX_H
#: on h belongs to the phase layer (AlgebraicAlpha.frac_parts).
MAX_PHASE_MODULUS = 1 << 40

#: Per-term phase precision mod 1; AlgebraicAlpha.frac_parts proves 2**-51.
PHASE_EPS = 1e-15

_TWO_PI_I = 2j * np.pi

#: Primes per phase chunk in _phase_sum (see the module docstring).
_PHASE_CHUNK = 1 << 12


@dataclass(frozen=True)
class ExpSumQuery:
    """Parameters of a single prime exponential sum with phase alpha*h*p/(d^2 t^2)."""

    h: int
    d: int
    t: int
    N: int


@dataclass(frozen=True)
class DyadicQuery:
    """Dyadic blocks (H, 2H], (D, 2D], (T, 2T] aggregated over primes p <= N."""

    H: float
    D: float
    T: float
    N: int


@dataclass(frozen=True)
class BoundReport:
    """lhs vs rhs of a bound, with the four rhs summands and the recorded ratio.

    For the uniformity (interval-count) harness only the first two rhs_terms
    are meaningful (K/H and the weighted sum); the rest are zero.
    """

    lhs: float
    rhs_terms: tuple
    rhs: float
    ratio: float
    eps_used: float


def _check_query(q: ExpSumQuery) -> int:
    if q.h < 1 or q.d < 1 or q.t < 1:
        raise InvalidRangeError(f"need h, d, t >= 1, got {q}")
    if q.N < 2:
        raise InvalidRangeError(f"need N >= 2, got N={q.N}")
    if q.h > MAX_H:  # frac_parts' own cap, checked before any prime is sieved
        raise RangeCapError(f"h={q.h} exceeds cap {MAX_H}")
    m = (q.d * q.t) ** 2
    if m > MAX_PHASE_MODULUS:
        raise RangeCapError(f"modulus {m} exceeds cap {MAX_PHASE_MODULUS}")
    return m


def _phase_sum(alpha: AlgebraicAlpha, h: int, ps: np.ndarray, m: int) -> complex:
    """Sum of e(alpha*h*p/m) over the primes of one segment, chunk by chunk."""
    total = 0j
    for i in range(0, ps.size, _PHASE_CHUNK):
        phases = alpha.frac_parts(h, ps[i:i + _PHASE_CHUNK], m)
        total += complex(np.exp(_TWO_PI_I * phases).sum())
    return total


def exp_sum_primes(alpha: AlgebraicAlpha, q: ExpSumQuery,
                   segment_cap: int = DEFAULT_SEGMENT_CAP) -> complex:
    """Sum of e(alpha*h*p/(d^2 t^2)) over primes p <= N.

    Each phase is within PHASE_EPS of its true value mod 1, so the
    accumulated error stays below pi(N) * 2*pi * PHASE_EPS plus the
    rounding of exp and of the summation.
    """
    m = _check_query(q)
    total = 0j
    for ps in iter_prime_segments(2, q.N + 1, segment_cap):
        total += _phase_sum(alpha, q.h, ps, m)
    return total


def _check_blocks(q: DyadicQuery) -> None:
    if not all(math.isfinite(x) and x >= 1 for x in (q.H, q.D, q.T)):
        raise InvalidRangeError(f"need finite H, D, T >= 1, got {q}")


def _dyadic_ends(x: float) -> tuple[int, int]:
    """(floor(x), floor(2x)) as exact ints, without forming 2x in floats."""
    lo = math.floor(x)
    return lo, 2 * lo + int(x - lo >= 0.5)


def dyadic_block_sum(alpha: AlgebraicAlpha, q: DyadicQuery,
                     budget: int = DEFAULT_BUDGET,
                     segment_cap: int = DEFAULT_SEGMENT_CAP) -> float:
    """Sum of |exp_sum_primes| over all integer (h, d, t) in the dyadic blocks.

    One prime stream feeds every triple.  The work, (number of triples) *
    pi(N), is counted along that stream, and BudgetExceededError is raised
    as soon as it exceeds budget, before the phases of the segment that
    crossed it are evaluated.  A block with more triples than budget is
    refused before any triple is built or any prime sieved.
    """
    _check_blocks(q)
    if q.N < 2:
        raise InvalidRangeError(f"need N >= 2, got N={q.N}")
    ends = [_dyadic_ends(x) for x in (q.H, q.D, q.T)]
    # pi(N) >= 1, so the triple count alone already bounds the work from below
    n_triples = math.prod(hi - lo for lo, hi in ends)
    if n_triples > budget:
        raise BudgetExceededError(
            f"{n_triples} triples already exceed budget {budget}; shrink the blocks"
        )
    hs, ds, ts = (range(lo + 1, hi + 1) for lo, hi in ends)
    triples = [(h, _check_query(ExpSumQuery(h, d, t, q.N)))
               for h in hs for d in ds for t in ts]
    sums = [0j] * len(triples)
    work = 0
    for ps in iter_prime_segments(2, q.N + 1, segment_cap):
        work += len(triples) * int(ps.size)
        if work > budget:
            raise BudgetExceededError(
                f"{work} term evaluations so far exceed budget {budget}; "
                "shrink the blocks"
            )
        for i, (h, m) in enumerate(triples):
            sums[i] += _phase_sum(alpha, h, ps, m)
    return math.fsum(abs(s) for s in sums)


def dyadic_bound_rhs(q: DyadicQuery, eps: float) -> BoundReport:
    """The four-power bound for the dyadic block sum, times (HDTN)^eps.

    rhs-only report: lhs and ratio are zeroed; ratio_scan fills them in.
    """
    _check_blocks(q)
    if not 0.0 < eps <= 0.5:
        raise ConfigError(f"need eps in (0, 0.5], got {eps}")
    H, D, T, N = q.H, q.D, q.T, float(q.N)
    terms = (
        H ** 0.5 * D ** 2 * T ** 2 * N ** 0.5,
        H ** 0.6 * D * T * N ** 0.8,
        H * D * T * N ** 0.75,
        H ** 0.75 * D ** 1.5 * T ** 1.5 * N ** 0.75,
    )
    rhs = (H * D * T * N) ** eps * math.fsum(terms)
    return BoundReport(lhs=0.0, rhs_terms=terms, rhs=rhs, ratio=0.0, eps_used=eps)


def ratio_scan(alpha: AlgebraicAlpha, grid: Sequence[DyadicQuery], eps: float,
               budget: int = DEFAULT_BUDGET,
               segment_cap: int = DEFAULT_SEGMENT_CAP) -> list[BoundReport]:
    """One BoundReport per dyadic query; ratios are recorded, never asserted."""
    out = []
    for q in grid:
        rhs_rep = dyadic_bound_rhs(q, eps)
        lhs = dyadic_block_sum(alpha, q, budget, segment_cap)
        out.append(BoundReport(lhs=lhs, rhs_terms=rhs_rep.rhs_terms,
                               rhs=rhs_rep.rhs, ratio=lhs / rhs_rep.rhs,
                               eps_used=eps))
    return out


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise InvalidRangeError("points must be nonempty")
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ConfigError("points must lie in [0, 1)")
    return pts


def star_discrepancy(points) -> float:
    """Exact star discrepancy via the sorted-points formula."""
    pts = np.sort(_check_points(points))
    K = pts.size
    i = np.arange(1, K + 1, dtype=np.float64)
    return float(max((i / K - pts).max(), (pts - (i - 1.0) / K).max()))


def erdos_turan_bound(points, H: int, interval) -> BoundReport:
    """Interval-count deviation vs the truncated weighted exponential sums.

    lhs = |#{k: t_k in [a, b)} - K(b-a)|, rhs = K/H + Sum_{h<=H} |S(h)|/h.
    Membership is half-open so the full interval [0, 1) gives lhs = 0 for any
    admissible points.  The recorded ratio is a regression quantity; the true
    absolute constant is not claimed.
    """
    pts = _check_points(points)
    a, b = interval
    if not (0.0 <= a < b <= 1.0):
        raise ConfigError(f"need 0 <= a < b <= 1, got ({a}, {b})")
    if H < 1:
        raise InvalidRangeError(f"need H >= 1, got H={H}")
    K = pts.size
    count = int(np.count_nonzero((pts >= a) & (pts < b)))
    lhs = abs(count - K * (b - a))
    leading = K / H
    weighted = math.fsum(
        abs(complex(np.exp(_TWO_PI_I * h * pts).sum())) / h for h in range(1, H + 1)
    )
    rhs = leading + weighted
    return BoundReport(lhs=lhs, rhs_terms=(leading, weighted, 0.0, 0.0),
                       rhs=rhs, ratio=lhs / rhs, eps_used=0.0)


def beatty_frac_points(alpha: AlgebraicAlpha, K: int, m: int = 1,
                       segment_cap: int = DEFAULT_SEGMENT_CAP) -> np.ndarray:
    """The sequence {alpha*k/m} for k = 1..K, as float64 phases.

    All K points are held at once (an int64 and a float64 per point), so K
    above segment_cap raises RangeCapError before anything is allocated.
    """
    if K < 1:
        raise InvalidRangeError(f"need K >= 1, got K={K}")
    if K > segment_cap:
        raise RangeCapError(f"K={K} exceeds the segment cap {segment_cap}; "
                            "the points are held in memory at once")
    return alpha.frac_parts(1, range(1, K + 1), m)
