"""Exponential sums over primes and the empirical bound harness.

The dyadic-block aggregates and the discrepancy/uniformity inequalities both
carry unspecified absolute constants, so nothing here asserts a bound with an
invented constant: reports record the lhs/rhs ratio and the test suite
freezes first-run values as regressions.

Primes are streamed once per call, in ascending windows of _SUM_WINDOW =
2**22 values, and never materialized up to N.  _prime_sums is the one stream
loop: exp_sum_primes runs it for one (h, m) and a dyadic block for all of
its (h, d, t) triples at once.  Every (h, m) keeps its own complex sum,
added to window by window through _phase_sum, so the results are
deterministic and a block's sums equal the per-query sums bit for bit.

The width is fixed because it fixes the bits: _phase_sum restarts its
chunks at each window, so another width sums the same terms in another
order.  With windows of 2**20 values, expsum --alpha sqrt:2 --n 5e6 --h 1
prints the real part as -37.9049033496095, against -37.9049033496094 with
2**22.  A window costs half a byte a value in odd cells plus its primes,
so a sum peaks at about 6.5 MiB of traced memory whatever N is (the same
at N = 5e6 and 2e7).

_phase_sum evaluates phases and e(x) over chunks of _PHASE_CHUNK = 8192
primes of a window: _e_sum sums e(x) over a chunk with numpy's pairwise
summation, and the chunk sums are added in ascending order.  e(x) is a
table-driven kernel (Tang, ACM TOMS 15, 1989): e(j/K) from a table of
K + 1 = 4097 entries, built on first use, times a degree-5 polynomial in the
rest of the phase, at most 1/(2K) of a turn.  Each term is within
EXP_EPS = 2**-50 of e(x) (the proof is in _e_sum's docstring).  It replaced
numpy's complex exp, which cost about 60 ns a term.

The chunks keep every temporary at 64 KiB, under glibc's default mmap
threshold of 128 KiB, so the temporaries reuse warm heap pages; a whole
window's temporaries (0.6 MB each at N = 1e6) would each take a fresh mmap
and its page faults.  Both kernels work in place (frac_parts holds at most
two chunk-sized 8-byte arrays at once, _e_sum six float64 arrays, its input
included), so a _phase_sum call peaks at about 395 KB of traced memory, all
of it _e_sum's.  Much of the cost of a chunk is a fixed cost per numpy
call: with chunks of 8192 instead of 4096 primes the dyadic CLI query
(sqrt:2, N = 1e6, H = 4, d = t = 2; 2-core VM) ran in 0.051 s against
0.072 s, the medians of 11 alternating pairs of 8 s benchmark runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .alpha import MAX_H, AlgebraicAlpha
from .errors import BudgetExceededError, ConfigError, InvalidRangeError, RangeCapError
from .sieves import DEFAULT_SEGMENT_CAP, GLOBAL_MAX, iter_prime_segments

#: Per-call cap on the number of evaluated (h, d, t, p) tuples.
DEFAULT_BUDGET = 10 ** 6

#: Largest modulus m = (d*t)**2 of an exponential-sum query: a limit on query
#: size, not on precision (frac_parts is proven for every m >= 1, and the
#: discrepancy points take larger m).  The cap MAX_H on h belongs to the
#: phase layer (AlgebraicAlpha.frac_parts).
MAX_PHASE_MODULUS = 1 << 40

#: Per-term phase precision mod 1 that the tests hold frac_parts to; its
#: docstring proves 2**-52 + 2**-64 (about 2.2e-16).
PHASE_EPS = 1e-15

#: Per-term error of e(x) in _e_sum, proven in its docstring.
EXP_EPS = 2.0 ** -50

_TWO_PI_I = 2j * np.pi

#: Primes per phase chunk in _phase_sum (see the module docstring).
_PHASE_CHUNK = 1 << 13

#: Values per prime window of the sums; the chunks restart at each window,
#: so this width fixes the bits of every sum (see the module docstring).
_SUM_WINDOW = 1 << 22

#: Table size of _e_sum: the table holds e(j/_E_K) for j = 0.._E_K.
_E_K = 1 << 12


@functools.cache
def _e_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/K for j = 0..K, K = _E_K.

    libm evaluates only the first octant, at the angles k*fl(2*pi/K) <= pi/4,
    which are off from 2*pi*k/K by under 0.78 * 2**-53; every other entry
    follows exactly from e(1/4 - y) = i*conj(e(y)) and e(y + 1/4) = i*e(y).
    _e_sum's proof assumes each entry within 2**-52 of its true value; the
    tests check every entry.  The cached arrays are read-only.
    """
    K = _E_K
    a = np.arange(K // 8 + 1) * (2 * np.pi / K)
    c, s = np.cos(a), np.sin(a)
    qc = np.concatenate((c, s[-2::-1]))  # j = 0..K/4
    qs = np.concatenate((s, c[-2::-1]))
    cos_j = np.concatenate((qc, -qs[1:], -qc[1:], qs[1:]))
    sin_j = np.concatenate((qs, qc[1:], -qs[1:], -qc[1:]))
    cos_j.flags.writeable = sin_j.flags.writeable = False
    return cos_j, sin_j


# Taylor coefficients of cos(2*pi*d/K) - 1 and sin(2*pi*d/K) in d.
_STEP = 2 * math.pi / _E_K
_COS2, _COS4 = -_STEP ** 2 / 2, _STEP ** 4 / 24
_SIN1, _SIN3, _SIN5 = _STEP, -_STEP ** 3 / 6, _STEP ** 5 / 120


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


def _e_sum(x: np.ndarray) -> complex:
    """Sum of e(x) = exp(2*pi*i*x) over a float64 array x of phases in [0, 1).

    x is scratch: the kernel works in place and overwrites it.  Each term
    is within EXP_EPS = 2**-50 of e(x); the real and imaginary parts are
    summed separately by numpy's pairwise sum, in a fixed order.

    Method.  u = x*K is exact (K = 2**12), j = rint(u) lies in 0..K and
    d = u - j is exact (Sterbenz; d = u when j = 0), |d| <= 1/2.  Then
    e(x) = T_j * e(d/K) with T_j = e(j/K) from the table, and theta =
    2*pi*d/K, |theta| <= pi/K, enters only through two polynomials in d:
    c = cos(theta) - 1 ~ -theta**2/2 + theta**4/24 and
    s = sin(theta) ~ theta - theta**3/6 + theta**5/120, their coefficients
    (2*pi/K)**k/k! rounded once.  Each term is
    (C + (C*c - S*s)) + i*(S + (S*c + C*s)) for T_j = C + i*S, so the leading
    C and S are added last and never rounded against a 1 + c.

    Error, per term.  (1) Table: |C - cos|, |S - sin| <= 2**-52 per entry
    (_e_table; checked for all entries), so |T^ - T_j| <= sqrt(2) * 2**-52.
    (2) Polynomials, with w = e(d/K) - 1 = c + i*s exactly: truncation is
    under theta**6/720 < 3e-22 for c and theta**7/5040 < 1e-25 for s;
    the rounded coefficients move s by under |d| * 2**-53 * 2*pi/K < 1e-19
    (that is the rounding of theta) and c by under 1e-22; evaluating c and s
    in float64 costs at most 6 roundings relative to each, under
    6 * 2**-53 * pi/K < 6e-19.  So |w^ - w| < 8e-19 < 2**-60.
    (3) The product: T^*(1 + w^) differs from T_j*(1 + w) by at most
    |T^ - T_j| + |T^| * |w^ - w| <= sqrt(2) * 2**-52 + 2**-59.  Forming it
    rounds C*c, S*s (both under 1e-3) and their difference by under 2**-62
    each, and the final addition of C (or S) by at most 2**-53, since every
    part is below 2 in modulus: sqrt(2) * (2**-53 + 2**-60) in all.
    Total: sqrt(2) * (2**-52 + 2**-53) + 2**-58 < 4.3 * 2**-53 < 2**-50.
    """
    u = x
    u *= _E_K
    t = np.rint(u)
    u -= t
    j = t.astype(np.intp)
    np.multiply(u, u, out=t)
    c = t * _COS4
    c += _COS2
    c *= t
    s = t * _SIN5
    s += _SIN3
    s *= t
    s += _SIN1
    s *= u
    cos_j, sin_j = _e_table()
    # j lies in 0..K, so mode="clip" never clips; it spares take a buffer
    C = np.take(cos_j, j, out=t, mode="clip")
    S = np.take(sin_j, j, out=u, mode="clip")
    del j
    re = C * c
    tmp = S * s
    re -= tmp
    re += C
    c *= S
    np.multiply(C, s, out=tmp)
    c += tmp
    c += S
    return complex(re.sum(), c.sum())


def _phase_sum(alpha: AlgebraicAlpha, h: int, ps: np.ndarray, m: int) -> complex:
    """Sum of e(alpha*h*p/m) over the primes of one window, chunk by chunk."""
    total = 0j
    for i in range(0, ps.size, _PHASE_CHUNK):
        total += _e_sum(alpha.frac_parts(h, ps[i:i + _PHASE_CHUNK], m))
    return total


def _prime_sums(alpha: AlgebraicAlpha, terms, N: int, budget) -> list:
    """Sums of e(alpha*h*p/m) over the primes p <= N, one per (h, m) of terms, on one stream.

    The work, len(terms) * pi(N), is counted along the stream, and
    BudgetExceededError is raised as soon as it exceeds budget (math.inf
    for no limit), before the phases of the window that crossed it are
    evaluated.
    """
    sums = [0j] * len(terms)
    work = 0
    for ps in iter_prime_segments(2, N + 1, _SUM_WINDOW):
        work += len(terms) * int(ps.size)
        if work > budget:
            raise BudgetExceededError(
                f"{work} term evaluations so far exceed budget {budget}; "
                "shrink the blocks"
            )
        for i, (h, m) in enumerate(terms):
            sums[i] += _phase_sum(alpha, h, ps, m)
    return sums


def exp_sum_primes(alpha: AlgebraicAlpha, q: ExpSumQuery) -> complex:
    """Sum of e(alpha*h*p/(d^2 t^2)) over primes p <= N.

    Each phase is within PHASE_EPS of its true value mod 1, which moves
    e(x) by at most 2*pi*PHASE_EPS, and _e_sum evaluates e(x) to within
    EXP_EPS, so the terms together are off by at most
    pi(N) * (2*pi*PHASE_EPS + EXP_EPS), about 7.2e-15 * pi(N).  The
    summation adds its own rounding.  numpy's pairwise sum takes each term
    of a chunk (at most 8192 terms) through at most 32 additions: a block
    of at most 128 terms goes to 8 accumulators of k terms each and r < 8
    leftovers (8k + r <= 128), so a term sees at most k - 1 accumulator
    additions, 3 tree levels and r leftover additions, (k - 1) + 3 + r <= 24
    in all; at most 7 halvings (size n to at most n/2 + 8) lead from 8192
    terms down to such a block, and the reduction may add its first term
    once more.  The chunk sums then go through one addition per later chunk
    and window sum, c of them in all, c at most the number of chunks plus
    the number of windows of 2**22 values.  Each part of a term is at most
    1 + EXP_EPS, so this rounding is under 2**-52 * (32 + c) * pi(N) in
    modulus.
    """
    return _prime_sums(alpha, [(q.h, _check_query(q))], q.N, math.inf)[0]


def _check_blocks(q: DyadicQuery) -> None:
    if not all(math.isfinite(x) and x >= 1 for x in (q.H, q.D, q.T)):
        raise InvalidRangeError(f"need finite H, D, T >= 1, got {q}")


def _dyadic_ends(x: float) -> tuple[int, int]:
    """(floor(x), floor(2x)) as exact ints, without forming 2x in floats."""
    lo = math.floor(x)
    return lo, 2 * lo + int(x - lo >= 0.5)


def dyadic_block_sum(alpha: AlgebraicAlpha, q: DyadicQuery,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Sum of |exp_sum_primes| over all integer (h, d, t) in the dyadic blocks.

    One prime stream, _prime_sums, feeds every triple and refuses a run
    whose work, (number of triples) * pi(N), exceeds budget.  A block with
    more triples than budget is refused before any triple is built or any
    prime sieved.
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
    return math.fsum(abs(s) for s in _prime_sums(alpha, triples, q.N, budget))


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
               budget: int = DEFAULT_BUDGET) -> list[BoundReport]:
    """One BoundReport per dyadic query; ratios are recorded, never asserted."""
    out = []
    for q in grid:
        rep = dyadic_bound_rhs(q, eps)
        lhs = dyadic_block_sum(alpha, q, budget)
        out.append(replace(rep, lhs=lhs, ratio=lhs / rep.rhs))
    return out


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise InvalidRangeError("points must be nonempty")
    if not np.all((pts >= 0.0) & (pts < 1.0)):  # NaN fails both comparisons
        raise ConfigError("points must lie in [0, 1)")
    return pts


def star_discrepancy(points) -> float:
    """Exact star discrepancy via the sorted-points formula."""
    pts = np.sort(_check_points(points))
    K = pts.size
    i = np.arange(1, K + 1, dtype=np.float64)
    return float(max((i / K - pts).max(), (pts - (i - 1.0) / K).max()))


def check_erdos_turan(K: int, H: int, interval, budget: int) -> None:
    """The checks of erdos_turan_bound on K points, before any point exists.

    0 <= a < b <= 1 (ConfigError), H >= 1 (InvalidRangeError) and at most
    budget terms H*K (BudgetExceededError).
    """
    a, b = interval
    if not (0.0 <= a < b <= 1.0):
        raise ConfigError(f"need 0 <= a < b <= 1, got ({a}, {b})")
    if H < 1:
        raise InvalidRangeError(f"need H >= 1, got H={H}")
    if H * K > budget:
        raise BudgetExceededError(
            f"H*K = {H * K} term evaluations exceed budget {budget}; "
            "lower H or raise the budget"
        )


def erdos_turan_bound(points, H: int, interval,
                      budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Interval-count deviation vs the truncated weighted exponential sums.

    lhs = |#{k: t_k in [a, b)} - K(b-a)|, rhs = K/H + Sum_{h<=H} |S(h)|/h.
    Membership is half-open so the full interval [0, 1) gives lhs = 0 for any
    admissible points.  The recorded ratio is a regression quantity; the true
    absolute constant is not claimed.  The H sums take H*K terms; more than
    budget raises BudgetExceededError before any term is evaluated.
    """
    pts = _check_points(points)
    K = pts.size
    check_erdos_turan(K, H, interval, budget)
    a, b = interval
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
    above segment_cap, or above GLOBAL_MAX, the largest n that frac_parts
    takes, raises RangeCapError before anything is allocated.
    """
    check_point_count(K, segment_cap)
    return alpha.frac_parts(1, np.arange(1, K + 1, dtype=np.int64), m)


def check_point_count(K: int, segment_cap: int) -> None:
    """The checks of beatty_frac_points on K: 1 <= K <= min(segment_cap, GLOBAL_MAX)."""
    if K < 1:
        raise InvalidRangeError(f"need K >= 1, got K={K}")
    if K > segment_cap:
        raise RangeCapError(f"K={K} exceeds the segment cap {segment_cap}; "
                            "the points are held in memory at once")
    if K > GLOBAL_MAX:
        raise RangeCapError(f"K={K} exceeds global maximum {GLOBAL_MAX}")
