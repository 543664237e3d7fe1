"""The main counting experiments: consecutive squarefree values along [alpha*p].

Counts are exact integers throughout; the only floating step is the final
comparison against the density prediction, so observed convergence can never
be a rounding artifact.  Every count over primes reads one stream of
(primes, floors) segments, one per prime window of min(segment_cap,
_PRIME_WINDOW) values whatever alpha is (512 KiB of odd cells, which stay in
cache while the base primes strike them).  _floor_windows cuts a segment's
ascending floors greedily into runs whose floor window [fl[a], fl[b-1] + 2),
holding every m = [alpha*p] and m + 1 of the run, spans at most a given number
of cells: segment_cap for the squarefree flags, so one sieve call covers a
run, and a large alpha cuts one prime window into many runs.  A count flags
its runs into one buffer of its own, grown to min(segment_cap, floor span of
the widest prime window met), which holds every run of that window, so
memory stays bounded by the segment cap for every alpha.  Sizing by the
prime window rather than by the run matters at large alpha: the runs there
differ by a few hundred cells just below the cap, and regrowing a 4 MiB
buffer by that much left it resident after the count (peak RSS rose 2.5 MiB
on a pair count at alpha near 31, N = 3e7).  A grown buffer is allocated
only after every reference to the old one is dropped: allocated while the
old one lives, glibc's malloc can place it above the old one on the heap,
and the freed old buffer then stays resident (peak RSS rose 4 MiB there).

decompose reads radicals instead of flags.  It cuts each segment's floors the
same way into runs of at most min(segment_cap, _RAD_BLOCK) cells (1 MiB of
int32, which stays in cache while the small squares strike it) and keeps one
int32 buffer grown to the widest run met, so its memory is set by _RAD_BLOCK
rather than the segment cap.  The primes of a run are tallied by class in
numpy, so only the distinct classes, a few hundred a run, reach Python.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import constants
from .alpha import AlgebraicAlpha
from .errors import ConfigError, InvalidRangeError, NotCoprimeError, RangeCapError
from .sieves import (
    DEFAULT_SEGMENT_CAP,
    GLOBAL_MAX,
    base_primes,
    iter_prime_segments,
    squarefree_flags,
)

#: Truncation used for the density midpoint entering predictions.
SIGMA_PRODUCT_LIMIT = 10 ** 6

#: Widest prime window: min(segment_cap, this) values for every alpha.
_PRIME_WINDOW = 1 << 20

#: Widest radical window in decompose, in cells (module docstring).
_RAD_BLOCK = 1 << 18

#: Mask of S in a decompose class key R << 32 | S.
_LOW32 = (1 << 32) - 1


@lru_cache(maxsize=1)
def sigma_midpoint() -> float:
    return constants.sigma_enclosure(SIGMA_PRODUCT_LIMIT).midpoint()


@lru_cache(maxsize=1)
def basel_midpoint() -> float:
    return constants.basel_density_enclosure().midpoint()


@dataclass(frozen=True)
class PairCountReport:
    """One row of the main experiment: exact count vs density prediction."""

    N: int
    alpha_spec: str
    count: int
    prime_count: int
    prediction: float
    abs_error: float
    rel_error: float


@dataclass(frozen=True)
class DecompositionReport:
    """Signed split of the pair count at dt <= z; sigma1 + sigma2 == total exactly."""

    N: int
    z: float
    sigma1: int
    sigma2: int
    total: int


@dataclass(frozen=True)
class ErrorTable:
    """Reports across an ascending N sweep plus the fitted error exponent.

    fitted_exponent is the least-squares slope of log(abs_error + 1) against
    log N, or None when every error vanished.  It is reported, never asserted
    against the theoretical bound, whose implied constant is unknown.
    """

    reports: tuple
    fitted_exponent: Optional[float]


def _check_n(alpha: AlgebraicAlpha, N: int) -> None:
    """N >= 2, and floors [alpha*p] for p <= N within the sieves' range."""
    if N < 2:
        raise InvalidRangeError(f"need N >= 2, got N={N}")
    top = alpha.to_float() * N
    if top > GLOBAL_MAX:
        raise RangeCapError(f"alpha*N = {top:.6g} exceeds global maximum {GLOBAL_MAX}")


def _prime_floors(alpha: AlgebraicAlpha, N: int, segment_cap: int):
    """(primes, floors) per prime window of the primes p <= N; checks run at the call.

    The prime windows are [2 + i*W, 2 + (i + 1)*W), W = min(segment_cap,
    _PRIME_WINDOW), empty ones skipped.
    """
    _check_n(alpha, N)
    if segment_cap < 2:
        raise ConfigError("segment cap must be at least 2")
    return ((ps, alpha.floors_bulk(ps))
            for ps in iter_prime_segments(2, N + 1, min(segment_cap, _PRIME_WINDOW)) if ps.size)


def _floor_windows(fl: np.ndarray, span: int):
    """Cut ascending floors, in order, into views run with run[-1] + 2 - run[0] <= span.

    Greedy: a run starts at fl[a] and takes every floor below fl[a] + span - 1,
    so with span >= 2 no run is empty and none could take the next floor.
    """
    a = 0
    while a < fl.size:
        b = int(np.searchsorted(fl, int(fl[a]) + span - 1))
        yield fl[a:b]
        a = b


def carlitz_count(N: int, segment_cap: int = DEFAULT_SEGMENT_CAP) -> int:
    """Exact number of n <= N with n and n+1 both squarefree."""
    if N < 1:
        raise InvalidRangeError(f"need N >= 1, got N={N}")
    if N + 2 > GLOBAL_MAX:
        raise RangeCapError(f"N + 2 = {N + 2} exceeds global maximum {GLOBAL_MAX}")
    if segment_cap < 2:
        raise ConfigError("segment cap must be at least 2")
    count = 0
    cur = 1
    while cur <= N:
        top = min(cur + segment_cap - 1, N + 1)
        flags = squarefree_flags(cur, top + 1, segment_cap)
        count += int(np.count_nonzero(flags[:-1] & flags[1:]))
        cur = top
    return count


def _count_over_primes(alpha: AlgebraicAlpha, N: int, pair: bool, segment_cap: int):
    count = pi_n = 0
    buf = np.empty(0, dtype=bool)
    for ps, fls in _prime_floors(alpha, N, segment_cap):
        pi_n += int(ps.size)
        # every run of this prime window fits in its capped floor span (module docstring)
        size = min(segment_cap, int(fls[-1]) + 2 - int(fls[0]))
        if buf.size < size:
            buf = None  # drop the old buffer first (module docstring)
            buf = np.empty(size, dtype=bool)
        for fl in _floor_windows(fls, segment_cap):
            lo = int(fl[0])
            hi = int(fl[-1]) + 2
            squarefree_flags(lo, hi, segment_cap, out=buf)
            # every index lies in [0, hi - lo), so "clip" only skips the bounds check
            idx = fl - lo
            hit = np.take(buf, idx, mode="clip")
            if pair:
                idx += 1
                hit &= np.take(buf, idx, mode="clip")
            count += int(np.count_nonzero(hit))
    return count, pi_n


def _report(alpha: AlgebraicAlpha, N: int, count: int, pi_n: int, density: float) -> PairCountReport:
    prediction = density * pi_n
    abs_error = abs(count - prediction)
    return PairCountReport(
        N=N,
        alpha_spec=alpha.spec,
        count=count,
        prime_count=pi_n,
        prediction=prediction,
        abs_error=abs_error,
        rel_error=abs_error / prediction,
    )


def pair_count(alpha: AlgebraicAlpha, N: int,
               segment_cap: int = DEFAULT_SEGMENT_CAP) -> PairCountReport:
    """Count primes p <= N with [alpha*p] and [alpha*p]+1 both squarefree."""
    count, pi_n = _count_over_primes(alpha, N, True, segment_cap)
    return _report(alpha, N, count, pi_n, sigma_midpoint())


def single_count(alpha: AlgebraicAlpha, N: int,
                 segment_cap: int = DEFAULT_SEGMENT_CAP) -> PairCountReport:
    """Count primes p <= N with [alpha*p] squarefree (prediction 6/pi^2 * pi(N))."""
    count, pi_n = _count_over_primes(alpha, N, False, segment_cap)
    return _report(alpha, N, count, pi_n, basel_midpoint())


def congruence_pair_count(alpha: AlgebraicAlpha, N: int, d: int, t: int,
                          segment_cap: int = DEFAULT_SEGMENT_CAP) -> int:
    """Count primes p <= N with [alpha*p] = 0 (mod d^2) and [alpha*p]+1 = 0 (mod t^2).

    Requires gcd(d, t) = 1; the decomposition only ever sums over coprime
    pairs, so a shared factor signals a caller bug.  Every floor + 1 is
    below 2**53 (alpha*N <= GLOBAL_MAX = 2**52), so a square above 2**53
    divides a floor or floor + 1 exactly where 2**53 does, at floor 0 only:
    the moduli are clamped to 2**53, which keeps them in int64 and the count
    exact.
    """
    if d < 1 or t < 1:
        raise InvalidRangeError(f"need d, t >= 1, got d={d}, t={t}")
    if math.gcd(d, t) != 1:
        raise NotCoprimeError(f"gcd({d}, {t}) != 1")
    d2 = min(d * d, 1 << 53)
    t2 = min(t * t, 1 << 53)
    count = 0
    for _, fl in _prime_floors(alpha, N, segment_cap):
        count += int(np.count_nonzero((fl % d2 == 0) & ((fl + 1) % t2 == 0)))
    return count


def _square_divisors(r: int):
    """All (d, mu(d)) with d | r, for squarefree r; r is factored by trial division."""
    divs = [(1, 1)]
    p = 2
    while p * p <= r:
        if r % p == 0:
            divs += [(d * p, -s) for d, s in divs]
            r //= p
        p += 1
    if r > 1:
        divs += [(d * r, -s) for d, s in divs]
    return divs


def _radicals(lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
    """R(m) for m in [lo, hi), 0 < lo, in buf[:hi - lo]: the product of the primes p with p^2 | m."""
    n = hi - lo
    rad = buf[:n]
    rad.fill(1)
    ps = base_primes(math.isqrt(hi - 1))
    split = int(np.searchsorted(ps, math.isqrt(n), side="right"))
    for p in ps[:split].tolist():  # p^2 <= n: one slice each
        q = p * p
        rad[(-lo) % q:: q] *= p
    ps = ps[split:]  # p^2 > n: at most one multiple in the block
    offsets = (-lo) % (ps * ps)
    hit = offsets < n
    np.multiply.at(rad, offsets[hit], ps[hit].astype(np.int32))
    return rad


def decompose(alpha: AlgebraicAlpha, N: int, z: float,
              segment_cap: int = DEFAULT_SEGMENT_CAP) -> DecompositionReport:
    """Split the pair count into signed sums over dt <= z and dt > z.

    For each prime the squarefree indicators of m = [alpha*p] and m+1 expand
    into signed sums over squarefree d with d^2 | m and t with t^2 | m+1
    (coprimality of (d, t) is automatic since gcd(m, m+1) = 1), so
    sigma1 + sigma2 equals the pair count exactly for every split point.

    Those sums depend on m only through its class (R, S): R is the product of
    the primes whose square divides m, S the same for m+1.  The floors of
    each prime window are cut by _floor_windows into runs of at most
    min(segment_cap, _RAD_BLOCK) cells, m + 1 of the last floor inside.  R is
    sieved over the run into one int32 buffer: each square up to the run
    width strikes one slice, and the larger squares, each with at most one
    multiple in the run, strike with one np.multiply.at scatter, which stays
    exact where two of them hit the same cell.  The run's primes are tallied
    as int64 keys R << 32 | S (both at most 2**26) with np.unique, the tallies
    are merged across runs, and each distinct class is expanded once,
    weighted by its prime count, from the square divisors of each distinct
    radical.

    z may sit anywhere in [1, (alpha*N)^(2/3)]; values below 2 are outside
    the regime of the asymptotic analysis but leave the identity intact.
    The rare primes with [alpha*p] = 0 (possible only for alpha < 1/2) are
    skipped, matching the convention that 0 is not squarefree.
    """
    stream = _prime_floors(alpha, N, segment_cap)
    z_cap = (alpha.to_float() * N) ** (2.0 / 3.0) * (1.0 + 1e-9)
    if not 1.0 <= z <= z_cap:
        raise ConfigError(f"z={z} outside [1, (alpha*N)^(2/3)] = [1, {z_cap:.6g}]")

    classes = Counter()  # class key R << 32 | S -> primes
    # R^2 divides m <= GLOBAL_MAX = 2**52, so R <= 2**26 fits int32
    buf = np.empty(0, dtype=np.int32)
    for _, fls in stream:
        fls = fls[int(np.searchsorted(fls, 1)):]  # floors ascend: the zeros are a prefix
        for fl in _floor_windows(fls, min(segment_cap, _RAD_BLOCK)):
            lo = int(fl[0])
            hi = int(fl[-1]) + 2
            if buf.size < hi - lo:
                buf = rad = None  # drop the old buffer first (module docstring)
                buf = np.empty(hi - lo, dtype=np.int32)
            rad = _radicals(lo, hi, buf)
            idx = fl - lo
            keys = rad[idx].astype(np.int64)
            keys <<= 32
            keys |= rad[idx + 1]
            keys, counts = np.unique(keys, return_counts=True)
            classes.update(dict(zip(keys.tolist(), counts.tolist())))

    radicals = {key >> 32 for key in classes} | {key & _LOW32 for key in classes}
    divisors = {r: _square_divisors(r) for r in radicals}
    sigma1 = 0
    sigma2 = 0
    for key, c in classes.items():
        for d, sd in divisors[key >> 32]:
            for t, st in divisors[key & _LOW32]:
                if d * t <= z:
                    sigma1 += c * sd * st
                else:
                    sigma2 += c * sd * st
    return DecompositionReport(N=N, z=z, sigma1=sigma1, sigma2=sigma2,
                               total=sigma1 + sigma2)


def error_table(alpha: AlgebraicAlpha, Ns: Sequence[int],
                segment_cap: int = DEFAULT_SEGMENT_CAP) -> ErrorTable:
    """Pair-count reports over an ascending N sweep plus the fitted exponent."""
    Ns = [int(n) for n in Ns]
    if len(Ns) < 3:
        raise InvalidRangeError(f"need at least 3 values of N, got {len(Ns)}")
    if any(n < 100 for n in Ns):
        raise InvalidRangeError("every N must be >= 100")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise InvalidRangeError("N values must be strictly ascending")
    for n in Ns:
        _check_n(alpha, n)
    reports = tuple(pair_count(alpha, n, segment_cap) for n in Ns)
    if all(r.abs_error == 0.0 for r in reports):
        return ErrorTable(reports=reports, fitted_exponent=None)
    xs = [math.log(r.N) for r in reports]
    ys = [math.log(r.abs_error + 1.0) for r in reports]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    return ErrorTable(reports=reports, fitted_exponent=sxy / sxx)
