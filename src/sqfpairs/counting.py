"""The main counting experiments: consecutive squarefree values along [alpha*p].

Counts are exact integers throughout; the only floating step is the final
comparison against the density prediction, so observed convergence can never
be a rounding artifact.  Every count over primes reads one stream of
(primes, floors) segments.  Each segment holds the primes of one block of w
values, w at most _PRIME_WINDOW and sized from alpha so that its floor window
[fl[0], fl[-1] + 2), holding every m = [alpha*p] and m + 1, spans at most
segment_cap cells: one squarefree sieve call covers it.  The primes
themselves are sieved in windows of a whole number of blocks, at most
min(segment_cap, _PRIME_WINDOW) values whatever alpha is (512 KiB of odd
cells, which stay in cache while the base primes strike them), and cut back
into the blocks, so a large alpha does not pay a sieve call per tiny block.
A count flags its floor windows into one buffer of its own, grown to the
largest window it meets, so memory stays bounded by the segment cap for every
alpha.  A grown buffer is allocated only after every reference to the old one
is dropped: allocated while the old one lives, glibc's malloc can place it
above the old one on the heap, and the freed old buffer then stays resident
(peak RSS rose 4 MiB on a pair count at alpha near 31, N = 3e7).

decompose reads the radicals of its floor windows instead of flags.  It cuts
each window into blocks of at most _RAD_BLOCK cells (1 MiB of int32, which
stays in cache while the small squares strike it) and keeps one int32 buffer
grown to the widest block met, at most min(_RAD_BLOCK, window) cells, so its
memory is set by the block rather than the segment cap.  The primes of a
block are tallied by class in numpy, so only the distinct classes, a few
hundred a block, reach Python.
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

#: Widest prime window, and widest floor block: whole blocks up to min(segment_cap, this).
_PRIME_WINDOW = 1 << 20

#: Floor-window cells per radical block in decompose (module docstring).
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
    """(primes, floors) per floor block of the primes p <= N; checks run at the call.

    The floor blocks are [2 + j*w, 2 + (j + 1)*w), empty ones skipped.  With
    A = [alpha * 2**32], alpha < (A + 1) / 2**32.  Primes of one block differ
    by at most w - 1, so the floor window [fl[0], fl[-1] + 2) has fewer than
    alpha*(w - 1) + 3 <= segment_cap cells; w = 1 gives 2 cells.

    w is also at most _PRIME_WINDOW, so a small alpha's block, which the cap
    alone would make up to segment_cap/alpha values wide, is cut to a
    cache-sized window too; a narrower block only narrows its floor window.

    The primes are sieved, and their floors taken, in prime windows of
    W = k*w values, k = max(1, min(segment_cap, _PRIME_WINDOW) // w), so
    W <= min(segment_cap, _PRIME_WINDOW).  Prime window i is
    [2 + i*W, 2 + (i + 1)*W), exactly blocks i*k to i*k + k - 1, and it is
    cut back into them at the primes whose block index (p - 2 - i*W) // w
    differs from their predecessor's: the blocks, and so the floor windows,
    are the same for every k.  For alpha below about 4 at the default cap,
    w = _PRIME_WINDOW and k = 1.
    """
    _check_n(alpha, N)
    if segment_cap < 2:
        raise ConfigError("segment cap must be at least 2")
    A = alpha.scaled_floor_bits(32)
    w = max(1, min(segment_cap, _PRIME_WINDOW, ((segment_cap - 3) << 32) // (A + 1) + 1))
    W = w * max(1, min(segment_cap, _PRIME_WINDOW) // w)
    return _floor_blocks(alpha, N, w, W)


def _floor_blocks(alpha: AlgebraicAlpha, N: int, w: int, W: int):
    for start, ps in zip(range(2, N + 1, W), iter_prime_segments(2, N + 1, W)):
        if not ps.size:
            continue
        fl = alpha.floors_bulk(ps)
        if W == w:  # one block a window: nothing to cut
            yield ps, fl
            continue
        # cut wherever a prime opens a new block: the cuts cost O(primes)
        # however many empty blocks the window holds, and views are made
        # one block at a time
        blk = ps - start
        blk //= w
        a = 0
        for b in np.flatnonzero(blk[1:] != blk[:-1]) + 1:
            yield ps[a:b], fl[a:b]
            a = b
        yield ps[a:], fl[a:]


def carlitz_count(N: int, segment_cap: int = DEFAULT_SEGMENT_CAP) -> int:
    """Exact number of n <= N with n and n+1 both squarefree."""
    if N < 1:
        raise InvalidRangeError(f"need N >= 1, got N={N}")
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
    for ps, fl in _prime_floors(alpha, N, segment_cap):
        pi_n += int(ps.size)
        lo = int(fl[0])
        hi = int(fl[-1]) + 2
        if buf.size < hi - lo:
            buf = None  # drop the old buffer first (module docstring)
            buf = np.empty(hi - lo, dtype=bool)
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
    the primes whose square divides m, S the same for m+1.  Each floor window
    of the prime stream is cut into blocks: a block starts at its first floor
    m0 and takes the floors below m0 + _RAD_BLOCK - 1, so it spans at most
    _RAD_BLOCK cells with m + 1 of its last floor inside.  R is sieved over
    the block into one int32 buffer: each square up to the block width
    strikes one slice, and the larger squares, each with at most one multiple
    in the block, strike with one np.multiply.at scatter, which stays exact
    where two of them hit the same cell.  The block's primes are tallied as
    int64 keys R << 32 | S (both at most 2**26) with np.unique, the tallies
    are merged across blocks, and each distinct class is expanded once,
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
    for _, fl in stream:
        fl = fl[int(np.searchsorted(fl, 1)):]  # floors ascend: the zeros are a prefix
        a = 0
        while a < fl.size:
            lo = int(fl[a])
            b = int(np.searchsorted(fl, lo + _RAD_BLOCK - 1))
            block = fl[a:b]
            a = b
            hi = int(block[-1]) + 2
            if buf.size < hi - lo:
                buf = rad = None  # drop the old buffer first (module docstring)
                buf = np.empty(hi - lo, dtype=np.int32)
            rad = _radicals(lo, hi, buf)
            idx = block - lo
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
