"""Segmented arithmetic sieves: primes, Mobius values, squarefree flags, square radicals,
divisor counts.

All functions are pure and deterministic. Segments are independent, so results
for disjoint windows can be computed in any order (or in parallel) and
concatenated. Base primes up to sqrt(hi) are cached at module level and only
regrown, by the prime channel's odd-cell sieve below, when a larger window is
requested; the cache grows monotonically and updates are idempotent, so
concurrent readers are safe.

The prime channel sieves odd values only: one bool cell per odd value of
[lo, hi), cell j standing for (lo | 1) + 2j.  The cells start from a wheel:
a fixed two-period pattern of the odd multiples of 3, 5, 7, 11 and 13
(period 15015 cells, 30 KB) is copied from the window's phase and doubled in
place, and those five primes are set back where they lie in the window.
Each base prime p >= 17 then strikes every p-th cell from its first odd
multiple >= max(p*p, lo), the starts computed in one array expression; 1 is
cleared.  The segment stores only these odd cells; its is_prime is a cached
property that spreads them into the positional bool array (with 2 set by
hand) on first read.  The prime stream, iter_prime_segments, never reads
it: it takes the primes straight from the odd cells as first_odd + 2*j, so
a streamed window costs half a byte a value plus its primes, with no spread
and no second nonzero pass.  No prime-only window builds an int64 array:
only the mu and tau walk below does.

The two square sieves, squarefree_flags and square_radicals, start from one
wheel table, built on first use: two periods (period 44100, 88 KB each) of
the radicals of 4, 9, 25 and 49 as uint8 (cell g holds the product of those
of 2, 3, 5 and 7 whose square divides g), and the flags derived from them as
radicals == 1, so the two wheels agree by construction.  A window copies
its wheel from the phase lo mod 44100 and doubles it in place.  Every cell
that a larger prime square divides then comes from one hit lister,
_square_hits: the multiples of the squares up to the window width are
listed in one np.repeat pass, and each larger square hits the window at
most once.  The flags strike the squares of 11..59 with one slice each and
clear the listed cells of the larger ones with one scatter; the radicals
multiply each listed cell by its prime in one vectorised scatter.  Every
slice strike stores one shared read-only 0-d False array, so no slice store
converts a Python bool first.

No pattern the size of a window is kept: a caller that sieves many windows
passes one buffer of its own as out=, so no window pays for a fresh array's
page faults.  One rule, _buffer, checks such a buffer for both sieves: a
writeable, C-contiguous 1-d array of the sieve's dtype with at least
hi - lo cells, or ConfigError before any cell is written.  Both sieves cap
their window at DEFAULT_SEGMENT_CAP, like every other sieve.

The mu and tau channels share one walk over the prime powers q = p**k < hi
of each base prime p, each striking its multiples with one slice.  At k = 1
a strike flips the sign; every strike turns tau's factor k for p into k + 1
(tau //= k, then *= k + 1, exact because each multiple of p**k already holds
the factor k for p, struck by p**(k - 1)) and divides p out of a rest array.
A power with no multiple in the window ends p's walk, since the higher
powers' multiples are among its own.  A cell whose rest is still above 1
keeps one prime above sqrt(hi - 1): its sign flips and its tau doubles.  mu
takes its zeros from squarefree_flags, the package's one squarefree sieve,
and tau(0) = 0 is forced.

Convention cells: value 0 carries mu=0, tau=0, not prime, not squarefree;
value 1 carries mu=1, tau=1, not prime, squarefree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import (
    ConfigError,
    InvalidRangeError,
    NotCoprimeError,
    RangeCapError,
    WindowTooLargeError,
)

#: Largest window one sieve_segment, squarefree_flags or square_radicals call
#: accepts, and the prime stream's default window.
DEFAULT_SEGMENT_CAP = 1 << 22

#: Hard ceiling on sieved values; keeps int64 intermediates exact.
GLOBAL_MAX = 1 << 52

CHANNELS = frozenset({"mu", "prime", "tau"})

_base_primes = np.array([2, 3], dtype=np.int64)
_base_limit = 3


#: Period of the square wheels: the squares 4, 9, 25, 49 of the primes 2, 3, 5, 7.
_WHEEL_PERIOD = 4 * 9 * 25 * 49

#: The value every strike stores: a read-only 0-d array, so a slice store
#: copies it without first converting a Python bool.
_FALSE = np.zeros((), dtype=bool)
_FALSE.flags.writeable = False

#: The primes the prime channel's odd-cell wheel strikes; larger base primes strike a slice each.
_ODD_WHEEL_PRIMES = (3, 5, 7, 11, 13)

#: Period of the odd-cell wheel in odd cells (30030 in values).
_ODD_WHEEL_PERIOD = 3 * 5 * 7 * 11 * 13

#: Two odd-cell wheel periods (30 KB): cell g stands for the odd value 2g + 1,
#: False where one of 3..13 divides it (those primes included).
_ODD_WHEEL = np.ones(2 * _ODD_WHEEL_PERIOD, dtype=bool)
for _p in _ODD_WHEEL_PRIMES:
    _ODD_WHEEL[(_p - 1) >> 1:: _p] = False
_ODD_WHEEL.flags.writeable = False
del _p

#: The squares of 11..59, struck with one slice each; _square_hits lists the larger ones.
_SLICE_SQUARES = tuple(p * p for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59))


def base_primes(limit: int) -> np.ndarray:
    """Primes <= limit from the shared cache, regrown geometrically on demand.

    A regrowth sieves [0, new_limit] with the prime channel's odd-cell
    sieve, its base primes taken from the cache itself.
    """
    global _base_primes, _base_limit
    if limit > _base_limit:
        new_limit = max(limit, 2 * _base_limit)
        odd = _odd_prime_cells(0, new_limit + 1, base_primes(math.isqrt(new_limit)))
        _base_primes = _odd_cell_primes(0, new_limit + 1, odd)
        _base_limit = new_limit
    return _base_primes[: int(np.searchsorted(_base_primes, limit, side="right"))]


def _check_window(lo: int, hi: int, cap: int = DEFAULT_SEGMENT_CAP) -> None:
    if not (0 <= lo < hi):
        raise InvalidRangeError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi > GLOBAL_MAX:
        raise RangeCapError(f"hi={hi} exceeds global maximum {GLOBAL_MAX}")
    if hi - lo > cap:
        raise WindowTooLargeError(
            f"window of {hi - lo} elements exceeds cap {cap}; split it"
        )


@dataclass(frozen=True)
class SieveSegment:
    """Per-element arithmetic data for the half-open window [lo, hi).

    Channels not requested are None.  Arrays are positional: index i holds
    data for the value lo + i.  A prime segment stores only its odd cells
    (_odd, cell j for the value (lo | 1) + 2j); is_prime is a cached property
    that spreads them into a bool array on first read, and is None without
    the prime channel.
    """

    lo: int
    hi: int
    mu: Optional[np.ndarray] = None    # int8 in {-1, 0, 1}
    tau: Optional[np.ndarray] = None   # int64 divisor counts
    _odd: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @cached_property
    def is_prime(self) -> Optional[np.ndarray]:  # bool
        if self._odd is None:
            return None
        flags = np.zeros(self.hi - self.lo, dtype=bool)
        flags[(self.lo | 1) - self.lo:: 2] = self._odd
        if self.lo <= 2 < self.hi:
            flags[2 - self.lo] = True
        return flags


def sieve_segment(lo: int, hi: int, channels) -> SieveSegment:
    """Sieve the window [lo, hi) for the requested channels.

    channels is any iterable drawn from {"mu", "prime", "tau"}.  Deterministic
    for fixed inputs; a window of more than DEFAULT_SEGMENT_CAP values raises
    WindowTooLargeError, so that callers split.

    The prime channel sieves the odd cells alone.  mu and tau come from one
    walk over the prime powers p**k < hi of the base primes p <= sqrt(hi - 1)
    (module docstring), so asking for either costs the walk for both; mu's
    zeros come from squarefree_flags.
    """
    wanted = frozenset(channels)
    if not wanted:
        raise ConfigError("at least one channel must be requested")
    if not wanted <= CHANNELS:
        raise ConfigError(f"unknown channels {sorted(wanted - CHANNELS)}")
    _check_window(lo, hi)

    n = hi - lo
    bps = base_primes(math.isqrt(hi - 1))
    mu = odd = tau = None

    if "prime" in wanted:
        odd = _odd_prime_cells(lo, hi, bps)

    if wanted & {"mu", "tau"}:
        sign = np.ones(n, dtype=np.int8)
        tau = np.ones(n, dtype=np.int64)
        rest = np.arange(lo, hi, dtype=np.int64)
        for p in bps.tolist():
            q, k = p, 1
            # q = p**k strikes its multiples, which hold the factor k for p; a
            # power that misses the window leaves the higher ones nothing
            while q < hi and (start := (-lo) % q) < n:
                sl = slice(start, n, q)
                if k == 1:
                    sign[sl] = -sign[sl]
                else:
                    tau[sl] //= k
                tau[sl] *= k + 1
                rest[sl] //= p
                q *= p
                k += 1
        leftover = rest > 1  # one prime above sqrt(hi - 1) is left
        sign[leftover] = -sign[leftover]
        tau[leftover] *= 2
        if lo == 0:  # every power struck value 0, so its tau is garbage
            tau[0] = 0
        if "mu" in wanted:
            mu = np.where(squarefree_flags(lo, hi), sign, np.int8(0))

    return SieveSegment(lo=lo, hi=hi, mu=mu, tau=tau if "tau" in wanted else None, _odd=odd)


def _tile(out: np.ndarray, wheel: np.ndarray, phase: int, period: int) -> None:
    """Fill out from wheel (two periods) at phase: one period copied, then doubled in place.

    Each copy repeats the filled prefix, whose length stays a multiple of
    the period until the last, partial copy.
    """
    n = out.size
    done = min(period, n)
    out[:done] = wheel[phase:phase + done]
    while done < n:
        k = min(done, n - done)
        out[done:done + k] = out[:k]
        done += k


def _odd_prime_cells(lo: int, hi: int, bps: np.ndarray) -> np.ndarray:
    """The prime channel's odd cells of [lo, hi): cell j is True where (lo | 1) + 2j is prime.

    bps holds the primes up to sqrt(hi - 1).  The cells are filled from the
    odd-cell wheel at the phase ((lo | 1) - 1) // 2 mod 15015 and doubled in
    place, the wheel primes 3..13 in the window are set back, and each base
    prime p >= 17 strikes every p-th cell from its first odd multiple
    >= max(p*p, lo); 1 is cleared.
    """
    first_odd = lo | 1
    n = (hi - first_odd + 1) // 2
    odd = np.empty(n, dtype=bool)
    _tile(odd, _ODD_WHEEL, ((first_odd - 1) >> 1) % _ODD_WHEEL_PERIOD, _ODD_WHEEL_PERIOD)
    for p in _ODD_WHEEL_PRIMES:
        if first_odd <= p < hi:
            odd[(p - first_odd) >> 1] = True
    if first_odd == 1 and n:
        odd[0] = False
    ps = bps[int(np.searchsorted(bps, _ODD_WHEEL_PRIMES[-1], side="right")):]
    # the first odd multiple of p >= lo: ceil(lo / p), made odd, times p
    starts = -(-lo // ps)
    starts |= 1
    starts *= ps
    np.maximum(starts, ps * ps, out=starts)
    starts -= first_odd
    starts >>= 1
    for start, p in zip(starts.tolist(), ps.tolist()):
        odd[start::p] = _FALSE
    return odd


def _odd_cell_primes(lo: int, hi: int, odd: np.ndarray) -> np.ndarray:
    """The primes of [lo, hi) from its odd cells: (lo | 1) + 2j for each set cell j, and 2."""
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += lo | 1
    if lo <= 2 < hi:
        primes = np.concatenate(([2], primes))
    return primes


def _square_hits(lo: int, n: int, above: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, primes): an entry (c, p) for each prime p > above and c in [0, n) with p*p | lo + c.

    The primes run up to sqrt(lo + n - 1).  A square q <= n has its
    multiples (-lo) mod q + k*q listed for every square in one np.repeat
    pass; this branch is skipped when no such square is asked for, as in a
    narrow window at large lo.  A larger square hits the window at most
    once, at offset (-lo) mod q when that is below n.
    """
    ps = base_primes(math.isqrt(lo + n - 1))
    ps = ps[int(np.searchsorted(ps, above, side="right")):]
    qs = ps * ps
    offsets = (-lo) % qs
    split = int(np.searchsorted(ps, math.isqrt(n), side="right"))
    once = np.flatnonzero(offsets[split:] < n)
    once += split
    cells, primes = offsets[once], ps[once]
    if split:
        first, q = offsets[:split], qs[:split]
        hits = (n - 1 - first) // q + 1
        dense = np.repeat(first - q * (np.cumsum(hits) - hits), hits)
        dense += np.repeat(q, hits) * np.arange(dense.size)
        cells = np.concatenate((dense, cells))
        primes = np.concatenate((np.repeat(ps[:split], hits), primes))
    return cells, primes


@lru_cache(maxsize=1)
def _square_wheels() -> tuple[np.ndarray, np.ndarray]:
    """(radicals, flags): two periods (88 KB each, read-only) of the square wheels.

    Cell g of radicals holds the product of those of 2, 3, 5, 7 whose square
    divides g; flags is radicals == 1, False exactly at the multiples of 4,
    9, 25 and 49.  Built on first use, not at import.
    """
    radicals = np.ones(2 * _WHEEL_PERIOD, dtype=np.uint8)
    for p in (2, 3, 5, 7):
        radicals[:: p * p] *= p
    flags = radicals == 1
    radicals.flags.writeable = flags.flags.writeable = False
    return radicals, flags


def _buffer(out, n: int, dtype) -> np.ndarray:
    """out[:n], for a square sieve's caller-owned buffer out.

    out must be a writeable, C-contiguous 1-d array of dtype with at least n
    cells; anything else raises ConfigError before any cell is written.
    """
    if (not isinstance(out, np.ndarray) or out.dtype != dtype or out.ndim != 1
            or not (out.flags.c_contiguous and out.flags.writeable) or out.size < n):
        raise ConfigError(f"out must be a writeable, contiguous 1-d {np.dtype(dtype)} "
                          f"array of at least {n} cells")
    return out[:n]


def squarefree_flags(lo: int, hi: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean array over [lo, hi): True where the value is squarefree.

    The package's one squarefree sieve: the mu channel of sieve_segment
    takes its zeros from here.  Value 0 is not squarefree by convention.
    A window of more than DEFAULT_SEGMENT_CAP values raises
    WindowTooLargeError, as in every sieve of this module.

    out, when given, is a caller-owned buffer reused across windows: a
    writeable, C-contiguous 1-d bool array of at least hi - lo cells;
    anything else raises ConfigError before any cell is written (_buffer,
    shared with square_radicals).  The flags are written to out[:hi - lo],
    which is returned; its old contents never matter, since the wheel fill
    writes every cell before any strike, and the cells past hi - lo are
    left alone.  Otherwise a fresh array is returned.

    One pass over one bool array:

    1. Wheel fill: copy one period of the flag wheel (radicals == 1 of the
       square wheels, module docstring) from the phase lo mod 44100
       and double it in place by slice copies (the copied length stays a
       multiple of the period).
    2. Strike the squares of 11..59, one slice each.
    3. _square_hits lists every cell that the square of a prime p > 59
       divides, and one scatter clears them all.

    The flags stay exact: every step only clears cells whose value a prime
    square divides (the wheel clears the multiples of 4, 9, 25, 49, and
    value 0 with them), and together the steps clear the multiples of p*p for
    every prime p <= sqrt(hi - 1).  A value with no such divisor
    is squarefree, since any square factor p*p of a value below hi has
    p <= sqrt(hi - 1).
    """
    _check_window(lo, hi)
    n = hi - lo
    flags = np.empty(n, dtype=bool) if out is None else _buffer(out, n, bool)
    _tile(flags, _square_wheels()[1], lo % _WHEEL_PERIOD, _WHEEL_PERIOD)
    for q in _SLICE_SQUARES:
        flags[(-lo) % q::q] = _FALSE
    flags[_square_hits(lo, n, 59)[0]] = False
    return flags


def square_radicals(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """R(m) for m in [lo, hi), 0 < lo, in out[:hi - lo]: the product of the primes p with p*p | m.

    out is a caller-owned buffer: a writeable, C-contiguous 1-d int32 array
    of at least hi - lo cells, returned as out[:hi - lo]; anything else
    raises ConfigError before any cell is written (_buffer, shared with
    squarefree_flags).  R(m)**2 divides m < GLOBAL_MAX, so R(m) <= 2**26
    fits.  A window of more than DEFAULT_SEGMENT_CAP values raises
    WindowTooLargeError, whatever the size of out.
    Two passes: the window is tiled from the radical wheel at the phase
    lo mod 44100, which puts in the primes 2, 3, 5 and 7; then _square_hits
    lists every cell that the square of a prime p > 7 divides, and one
    np.multiply.at scatter multiplies each by its p, which stays exact where
    several primes hit the same cell.  Every prime p with p*p | m is either
    one of 2, 3, 5, 7 or listed at m, so R(m) comes out whole.
    """
    if lo < 1:
        raise InvalidRangeError(f"R(0) is undefined: need lo >= 1, got lo={lo}")
    _check_window(lo, hi)
    n = hi - lo
    rad = _buffer(out, n, np.int32)
    _tile(rad, _square_wheels()[0], lo % _WHEEL_PERIOD, _WHEEL_PERIOD)
    cells, primes = _square_hits(lo, n, 7)  # the wheel holds 2, 3, 5, 7
    np.multiply.at(rad, cells, primes.astype(np.int32))
    return rad


def iter_prime_segments(lo: int, hi: int,
                        window: int = DEFAULT_SEGMENT_CAP) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes covering [lo, hi), window values at a time.

    One sieve_segment call per window; its primes are read from the odd
    cells.  Nothing of a window outlives its yield but the yielded array.
    """
    _check_window(lo, hi, GLOBAL_MAX)  # the range checks: hi - lo <= hi <= GLOBAL_MAX
    if window < 1:
        raise ConfigError(f"prime window must be at least 1, got {window}")
    for cur in range(lo, hi, window):
        top = min(cur + window, hi)
        yield _odd_cell_primes(cur, top, sieve_segment(cur, top, {"prime"})._odd)


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Ascending primes in [lo, hi) as an int64 array; windows concatenate cleanly."""
    parts = [seg for seg in iter_prime_segments(lo, hi) if seg.size]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.concatenate(parts)


def prime_count(N: int) -> int:
    """pi(N) = number of primes <= N."""
    if N < 0:
        raise InvalidRangeError(f"need N >= 0, got {N}")
    if N < 2:
        return 0
    return sum(int(seg.size) for seg in iter_prime_segments(2, N + 1))


def _check_pair(d: int, t: int) -> None:
    """Refuse a (d, t) pair outside the decomposition: d, t >= 1, gcd(d, t) = 1."""
    if d < 1 or t < 1:
        raise InvalidRangeError(f"need d, t >= 1, got d={d}, t={t}")
    if math.gcd(d, t) != 1:
        raise NotCoprimeError(f"gcd({d}, {t}) != 1")


def crt_residue(d: int, t: int) -> int:
    """The unique q in [0, d^2 t^2 - 1] with q = 0 (mod d^2) and q = -1 (mod t^2).

    For t = 1 (and in particular d = t = 1) the second congruence is vacuous
    and q = 0, which keeps the (d, t) = (1, 1) term of the decomposition
    uniform with the rest.
    """
    _check_pair(d, t)
    d2 = d * d
    t2 = t * t
    if t2 == 1:
        return 0
    k = (-pow(d2, -1, t2)) % t2
    return d2 * k
