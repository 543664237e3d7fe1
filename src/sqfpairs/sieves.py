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
cleared.  The segment keeps these odd cells and spreads them into the
positional is_prime array (with 2 set by hand) only when is_prime is first read.  The
prime stream, iter_prime_segments, never reads it: it takes the primes
straight from the odd cells as first_odd + 2*j, so a streamed window costs
half a byte a value plus its primes, with no spread and no second nonzero
pass.  No prime-only window builds the int64 array of its values, which only
the mu and tau channels read.

Squarefree flags start from a wheel: a fixed two-period pattern of the
multiples of 4, 9, 25 and 49 (period 44100, 88 KB) is copied into each
cache-sized block of the window and doubled in place, and the squares of
11..59 are struck while the block is still in cache.  Every cell that a
larger prime square divides then comes from one hit lister, _square_hits,
and all of them are cleared with one scatter: the multiples of the squares
up to the window width are listed in one np.repeat pass, and each larger
square hits the window at most once.  No pattern the size of the segment
cap is kept; a caller that flags many windows passes one buffer of its own
as out=, so no window pays for a fresh array's page faults.  Every slice
strike stores one shared read-only 0-d False array, so no slice store
converts a Python bool first.

Square radicals R(m), the product of the primes p with p*p | m, start the
same way in a caller's int32 buffer: a two-period uint8 wheel of the
contributions of 4, 9, 25 and 49 (period 44100, 88 KB, built on first use)
is copied from the window's phase and doubled in place.  The same hit
lister gives the multiples of the larger squares, and one vectorised scatter
multiplies each by its prime.

Convention cells: value 0 carries mu=0, tau=0, not prime, not squarefree;
value 1 carries mu=1, tau=1, not prime, squarefree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import (
    ConfigError,
    InvalidRangeError,
    NotCoprimeError,
    RangeCapError,
    WindowTooLargeError,
)

#: Largest window a single sieve_segment call accepts (cache-friendly default).
DEFAULT_SEGMENT_CAP = 1 << 22

#: Hard ceiling on sieved values; keeps int64 intermediates exact.
GLOBAL_MAX = 1 << 52

CHANNELS = frozenset({"mu", "prime", "tau"})

_base_primes = np.array([2, 3], dtype=np.int64)
_base_limit = 3


#: Period of the squarefree wheel: the cells it strikes are the multiples of 4, 9, 25, 49.
_WHEEL_PERIOD = 4 * 9 * 25 * 49

#: Two wheel periods (88 KB), so any phase has a full period after it.
_WHEEL = np.ones(2 * _WHEEL_PERIOD, dtype=bool)
for _q in (4, 9, 25, 49):
    _WHEEL[::_q] = False
_WHEEL.flags.writeable = False
del _q

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

#: Cells per wheel-fill block: the block stays in L2 while the small squares strike it.
_SQF_BLOCK = 1 << 19

#: The primes 11..59, whose squares are struck block by block.
_BLOCK_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
_BLOCK_SQUARES = tuple(p * p for p in _BLOCK_PRIMES)


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


def _check_window(lo: int, hi: int, segment_cap: int) -> None:
    if not (0 <= lo < hi):
        raise InvalidRangeError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi > GLOBAL_MAX:
        raise RangeCapError(f"hi={hi} exceeds global maximum {GLOBAL_MAX}")
    if hi - lo > segment_cap:
        raise WindowTooLargeError(
            f"window of {hi - lo} elements exceeds segment cap {segment_cap}; split it"
        )


def _first_multiple(lo: int, step: int) -> int:
    return ((lo + step - 1) // step) * step


class _SpreadOnRead:
    """The is_prime field: stored as given, or spread from the odd cells on first read.

    A data descriptor, so the dataclass __init__ stores through __set__ and
    its default (None, read on the class) stays the field default.  The
    spread is idempotent, so two readers racing on it store equal arrays.
    """

    def __set_name__(self, owner, name):
        self._slot = "_" + name

    def __get__(self, seg, owner=None):
        if seg is None:
            return None
        flags = seg.__dict__[self._slot]
        if flags is None and seg._odd is not None:
            flags = np.zeros(seg.hi - seg.lo, dtype=bool)
            flags[(seg.lo | 1) - seg.lo:: 2] = seg._odd
            if seg.lo <= 2 < seg.hi:
                flags[2 - seg.lo] = True
            seg.__dict__[self._slot] = flags
        return flags

    def __set__(self, seg, value):
        seg.__dict__[self._slot] = value


@dataclass(frozen=True)
class SieveSegment:
    """Per-element arithmetic data for the half-open window [lo, hi).

    Channels not requested are None.  Arrays are positional: index i holds
    data for the value lo + i.  A prime segment keeps its odd cells (cell j
    for the value (lo | 1) + 2j) and builds is_prime from them when it is
    first read.
    """

    lo: int
    hi: int
    mu: Optional[np.ndarray] = None                # int8 in {-1, 0, 1}
    is_prime: Optional[np.ndarray] = _SpreadOnRead()  # bool
    tau: Optional[np.ndarray] = None               # int64 divisor counts
    _odd: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def sieve_segment(
    lo: int,
    hi: int,
    channels,
    segment_cap: int = DEFAULT_SEGMENT_CAP,
) -> SieveSegment:
    """Sieve the window [lo, hi) for the requested channels.

    channels is any iterable drawn from {"mu", "prime", "tau"}.  Deterministic
    for fixed inputs; raises WindowTooLargeError when the window exceeds
    segment_cap so that callers split.
    """
    wanted = frozenset(channels)
    if not wanted:
        raise ConfigError("at least one channel must be requested")
    if not wanted <= CHANNELS:
        raise ConfigError(f"unknown channels {sorted(wanted - CHANNELS)}")
    _check_window(lo, hi, segment_cap)

    n = hi - lo
    root = math.isqrt(hi - 1)
    bps = base_primes(root)
    if wanted & {"mu", "tau"}:
        values = np.arange(lo, hi, dtype=np.int64)

    mu = odd = tau = None

    if "prime" in wanted:
        odd = _odd_prime_cells(lo, hi, bps)

    if "mu" in wanted:
        sign = np.ones(n, dtype=np.int8)
        prod = np.ones(n, dtype=np.int64)
        for p in bps.tolist():
            start = _first_multiple(lo, p)
            if start < hi:
                sl = slice(start - lo, n, p)
                sign[sl] = -sign[sl]
                prod[sl] *= p
        # value 0 is not squarefree, so its garbage sign/prod entries are never read
        squarefree = squarefree_flags(lo, hi, segment_cap)
        leftover = (values != prod) & squarefree
        sign[leftover] = -sign[leftover]
        mu = np.where(squarefree, sign, np.int8(0))

    if "tau" in wanted:
        tau = np.ones(n, dtype=np.int64)
        rem = values.copy()
        if lo == 0:
            rem[0] = 1  # value 0: excluded from division, tau forced below
        for p in bps.tolist():
            start = _first_multiple(lo, p)
            if start >= hi:
                continue
            idx = np.arange(start - lo, n, p)
            if lo == 0 and idx.size and idx[0] == 0:
                idx = idx[1:]
                if not idx.size:
                    continue
            r = rem[idx] // p
            e = np.ones(idx.size, dtype=np.int64)
            while True:
                div = r % p == 0
                if not div.any():
                    break
                r[div] //= p
                e[div] += 1
            tau[idx] *= e + 1
            rem[idx] = r
        tau[rem > 1] *= 2
        if lo == 0:
            tau[0] = 0

    return SieveSegment(lo=lo, hi=hi, mu=mu, tau=tau, _odd=odd)


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


def squarefree_flags(lo: int, hi: int, segment_cap: int = DEFAULT_SEGMENT_CAP,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean array over [lo, hi): True where the value is squarefree.

    The package's one squarefree sieve: the mu channel of sieve_segment
    takes its zeros from here.  Value 0 is not squarefree by convention.

    out, when given, is a caller-owned buffer reused across windows: a
    contiguous 1-d bool array of at least hi - lo cells.  The flags are
    written to out[:hi - lo], which is returned; its old contents never
    matter, since the wheel fill writes every cell before any strike, and
    the cells past hi - lo are left alone.  Otherwise a fresh array is
    returned.

    Two passes over one bool array:

    1. Wheel fill, block by block (_SQF_BLOCK cells): copy one period of
       the wheel from the phase (lo + b) mod 44100, double it in place by
       slice copies (the copied length stays a multiple of the period), then
       strike the squares of 11..59 while the block is in cache.
    2. _square_hits lists every cell that the square of a prime p > 59
       divides, and one scatter clears them all.

    The flags stay exact: both passes only clear cells whose value a prime
    square divides (the wheel clears the multiples of 4, 9, 25, 49, and
    value 0 with them), and together they clear the multiples of p*p for
    every prime p <= sqrt(hi - 1).  A value with no such divisor
    is squarefree, since any square factor p*p of a value below hi has
    p <= sqrt(hi - 1).
    """
    _check_window(lo, hi, segment_cap)
    n = hi - lo
    if out is None:
        flags = np.empty(n, dtype=bool)
    elif (not isinstance(out, np.ndarray) or out.dtype != bool or out.ndim != 1
            or not out.flags.c_contiguous or out.size < n):
        raise ConfigError(f"out must be a contiguous 1-d bool array of at least {n} cells")
    else:
        flags = out[:n]
    for b in range(0, n, _SQF_BLOCK):
        e = min(b + _SQF_BLOCK, n)
        _tile(flags[b:e], _WHEEL, (lo + b) % _WHEEL_PERIOD, _WHEEL_PERIOD)
        for q in _BLOCK_SQUARES:
            start = b + (-(lo + b)) % q
            if start < e:
                flags[start:e:q] = _FALSE
    flags[_square_hits(lo, n, _BLOCK_PRIMES[-1])[0]] = False
    return flags


@lru_cache(maxsize=1)
def _radical_wheel() -> np.ndarray:
    """Two periods of the radical wheel (88 KB, read-only): cell g holds the
    product of those of 2, 3, 5, 7 whose square divides g."""
    wheel = np.ones(2 * _WHEEL_PERIOD, dtype=np.uint8)
    for p in (2, 3, 5, 7):
        wheel[:: p * p] *= p
    wheel.flags.writeable = False
    return wheel


def square_radicals(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """R(m) for m in [lo, hi), 0 < lo, in out[:hi - lo]: the product of the primes p with p*p | m.

    out is a caller-owned int32 buffer of at least hi - lo cells, returned as
    out[:hi - lo]; R(m)**2 divides m < GLOBAL_MAX, so R(m) <= 2**26 fits.
    Two passes: the window is tiled from the radical wheel at the phase
    lo mod 44100, which puts in the primes 2, 3, 5 and 7; then _square_hits
    lists every cell that the square of a prime p > 7 divides, and one
    np.multiply.at scatter multiplies each by its p, which stays exact where
    several primes hit the same cell.  Every prime p with p*p | m is either
    one of 2, 3, 5, 7 or listed at m, so R(m) comes out whole.
    """
    if lo < 1:
        raise InvalidRangeError(f"R(0) is undefined: need lo >= 1, got lo={lo}")
    if not isinstance(out, np.ndarray) or out.dtype != np.int32 or out.ndim != 1:
        raise ConfigError("out must be a 1-d int32 array")
    _check_window(lo, hi, out.size)
    n = hi - lo
    rad = out[:n]
    _tile(rad, _radical_wheel(), lo % _WHEEL_PERIOD, _WHEEL_PERIOD)
    cells, primes = _square_hits(lo, n, 7)  # the wheel holds 2, 3, 5, 7
    np.multiply.at(rad, cells, primes.astype(np.int32))
    return rad


def iter_prime_segments(
    lo: int,
    hi: int,
    segment_cap: int = DEFAULT_SEGMENT_CAP,
) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes covering [lo, hi) window by window.

    One sieve_segment call per window; its primes are read from the odd
    cells.  Nothing of a window outlives its yield but the yielded array.
    """
    _check_window(lo, hi, GLOBAL_MAX)  # the range checks: hi - lo <= hi <= GLOBAL_MAX
    cur = lo
    while cur < hi:
        top = min(cur + segment_cap, hi)
        yield _odd_cell_primes(cur, top, sieve_segment(cur, top, {"prime"}, segment_cap)._odd)
        cur = top


def primes_in(lo: int, hi: int, segment_cap: int = DEFAULT_SEGMENT_CAP) -> np.ndarray:
    """Ascending primes in [lo, hi) as an int64 array; windows concatenate cleanly."""
    parts = [seg for seg in iter_prime_segments(lo, hi, segment_cap) if seg.size]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.concatenate(parts)


def prime_count(N: int, segment_cap: int = DEFAULT_SEGMENT_CAP) -> int:
    """pi(N) = number of primes <= N."""
    if N < 0:
        raise InvalidRangeError(f"need N >= 0, got {N}")
    if N < 2:
        return 0
    total = 0
    for seg in iter_prime_segments(2, N + 1, segment_cap):
        total += int(seg.size)
    return total


def crt_residue(d: int, t: int) -> int:
    """The unique q in [0, d^2 t^2 - 1] with q = 0 (mod d^2) and q = -1 (mod t^2).

    For t = 1 (and in particular d = t = 1) the second congruence is vacuous
    and q = 0, which keeps the (d, t) = (1, 1) term of the decomposition
    uniform with the rest.
    """
    if d < 1 or t < 1:
        raise InvalidRangeError(f"need d, t >= 1, got d={d}, t={t}")
    if math.gcd(d, t) != 1:
        raise NotCoprimeError(f"gcd({d}, {t}) != 1")
    d2 = d * d
    t2 = t * t
    if t2 == 1:
        return 0
    k = (-pow(d2, -1, t2)) % t2
    return d2 * k
