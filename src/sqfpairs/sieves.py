"""Segmented arithmetic sieves: primes, Mobius values, squarefree flags, divisor counts.

All functions are pure and deterministic. Segments are independent, so results
for disjoint windows can be computed in any order (or in parallel) and
concatenated. Base primes up to sqrt(hi) are cached at module level and only
regrown when a larger window is requested; the cache grows monotonically and
updates are idempotent, so concurrent readers are safe.

Convention cells: value 0 carries mu=0, tau=0, not prime, not squarefree;
value 1 carries mu=1, tau=1, not prime, squarefree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def base_primes(limit: int) -> np.ndarray:
    """Primes <= limit from the shared cache, regrown geometrically on demand."""
    global _base_primes, _base_limit
    if limit > _base_limit:
        new_limit = max(limit, 2 * _base_limit)
        flags = np.ones(new_limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(new_limit) + 1):
            if flags[p]:
                flags[p * p:: p] = False
        _base_primes = np.nonzero(flags)[0].astype(np.int64)
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


@dataclass(frozen=True)
class SieveSegment:
    """Per-element arithmetic data for the half-open window [lo, hi).

    Channels not requested are None.  Arrays are positional: index i holds
    data for the value lo + i.
    """

    lo: int
    hi: int
    mu: Optional[np.ndarray] = None        # int8 in {-1, 0, 1}
    is_prime: Optional[np.ndarray] = None  # bool
    tau: Optional[np.ndarray] = None       # int64 divisor counts


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
    values = np.arange(lo, hi, dtype=np.int64)

    mu = is_prime = tau = None

    if "prime" in wanted:
        composite = np.zeros(n, dtype=bool)
        for p in bps.tolist():
            start = max(p * p, _first_multiple(lo, p))
            if start < hi:
                composite[start - lo:: p] = True
        is_prime = ~composite
        is_prime[values < 2] = False

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

    return SieveSegment(lo=lo, hi=hi, mu=mu, is_prime=is_prime, tau=tau)


def squarefree_flags(lo: int, hi: int, segment_cap: int = DEFAULT_SEGMENT_CAP) -> np.ndarray:
    """Boolean array over [lo, hi): True where the value is squarefree.

    The package's one squarefree sieve: the mu channel of sieve_segment
    takes its zeros from here.  Value 0 is not squarefree by convention.
    """
    _check_window(lo, hi, segment_cap)
    n = hi - lo
    flags = np.ones(n, dtype=bool)
    for p in base_primes(math.isqrt(hi - 1)).tolist():
        q = p * p
        start = _first_multiple(lo, q)
        if start < hi:
            flags[start - lo:: q] = False
    if lo == 0:
        flags[0] = False
    return flags


def iter_prime_segments(
    lo: int,
    hi: int,
    segment_cap: int = DEFAULT_SEGMENT_CAP,
) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes covering [lo, hi) window by window."""
    if not (0 <= lo < hi):
        raise InvalidRangeError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi > GLOBAL_MAX:
        raise RangeCapError(f"hi={hi} exceeds global maximum {GLOBAL_MAX}")
    cur = lo
    while cur < hi:
        top = min(cur + segment_cap, hi)
        seg = sieve_segment(cur, top, {"prime"}, segment_cap)
        yield seg.lo + np.nonzero(seg.is_prime)[0]
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
