"""The main counting experiments: consecutive squarefree values along [alpha*p].

Counts are exact integers throughout; the only floating step is the final
comparison against the density prediction, so observed convergence can never
be a rounding artifact.  The heavy loops stream over prime segments and over
matching squarefree-flag windows, keeping memory bounded by the segment cap.
"""

from __future__ import annotations

import math
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


def _sf_window(lo: int, hi: int, segment_cap: int) -> np.ndarray:
    parts = []
    cur = lo
    while cur < hi:
        top = min(cur + segment_cap, hi)
        parts.append(squarefree_flags(cur, top, segment_cap))
        cur = top
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _check_n(alpha: AlgebraicAlpha, N: int) -> None:
    """N >= 2, and floors [alpha*p] for p <= N within the sieves' range."""
    if N < 2:
        raise InvalidRangeError(f"need N >= 2, got N={N}")
    top = alpha.to_float() * N
    if top > GLOBAL_MAX:
        raise RangeCapError(f"alpha*N = {top:.6g} exceeds global maximum {GLOBAL_MAX}")


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
        flags = _sf_window(cur, top + 1, segment_cap)
        count += int(np.count_nonzero(flags[:-1] & flags[1:]))
        cur = top
    return count


def _count_over_primes(alpha: AlgebraicAlpha, N: int, pair: bool, segment_cap: int):
    _check_n(alpha, N)
    count = 0
    pi_n = 0
    for ps in iter_prime_segments(2, N + 1, segment_cap):
        if not ps.size:
            continue
        pi_n += int(ps.size)
        fl = alpha.floors_bulk(ps)
        lo = int(fl[0])
        flags = _sf_window(lo, int(fl[-1]) + 2, segment_cap)
        idx = fl - lo
        hit = flags[idx] & flags[idx + 1] if pair else flags[idx]
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
    pairs, so a shared factor signals a caller bug.
    """
    if d < 1 or t < 1:
        raise InvalidRangeError(f"need d, t >= 1, got d={d}, t={t}")
    if math.gcd(d, t) != 1:
        raise NotCoprimeError(f"gcd({d}, {t}) != 1")
    _check_n(alpha, N)
    d2 = d * d
    t2 = t * t
    count = 0
    for ps in iter_prime_segments(2, N + 1, segment_cap):
        if not ps.size:
            continue
        fl = alpha.floors_bulk(ps)
        count += int(np.count_nonzero((fl % d2 == 0) & ((fl + 1) % t2 == 0)))
    return count


def _square_divisors(primes: Sequence[int]):
    """All (d, mu(d)) with d squarefree over the given primes (d^2 dividing the target)."""
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -s) for d, s in divs]
    return divs


def decompose(alpha: AlgebraicAlpha, N: int, z: float,
              segment_cap: int = DEFAULT_SEGMENT_CAP) -> DecompositionReport:
    """Split the pair count into signed sums over dt <= z and dt > z.

    For each prime the squarefree indicators of m = [alpha*p] and m+1 expand
    into signed sums over squarefree d with d^2 | m and t with t^2 | m+1
    (coprimality of (d, t) is automatic since gcd(m, m+1) = 1), so
    sigma1 + sigma2 equals the pair count exactly for every split point.

    z may sit anywhere in [1, (alpha*N)^(2/3)]; values below 2 are outside
    the regime of the asymptotic analysis but leave the identity intact.
    The rare primes with [alpha*p] = 0 (possible only for alpha < 1/2) are
    skipped, matching the convention that 0 is not squarefree.
    """
    _check_n(alpha, N)
    z_cap = (alpha.to_float() * N) ** (2.0 / 3.0) * (1.0 + 1e-9)
    if not 1.0 <= z <= z_cap:
        raise ConfigError(f"z={z} outside [1, (alpha*N)^(2/3)] = [1, {z_cap:.6g}]")

    floors_parts = []
    for ps in iter_prime_segments(2, N + 1, segment_cap):
        if ps.size:
            floors_parts.append(alpha.floors_bulk(ps))
    if not floors_parts:
        raise InvalidRangeError(f"no primes up to N={N}")
    fl = np.concatenate(floors_parts)
    fl = fl[fl > 0]
    if not fl.size:
        return DecompositionReport(N=N, z=z, sigma1=0, sigma2=0, total=0)

    max_val = int(fl[-1]) + 1
    sq_lo = [[] for _ in range(fl.size)]
    sq_hi = [[] for _ in range(fl.size)]
    fl1 = fl + 1
    for p in base_primes(math.isqrt(max_val)).tolist():
        q = p * p
        for store, arr in ((sq_lo, fl), (sq_hi, fl1)):
            for i in np.nonzero(arr % q == 0)[0].tolist():
                store[i].append(p)

    sigma1 = 0
    sigma2 = 0
    for i in range(fl.size):
        for d, sd in _square_divisors(sq_lo[i]):
            for t, st in _square_divisors(sq_hi[i]):
                if d * t <= z:
                    sigma1 += sd * st
                else:
                    sigma2 += sd * st
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
