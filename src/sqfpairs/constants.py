"""Certified enclosures for the density constants and reference exponents.

Products over primes are accumulated in log space with directed rounding
(every intermediate is nudged outward by a couple of ulps), so each Enclosure
is guaranteed to contain the exact value.  Summation orders are fixed and the
heavy sums go through math.fsum, whose result is exactly rounded and hence
bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidRangeError
from .sieves import iter_prime_segments, sieve_segment

_INF = math.inf

#: Primes per array step of sigma_enclosure: its float arrays and the lists
#: of Python floats they are read into stay a few hundred KiB, where a whole
#: prime segment's would take several MiB.
_SIGMA_CHUNK = 1 << 13


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _dn2(x: float) -> float:
    return _dn(_dn(x))


def _up2(x: float) -> float:
    return _up(_up(x))


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] certified to contain an exact real value."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidRangeError(f"enclosure needs lo <= hi, got [{self.lo}, {self.hi}]")

    def width(self) -> float:
        return self.hi - self.lo

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def sigma_enclosure(P: int) -> Enclosure:
    """Enclosure of the full product over all primes of (1 - 2/p^2).

    Finite product over p <= P in directed-rounded log space, plus a certified
    tail: with x = 2/p^2, -x/(1-x) <= log(1-x) <= -x and
    Sum_{p > P} 1/p^2 < 1/(P-1).  Width shrinks as P grows.

    Per prime the float operations and their order are fixed: x = 2.0/(p*p)
    with p*p rounded once to float; the terms log1p(-up(x)) nudged down
    twice and log1p(-dn(x)) nudged up twice; each partial sum nudged outward
    once.  Each chunk of at most _SIGMA_CHUNK primes evaluates x, the nudges
    and math.log1p array-wide and keeps only the two running sums
    sequential, which gives the same bits as the per-prime scalar loop.
    """
    if P < 3:
        raise InvalidRangeError(f"need P >= 3, got P={P}")
    lo_sum = 0.0
    hi_sum = 0.0
    nextafter = math.nextafter
    for seg in iter_prime_segments(2, P + 1):
        for i in range(0, seg.size, _SIGMA_CHUNK):
            x = _two_over_square(seg[i:i + _SIGMA_CHUNK])
            t_lo = _log1p(-np.nextafter(x, _INF))
            t_hi = _log1p(-np.nextafter(x, -_INF))
            for _ in range(2):
                t_lo = np.nextafter(t_lo, -_INF)
                t_hi = np.nextafter(t_hi, _INF)
            for t in t_lo.tolist():
                lo_sum = nextafter(lo_sum + t, -_INF)
            for t in t_hi.tolist():
                hi_sum = nextafter(hi_sum + t, _INF)
    # tail over p > P: upper bound 0 (every factor is below 1), lower bound
    # -Sum x/(1-x) >= -(Sum x) / (1 - max x)
    tail_x = _up(2.0 / (P - 1))
    denom = _dn(1.0 - _up(2.0 / (P * P)))
    tail_lo = _dn(-tail_x / denom)
    lo_sum = _dn(lo_sum + tail_lo)
    return Enclosure(_dn2(math.exp(lo_sum)), _up2(math.exp(hi_sum)))


def _two_over_square(ps: np.ndarray) -> np.ndarray:
    """2.0 / (p*p) per prime, as Python's float division by the int p*p rounds it.

    For p <= 2**52, p is exact in float64 and fl(p*p) is the correctly
    rounded square, the same double as int -> float conversion of p*p.
    """
    p = ps.astype(np.float64)
    return 2.0 / (p * p)


def _log1p(x: np.ndarray) -> np.ndarray:
    """math.log1p per element (numpy's log1p may round differently)."""
    return np.fromiter(map(math.log1p, x.tolist()), dtype=np.float64, count=x.size)


def sigma_partial_product(P: int) -> float:
    """Plain float product of (1 - 2/p^2) over p <= P, in ascending order.

    Independent of the log-space enclosure path; used as the recomputation
    oracle in the tests.
    """
    if P < 2:
        raise InvalidRangeError(f"need P >= 2, got P={P}")
    prod = 1.0
    for seg in iter_prime_segments(2, P + 1):
        for p in seg.tolist():
            prod *= 1.0 - 2.0 / (p * p)
    return prod


def basel_density_enclosure() -> Enclosure:
    """Enclosure of 6/pi^2 with width below 1e-12.

    math.pi is the correctly rounded double, so the true pi lies strictly
    between its float neighbours.
    """
    pi_lo = _dn(math.pi)
    pi_hi = _up(math.pi)
    lo = _dn(6.0 / _up(pi_hi * pi_hi))
    hi = _up(6.0 / _dn(pi_lo * pi_lo))
    return Enclosure(lo, hi)


def zeta2_enclosure(terms: int = 10_000) -> Enclosure:
    """Enclosure of zeta(2) from a finite sum plus the integral tail.

    Sum_{n > M} 1/n^2 lies strictly between 1/(M+1) and 1/M.
    """
    if terms < 1:
        raise InvalidRangeError(f"need terms >= 1, got {terms}")
    partial = math.fsum(1.0 / (n * n) for n in range(1, terms + 1))
    lo = _dn(_dn2(partial) + _dn(1.0 / (terms + 1)))
    hi = _up(_up2(partial) + _up(1.0 / terms))
    return Enclosure(lo, hi)


def coprime_double_sum(L: int) -> float:
    """Sum of mu(d) mu(t) / (d t)^2 over 1 <= d, t <= L with gcd(d, t) = 1.

    Each term is (mu(d)/d^2) * (mu(t)/t^2), two IEEE divisions and one
    product.  The terms are formed one row d at a time in numpy and fed to
    math.fsum as they come, so only one row is held.  fsum returns the sum
    of its terms exactly rounded, a function of the multiset of terms
    alone, so the order in which they arrive cannot change the result,
    which is therefore deterministic across platforms.  The mu values come
    from one sieve_segment window, so L above its cap of 2**22 raises
    WindowTooLargeError; at the double sum's L**2 growth (0.65 s at
    L = 4000) such an L would take days.
    """
    if L < 1:
        raise InvalidRangeError(f"need L >= 1, got L={L}")
    mu = sieve_segment(1, L + 1, {"mu"}).mu
    t = np.flatnonzero(mu) + 1
    w = mu[t - 1] / (t * t)  # mu(t)/t^2 for every t with mu(t) != 0
    rows = ((wd * w[np.gcd(d, t) == 1]).tolist() for d, wd in zip(t.tolist(), w.tolist()))
    return math.fsum(chain.from_iterable(rows))


def tail_tau_sum(z: int, Z: int) -> float:
    """Sum of tau(n)/n^2 over z < n <= Z (empirical truncation-tail mass).

    The terms are formed one window of 2**20 values at a time (the counts'
    prime window) and fed to math.fsum as they come, so only one window's
    terms are held; fsum is exactly rounded, so the windows cannot change
    the result.
    """
    if not 1 <= z < Z:
        raise InvalidRangeError(f"need 1 <= z < Z, got z={z}, Z={Z}")
    step = 1 << 20

    def terms(lo: int) -> list[float]:
        hi = min(lo + step, Z + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        return (sieve_segment(lo, hi, {"tau"}).tau / (n * n)).tolist()

    return math.fsum(chain.from_iterable(terms(lo) for lo in range(z + 1, Z + 1, step)))


def reference_exponents() -> dict[str, float]:
    """Historical and target error exponents for the consecutive-pair counts.

    Measured against "main": `sqfpairs fit --alpha sqrt:2 --n
    1e5,1e6,1e7,1e8` fits theta_hat = 0.49222347987776, well inside the
    paper's 0.9; the count stays within about the square root of pi(N) of
    sigma * pi(N) there.
    """
    return {
        "carlitz": 2.0 / 3.0,
        "reuss": (26.0 + math.sqrt(433.0)) / 81.0,
        "main": 0.9,
    }
