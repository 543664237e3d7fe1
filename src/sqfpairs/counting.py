"""The main counting experiments: consecutive squarefree values along [alpha*p].

Counts are exact integers throughout; the only floating step is the final
comparison against the density prediction, so observed convergence can never
be a rounding artifact.  Every count over primes reads one stream of
floors, one int64 array [alpha*p] per prime window of _PRIME_WINDOW = 2**20
values whatever alpha is (512 KiB of odd cells, which stay in cache while
the base primes strike them).  No count reads the primes themselves.  The
counts fix their own windows: no caller sets them.

The sieve-backed counts share one pass, _floor_runs.  It skips a segment's
zero floors (alpha < 1/2 only), and _floor_windows cuts the rest greedily
into runs whose floor window [fl[a], fl[b-1] + 2), holding every
m = [alpha*p] and m + 1 of the run, spans at most span cells, so one sieve
call covers a run and a large alpha cuts one prime window into many runs.
Each count allocates one buffer when it starts and sieves every run into
it, and the values at m and m + 1 are gathered into fresh arrays, so no
view of the buffer outlives it.  One rule sets the buffer of every count:
_RUN_BYTES (1 MiB, which stays in cache while the small squares strike it),
so the span is _RUN_BYTES // itemsize cells of the buffer's dtype: 2**20
squarefree flags for pair_count and single_count, 2**18 int32 radicals for
decompose.  carlitz_count flags [1, N + 1] in windows of the same 2**20
cells, into one buffer of its own.  Memory beyond the prime window is
therefore 1 MiB a buffer for every alpha and N; a run writes, and so makes
resident, only its own cells.

Window lifetimes: a prime window's primes go as soon as they are floored,
and its floors and gathered arrays are dropped before the stream sieves the
next window, by the stream's generator and by _floor_runs alike.  Held
across it, they add to that window's sieve and floors at the peak: on a
2-core x86-64 VM the peak RSS of the benchmark's pairs-sweep, pairs-wide
and decompose runs was 0.6 to 0.85 MiB higher with the gathered arrays
held, and that of pairs-sweep and decompose a further 0.55 to 0.8 MiB with
the primes held.

sieves.square_radicals fills a decompose run by tiling a wheel of the
radicals of 4, 9, 25 and 49, then scatters the larger squares.  The primes
of a run are tallied by class with np.unique, and the run tallies are merged
into one sorted int64 (keys, counts) pair whenever the pending ones outgrow
it, so the tally's memory follows the number of distinct classes, not of
runs.  Only the distinct radicals reach Python, to be factored once; the
classes are expanded into their signed (d, t) terms in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import constants
from .alpha import AlgebraicAlpha, check_floor_top
from .errors import ConfigError, InvalidRangeError, RangeCapError
from .sieves import (
    GLOBAL_MAX,
    _check_pair,
    base_primes,
    iter_prime_segments,
    square_radicals,
    squarefree_flags,
)

#: Truncation used for the density midpoint entering predictions.
SIGMA_PRODUCT_LIMIT = 10 ** 6

#: Values of a prime window, for every alpha.
_PRIME_WINDOW = 1 << 20

#: Largest buffer of a run, in bytes: the span rule of every count (module docstring).
_RUN_BYTES = 1 << 20

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
    check_floor_top(alpha.to_float() * N)


def _prime_floors(alpha: AlgebraicAlpha, N: int):
    """The floors [alpha*p] per prime window of the primes p <= N; checks run at the call.

    The prime windows are [2 + i*W, 2 + (i + 1)*W), W = _PRIME_WINDOW,
    empty ones skipped; each yields one ascending int64 array, one floor a prime.
    """
    _check_n(alpha, N)
    return _floor_stream(alpha, iter_prime_segments(2, N + 1, _PRIME_WINDOW))


def _floor_stream(alpha: AlgebraicAlpha, segments):
    """The floors of each non-empty prime window, one per prime, dropped before the next is sieved.

    The window's primes go as soon as floors_bulk has read them.
    """
    for ps in segments:
        if ps.size:
            fls, ps = alpha.floors_bulk(ps), None
            yield fls
        ps = fls = None  # dropped before the next window is sieved (module docstring)


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


def carlitz_count(N: int) -> int:
    """Exact number of n <= N with n and n+1 both squarefree."""
    if N < 1:
        raise InvalidRangeError(f"need N >= 1, got N={N}")
    if N + 2 > GLOBAL_MAX:
        raise RangeCapError(f"N + 2 = {N + 2} exceeds global maximum {GLOBAL_MAX}")
    span = _RUN_BYTES  # bool flags, one byte a cell
    buf = np.empty(span, dtype=bool)
    count = 0
    for cur in range(1, N + 1, span - 1):  # windows share their last cell
        flags = squarefree_flags(cur, min(cur + span, N + 2), out=buf)
        count += int(np.count_nonzero(flags[:-1] & flags[1:]))
    return count


def _floor_runs(stream, sieve, dtype):
    """Per run of the floors of stream: (n, values at m, values at m + 1), fresh arrays.

    stream is _prime_floors' floor windows; n counts the floors of the run,
    one per prime.  The zero floors of a window (alpha < 1/2 only) make one
    item of empty values: 0 is not squarefree and has no radical.  The
    other floors are cut by _floor_windows at the span
    _RUN_BYTES // itemsize, and sieve(lo, hi, out=buf) fills each run's
    values into one buffer of that span, allocated once as the count starts.
    """
    span = _RUN_BYTES // np.dtype(dtype).itemsize
    buf = np.empty(span, dtype=dtype)
    for fls in stream:
        zeros = int(np.searchsorted(fls, 1))  # floors ascend: the zeros are a prefix
        if zeros:
            yield zeros, np.empty(0, dtype=dtype), np.empty(0, dtype=dtype)
        for fl in _floor_windows(fls[zeros:], span):
            lo = int(fl[0])
            sieve(lo, int(fl[-1]) + 2, out=buf)
            # every index lies in the sieved run, so "clip" only skips the bounds
            # check; buf[1:] reads m + 1 at the same index
            idx = fl - lo
            yield fl.size, np.take(buf, idx, mode="clip"), np.take(buf[1:], idx, mode="clip")
        fls = fl = idx = None  # dropped before the next window (module docstring)


def _count_over_primes(alpha: AlgebraicAlpha, N: int):
    """(pair count, single count, prime count) of the primes p <= N, from one pass."""
    pairs = singles = pi_n = 0
    # the name is read as the count runs, so that a patched squarefree_flags is the one called
    for n, at_m, at_m1 in _floor_runs(_prime_floors(alpha, N), squarefree_flags, bool):
        pi_n += n
        singles += int(np.count_nonzero(at_m))
        at_m &= at_m1
        pairs += int(np.count_nonzero(at_m))
    return pairs, singles, pi_n


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


def pair_count(alpha: AlgebraicAlpha, N: int) -> PairCountReport:
    """Count primes p <= N with [alpha*p] and [alpha*p]+1 both squarefree."""
    count, _, pi_n = _count_over_primes(alpha, N)
    return _report(alpha, N, count, pi_n, sigma_midpoint())


def single_count(alpha: AlgebraicAlpha, N: int) -> PairCountReport:
    """Count primes p <= N with [alpha*p] squarefree (prediction 6/pi^2 * pi(N))."""
    _, count, pi_n = _count_over_primes(alpha, N)
    return _report(alpha, N, count, pi_n, basel_midpoint())


def congruence_pair_count(alpha: AlgebraicAlpha, N: int, d: int, t: int) -> int:
    """Count primes p <= N with [alpha*p] = 0 (mod d^2) and [alpha*p]+1 = 0 (mod t^2).

    Requires gcd(d, t) = 1; the decomposition only ever sums over coprime
    pairs, so a shared factor signals a caller bug.  Every floor + 1 is
    below 2**53 (alpha*N <= GLOBAL_MAX = 2**52), so a square above 2**53
    divides a floor or floor + 1 exactly where 2**53 does, at floor 0 only:
    the moduli are clamped to 2**53, which keeps them in int64 and the count
    exact.
    """
    _check_pair(d, t)
    d2 = min(d * d, 1 << 53)
    t2 = min(t * t, 1 << 53)
    count = 0
    for fl in _prime_floors(alpha, N):
        count += int(np.count_nonzero((fl % d2 == 0) & ((fl + 1) % t2 == 0)))
    return count


def _square_divisors(r: int, primes):
    """All (d, mu(d)) with d | r, for squarefree r >= 1.

    r is factored over primes, the ascending base primes up to at least
    sqrt(r) as Python ints; the scan stops once p*p exceeds what is left.
    """
    divs = [(1, 1)]
    for p in primes:
        if p * p > r:  # what is left of r is 1 or a prime
            break
        if r % p == 0:
            divs += [(d * p, -s) for d, s in divs]
            r //= p
    if r > 1:
        divs += [(d * r, -s) for d, s in divs]
    return divs


def _merge_tallies(*tallies):
    """One (keys, counts) tally, keys sorted and distinct, from tallies of int64 arrays."""
    keys, inverse = np.unique(np.concatenate([k for k, _ in tallies]), return_inverse=True)
    counts = np.zeros(keys.size, dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in tallies]))
    return keys, counts


def _split_sums(keys: np.ndarray, counts: np.ndarray, z: float):
    """(sigma1, sigma2) of a class tally: each class (R, S) weighted by its prime count.

    Every distinct radical is factored once, and its square divisors d with
    their signs mu(d) go into two flat arrays.  A class with a divisors of R
    and b of S makes a*b terms; term j pairs divisor j // b of R with
    divisor j % b of S.  sigma1 sums the terms with d*t <= z, sigma2 those
    with d*t > z, so their sum is a check of the count rather than its
    definition.  d, t <= 2**26 make d*t <= 2**52 exact in int64 and in the
    float comparison with z.
    """
    rads, which = np.unique(np.concatenate((keys >> 32, keys & _LOW32)), return_inverse=True)
    rads = rads.tolist()
    primes = base_primes(math.isqrt(rads[-1]) if rads else 0).tolist()
    divs = [_square_divisors(r, primes) for r in rads]
    size = np.array([len(ds) for ds in divs], dtype=np.int64)
    first = np.cumsum(size) - size  # where each radical's divisors start in div and mu
    div = np.array([d for ds in divs for d, _ in ds], dtype=np.int64)
    mu = np.array([s for ds in divs for _, s in ds], dtype=np.int64)
    r, s = which[:keys.size], which[keys.size:]
    terms = size[r] * size[s]
    cls = np.repeat(np.arange(keys.size), terms)
    j = np.arange(cls.size) - np.repeat(np.cumsum(terms) - terms, terms)
    b = size[s][cls]
    i_d = first[r][cls] + j // b
    i_t = first[s][cls] + j % b
    w = counts[cls] * mu[i_d] * mu[i_t]
    near = div[i_d] * div[i_t] <= z
    return int(w[near].sum()), int(w[~near].sum())


def decompose(alpha: AlgebraicAlpha, N: int, z: float) -> DecompositionReport:
    """Split the pair count into signed sums over dt <= z and dt > z.

    For each prime the squarefree indicators of m = [alpha*p] and m+1 expand
    into signed sums over squarefree d with d^2 | m and t with t^2 | m+1
    (coprimality of (d, t) is automatic since gcd(m, m+1) = 1), so
    sigma1 + sigma2 equals the pair count exactly for every split point.

    Those sums depend on m only through its class (R, S): R is the product of
    the primes whose square divides m, S the same for m+1.  _floor_runs
    cuts the floors into runs of at most 2**18 cells,
    m + 1 of the last floor inside, and gathers R at m and m + 1 from the
    run's radicals, which sieves.square_radicals sieves into the count's one
    int32 buffer: the run is tiled from a wheel of the radicals of 4, 9, 25
    and 49, and every larger square multiplies its multiples in the run by
    its prime in one np.multiply.at scatter.  The run's primes are tallied
    as int64 keys R << 32 | S (both at most 2**26) with np.unique, and the
    run tallies are merged into one sorted (keys, counts) pair whenever the
    pending ones hold more entries than it, so memory follows the number of
    distinct classes, not the number of runs.  Each distinct radical is then
    factored once and every class expanded in numpy (_split_sums), sigma1
    and sigma2 each summed over its own side of z.

    z may sit anywhere in [1, (alpha*N)^(2/3)]; values below 2 are outside
    the regime of the asymptotic analysis but leave the identity intact.
    The rare primes with [alpha*p] = 0 (possible only for alpha < 1/2) are
    skipped, matching the convention that 0 is not squarefree.
    """
    stream = _prime_floors(alpha, N)
    z_cap = (alpha.to_float() * N) ** (2.0 / 3.0) * (1.0 + 1e-9)
    if not 1.0 <= z <= z_cap:
        raise ConfigError(f"z={z} outside [1, (alpha*N)^(2/3)] = [1, {z_cap:.6g}]")

    tally = (np.empty(0, dtype=np.int64),) * 2  # sorted class keys R << 32 | S, their primes
    pending = []  # run tallies not yet merged into tally
    pending_size = 0
    # R^2 divides m <= GLOBAL_MAX = 2**52, so R <= 2**26 fits int32
    for _, rad_m, rad_m1 in _floor_runs(stream, square_radicals, np.int32):
        keys = rad_m.astype(np.int64)
        keys <<= 32
        keys |= rad_m1
        del rad_m, rad_m1  # freed before np.unique copies the keys
        pending.append(np.unique(keys, return_counts=True))
        pending_size += pending[-1][0].size
        if pending_size > tally[0].size:
            tally = _merge_tallies(tally, *pending)
            pending = []
            pending_size = 0

    sigma1, sigma2 = _split_sums(*_merge_tallies(tally, *pending), z)
    return DecompositionReport(N=N, z=z, sigma1=sigma1, sigma2=sigma2,
                               total=sigma1 + sigma2)


def error_table(alpha: AlgebraicAlpha, Ns: Sequence[int]) -> ErrorTable:
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
    reports = tuple(pair_count(alpha, n) for n in Ns)
    if all(r.abs_error == 0.0 for r in reports):
        return ErrorTable(reports=reports, fitted_exponent=None)
    xs = [math.log(r.N) for r in reports]
    ys = [math.log(r.abs_error + 1.0) for r in reports]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    return ErrorTable(reports=reports, fitted_exponent=sxy / sxx)
