import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sqfpairs import (SieveSegment, crt_residue, prime_count, primes_in, sieve_segment,
                      squarefree_flags)
from sqfpairs import sieves
from sqfpairs.alpha import parse_alpha
from sqfpairs.counting import _RUN_BYTES, decompose, pair_count
from sqfpairs.expsum import ExpSumQuery, exp_sum_primes
from sqfpairs.sieves import _WHEEL_PERIOD, base_primes, iter_prime_segments, square_radicals
from sqfpairs.errors import (
    ConfigError,
    InvalidRangeError,
    NotCoprimeError,
    WindowTooLargeError,
)

#: Cells of decompose's widest radical run: its int32 buffer holds _RUN_BYTES.
_RAD_BLOCK = _RUN_BYTES // 4


def test_mu_window_examples():
    seg = sieve_segment(1, 13, {"mu"})
    assert seg.mu.tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_unit_cell_all_channels():
    seg = sieve_segment(1, 2, {"mu", "prime", "tau"})
    assert seg.mu.tolist() == [1]
    assert seg.is_prime.tolist() == [False]
    assert seg.tau.tolist() == [1]


def test_zero_convention_cell():
    seg = sieve_segment(0, 1, {"mu"})
    assert seg.mu.tolist() == [0]
    seg = sieve_segment(0, 3, {"mu", "prime", "tau"})
    assert seg.mu.tolist() == [0, 1, -1]
    assert seg.is_prime.tolist() == [False, False, True]
    assert seg.tau.tolist() == [0, 1, 2]
    assert not squarefree_flags(0, 2)[0]
    assert squarefree_flags(0, 2)[1]


def test_mu_and_tau_channels_match_oracles_on_windows_from_0_to_3():
    # every window [lo, lo + w), lo = 0..3, w = 1..200; lo = 0 holds the
    # value-0 convention cell, which every prime power strikes in the walk
    # and whose tau is forced to 0 afterwards
    mu = [oracles.mu(n) for n in range(204)]
    tau = [oracles.tau(n) for n in range(204)]
    for lo in range(4):
        for w in range(1, 201):
            seg = sieve_segment(lo, lo + w, {"mu", "tau"})
            assert seg.mu.tolist() == mu[lo:lo + w], (lo, w)
            assert seg.tau.tolist() == tau[lo:lo + w], (lo, w)


@pytest.mark.parametrize("p, k", [(2, 33), (3, 20), (7, 11), (101, 5), (997, 3)])
def test_mu_and_tau_channels_match_oracles_across_high_prime_powers(p, k):
    # 20 values straddling p**k (1e8 to 1.1e10), where the walk's highest
    # power of p first strikes a cell and its neighbours keep a large prime
    lo = p ** k - 10
    mu = [oracles.mu(n) for n in range(lo, lo + 20)]
    tau = [oracles.tau(n) for n in range(lo, lo + 20)]
    for channels in ({"mu"}, {"tau"}, {"mu", "tau", "prime"}):
        seg = sieve_segment(lo, lo + 20, channels)
        if "mu" in channels:
            assert seg.mu.tolist() == mu, channels
        if "tau" in channels:
            assert seg.tau.tolist() == tau, channels


def test_prime_count_examples():
    assert prime_count(1) == 0
    assert prime_count(100) == 25
    assert prime_count(10 ** 6) == 78498


def test_prime_count_matches_published_powers_of_ten():
    # pi(10**k), k = 1..8, from OEIS A006880
    published = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455]
    assert [prime_count(10 ** k) for k in range(1, 9)] == published


def test_primes_in_examples():
    assert primes_in(2, 10).tolist() == [2, 3, 5, 7]
    assert primes_in(90, 97).tolist() == []
    assert primes_in(0, 2).tolist() == []


def test_primes_in_window_concatenation():
    whole = primes_in(0, 3000).tolist()
    pieces = []
    for lo, hi in ((0, 17), (17, 1000), (1000, 2999), (2999, 3000)):
        pieces.extend(primes_in(lo, hi).tolist())
    assert pieces == whole
    assert whole == oracles.primes_to(2999)


def test_crt_residue_examples():
    assert crt_residue(2, 3) == 8
    assert crt_residue(3, 2) == 27
    assert crt_residue(1, 1) == 0


def test_crt_residue_exhaustive_scan():
    import math

    for d in range(1, 21):
        for t in range(1, 21):
            if math.gcd(d, t) != 1:
                continue
            q = crt_residue(d, t)
            assert 0 <= q <= d * d * t * t - 1
            assert q == oracles.brute_crt_scan(d, t)


def test_crt_residue_rejects_shared_factor():
    with pytest.raises(NotCoprimeError):
        crt_residue(2, 4)
    with pytest.raises(InvalidRangeError):
        crt_residue(0, 3)


def test_segment_composition():
    for lo, hi, cut in ((0, 1000, 1), (0, 1000, 37), (0, 1000, 999),
                        (10 ** 6 - 500, 10 ** 6 + 500, 10 ** 6)):
        whole = sieve_segment(lo, hi, {"mu", "prime", "tau"})
        left = sieve_segment(lo, cut, {"mu", "prime", "tau"})
        right = sieve_segment(cut, hi, {"mu", "prime", "tau"})
        for chan in ("mu", "is_prime", "tau"):
            merged = np.concatenate([getattr(left, chan), getattr(right, chan)])
            assert np.array_equal(merged, getattr(whole, chan)), (chan, lo, hi, cut)


def test_oracle_equivalence_to_1e5():
    limit = 10 ** 5
    seg = sieve_segment(0, limit + 1, {"mu", "prime", "tau"})
    sf = squarefree_flags(0, limit + 1)
    for n in range(limit + 1):
        facs = oracles.factorize(n) if n >= 2 else []
        if n == 0:
            exp_mu, exp_tau, exp_prime = 0, 0, False
        elif n == 1:
            exp_mu, exp_tau, exp_prime = 1, 1, False
        else:
            exp_mu = 0 if any(e >= 2 for _, e in facs) else (-1) ** len(facs)
            exp_tau = 1
            for _, e in facs:
                exp_tau *= e + 1
            exp_prime = len(facs) == 1 and facs[0][1] == 1
        assert seg.mu[n] == exp_mu, n
        assert seg.tau[n] == exp_tau, n
        assert bool(seg.is_prime[n]) == exp_prime, n
        assert bool(sf[n]) == (exp_mu != 0), n


def test_mu_squared_divisor_identity_to_1e4():
    # mu(n)^2 == Sum of mu(d) over d with d^2 | n, by direct enumeration
    import math

    seg = sieve_segment(1, 10 ** 4 + 1, {"mu"})
    for n in range(1, 10 ** 4 + 1):
        total = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % (d * d) == 0:
                total += int(seg.mu[d - 1])
        assert int(seg.mu[n - 1]) ** 2 == total, n


def test_window_errors():
    with pytest.raises(InvalidRangeError):
        sieve_segment(5, 5, {"mu"})
    with pytest.raises(InvalidRangeError):
        sieve_segment(-1, 5, {"mu"})
    # the cap is checked before anything is sieved or allocated
    for lo in (0, 10 ** 9):
        with pytest.raises(WindowTooLargeError):
            sieve_segment(lo, lo + sieves.DEFAULT_SEGMENT_CAP + 1, {"mu"})
        with pytest.raises(WindowTooLargeError):
            squarefree_flags(lo, lo + sieves.DEFAULT_SEGMENT_CAP + 1)
    # square_radicals shares the cap, whatever the size of its buffer
    big = np.empty(sieves.DEFAULT_SEGMENT_CAP + 1, dtype=np.int32)
    with pytest.raises(WindowTooLargeError):
        square_radicals(1, 2 + sieves.DEFAULT_SEGMENT_CAP, big)
    with pytest.raises(ConfigError):
        sieve_segment(0, 10, set())
    with pytest.raises(ConfigError):
        sieve_segment(0, 10, {"mu", "bogus"})


def test_prime_stream_rejects_a_cap_below_one():
    for window in (0, -5):
        with pytest.raises(ConfigError):
            next(iter_prime_segments(2, 100, window))


def test_large_offset_segment_self_consistent():
    # far window: primality and squarefree flags agree between channels
    lo = 10 ** 10
    seg = sieve_segment(lo, lo + 2000, {"mu", "prime"})
    sf = squarefree_flags(lo, lo + 2000)
    assert np.array_equal(seg.mu != 0, sf)
    # every prime is squarefree with mu = -1
    assert np.all(seg.mu[seg.is_prime] == -1)


def _assert_prime_channel_matches_tau(lo, hi):
    seg = sieve_segment(lo, hi, {"prime", "tau"})
    assert np.array_equal(seg.is_prime, seg.tau == 2), (lo, hi)
    assert np.array_equal(sieve_segment(lo, hi, {"prime"}).is_prime, seg.is_prime)


@settings(max_examples=300, deadline=None)
@given(lo=st.one_of(st.integers(0, 3), st.integers(0, 2 * 10 ** 6)),
       width=st.one_of(st.just(1), st.integers(1, 5000)))
def test_prime_channel_matches_tau_property(lo, width):
    # both parities of lo and hi, the cells 0..3 and windows of width 1
    _assert_prime_channel_matches_tau(lo, lo + width)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(base_primes(1414).tolist()), end=st.integers(-2, 2),
       width=st.integers(1, 5000))
def test_prime_channel_near_prime_squares(p, end, width):
    # windows ending just before, at or just after p*p, the first cell p strikes
    hi = p * p + end
    _assert_prime_channel_matches_tau(max(0, hi - width), hi)


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(0, 10 ** 6), width=st.integers(1, 3000),
       cuts=st.lists(st.integers(1, 2999), max_size=6), cap=st.integers(2, 64))
def test_primes_in_concatenates_at_any_cut(lo, width, cuts, cap):
    # cut by the caller, and each cut piece cut again into windows of cap values
    hi = lo + width
    bounds = sorted({lo, hi, *(lo + c for c in cuts if c < width)})
    expected = [n for n in range(lo, hi) if oracles.is_prime(n)]
    pieces = np.concatenate([primes_in(a, b) for a, b in zip(bounds, bounds[1:])])
    assert pieces.tolist() == expected
    windows = [ps for a, b in zip(bounds, bounds[1:]) for ps in iter_prime_segments(a, b, cap)]
    assert np.concatenate(windows).tolist() == expected


def test_prime_only_window_allocates_no_int64_array():
    n = 1 << 20
    lo = 10 ** 9 + 1
    base_primes(math.isqrt(lo + n))  # grow the shared cache outside the trace
    tracemalloc.start()
    try:
        sieve_segment(lo, lo + n, {"prime"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n, peak


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _stream_windows(draw):
    # lo in 0..3 or anywhere up to 1e6 (both parities); widths 1..5000; the
    # cap either cuts at random or puts a window edge exactly on 2 or on a
    # prime square p*p inside the range, the first cell p strikes
    lo = draw(st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6)))
    width = draw(st.integers(1, 5000))
    hi = lo + width
    targets = [t for t in [2] + [p * p for p in base_primes(1000).tolist()] if lo < t < hi]
    if targets and draw(st.booleans()):
        cut = draw(st.sampled_from(targets))
        cap = draw(st.sampled_from([d for d in _divisors(cut - lo) if d * 200 >= width]
                                   or [cut - lo]))
    else:
        cap = draw(st.integers(max(1, width // 200), width + 3))
    return lo, hi, cap


@settings(max_examples=200, deadline=None)
@given(window=_stream_windows())
def test_iter_prime_segments_match_oracle_property(window):
    lo, hi, cap = window
    segs = list(iter_prime_segments(lo, hi, cap))
    assert len(segs) == -(-(hi - lo) // cap)
    bounds = [min(lo + k * cap, hi) for k in range(len(segs) + 1)]
    for (a, b), seg in zip(zip(bounds, bounds[1:]), segs):
        assert seg.dtype == np.int64
        assert seg.tolist() == [n for n in range(a, b) if oracles.is_prime(n)], (a, b)


def test_prime_segment_spreads_is_prime_on_read():
    seg = sieve_segment(0, 12, {"prime"})
    assert seg.is_prime.tolist() == [n in (2, 3, 5, 7, 11) for n in range(12)]
    assert seg.is_prime is seg.is_prime  # spread once, then kept
    for lo in (0, 1, 2, 3, 10 ** 6 + 1):
        seg = sieve_segment(lo, lo + 50, {"prime"})
        assert seg.is_prime.tolist() == [oracles.is_prime(n) for n in range(lo, lo + 50)], lo
        assert seg.is_prime is seg.is_prime, lo
    assert SieveSegment(2, 4).is_prime is None
    assert sieve_segment(2, 4, {"mu"}).is_prime is None


def test_prime_consumers_never_spread_is_prime(monkeypatch):
    # the stream and the counts built on it take their primes from the odd cells
    def spread(seg):
        raise AssertionError("is_prime was spread")

    monkeypatch.setattr(SieveSegment, "is_prime", property(spread))
    alpha = parse_alpha("sqrt:2")
    assert prime_count(10 ** 6) == 78498
    assert sum(ps.size for ps in iter_prime_segments(0, 10 ** 5, 1 << 12)) == 9592
    report = pair_count(alpha, 10 ** 5)
    assert report.prime_count == 9592
    assert decompose(alpha, 10 ** 5, 10.0).total == report.count
    exp_sum_primes(alpha, ExpSumQuery(1, 1, 1, 10 ** 5))


def test_prime_stream_memory_stays_under_one_and_a_half_bytes_a_cell():
    # the odd cells (half a byte a value) plus this window's primes and the
    # previous window's, which the consumer still holds; no is_prime spread
    n = 1 << 22
    lo = 10 ** 8
    base_primes(math.isqrt(lo + 4 * n))  # grow the shared cache outside the trace
    tracemalloc.start()
    try:
        count = 0
        for ps in iter_prime_segments(lo, lo + 4 * n, n):
            count += ps.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == prime_count(lo + 4 * n - 1) - prime_count(lo - 1)
    assert peak <= 1.5 * n, peak / n


def _slice_per_square(lo, hi):
    # reference: one slice per prime square over the whole window, no wheel
    flags = np.ones(hi - lo, dtype=bool)
    for p in oracles.primes_to(math.isqrt(hi - 1)):
        q = p * p
        flags[-lo % q:: q] = False
    if lo == 0:
        flags[0] = False
    return flags


def _assert_squarefree_window(lo, hi, cells):
    flags = squarefree_flags(lo, hi)
    for i in cells:
        assert bool(flags[i]) == oracles.squarefree(lo + i), (lo, hi, i)
    assert np.array_equal(sieve_segment(lo, hi, {"mu"}).mu != 0, flags), (lo, hi)
    return flags


def _near(base, k_max):
    return st.builds(lambda k, d: max(0, k * base + d), st.integers(0, k_max), st.integers(-3, 3))


#: The odd-cell wheel's period in values: 2 * 3 * 5 * 7 * 11 * 13.
_ODD_WHEEL_VALUES = 2 * sieves._ODD_WHEEL_PERIOD


@settings(max_examples=150, deadline=None)
@given(lo=st.one_of(st.integers(0, 20), _near(_ODD_WHEEL_VALUES, 300)),
       width=st.one_of(st.integers(1, 3),
                       st.builds(lambda w, d: w + d,
                                 st.sampled_from([_ODD_WHEEL_VALUES, 2 * _ODD_WHEEL_VALUES]),
                                 st.integers(-3, 3))))
def test_prime_channel_wheel_matches_oracle_property(lo, width):
    # windows starting at 0..20 (the wheel primes 3..13 and their first
    # multiples) or within 3 of a wheel period, of widths 1..3 or within 3
    # of one or two periods
    hi = lo + width
    expected = oracles.primes_between(lo, hi)
    assert np.flatnonzero(sieve_segment(lo, hi, {"prime"}).is_prime).tolist() == \
        [p - lo for p in expected], (lo, hi)
    assert primes_in(lo, hi).tolist() == expected, (lo, hi)


def test_primes_between_oracle_agrees_with_trial_division():
    for lo, hi in ((0, 1), (0, 3), (1, 2), (2, 500), (30025, 30040), (10 ** 6, 10 ** 6 + 300)):
        assert oracles.primes_between(lo, hi) == [n for n in range(lo, hi) if oracles.is_prime(n)]


@settings(max_examples=100, deadline=None)
@given(lo=st.one_of(st.integers(0, 3), _near(_WHEEL_PERIOD, 200), _near(_RUN_BYTES, 16),
                    st.integers(0, 10 ** 7)),
       width=st.one_of(st.integers(1, 3000),
                       st.builds(lambda w, d: w + d,
                                 st.sampled_from([_WHEEL_PERIOD, 2 * _WHEEL_PERIOD,
                                                  _RUN_BYTES, 2 * _RUN_BYTES]),
                                 st.integers(-3, 3))))
def test_squarefree_flags_match_oracle_property(lo, width):
    # windows starting at 0..3 or next to a wheel period or flag-run edge, widths
    # on either side of one or two periods or runs; the oracle checks every
    # cell of a narrow window and the cells around each edge of a wide one
    hi = lo + width
    if width <= 3000:
        cells = range(width)
    else:
        edges = [0, width, *range(0, width, _RUN_BYTES),
                 *range(-lo % _WHEEL_PERIOD, width, _WHEEL_PERIOD)]
        cells = sorted({i for e in edges for i in range(e - 3, e + 3) if 0 <= i < width})
    flags = _assert_squarefree_window(lo, hi, cells)
    assert np.array_equal(flags, _slice_per_square(lo, hi)), (lo, hi)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([p for p in base_primes(math.isqrt(10 ** 11)).tolist() if p > 59]),
       off=st.integers(0, 3), width=st.integers(1, 4))
def test_squarefree_flags_far_windows_single_hit_squares(p, off, width):
    # lo near 1e11 and a short window: every square above 59**2 takes the
    # single-hit scatter, and the window sits next to a multiple of p*p
    q = p * p
    lo = (10 ** 11 // q) * q - off
    flags = _assert_squarefree_window(lo, lo + width, range(width))
    if off < width:
        assert not flags[off]


def test_squarefree_flags_memory_stays_near_one_byte_a_cell():
    n = 1 << 22
    lo = 10 ** 9 + 7
    base_primes(math.isqrt(lo + n))  # grow the shared cache outside the trace
    tracemalloc.start()
    try:
        squarefree_flags(lo, lo + n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n, peak
    # no cached pattern the size of a segment; the base-prime cache grows
    # with sqrt(hi), not with the window
    for name, value in vars(sieves).items():
        if isinstance(value, np.ndarray) and name != "_base_primes":
            assert value.nbytes <= 2 * _WHEEL_PERIOD, (name, value.nbytes)


@settings(max_examples=100, deadline=None)
@given(lo=st.one_of(st.integers(0, 3), _near(_WHEEL_PERIOD, 200), _near(_RUN_BYTES, 16),
                    st.integers(0, 10 ** 7)),
       width=st.one_of(st.integers(1, 3000),
                       st.builds(lambda w, d: w + d,
                                 st.sampled_from([_WHEEL_PERIOD, _RUN_BYTES, 2 * _RUN_BYTES]),
                                 st.integers(-3, 3))),
       spare=st.integers(0, 100), seed=st.integers(0, 2 ** 32 - 1))
def test_squarefree_flags_into_caller_buffer_property(lo, width, spare, seed):
    # a buffer full of stale random bools, possibly longer than the window:
    # the window's cells equal a fresh call, the spare cells are untouched
    hi = lo + width
    buf = np.random.default_rng(seed).integers(0, 2, width + spare).astype(bool)
    before = buf.copy()
    flags = squarefree_flags(lo, hi, out=buf)
    assert flags.shape == (width,)
    assert np.shares_memory(flags, buf)
    assert np.array_equal(flags, squarefree_flags(lo, hi)), (lo, hi)
    assert np.array_equal(buf[width:], before[width:])


def test_squarefree_flags_rejects_bad_buffers():
    n = 100
    for bad in (np.empty(n - 1, dtype=bool),          # too small
                np.empty(n, dtype=np.uint8),          # not bool
                np.empty(2 * n, dtype=bool)[::2],     # not contiguous
                np.empty((2, n), dtype=bool),         # not 1-d
                [True] * n):                          # not an array
        with pytest.raises(ConfigError):
            squarefree_flags(10 ** 6, 10 ** 6 + n, out=bad)


#: (sieve, dtype, sentinel, wrong dtype) of the two square sieves; the sentinel
#: is a value the sieve's window below writes over somewhere.
_SQUARE_SIEVES = {"flags": (squarefree_flags, bool, True, np.uint8),
                  "radicals": (square_radicals, np.int32, -7, np.int64)}


def _bad_buffers(dtype, sentinel, wrong, n):
    # (name, buffer, the array holding its cells): each is refused by _buffer
    readonly = np.full(n, sentinel, dtype=dtype)
    readonly.flags.writeable = False
    yield "read-only", readonly, readonly
    flat = np.full(2 * n, sentinel, dtype=dtype)
    view = flat[:n]
    view.flags.writeable = False  # a read-only view of a writeable array
    yield "read-only view", view, flat
    strided = np.full(2 * n, sentinel, dtype=dtype)
    yield "strided", strided[::2], strided
    square = np.full((2, n), sentinel, dtype=dtype)
    yield "2-d", square, square
    wrong_dtype = np.full(n, sentinel, dtype=wrong)
    yield "wrong dtype", wrong_dtype, wrong_dtype
    short = np.full(n - 1, sentinel, dtype=dtype)
    yield "a cell short", short, short


@pytest.mark.parametrize("name", sorted(_SQUARE_SIEVES))
def test_square_sieves_refuse_bad_buffers_before_writing(name):
    sieve, dtype, sentinel, wrong = _SQUARE_SIEVES[name]
    lo, n = 10 ** 6, 100
    for case, buf, cells in _bad_buffers(dtype, sentinel, wrong, n):
        before = cells.copy()
        with pytest.raises(ConfigError):
            sieve(lo, lo + n, out=buf)
        assert np.array_equal(cells, before), (name, case)
    exact = np.full(n, sentinel, dtype=dtype)
    got = sieve(lo, lo + n, out=exact)
    assert got.shape == (n,) and np.shares_memory(got, exact)
    assert not np.all(exact == sentinel)  # the window did write over the sentinel


def test_square_wheels_are_one_read_only_table():
    radicals, flags = sieves._square_wheels()
    assert sieves._square_wheels()[0] is radicals and sieves._square_wheels()[1] is flags
    assert not radicals.flags.writeable and not flags.flags.writeable
    assert radicals.dtype == np.uint8 and flags.dtype == bool
    cells = np.arange(2 * _WHEEL_PERIOD)
    expected = (cells % 4 != 0) & (cells % 9 != 0) & (cells % 25 != 0) & (cells % 49 != 0)
    assert np.array_equal(flags, expected)
    assert np.array_equal(flags, radicals == 1)
    assert [int(radicals[g]) for g in (0, 4, 18, 50, 49 * 9, 4 * 25 * 49, 44100)] == \
        [210, 2, 3, 5, 21, 70, 210]


def test_importing_the_cli_builds_no_square_wheel():
    # an eager radical wheel cost 0.25 MiB of import RSS, so the table waits for a sieve
    code = ("import sqfpairs.cli\n"
            "from sqfpairs import sieves\n"
            "print(sieves._square_wheels.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(sieves.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "0"


def _radicals_per_square(lo, hi):
    # reference: one slice per prime square over the whole window, no wheel
    rad = np.ones(hi - lo, dtype=np.int64)
    for p in oracles.primes_to(math.isqrt(hi - 1)):
        q = p * p
        rad[-lo % q:: q] *= p
    return rad


def _assert_radical_window(lo, hi, cells):
    # into a buffer of stale values, one cell longer than the window
    buf = np.random.default_rng(lo).integers(-9, 9, hi - lo + 1).astype(np.int32)
    rad = square_radicals(lo, hi, buf)
    assert rad.dtype == np.int32 and rad.shape == (hi - lo,)
    assert np.shares_memory(rad, buf)
    for i in cells:
        assert int(rad[i]) == oracles.square_radical(lo + i), (lo, hi, i)
    return rad


@settings(max_examples=100, deadline=None)
@given(lo=st.one_of(st.integers(1, 3), _near(_WHEEL_PERIOD, 200), _near(_RAD_BLOCK, 38),
                    st.integers(1, 10 ** 7)).map(lambda lo: max(lo, 1)),
       width=st.one_of(st.integers(1, 3000),
                       st.builds(lambda w, d: w + d, st.just(_RAD_BLOCK), st.integers(-3, 3))))
def test_square_radicals_match_oracle_property(lo, width):
    # windows starting at 1..3 or within 3 of a wheel period or a radical
    # block, of widths 1..3000 or within 3 of a block: every cell of a
    # narrow window, and the cells around each edge of a wide one, against
    # trial division; a wide window whole against one slice per square
    hi = lo + width
    if width <= 3000:
        _assert_radical_window(lo, hi, range(width))
    else:
        edges = [0, width, *range(-lo % _WHEEL_PERIOD, width, _WHEEL_PERIOD)]
        cells = sorted({i for e in edges for i in range(e - 3, e + 3) if 0 <= i < width})
        rad = _assert_radical_window(lo, hi, cells)
        assert np.array_equal(rad, _radicals_per_square(lo, hi)), (lo, hi)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([p for p in base_primes(math.isqrt(10 ** 11)).tolist() if p > 7]),
       off=st.integers(-3, 3), width=st.integers(1, 8))
def test_square_radicals_far_windows(p, off, width):
    # lo near 1e11, next to a multiple of p*p: every square above 7**2 has
    # at most one multiple in the window, and the wheel's phase is far out
    q = p * p
    lo = (10 ** 11 // q) * q - off
    rad = _assert_radical_window(lo, lo + width, range(width))
    if 0 <= off < width:
        assert rad[off] % p == 0


def test_square_radicals_examples_and_checks():
    assert square_radicals(1, 13, np.empty(12, dtype=np.int32)).tolist() == \
        [1, 1, 1, 2, 1, 1, 1, 2, 3, 1, 1, 2]
    # 44100 = 2^2 3^2 5^2 7^2 and 5336100 = 44100 * 11^2: the wheel, then the scatter
    assert square_radicals(44100, 44101, np.empty(1, dtype=np.int32)).tolist() == [210]
    assert square_radicals(5336100, 5336101, np.empty(1, dtype=np.int32)).tolist() == [2310]
    with pytest.raises(InvalidRangeError):
        square_radicals(0, 5, np.empty(5, dtype=np.int32))
    # a buffer too short for the window is refused before any cell is written
    short = np.full(5, -7, dtype=np.int32)
    with pytest.raises(ConfigError):
        square_radicals(1, 7, short)
    assert short.tolist() == [-7] * 5
    for bad in (np.empty(5, dtype=np.uint8), np.empty((1, 5), dtype=np.int32), [1] * 5):
        with pytest.raises(ConfigError):
            square_radicals(1, 5, bad)


@lru_cache(maxsize=1)
def _primes_to_2_20():
    # enough for every window below 2**40 + 2**20
    return oracles.primes_between(0, (1 << 20) + 2)


def _square_hits_oracle(lo, n, above):
    # every (c, p), p > above prime, with p*p | lo + c, listed multiple by multiple
    hits = []
    for p in _primes_to_2_20():
        q = p * p
        if q > lo + n - 1:
            break
        if p > above:
            hits += [(v - lo, p) for v in range(-(-lo // q) * q, lo + n, q)]
    return sorted(hits)


@st.composite
def _square_hit_windows(draw):
    # windows of 1..3 cells, or of a width within 3 of a prime square p*p,
    # where p moves between the listed and the at-most-once branch; lo
    # anywhere up to 1e6, next to a multiple of 44100, next to 2**40, or
    # next to a multiple of p*p, where a width past p*p holds two hits
    q = draw(st.sampled_from(oracles.primes_to(211))) ** 2
    n = draw(st.one_of(st.integers(1, 3), st.builds(lambda d: max(1, q + d), st.integers(-3, 3))))
    lo = draw(st.one_of(st.integers(0, 10 ** 6), _near(_WHEEL_PERIOD, 200),
                        st.builds(lambda d: (1 << 40) + d, st.integers(-50, 50)),
                        _near(q, 10 ** 4)))
    return lo, n


@settings(max_examples=150, deadline=None)
@given(window=_square_hit_windows(), above=st.sampled_from([0, 7, 59, 100]))
# n = 3800 = 61**2 + 79 from lo = 5 * 61**2: 61 = isqrt(n) hits twice, at
# cells 0 and 3721, so its square takes the dense branch
@example(window=(5 * 61 ** 2, 3800), above=59)
def test_square_hits_match_brute_force_property(window, above):
    lo, n = window
    cells, primes = sieves._square_hits(lo, n, above)
    assert cells.dtype == primes.dtype == np.int64
    assert sorted(zip(cells.tolist(), primes.tolist())) == _square_hits_oracle(lo, n, above)


@settings(max_examples=100, deadline=None)
@given(lo=st.one_of(st.integers(1, 3), _near(_WHEEL_PERIOD, 200), st.integers(1, 10 ** 9),
                    st.integers(1, 10 ** 13)).map(lambda lo: max(lo, 1)),
       width=st.one_of(st.integers(1, 3000),
                       st.builds(lambda w, d: w + d, st.just(_RUN_BYTES), st.integers(-3, 3))))
def test_squarefree_flags_equal_unit_square_radicals_property(lo, width):
    # the two sieves share the hit lister: a value is squarefree exactly
    # when no prime square divides it, that is when R(m) == 1
    hi = lo + width
    rad = square_radicals(lo, hi, np.empty(width, dtype=np.int32))
    assert np.array_equal(squarefree_flags(lo, hi), rad == 1), (lo, hi)


def test_base_primes_match_plain_sieve_across_regrowths(monkeypatch):
    # from the initial cache, through regrowths on both sides of 17**2 = 289,
    # the first composite that no wheel prime 3..13 strikes
    for limits in ([4, 16, 100, 288, 289, 290, 5000], [288, 289, 10 ** 4],
                   [17, 30, 144, 600], [290], [10 ** 5, 7]):
        monkeypatch.setattr(sieves, "_base_primes", np.array([2, 3], dtype=np.int64))
        monkeypatch.setattr(sieves, "_base_limit", 3)
        for limit in limits:
            got = base_primes(limit)
            assert got.dtype == np.int64
            assert got.tolist() == oracles.primes_between(0, limit + 1), (limits, limit)
        assert sieves._base_primes.tolist() == \
            oracles.primes_between(0, sieves._base_limit + 1), limits
