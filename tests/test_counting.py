import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sqfpairs import (
    carlitz_count,
    congruence_pair_count,
    crt_residue,
    decompose,
    error_table,
    pair_count,
    parse_alpha,
    prime_count,
    single_count,
)
from sqfpairs import counting, sieves
from sqfpairs.counting import sigma_midpoint
from sqfpairs.errors import ConfigError, InvalidRangeError, NotCoprimeError
from sqfpairs.sieves import DEFAULT_SEGMENT_CAP, base_primes


def test_carlitz_examples():
    assert carlitz_count(1) == 1
    assert carlitz_count(3) == 2
    assert carlitz_count(10) == 5


def test_carlitz_matches_brute_force():
    for N in (1, 2, 17, 100, 300):
        assert carlitz_count(N) == oracles.brute_carlitz(N), N


def test_carlitz_segmentation_boundaries():
    whole = carlitz_count(500)
    assert carlitz_count(500, segment_cap=64) == whole
    assert carlitz_count(500, segment_cap=7) == whole
    assert carlitz_count(500, segment_cap=2) == whole
    with pytest.raises(ConfigError):
        carlitz_count(500, segment_cap=1)


def test_pair_count_small(sqrt2):
    rep = pair_count(sqrt2, 10)
    assert rep.count == 1  # only p=2: (2,3); 4, 8 and 9 are not squarefree
    assert rep.prime_count == 4
    assert rep.alpha_spec == "sqrt:2"
    assert rep.abs_error == abs(rep.count - rep.prediction)
    assert 0 <= rep.count <= rep.prime_count


def test_single_count_small(sqrt2):
    rep = single_count(sqrt2, 10)
    assert rep.count == 2  # floors 2, 4, 7, 9: only 2 and 7 squarefree


def test_single_dominates_pair(sqrt2, golden):
    for alpha in (sqrt2, golden):
        for N in (10, 100, 2000):
            assert single_count(alpha, N).count >= pair_count(alpha, N).count


def test_counts_monotone_in_N(sqrt2):
    pair_prev = single_prev = 0
    for N in (10, 50, 100, 500, 1000):
        p = pair_count(sqrt2, N).count
        s = single_count(sqrt2, N).count
        assert p >= pair_prev and s >= single_prev
        pair_prev, single_prev = p, s


def test_pair_count_requires_n_at_least_2(sqrt2):
    with pytest.raises(InvalidRangeError):
        pair_count(sqrt2, 1)


def test_counts_match_brute_force_to_2000(sqrt2, golden):
    for alpha, scaled in ((sqrt2, oracles.SQRT2_SCALED),
                          (golden, oracles.GOLDEN_SCALED)):
        assert pair_count(alpha, 2000).count == oracles.brute_pair_count(2000, scaled)
        assert single_count(alpha, 2000).count == oracles.brute_single_count(2000, scaled)


def test_congruence_count_vacuous_case(sqrt2):
    for N in (10, 100, 1000):
        assert congruence_pair_count(sqrt2, N, 1, 1) == prime_count(N)


def test_congruence_count_brute(sqrt2):
    assert congruence_pair_count(sqrt2, 100, 2, 1) == \
        oracles.brute_congruence_count(100, oracles.SQRT2_SCALED, 2, 1)
    assert congruence_pair_count(sqrt2, 100, 2, 3) == \
        oracles.brute_congruence_count(100, oracles.SQRT2_SCALED, 2, 3)


def test_congruence_count_equals_crt_route(sqrt2):
    # two congruences vs the single congruence mod d^2 t^2
    for d, t in ((2, 3), (3, 2), (1, 5), (2, 1)):
        q = crt_residue(d, t)
        m = (d * t) ** 2
        direct = congruence_pair_count(sqrt2, 2000, d, t)
        via_crt = sum(
            1 for p in oracles.primes_to(2000)
            if oracles.floor_fixed(oracles.SQRT2_SCALED, p) % m == q
        )
        assert direct == via_crt, (d, t)


def test_congruence_count_with_squares_beyond_int64():
    # d*d = 2**80 does not fit int64; only the zero floors of alpha < 1/2
    # are multiples of it
    small = parse_alpha("quad:0,1,3,2")
    scaled = oracles.quad_alpha_bits(0, 1, 3, 2)
    for d, t in ((2 ** 40, 1), (1, 2 ** 40), (2 ** 40, 3), (3 ** 30, 2 ** 31)):
        for alpha, bits in ((small, scaled), (parse_alpha("sqrt:2"), oracles.SQRT2_SCALED)):
            assert congruence_pair_count(alpha, 200, d, t) == \
                oracles.brute_congruence_count(200, bits, d, t)
    assert congruence_pair_count(small, 200, 2 ** 40, 1) == 1  # p = 2


def test_congruence_count_rejects_shared_factor(sqrt2):
    with pytest.raises(NotCoprimeError):
        congruence_pair_count(sqrt2, 100, 2, 4)


def test_decompose_identity_small(sqrt2, golden):
    # 3e5 cuts its first floor window into two radical blocks
    for alpha in (sqrt2, golden):
        for N in (10, 200, 1000, 3 * 10 ** 5):
            expected = pair_count(alpha, N).count
            cap = (alpha.to_float() * N) ** (2.0 / 3.0)
            for z in (1.0, 2.0, 5.0, N ** 0.3, cap):
                rep = decompose(alpha, N, z)
                assert rep.sigma1 + rep.sigma2 == rep.total == expected, (alpha.spec, N, z)


def test_decompose_example_values(sqrt2):
    rep = decompose(sqrt2, 10, 5.0)
    assert rep.total == 1
    assert (rep.sigma1, rep.sigma2) == (1, 0)


def test_decompose_sigma2_vanishes_at_cap(sqrt2):
    for N in (100, 10 ** 4):
        cap = (sqrt2.to_float() * N) ** (2.0 / 3.0)
        assert decompose(sqrt2, N, cap).sigma2 == 0


def test_decompose_identity_with_zero_floors():
    # alpha < 1/2 makes [alpha*p] = 0 for small p; those primes are skipped
    # on both sides, so the identity still holds exactly
    from sqfpairs import parse_alpha

    small = parse_alpha("quad:0,1,3,2")  # sqrt(2)/3
    expected = pair_count(small, 50).count
    assert expected == oracles.brute_pair_count(50, oracles.quad_alpha_bits(0, 1, 3, 2))
    for z in (1.0, 3.0, 8.0):
        rep = decompose(small, 50, z)
        assert rep.total == expected


def test_decompose_z_range_checks(sqrt2):
    with pytest.raises(ConfigError):
        decompose(sqrt2, 100, 0.5)
    with pytest.raises(ConfigError):
        decompose(sqrt2, 100, 10 ** 6)


def test_error_table_reports_exponent(sqrt2):
    table = error_table(sqrt2, [100, 1000, 10000])
    assert len(table.reports) == 3
    assert all(r.abs_error >= 0 for r in table.reports)
    assert table.fitted_exponent is not None
    assert math.isfinite(table.fitted_exponent)


def test_error_table_preconditions(sqrt2):
    with pytest.raises(InvalidRangeError):
        error_table(sqrt2, [1000, 10000])
    with pytest.raises(InvalidRangeError):
        error_table(sqrt2, [50, 1000, 10000])
    with pytest.raises(InvalidRangeError):
        error_table(sqrt2, [1000, 1000, 10000])


@functools.lru_cache(maxsize=None)
def _alpha(spec):
    return parse_alpha(spec)


@st.composite
def small_alpha_specs(draw):
    """sqrt and quad specs with alpha below about 1000, plus one cubic root."""
    kind = draw(st.sampled_from(("sqrt", "quad", "poly")))
    if kind == "poly":
        return "poly:-30000,0,0,1@31/1,32/1"
    D = draw(st.integers(2, 1000))
    assume(math.isqrt(D) ** 2 != D)
    if kind == "sqrt":
        return f"sqrt:{D}"
    a = draw(st.integers(-30, 30))
    b = draw(st.integers(-30, 30).filter(bool))
    c = draw(st.integers(1, 30))
    spec = f"quad:{a},{b},{c},{D}"
    try:
        _alpha(spec)
    except ConfigError:
        assume(False)
    return spec


@settings(max_examples=40, deadline=None)
@given(spec=small_alpha_specs(), N=st.integers(2, 3000), cap=st.integers(2, 4096),
       d=st.integers(1, 6), t=st.integers(1, 6), z_frac=st.floats(0.0, 1.0))
def test_counts_do_not_depend_on_segment_cap(spec, N, cap, d, t, z_frac):
    assume(math.gcd(d, t) == 1)
    alpha = _alpha(spec)
    pair = pair_count(alpha, N, cap)
    assert pair == pair_count(alpha, N)
    assert single_count(alpha, N, cap) == single_count(alpha, N)
    assert congruence_pair_count(alpha, N, d, t, cap) == congruence_pair_count(alpha, N, d, t)
    z_top = (alpha.to_float() * N) ** (2.0 / 3.0)
    if z_top >= 1.0:
        z = 1.0 + z_frac * (z_top - 1.0)
        rep = decompose(alpha, N, z, cap)
        whole = decompose(alpha, N, z)
        assert (rep.sigma1, rep.sigma2) == (whole.sigma1, whole.sigma2)
        assert rep.total == pair.count


def test_pair_count_memory_is_bounded_by_segment_cap():
    # alpha ~ 1000: a prime segment of segment_cap values would need a flag
    # window a thousand times the cap
    alpha = parse_alpha("sqrt:999999")
    cap = 2 ** 14
    base_primes(math.isqrt(1000 * 5000) + 1)  # fill the shared caches first
    sigma_midpoint()
    tracemalloc.start()
    try:
        rep = pair_count(alpha, 5000, segment_cap=cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep == pair_count(alpha, 5000)
    assert peak < 16 * cap, peak


def _spy(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def spy(lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return fn(lo, hi, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("spec, a, b, c, D, N, cap", [
    ("sqrt:2", 0, 1, 1, 2, 3000, 64),
    ("quad:1,1,2,5", 1, 1, 2, 5, 2000, 5),
    ("sqrt:999999", 0, 1, 1, 999999, 2 * 10 ** 4, 2 ** 12),
    ("sqrt:999999", 0, 1, 1, 999999, 10 ** 4, 2 ** 14),
    ("sqrt:123456789", 0, 1, 1, 123456789, 3000, 2 ** 14),
    ("sqrt:999999", 0, 1, 1, 999999, 3000, 2 ** 30),
])
def test_prime_windows_are_cut_into_the_floor_windows(monkeypatch, spec, a, b, c, D, N, cap):
    alpha = _alpha(spec)
    sigma_midpoint()  # its own prime stream runs before the spies
    sieved = _spy(monkeypatch, sieves, "sieve_segment")
    flagged = _spy(monkeypatch, counting, "squarefree_flags")
    pair_count(alpha, N, cap)

    # the floor windows: the oracle floors of each prime window
    # [2 + i*W, 2 + (i + 1)*W), W = min(cap, 2**20), cut greedily: a run
    # takes every floor below its first floor + cap - 1
    W = min(cap, 1 << 20)
    scaled = oracles.quad_alpha_bits(a, b, c, D)
    windows = {}
    for p in oracles.primes_to(N):
        windows.setdefault((p - 2) // W, []).append(oracles.floor_fixed(scaled, p))
    runs = []
    for _, fls in sorted(windows.items()):
        runs.append([fls[0]])
        for m in fls[1:]:
            if m < runs[-1][0] + cap - 1:
                runs[-1].append(m)
            else:
                runs.append([m])
    assert flagged == [(run[0], run[-1] + 2) for run in runs]

    # the prime windows tile [2, N] at width W, no window exceeds the cap,
    # and a large alpha cuts each prime window into many floor windows
    assert all(hi - lo <= cap for lo, hi in sieved + flagged)
    assert [lo for lo, _ in sieved] == [2] + [hi for _, hi in sieved[:-1]]
    assert sieved[-1][1] == N + 1
    assert all(hi - lo == W for lo, hi in sieved[:-1])
    assert sieved[-1][1] - sieved[-1][0] <= W
    if alpha.to_float() > 100 and cap < N:
        assert len(sieved) > 1
        assert len(flagged) > 10 * len(sieved)


@settings(max_examples=300, deadline=None)
@given(first=st.integers(0, 1 << 52), steps=st.lists(st.integers(0, 40), max_size=80),
       span=st.one_of(st.integers(2, 64), st.integers(2, 10 ** 30)))
def test_floor_windows_cut_greedily_property(first, steps, span):
    # ascending floors with repeats (alpha < 1 repeats floors)
    fl = first + np.cumsum(np.array([0] + steps, dtype=np.int64))
    runs = list(counting._floor_windows(fl, span))
    assert np.array_equal(np.concatenate(runs), fl)  # a partition, in order
    end = 0
    for run in runs:
        end += run.size
        assert run.size > 0
        assert int(run[-1]) + 2 - int(run[0]) <= span
        if end < fl.size:  # maximal: the next floor would not fit
            assert int(fl[end]) + 2 - int(run[0]) > span


@st.composite
def large_alpha_specs(draw):
    """sqrt:D and quad:a,b,c,D specs with alpha about 30 to 1e4, plus their oracle bits."""
    if draw(st.booleans()):
        D = draw(st.integers(1000, 10 ** 8))
        assume(math.isqrt(D) ** 2 != D)
        return f"sqrt:{D}", oracles.quad_alpha_bits(0, 1, 1, D)
    a = draw(st.integers(0, 100))
    b = draw(st.integers(1, 100))
    c = draw(st.integers(1, 3))
    D = draw(st.integers(2, 10 ** 4))
    assume(math.isqrt(D) ** 2 != D)
    return f"quad:{a},{b},{c},{D}", oracles.quad_alpha_bits(a, b, c, D)


@settings(max_examples=60, deadline=None)
@given(spec_bits=large_alpha_specs(), N=st.integers(2, 800),
       cap=st.one_of(st.integers(2, 64), st.integers(2, 2 ** 16)),
       d=st.integers(1, 4), t=st.integers(1, 4), z_frac=st.floats(0.0, 1.0))
def test_large_alpha_counts_match_brute_force(spec_bits, N, cap, d, t, z_frac):
    # alpha up to about 1e4, caps from 2 up: each prime window is cut into
    # many floor windows, or into one floor a window once alpha >= cap
    assume(math.gcd(d, t) == 1)
    spec, scaled = spec_bits
    alpha = _alpha(spec)
    assert pair_count(alpha, N, cap).count == oracles.brute_pair_count(N, scaled)
    assert single_count(alpha, N, cap).count == oracles.brute_single_count(N, scaled)
    assert congruence_pair_count(alpha, N, d, t, cap) == \
        oracles.brute_congruence_count(N, scaled, d, t)
    z = 1.0 + z_frac * ((alpha.to_float() * N) ** (2.0 / 3.0) - 1.0)
    rep = decompose(alpha, N, z, cap)
    assert (rep.sigma1, rep.sigma2) == oracles.brute_decompose(N, scaled, z)


def test_huge_segment_cap_sizes_no_buffer_to_the_cap(sqrt2):
    # the flag and radical buffers grow to the floor windows met, about
    # 1.4e4 cells here, never to the 2**30 cells the cap would allow
    base_primes(math.isqrt(2 * 10 ** 4) + 1)
    sigma_midpoint()
    for run in (lambda: pair_count(sqrt2, 10 ** 4, segment_cap=2 ** 30),
                lambda: decompose(sqrt2, 10 ** 4, 10.0, segment_cap=2 ** 30)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 19, peak


def test_counts_agree_with_floor_blocks_below_at_and_above_the_prime_window():
    # for sqrt:2 at any cap of at least 2**20 the prime windows are 2**20
    # values wide, and the floors of the widest one span `span` cells, about
    # 1.48e6: caps of 2**20 and span - 1 cut it into two floor windows, while
    # span, span + 1 and the default cap hold every prime window in one
    alpha = parse_alpha("sqrt:2")
    N = 5 * 10 ** 6
    window = counting._PRIME_WINDOW
    span = max(int(fl[-1]) + 2 - int(fl[0]) for _, fl in counting._prime_floors(alpha, N, window))
    results = set()
    for cap in (window, span - 1, span, span + 1, DEFAULT_SEGMENT_CAP):
        cuts = 0
        for ps, fl in counting._prime_floors(alpha, N, cap):
            assert ps[-1] - ps[0] < min(cap, window), cap
            runs = list(counting._floor_windows(fl, cap))
            assert all(run[-1] + 2 - run[0] <= cap for run in runs), cap
            cuts += len(runs) - 1
        assert (cuts > 0) == (cap < span), (cap, cuts)
        rep = pair_count(alpha, N, cap)
        dec = decompose(alpha, N, N ** 0.3, cap)
        results.add((rep.count, rep.prime_count, dec.sigma1, dec.sigma2))
    assert len(results) == 1, results
    (count, pi_n, _, _), = results
    assert pi_n == prime_count(N) and count == pair_count(alpha, N, 1 << 16).count


def test_decompose_memory_is_set_by_the_radical_block(golden):
    # at the default cap a floor window holds about 1.7e6 cells, whose int32
    # radicals would take 6.8 MB.  Beyond the prime and floor stream itself,
    # decompose holds what one block needs:
    # - the radical buffer, 4 * _RAD_BLOCK bytes (1 MiB);
    # - 28 bytes for each prime of the block: its int64 index and key, and
    #   while the key of m + 1 is gathered, the shifted int64 index and the
    #   int32 radicals read (np.unique's sorted copy and mask take less);
    #   a block's floors lie in _RAD_BLOCK - 1 cells, so it holds at most
    #   k_max primes, counted below over every such span of the stream;
    # - the class tally: 1,627 classes at this N, held as sorted int64 keys
    #   and counts; with the run tallies pending a merge (no more entries
    #   than the tally) and the merge's temporaries, well under 128 bytes a
    #   class; 2,048 of them are allowed for.
    N = 3 * 10 ** 6
    base_primes(math.isqrt(2 * N) + 1)
    sigma_midpoint()
    decompose(golden, 10 ** 4, 5.0)
    k_max = 0
    for _, fl in counting._prime_floors(golden, N, DEFAULT_SEGMENT_CAP):
        span = np.searchsorted(fl, fl + counting._RAD_BLOCK - 1) - np.arange(fl.size)
        k_max = max(k_max, int(span.max()))
    block = 4 * counting._RAD_BLOCK + 28 * k_max + 2048 * 128
    peaks = []
    for run in (lambda: [None for _ in counting._prime_floors(golden, N, DEFAULT_SEGMENT_CAP)],
                lambda: decompose(golden, N, N ** 0.3)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stream, peak = peaks
    assert peak <= stream + block, (peak, stream, block)
    assert peak < stream + DEFAULT_SEGMENT_CAP, (peak, stream)


def test_decompose_tally_memory_follows_classes_not_runs(monkeypatch, golden):
    # radical runs of 64 cells cut the floors below 1.6e5 into 2,111 runs of
    # a few primes each, which fall into only 290 classes.  The run
    # tallies are merged once they outgrow the merged tally, so beyond the
    # prime and floor stream decompose holds a few int64 arrays over the
    # classes and numpy's ufunc.at buffer (24 KiB): a bound that does not
    # grow with the run count (26 KB measured).  Keeping every run's tally
    # to the end would hold two arrays a run: 980 KB here.
    monkeypatch.setattr(counting, "_RAD_BLOCK", 64)
    N = 10 ** 5
    base_primes(math.isqrt(2 * N) + 1)
    decompose(golden, 10 ** 4, 5.0)
    runs = sum(len(list(counting._floor_windows(fl, 64)))
               for _, fl in counting._prime_floors(golden, N, DEFAULT_SEGMENT_CAP))
    assert runs > 2000
    peaks = []
    for run in (lambda: [None for _ in counting._prime_floors(golden, N, DEFAULT_SEGMENT_CAP)],
                lambda: decompose(golden, N, N ** 0.3)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stream, peak = peaks
    assert peak <= stream + 64 * 1024, (peak, stream)


def _brute_square_divisors(r):
    divs = {d for d in range(1, math.isqrt(r) + 1) if r % d == 0}
    return sorted((d, oracles.mu(d)) for d in divs | {r // d for d in divs})


@settings(max_examples=150, deadline=None)
@given(r=st.one_of(st.integers(1, 2 ** 26),
                   # a unit, the primorial of 19, the largest prime below
                   # 2**26, twice a prime, and two primes next to 2**13
                   st.sampled_from([1, 9699690, 2 ** 26 - 5, 2 * 33554393, 8179 * 8191]))
       .filter(oracles.squarefree))
def test_square_divisors_match_brute_force(r):
    # squarefree r up to 2**26, the largest radical of a floor below 2**52,
    # factored over exactly the primes up to sqrt(r)
    primes = base_primes(math.isqrt(r)).tolist()
    assert sorted(counting._square_divisors(r, primes)) == _brute_square_divisors(r)


@st.composite
def decompose_alpha_specs(draw):
    """Specs with alpha below 1/2, from 1 to 30, or from about 30 to 1e4, plus their oracle bits."""
    kind = draw(st.sampled_from(("small", "mid", "large")))
    if kind == "large":
        return draw(large_alpha_specs())
    D = draw(st.integers(2, 900))
    assume(math.isqrt(D) ** 2 != D)
    if kind == "mid":
        return f"sqrt:{D}", oracles.quad_alpha_bits(0, 1, 1, D)
    c = draw(st.integers(2 * math.isqrt(D) + 2, 2 * math.isqrt(D) + 40))  # sqrt(D)/c < 1/2
    return f"quad:0,1,{c},{D}", oracles.quad_alpha_bits(0, 1, c, D)


@settings(max_examples=80, deadline=None)
@given(spec_bits=decompose_alpha_specs(), N=st.integers(2, 1500),
       block=st.integers(2, 40),
       cap=st.one_of(st.integers(2, 64), st.integers(2, 2 ** 16)), data=st.data())
def test_decompose_across_radical_blocks_matches_brute_force(spec_bits, N, block, cap, data):
    # a block of a few cells puts many block edges into every floor window
    spec, scaled = spec_bits
    alpha = _alpha(spec)
    z_top = (alpha.to_float() * N) ** (2.0 / 3.0)
    assume(z_top >= 1.0)
    z = data.draw(st.one_of(
        st.integers(1, max(1, int(z_top))).map(float),  # on a d*t value
        st.floats(1.0, z_top)), label="z")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_RAD_BLOCK", block)
        rep = decompose(alpha, N, z, cap)
    assert (rep.sigma1, rep.sigma2) == oracles.brute_decompose(N, scaled, z)
    assert rep.total == rep.sigma1 + rep.sigma2
