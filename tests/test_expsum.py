import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfpairs import (
    DyadicQuery,
    ExpSumQuery,
    beatty_frac_points,
    dyadic_block_sum,
    erdos_turan_bound,
    exp_sum_primes,
    dyadic_bound_rhs,
    prime_count,
    primes_in,
    ratio_scan,
    star_discrepancy,
)
from sqfpairs import expsum
from sqfpairs.alpha import _ONE_BELOW_ONE
from sqfpairs.errors import BudgetExceededError, ConfigError, InvalidRangeError, RangeCapError
from sqfpairs.expsum import (
    _COS2,
    _COS4,
    _E_K,
    _PHASE_CHUNK,
    _SIN1,
    _SIN3,
    _SIN5,
    EXP_EPS,
    PHASE_EPS,
    _e_sum,
    _e_table,
    _phase_sum,
)
from sqfpairs.sieves import DEFAULT_SEGMENT_CAP, base_primes

# Regression fixtures, frozen from the first run of this implementation.
EXPSUM_1E5_MODULUS = 32.359302544378
DSTAR_SQRT2_1E4 = 0.0002646979
ET_Q0_LHS = 0.2222222222
ET_Q0_RHS = 112.6861579848


def test_single_prime_has_unit_modulus(sqrt2):
    assert abs(abs(exp_sum_primes(sqrt2, ExpSumQuery(1, 1, 1, 2))) - 1.0) < 1e-12


def test_triangle_inequality(sqrt2):
    for N in (100, 1000):
        s = exp_sum_primes(sqrt2, ExpSumQuery(1, 1, 1, N))
        assert abs(s) <= prime_count(N)


def test_expsum_regression_fixture(sqrt2):
    s = exp_sum_primes(sqrt2, ExpSumQuery(1, 1, 1, 10 ** 5))
    assert abs(abs(s) - EXPSUM_1E5_MODULUS) < 1e-6


def test_expsum_window_invariance(sqrt2, monkeypatch):
    a = exp_sum_primes(sqrt2, ExpSumQuery(3, 2, 1, 3000))
    monkeypatch.setattr(expsum, "_SUM_WINDOW", 256)
    b = exp_sum_primes(sqrt2, ExpSumQuery(3, 2, 1, 3000))
    assert abs(a - b) < 1e-9


def test_exp_sum_memory_does_not_grow_with_n(sqrt2):
    # the sums stream windows of 2**22 values: the traced peak at N = 2e7
    # (five windows) stays within 10% of the peak at N = 5e6 (two windows)
    base_primes(math.isqrt(2 * 10 ** 7))  # grow the shared cache outside the trace
    peaks = []
    for N in (5 * 10 ** 6, 2 * 10 ** 7):
        tracemalloc.start()
        try:
            exp_sum_primes(sqrt2, ExpSumQuery(1, 1, 1, N))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * 2 ** 20, peaks
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_phase_periodicity(sqrt2):
    # e(x) == e(x + 1) for the actually evaluated phases
    fr = sqrt2.frac_parts(1, range(2, 200), 36)
    for x in fr.tolist():
        assert abs(cmath.exp(2j * math.pi * x) - cmath.exp(2j * math.pi * (x + 1.0))) < 1e-10


def test_dyadic_unit_blocks_contain_single_query(sqrt2):
    # H = D = T = 1 selects exactly (h, d, t) = (2, 2, 2)
    lhs = dyadic_block_sum(sqrt2, DyadicQuery(1, 1, 1, 1000))
    single = abs(exp_sum_primes(sqrt2, ExpSumQuery(2, 2, 2, 1000)))
    assert abs(lhs - single) < 1e-12


def test_dyadic_matches_per_query_sum(sqrt2):
    # blocks: h in (H, 2H], where 2H = 5 ends the block at H = 2.5; d, t in
    # (1, 2] -> {2}
    for H, hs in ((2, (3, 4)), (2.5, (3, 4, 5))):
        assert expsum._dyadic_ends(H) == (2, 2 * H)
        total = dyadic_block_sum(sqrt2, DyadicQuery(H, 1, 1, 1000))
        manual = math.fsum(
            abs(exp_sum_primes(sqrt2, ExpSumQuery(h, 2, 2, 1000)))
            for h in hs
        )
        assert abs(total - manual) < 1e-8, H


def test_dyadic_budget_enforced(sqrt2):
    with pytest.raises(BudgetExceededError):
        dyadic_block_sum(sqrt2, DyadicQuery(4, 2, 2, 10 ** 5), budget=1000)


def test_dyadic_budget_counts_exact_work(sqrt2, monkeypatch):
    # 2 triples times pi(1000) = 168 primes, counted over several segments
    monkeypatch.setattr(expsum, "_SUM_WINDOW", 100)
    q = DyadicQuery(2, 1, 1, 1000)
    assert dyadic_block_sum(sqrt2, q, budget=336) > 0.0
    with pytest.raises(BudgetExceededError):
        dyadic_block_sum(sqrt2, q, budget=335)


def test_dyadic_budget_refuses_oversized_blocks_up_front(sqrt2, monkeypatch):
    # 2**25 triples, and 4 triples against a budget of 3 (within twice the
    # budget): refused from the range sizes, before any triple is built or
    # any prime sieved
    def unreachable(*args):
        raise AssertionError(f"{args} reached before the budget check")

    monkeypatch.setattr(expsum, "_check_query", unreachable)
    monkeypatch.setattr(expsum, "iter_prime_segments", unreachable)
    for q, budget in ((DyadicQuery(2 ** 19, 8, 8, 10 ** 4), 10 ** 6),
                      (DyadicQuery(4, 1, 1, 10 ** 4), 3)):
        with pytest.raises(BudgetExceededError):
            dyadic_block_sum(sqrt2, q, budget)


def test_dyadic_sieves_once(sqrt2, monkeypatch):
    from sqfpairs import sieves

    cells = []
    sieve = sieves.sieve_segment

    def counted(lo, hi, *args, **kwargs):
        cells.append(hi - lo)
        return sieve(lo, hi, *args, **kwargs)

    monkeypatch.setattr(sieves, "sieve_segment", counted)
    monkeypatch.setattr(expsum, "_SUM_WINDOW", 1024)
    dyadic_block_sum(sqrt2, DyadicQuery(2, 2, 2, 5000))
    assert sum(cells) == 5000 - 1


def test_dyadic_rejects_blocks_below_one(sqrt2):
    with pytest.raises(InvalidRangeError):
        dyadic_block_sum(sqrt2, DyadicQuery(0.5, 1, 1, 100))
    with pytest.raises(InvalidRangeError):  # and N below 2
        dyadic_block_sum(sqrt2, DyadicQuery(1, 1, 1, 1))


def test_dyadic_rejects_non_finite_blocks(sqrt2):
    for H in (math.nan, math.inf, -math.inf):
        q = DyadicQuery(H, 1, 1, 100)
        with pytest.raises(InvalidRangeError):
            dyadic_block_sum(sqrt2, q)
        with pytest.raises(InvalidRangeError):
            dyadic_bound_rhs(q, 0.01)
    with pytest.raises(InvalidRangeError):
        dyadic_block_sum(sqrt2, DyadicQuery(2, 1, math.nan, 100))


def test_dyadic_triples_counted_exactly_for_huge_blocks(sqrt2):
    # 2x overflows a float here; the count of (x, 2x] is still exact
    for H in (1e300, 1.7e308):
        with pytest.raises(BudgetExceededError):
            dyadic_block_sum(sqrt2, DyadicQuery(H, 1, 1, 100))


def test_phase_sum_memory_stays_in_small_chunks(sqrt2):
    ps = primes_in(2, 1_300_000)[:10 ** 5]
    assert ps.size == 10 ** 5
    sqrt2.frac_parts(3, ps[:1], 4)  # warm the cached 128-bit alpha
    tracemalloc.start()
    try:
        chunked = _phase_sum(sqrt2, 3, ps, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak
    # the kernel (within 2**-50 a term) and the chunked summation differ from
    # numpy's exp and one reduction over the segment by far below 1e-14 * n
    whole = complex(np.exp(2j * np.pi * sqrt2.frac_parts(3, ps, 4)).sum())
    assert abs(chunked - whole) < 1e-14 * ps.size


def test_dyadic_bound_rhs_all_ones():
    rep = dyadic_bound_rhs(DyadicQuery(1, 1, 1, 1), 0.01)
    assert rep.rhs_terms == (1.0, 1.0, 1.0, 1.0)
    assert rep.rhs == 4.0


def test_dyadic_bound_rhs_n16():
    rep = dyadic_bound_rhs(DyadicQuery(1, 1, 1, 16), 1e-9)
    assert abs(rep.rhs_terms[0] - 4.0) < 1e-6
    assert abs(rep.rhs_terms[1] - 16 ** 0.8) < 1e-6
    assert abs(rep.rhs_terms[2] - 8.0) < 1e-6
    assert abs(rep.rhs_terms[3] - 8.0) < 1e-6
    assert abs(rep.rhs - (4 + 16 ** 0.8 + 8 + 8)) < 1e-4


def test_dyadic_bound_rhs_power_law_in_n():
    r1 = dyadic_bound_rhs(DyadicQuery(1, 1, 1, 4096), 1e-12)
    r2 = dyadic_bound_rhs(DyadicQuery(1, 1, 1, 8192), 1e-12)
    assert abs(r2.rhs_terms[1] / r1.rhs_terms[1] - 2 ** 0.8) < 1e-6


def test_dyadic_bound_rhs_eps_validation():
    with pytest.raises(ConfigError):
        dyadic_bound_rhs(DyadicQuery(1, 1, 1, 10), 0.0)
    with pytest.raises(ConfigError):
        dyadic_bound_rhs(DyadicQuery(1, 1, 1, 10), 0.6)


def test_star_discrepancy_examples():
    assert star_discrepancy([0.5]) == 0.5
    assert abs(star_discrepancy([0.0, 0.25, 0.5, 0.75]) - 0.25) < 1e-15


def test_star_discrepancy_range_validation():
    # NaN fails both pts < 0 and pts >= 1, and must be refused all the same
    for bad in (1.0, math.nan):
        with pytest.raises(ConfigError, match=r"\[0, 1\)"):
            star_discrepancy([0.5, bad])
    with pytest.raises(InvalidRangeError):
        star_discrepancy([])


def test_star_discrepancy_duplicate_point_shift():
    pts = [0.05, 0.25, 0.45, 0.65, 0.85]
    base = star_discrepancy(pts)
    dup = star_discrepancy(pts + [0.25])
    assert 0.0 < dup <= 1.0
    assert abs(dup - base) <= 1.0 / len(pts)


def test_star_discrepancy_beatty_fixture(sqrt2):
    d = star_discrepancy(beatty_frac_points(sqrt2, 10 ** 4))
    assert d < 0.01
    assert abs(d - DSTAR_SQRT2_1E4) < 1e-8


def test_erdos_turan_point_mass():
    rep = erdos_turan_bound([0.5] * 200, 1, (0.4, 0.6))
    assert abs(rep.lhs - 0.8 * 200) < 1e-9
    assert rep.rhs >= 200.0
    assert rep.ratio <= 0.8


def test_erdos_turan_full_interval_is_exact():
    pts = [0.0, 0.1, 0.33, 0.74, 0.99]
    rep = erdos_turan_bound(pts, 5, (0.0, 1.0))
    assert rep.lhs == 0.0


def test_erdos_turan_regression_fixture(sqrt2):
    pts = beatty_frac_points(sqrt2, 10 ** 4, 36)
    rep = erdos_turan_bound(pts, 100, (0.0, 1.0 / 36.0))
    assert abs(rep.lhs - ET_Q0_LHS) < 1e-6
    assert abs(rep.rhs - ET_Q0_RHS) < 1e-6
    assert rep.lhs <= 4.0 * rep.rhs


def test_erdos_turan_interval_validation(sqrt2):
    pts = beatty_frac_points(sqrt2, 100)
    with pytest.raises(ConfigError):
        erdos_turan_bound(pts, 10, (0.5, 0.5))
    with pytest.raises(ConfigError):
        erdos_turan_bound(pts, 10, (0.2, 1.1))
    with pytest.raises(InvalidRangeError):
        erdos_turan_bound(pts, 0, (0.2, 0.4))
    with pytest.raises(ConfigError, match=r"\[0, 1\)"):
        erdos_turan_bound([0.5, math.nan], 3, (0.0, 0.5))


def test_ratio_scan_plumbing(sqrt2):
    assert ratio_scan(sqrt2, [], 0.01) == []
    reps = ratio_scan(sqrt2, [DyadicQuery(1, 1, 1, 100)], 0.01)
    assert len(reps) == 1
    assert reps[0].ratio == reps[0].lhs / reps[0].rhs
    assert reps[0].eps_used == 0.01
    assert math.isfinite(reps[0].ratio)


def test_beatty_frac_points_shape(sqrt2):
    pts = beatty_frac_points(sqrt2, 500, 36)
    assert isinstance(pts, np.ndarray)
    assert pts.shape == (500,)
    assert pts.min() >= 0.0 and pts.max() < 1.0


def test_beatty_frac_points_refuses_k_above_segment_cap(sqrt2, monkeypatch):
    # all K points are held at once: K above the cap is refused before any
    # point is computed or allocated
    assert beatty_frac_points(sqrt2, 10, 36, segment_cap=10).shape == (10,)

    def no_phases(*args, **kwargs):
        raise AssertionError("frac_parts called")

    monkeypatch.setattr(type(sqrt2), "frac_parts", no_phases)
    for K, cap in ((11, 10), (DEFAULT_SEGMENT_CAP + 1, DEFAULT_SEGMENT_CAP), (2 ** 30 + 1, 2 ** 30)):
        with pytest.raises(RangeCapError):
            beatty_frac_points(sqrt2, K, segment_cap=cap)
    with pytest.raises(RangeCapError):
        beatty_frac_points(sqrt2, DEFAULT_SEGMENT_CAP + 1, 36)


def _e_term_error(x):
    """|e^(x) - e(x)| for one float phase x, e(x) to 50 digits."""
    value = _e_sum(np.array([x], dtype=np.float64))
    with mpmath.workdps(50):
        exact = mpmath.expjpi(2 * mpmath.mpf(float(x)))
        return float(abs(mpmath.mpc(value.real, value.imag) - exact))


def test_e_table_entries_within_the_assumed_error():
    # _e_sum's proof assumes every entry within 2**-52 of cos and sin
    cos_j, sin_j = _e_table()
    assert cos_j.shape == sin_j.shape == (_E_K + 1,)
    with mpmath.workdps(50):
        for j in range(_E_K + 1):
            angle = 2 * mpmath.pi * j / _E_K
            assert abs(mpmath.mpf(float(cos_j[j])) - mpmath.cos(angle)) <= 2.0 ** -52, j
            assert abs(mpmath.mpf(float(sin_j[j])) - mpmath.sin(angle)) <= 2.0 ** -52, j


@settings(max_examples=500, deadline=None)
@given(x=st.floats(0.0, 1.0, exclude_max=True))
def test_e_sum_term_within_exp_eps(x):
    assert _e_term_error(x) <= EXP_EPS, x


def test_e_sum_term_within_exp_eps_at_table_points_and_ties():
    edges = [0.0, 1.0 - 2.0 ** -53, _ONE_BELOW_ONE]
    edges += [j / _E_K for j in range(_E_K)]
    edges += [(j + 0.5) / _E_K for j in range(_E_K)]
    worst = max(_e_term_error(x) for x in edges)
    assert worst <= EXP_EPS, worst


def _e_sum_with_fresh_temporaries(x):
    """_e_sum as first written, each step into a new array; the in-place
    kernel must match it bit for bit."""
    u = x * _E_K
    j = np.rint(u)
    u -= j
    j = j.astype(np.intp)
    t = u * u
    c = t * _COS4
    c += _COS2
    c *= t
    s = t * _SIN5
    s += _SIN3
    s *= t
    s += _SIN1
    s *= u
    cos_j, sin_j = _e_table()
    C, S = cos_j[j], sin_j[j]
    re = C * c
    re -= S * s
    re += C
    c *= S
    c += C * s
    c += S
    return complex(re.sum(), c.sum())


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193])
def test_e_sum_bit_identical_to_fresh_temporaries(n):
    x = np.random.default_rng(n).random(n)
    x[:3] = (0.0, _ONE_BELOW_ONE, 0.5 / _E_K)[:n]
    want = _e_sum_with_fresh_temporaries(x)
    assert _e_sum(x.copy()) == want


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097,
                               _PHASE_CHUNK - 1, _PHASE_CHUNK, _PHASE_CHUNK + 1])
def test_phase_sum_within_documented_bound(sqrt2, n):
    # against the exact per-prime sum of e(sqrt(2)*h*p/m), within
    # n * (2*pi*PHASE_EPS + EXP_EPS) plus the summation rounding that
    # exp_sum_primes documents (c = the number of chunk sums)
    h, m = 3, 4
    ps = primes_in(2, 90_000)[:n]
    assert ps.size == n
    with mpmath.workdps(50):
        beta = mpmath.sqrt(2) * h / m
        exact = mpmath.fsum(mpmath.expjpi(2 * mpmath.frac(beta * p)) for p in ps.tolist())
        got = _phase_sum(sqrt2, h, ps, m)
        err = float(abs(mpmath.mpc(got.real, got.imag) - exact))
    chunks = -(-n // _PHASE_CHUNK)
    bound = n * (2 * math.pi * PHASE_EPS + EXP_EPS) + 2.0 ** -52 * (32 + chunks) * n
    assert err <= bound, (err, bound)


@pytest.mark.parametrize("window", [4095, 4096, 4097, 8191, 8192, 8193, DEFAULT_SEGMENT_CAP])
def test_dyadic_is_fsum_of_per_query_sums_bit_for_bit(sqrt2, window, monkeypatch):
    # N = the (k * chunk)-th prime, so pi(N) lands on a chunk multiple
    ps = primes_in(2, 200_000)
    monkeypatch.setattr(expsum, "_SUM_WINDOW", window)
    for k in (1, 2):
        N = int(ps[k * _PHASE_CHUNK - 1])
        per_query = math.fsum(
            abs(exp_sum_primes(sqrt2, ExpSumQuery(h, 2, 2, N))) for h in (3, 4)
        )
        assert dyadic_block_sum(sqrt2, DyadicQuery(2, 1, 1, N)) == per_query


def test_erdos_turan_budget_refuses_before_any_exp(monkeypatch):
    pts = [0.1 * k for k in range(10)]
    assert erdos_turan_bound(pts, 100, (0.0, 0.5), budget=1000).rhs > 0.0

    def no_exp(*args, **kwargs):
        raise AssertionError("exp evaluated")

    monkeypatch.setattr(np, "exp", no_exp)
    for H, budget in ((101, 1000), (10 ** 11, 10 ** 6)):
        with pytest.raises(BudgetExceededError):
            erdos_turan_bound(pts, H, (0.0, 0.5), budget=budget)
