import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sqfpairs import AlgebraicAlpha, parse_alpha, primes_in
from sqfpairs.alpha import _ONE_BELOW_ONE, MAX_H
from sqfpairs.errors import (
    AlphaParseError,
    ConfigError,
    InvalidRangeError,
    NonPositiveAlphaError,
    NotIrrationalError,
    RangeCapError,
)
from sqfpairs.expsum import MAX_PHASE_MODULUS, PHASE_EPS
from sqfpairs.sieves import GLOBAL_MAX


# ---- parsing ----

def test_parse_sqrt2(sqrt2):
    assert sqrt2.kind == "quadratic"
    assert sqrt2.spec == "sqrt:2"


def test_parse_quad_golden(golden):
    assert golden.kind == "quadratic"
    assert abs(golden.to_float() - (1 + math.sqrt(5)) / 2) < 1e-15


def test_parse_poly(poly_sqrt2):
    assert poly_sqrt2.kind == "poly_root"
    assert abs(poly_sqrt2.to_float() - math.sqrt(2)) < 1e-15


def test_parse_rejects_rational():
    with pytest.raises(NotIrrationalError):
        parse_alpha("sqrt:4")
    with pytest.raises(NotIrrationalError):
        parse_alpha("quad:3,0,2,5")
    with pytest.raises(NotIrrationalError):
        parse_alpha("poly:-4,0,1@1/1,3/1")  # root 2
    with pytest.raises(NotIrrationalError):
        parse_alpha("poly:1,1@0/1,1/1")  # degree 1


def test_parse_rejects_non_positive():
    with pytest.raises(NonPositiveAlphaError):
        parse_alpha("sqrt:-3")
    with pytest.raises(NonPositiveAlphaError):
        parse_alpha("quad:-5,1,1,2")
    with pytest.raises(NonPositiveAlphaError):
        parse_alpha("poly:-2,0,1@-2/1,-1/1")  # root -sqrt(2)


def test_parse_rejects_malformed():
    for bad in ("", "sqrt", "sqrt:x", "quad:1,2,3", "poly:-2,0,1", "poly:-2,0,1@1",
                "wat:3", "quad:1,1,0,5"):
        with pytest.raises(AlphaParseError):
            parse_alpha(bad)


def test_poly_requires_sign_change():
    with pytest.raises(AlphaParseError):
        parse_alpha("poly:-2,0,1@2/1,3/1")


# ---- exact floors ----

def test_floor_examples(sqrt2, golden):
    assert sqrt2.floor_times(5) == 7
    assert sqrt2.floor_times(0) == 0
    assert golden.floor_times(0) == 0
    assert golden.floor_times(4) == 6


def test_floor_scaled_examples(sqrt2):
    assert sqrt2.floor_scaled(1, 5, 1) == 7
    assert sqrt2.floor_scaled(3, 5, 2) == 10
    assert sqrt2.floor_scaled(1, 0, 36) == 0


def test_floor_matches_isqrt_form(sqrt2):
    for n in range(2001):
        assert sqrt2.floor_times(n) == math.isqrt(2 * n * n)


def test_quadratic_and_poly_agree(sqrt2, poly_sqrt2):
    for n in range(2001):
        assert sqrt2.floor_times(n) == poly_sqrt2.floor_times(n)


def test_negative_b_quadratic_floor():
    # (10 - sqrt(2)) / 3, checked against the fixed-point oracle
    alpha = parse_alpha("quad:10,-1,3,2")
    scaled = oracles.quad_alpha_bits(10, -1, 3, 2)
    for n in range(500):
        assert alpha.floor_times(n) == oracles.floor_fixed(scaled, n)


def test_floor_monotone_with_beatty_gaps(sqrt2, golden):
    for alpha in (sqrt2, golden):
        step0 = int(alpha.to_float())
        prev = alpha.floor_times(1)
        for n in range(2, 5001):
            cur = alpha.floor_times(n)
            assert cur - prev in (step0, step0 + 1), n
            prev = cur


def test_floor_rejects_bad_arguments(sqrt2):
    with pytest.raises(InvalidRangeError):
        sqrt2.floor_times(-1)
    with pytest.raises(InvalidRangeError):
        sqrt2.floor_scaled(0, 5, 1)
    with pytest.raises(InvalidRangeError):
        sqrt2.floor_scaled(1, 5, 0)


# ---- fractional-window duality ----

def test_frac_in_window_examples(sqrt2):
    assert sqrt2.frac_in_window(5, 4, 3) is True
    assert sqrt2.frac_in_window(5, 4, 0) is False
    assert sqrt2.frac_in_window(1, 1, 0) is True


def test_window_duality_small_moduli(sqrt2):
    for m in (4, 9):
        for n in range(1, 10 ** 4 + 1):
            q_true = sqrt2.floor_times(n) % m
            for q in range(m):
                assert sqrt2.frac_in_window(n, m, q) == (q == q_true), (n, m, q)


def test_window_duality_large_moduli(sqrt2, golden):
    for alpha in (sqrt2, golden):
        for m in (36, 100):
            for n in range(1, 2001):
                q_true = alpha.floor_times(n) % m
                for q in range(m):
                    assert alpha.frac_in_window(n, m, q) == (q == q_true)


def test_frac_in_window_argument_checks(sqrt2):
    with pytest.raises(InvalidRangeError):
        sqrt2.frac_in_window(0, 4, 1)
    with pytest.raises(InvalidRangeError):
        sqrt2.frac_in_window(5, 4, 4)


# ---- fractional parts ----

def test_frac_part_examples(sqrt2):
    assert abs(sqrt2.frac_part_approx(1, 1, 1) - (math.sqrt(2) - 1)) < 1e-12
    assert abs(sqrt2.frac_part_approx(2, 1, 2) - (math.sqrt(2) - 1)) < 1e-12
    assert abs(sqrt2.frac_part_approx(1, 2, 1) - (2 * math.sqrt(2) - 2)) < 1e-12


def test_frac_part_consistency_with_floor(sqrt2, golden, poly_sqrt2):
    eps = 1e-12
    for alpha, scaled in ((sqrt2, oracles.SQRT2_SCALED),
                          (golden, oracles.GOLDEN_SCALED)):
        for h, n, m in ((1, 1, 1), (3, 17, 4), (7, 1234, 36), (2, 99991, 100)):
            approx = alpha.frac_part_approx(h, n, m, eps)
            exact = oracles.frac_fixed(scaled, h, n, m)
            assert abs(approx - float(exact)) < eps, (h, n, m)
    # poly path against the quadratic fixed-point oracle
    approx = poly_sqrt2.frac_part_approx(5, 321, 9, eps)
    exact = oracles.frac_fixed(oracles.SQRT2_SCALED, 5, 321, 9)
    assert abs(approx - float(exact)) < eps


def test_frac_parts_bulk_matches_pointwise(sqrt2, poly_sqrt2):
    ns = list(range(1, 400))
    for alpha in (sqrt2, poly_sqrt2):
        bulk = alpha.frac_parts(3, ns, 36)
        for i, n in enumerate(ns):
            single = alpha.frac_part_approx(3, n, 36, 1e-13)
            delta = abs(bulk[i] - single)
            assert min(delta, 1.0 - delta) < 1e-12, n


def test_frac_parts_in_unit_interval(sqrt2):
    pts = sqrt2.frac_parts(1, range(1, 1000), 7)
    assert pts.min() >= 0.0
    assert pts.max() < 1.0


def _mod1_dist(x: float, y: float) -> float:
    d = abs(x - y)
    return min(d, 1.0 - d)


def _worst_phase_error(alpha, h, ns, m) -> float:
    bulk = alpha.frac_parts(h, ns, m)
    return max(_mod1_dist(x, alpha.frac_part_approx(h, n, m, 1e-17))
               for n, x in zip(ns, bulk.tolist()))


def test_frac_parts_precision_at_caps(sqrt2, golden, poly_sqrt2):
    # h and n at their caps, where the rounding of n*beta weighs most
    ns = [GLOBAL_MAX, GLOBAL_MAX - 1, 2 ** 51 + 1]
    ns += [GLOBAL_MAX - 1 - 104729 * k ** 5 for k in range(1, 30)]
    for alpha in (sqrt2, golden, poly_sqrt2):
        for h in (MAX_H, MAX_H - 3, 7):
            for m in (1, 16, 36, 2 ** 40 - 1):
                assert _worst_phase_error(alpha, h, ns, m) < PHASE_EPS, (alpha, h, m)


def test_frac_parts_domain_checks(sqrt2):
    with pytest.raises(RangeCapError):
        sqrt2.frac_parts(MAX_H + 1, [5], 1)
    with pytest.raises(InvalidRangeError):
        sqrt2.frac_parts(0, [5], 1)
    with pytest.raises(InvalidRangeError):
        sqrt2.frac_parts(1, [5], 0)
    with pytest.raises(RangeCapError):
        sqrt2.frac_parts(1, [GLOBAL_MAX + 1], 1)
    with pytest.raises(RangeCapError):
        sqrt2.frac_parts(1, [-1], 1)
    assert sqrt2.frac_parts(1, [], 1).shape == (0,)


@functools.lru_cache(maxsize=None)
def _alpha(spec):
    return parse_alpha(spec)


@st.composite
def alpha_specs(draw):
    kind = draw(st.sampled_from(("sqrt", "quad", "poly")))
    if kind == "poly":
        return "poly:-30000,0,0,1@31/1,32/1"
    D = draw(st.integers(2, 10 ** 6))
    assume(math.isqrt(D) ** 2 != D)
    if kind == "sqrt":
        return f"sqrt:{D}"
    a = draw(st.integers(-10 ** 6, 10 ** 6))
    b = draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    c = draw(st.integers(1, 10 ** 6))
    spec = f"quad:{a},{b},{c},{D}"
    try:
        _alpha(spec)
    except ConfigError:
        assume(False)
    return spec


@settings(max_examples=300, deadline=None)
@given(spec=alpha_specs(), h=st.integers(1, MAX_H), m=st.integers(1, MAX_PHASE_MODULUS),
       ns=st.lists(st.integers(1, GLOBAL_MAX), min_size=1, max_size=6))
def test_frac_parts_property_matches_oracle(spec, h, m, ns):
    assert _worst_phase_error(_alpha(spec), h, ns, m) < PHASE_EPS


def _fixed_point_frac_parts(alpha, h, ns, m):
    """frac_parts' fixed-point steps on Python ints, rounded by float(),
    which rounds to nearest as numpy's int64 -> float64 cast does; the
    numpy kernel must match it bit for bit."""
    B = (alpha.scaled_floor_bits(128) * h // m) % 2 ** 128
    hi, lo = divmod(B, 2 ** 64)
    out = []
    for n in ns:
        u = n * hi % 2 ** 64
        x = float(u - 2 ** 64 if u >= 2 ** 63 else u) * 2.0 ** -64
        x += float(n) * math.ldexp(lo, -128)
        x -= math.floor(x)
        out.append(min(x, _ONE_BELOW_ONE))
    return np.array(out, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(spec=alpha_specs(), h=st.integers(1, MAX_H), m=st.integers(1, MAX_PHASE_MODULUS - 1),
       ns=st.lists(st.one_of(st.integers(0, GLOBAL_MAX),
                             st.integers(GLOBAL_MAX - 2 ** 20, GLOBAL_MAX)),
                   min_size=1, max_size=40))
def test_frac_parts_bit_identical_to_fixed_point_oracle(spec, h, m, ns):
    alpha = _alpha(spec)
    got = alpha.frac_parts(h, ns, m)
    want = _fixed_point_frac_parts(alpha, h, ns, m)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_frac_parts_within_proven_bound_exactly(sqrt2, golden):
    # exact rationals against the 256-bit oracle, whose own error
    # h*n/(m*2**256) is added to the distance before comparing
    bound = Fraction(1, 2 ** 52) + Fraction(1, 2 ** 64)
    ns = [0, 1, 2 ** 32 - 1, 2 ** 32 + 1, 2 ** 52 - 1, GLOBAL_MAX]
    for alpha, scaled in ((sqrt2, oracles.SQRT2_SCALED), (golden, oracles.GOLDEN_SCALED)):
        for h in (1, MAX_H):
            for m in (1, MAX_PHASE_MODULUS - 1):
                got = alpha.frac_parts(h, ns, m).tolist()
                for n, x in zip(ns, got):
                    assert 0.0 <= x < 1.0
                    d = abs(Fraction(x) - oracles.frac_fixed(scaled, h, n, m))
                    d = min(d, 1 - d) + Fraction(h * n, m << oracles.ORACLE_BITS)
                    assert d <= bound, (alpha, h, n, m, float(d))


def test_frac_parts_memory_stays_within_six_arrays(sqrt2):
    ps = primes_in(2, 90_000)[:8192]
    assert ps.size == 8192
    sqrt2.frac_parts(3, ps[:1], 4)  # warm the cached 128-bit alpha
    tracemalloc.start()
    try:
        sqrt2.frac_parts(3, ps, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * ps.size, peak


def test_frac_parts_memory_stays_within_three_arrays(sqrt2):
    # the kernel holds two chunk-sized arrays at once
    ps = primes_in(2, 90_000)[:8192]
    sqrt2.frac_parts(3, ps[:1], 4)  # warm the cached 128-bit alpha
    tracemalloc.start()
    try:
        sqrt2.frac_parts(3, ps, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * ps.size, peak


@settings(max_examples=200, deadline=None)
@given(spec=alpha_specs(), data=st.data())
def test_floors_bulk_property_matches_floor_times(spec, data):
    alpha = _alpha(spec)
    top = GLOBAL_MAX // (math.ceil(alpha.to_float()) + 1)
    ns = data.draw(st.lists(st.integers(0, top), max_size=8))
    assert alpha.floors_bulk(ns).tolist() == [alpha.floor_times(n) for n in ns]


def test_huge_poly_coefficients_are_refused_before_the_root_test():
    # the rational-root test would trial-divide up to sqrt(1e20) = 1e10
    with pytest.raises(RangeCapError):
        parse_alpha(f"poly:{-10 ** 20},0,0,1@1/1,{10 ** 7}/1")
    with pytest.raises(RangeCapError):
        parse_alpha(f"poly:-3,0,0,{10 ** 13}@0/1,1/1")


def test_floors_bulk_matches_exact(sqrt2, golden, poly_sqrt2):
    ns = np.array(list(range(3000)) + [10 ** 7 + 7, 123456789], dtype=np.int64)
    for alpha in (sqrt2, golden, poly_sqrt2):
        bulk = alpha.floors_bulk(ns)
        for n, got in zip(ns.tolist(), bulk.tolist()):
            assert got == alpha.floor_times(n), (alpha.spec, n)


def _convergent_denominators(alpha, top):
    # continued fraction of floor(alpha * 2**256) / 2**256, whose partial
    # quotients agree with alpha's while the denominators stay far below 2**128
    num, den = alpha.scaled_floor_bits(256), 1 << 256
    q_prev, q = 1, 0
    out = []
    while den and q <= top:
        a, rem = divmod(num, den)
        num, den = den, rem
        q_prev, q = q, a * q + q_prev
        out.append(q)
    return [q for q in out if q <= top]


@pytest.mark.parametrize("spec", ["sqrt:2", "quad:1,1,2,5", "quad:-3,7,5,11",
                                  "poly:-30000,0,0,1@31/1,32/1"])
def test_floors_bulk_at_convergent_denominators(spec):
    # n = k*q for a convergent denominator q (and n +- 1) puts alpha*n within
    # about k/q of an integer, on either side, up to alpha*n near GLOBAL_MAX;
    # shuffled, so the scalar margin sees its maximum anywhere in the array
    alpha = _alpha(spec)
    top = GLOBAL_MAX // (math.ceil(alpha.to_float()) + 1)
    ns = {k * q + d for q in _convergent_denominators(alpha, top)
          for k in (1, 2, 3) for d in (-1, 0, 1)}
    ns = sorted(n for n in ns if 0 <= n <= top)
    near = [n for n in ns if n and min(alpha.frac_part_approx(1, n, 1),
                                       1 - alpha.frac_part_approx(1, n, 1)) < 1e-6]
    assert len(near) >= 5, spec
    shuffled = ns[::2][::-1] + ns[1::2]
    for batch in (shuffled, near, near[::-1], [ns[-1], *near[:3]]):
        assert alpha.floors_bulk(batch).tolist() == [alpha.floor_times(n) for n in batch]


def test_floors_bulk_empty_and_unsorted(sqrt2, poly_sqrt2):
    for alpha in (sqrt2, poly_sqrt2):
        empty = alpha.floors_bulk([])
        assert empty.dtype == np.int64 and empty.shape == (0,)
        ns = [10 ** 12 + 39, 0, 7, 3, 10 ** 9, 1, 10 ** 12]
        assert alpha.floors_bulk(ns).tolist() == [alpha.floor_times(n) for n in ns]


def test_floors_bulk_refuses_negative_n(sqrt2):
    # sqrt(2)*7645370045 lies just above an integer, so a float floor of
    # -sqrt(2)*7645370045 is one too high; the exact path needs n >= 0
    for ns in ([-7645370045], [5, -1], [-(10 ** 12)]):
        with pytest.raises(InvalidRangeError):
            sqrt2.floors_bulk(ns)


def test_cubic_poly_root():
    # real root of x^3 - x - 1 in (1, 2)
    alpha = parse_alpha("poly:-1,-1,0,1@1/1,2/1")
    v = alpha.to_float()
    assert abs(v ** 3 - v - 1) < 1e-12
    for n in (1, 7, 100, 9999):
        f = alpha.floor_times(n)
        assert f <= v * n < f + 1 + 1e-6


def test_poly_refinement_is_monotone_and_cached():
    alpha = parse_alpha("poly:-2,0,1@1/1,2/1")
    first = alpha.floor_times(99991)
    width_after = alpha._hi - alpha._lo
    assert alpha.floor_times(99991) == first
    assert alpha._hi - alpha._lo == width_after  # cached, no further shrink
    assert Fraction(first, 99991) < alpha._hi


def test_quadratic_scaled_floor_agrees_with_oracle(sqrt2, golden):
    assert sqrt2.scaled_floor_bits(256) == oracles.SQRT2_SCALED
    assert golden.scaled_floor_bits(256) == oracles.GOLDEN_SCALED


def test_poly_scaled_floor_agrees_with_oracle(poly_sqrt2):
    # the poly root of x^2 - 2 through floor_scaled's bisection; the floor
    # at fewer bits is the 256-bit oracle shifted down
    assert poly_sqrt2.scaled_floor_bits(256) == oracles.SQRT2_SCALED
    for bits in (0, 1, 53, 64, 128, 255):
        assert poly_sqrt2.scaled_floor_bits(bits) == oracles.SQRT2_SCALED >> (256 - bits), bits
