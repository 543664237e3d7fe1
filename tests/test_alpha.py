import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from sqfpairs import AlgebraicAlpha, parse_alpha
from sqfpairs.alpha import MAX_H
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
    import numpy as np

    ns = np.array(list(range(3000)) + [10 ** 7 + 7, 123456789], dtype=np.int64)
    for alpha in (sqrt2, golden, poly_sqrt2):
        bulk = alpha.floors_bulk(ns)
        for n, got in zip(ns.tolist(), bulk.tolist()):
            assert got == alpha.floor_times(n), (alpha.spec, n)


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
