import functools
import math
import tracemalloc

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
from sqfpairs.counting import sigma_midpoint
from sqfpairs.errors import ConfigError, InvalidRangeError, NotCoprimeError
from sqfpairs.sieves import base_primes


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


def test_congruence_count_rejects_shared_factor(sqrt2):
    with pytest.raises(NotCoprimeError):
        congruence_pair_count(sqrt2, 100, 2, 4)


def test_decompose_identity_small(sqrt2, golden):
    for alpha in (sqrt2, golden):
        for N in (10, 200, 1000):
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
