import math
import tracemalloc

import numpy as np
import pytest

import oracles
from sqfpairs import (
    basel_density_enclosure,
    coprime_double_sum,
    reference_exponents,
    sigma_enclosure,
    sigma_partial_product,
    tail_tau_sum,
    zeta2_enclosure,
)
from sqfpairs.constants import _two_over_square
from sqfpairs.errors import InvalidRangeError

# Product over all primes of (1 - 2/p^2), recorded once from a P = 10^8 run
# of the direct product with the certified tail factored out (the partial
# product at 10^8 is 0.322634099272306; the tail shifts digit 10).
SIGMA_REF = 0.3226340989


def test_sigma_enclosure_small_truncation_contains_reference():
    enc = sigma_enclosure(3)
    assert enc.contains(SIGMA_REF)
    assert enc.width() > 0


def test_sigma_enclosure_width_and_containment_at_1e6():
    enc = sigma_enclosure(10 ** 6)
    assert enc.width() < 1e-5
    assert enc.contains(SIGMA_REF)


def test_sigma_enclosure_bits_are_pinned():
    # recorded from the per-prime scalar loop (one math.nextafter per nudge);
    # the segment-wide evaluation must reproduce every bit
    for P, lo, hi in ((10 ** 6, "0x1.4a606f7fb03c3p-2", "0x1.4a609acd81a23p-2"),
                      (10 ** 3, "0x1.49cce158cab26p-2", "0x1.4a7613a25b157p-2")):
        enc = sigma_enclosure(P)
        assert (enc.lo.hex(), enc.hi.hex()) == (lo, hi), P


def test_sigma_enclosure_memory_stays_in_chunks():
    # a whole segment's 78,498 primes at once peaked at 5.4 MiB
    tracemalloc.start()
    try:
        sigma_enclosure(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20, peak


def _sigma_enclosure_per_prime(P):
    # reference: the scalar loop, one math.nextafter per nudge, prime by prime
    def dn(x):
        return math.nextafter(x, -math.inf)

    def up(x):
        return math.nextafter(x, math.inf)

    lo_sum = hi_sum = 0.0
    for p in oracles.primes_to(P):
        x = 2.0 / (p * p)
        lo_sum = dn(lo_sum + dn(dn(math.log1p(-up(x)))))
        hi_sum = up(hi_sum + up(up(math.log1p(-dn(x)))))
    lo_sum = dn(lo_sum + dn(-up(2.0 / (P - 1)) / dn(1.0 - up(2.0 / (P * P)))))
    return dn(dn(math.exp(lo_sum))), up(up(math.exp(hi_sum)))


# 84247 holds 8,214 primes: two chunks of at most _SIGMA_CHUNK = 8192
@pytest.mark.parametrize("P", [3, 4, 5, 97, 1000, 4099, 20000, 84247])
def test_sigma_enclosure_matches_per_prime_loop(P):
    enc = sigma_enclosure(P)
    assert (enc.lo, enc.hi) == _sigma_enclosure_per_prime(P)


def test_two_over_square_rounds_like_python_int_division():
    # p*p is rounded once to float, on both sides of 3037000499, the largest
    # p whose square fits int64, and up to GLOBAL_MAX; the values need not be
    # prime here
    top = 3037000499
    ps = np.array([2, 3, 94906263, 94906267, 2 ** 31 - 1, top - 1, top, top + 1,
                   2 ** 32 + 15, 2 ** 40 + 1, 2 ** 52 - 1], dtype=np.int64)
    got = _two_over_square(ps)
    assert got.tolist() == [2.0 / (p * p) for p in ps.tolist()]


def test_sigma_partial_product_single_factor():
    assert sigma_partial_product(2) == 0.5


def test_sigma_enclosures_nest():
    outer = sigma_enclosure(10 ** 3)
    middle = sigma_enclosure(10 ** 4)
    inner = sigma_enclosure(10 ** 5)
    assert outer.encloses(middle)
    assert middle.encloses(inner)


def test_sigma_enclosure_contains_direct_partial_product():
    # partial products decrease toward sigma, staying inside looser enclosures
    enc = sigma_enclosure(10 ** 4)
    assert enc.contains(sigma_partial_product(10 ** 5))


def test_sigma_requires_p_at_least_3():
    with pytest.raises(InvalidRangeError):
        sigma_enclosure(2)


def test_basel_density_enclosure():
    enc = basel_density_enclosure()
    assert enc.width() < 1e-12
    assert enc.contains(oracles.basel_density())
    assert abs(enc.midpoint() - 0.607927101854) < 1e-12


def test_basel_times_zeta2_contains_one():
    b = basel_density_enclosure()
    z = zeta2_enclosure()
    assert b.lo * z.lo <= 1.0 <= b.hi * z.hi


def test_coprime_double_sum_tiny_cases():
    assert coprime_double_sum(1) == 1.0
    assert coprime_double_sum(2) == 0.5


def test_coprime_double_sum_equals_plain_double_loop_bit_for_bit():
    for L in (*range(1, 41), 2000):
        assert coprime_double_sum(L).hex() == oracles.coprime_double_sum(L).hex(), L


def test_coprime_double_sum_holds_one_row_of_terms():
    # fed to fsum row by row: the ~900k terms at L = 2000 are never held at once
    coprime_double_sum(2000)  # grow the shared base-prime cache outside the trace
    tracemalloc.start()
    try:
        coprime_double_sum(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_coprime_double_sum_bridges_to_sigma():
    # |sum(L) - sigma| <= tail tau mass over (L, 100L] plus the analytic
    # remainder for n > 100L (tau(n) < 2 sqrt(n) gives Sum < 4/sqrt(100L))
    enc = sigma_enclosure(10 ** 6)
    for L in (100, 500, 2000):
        gap = abs(coprime_double_sum(L) - enc.midpoint())
        bound = tail_tau_sum(L, 100 * L) + 4.0 / math.sqrt(100 * L) + enc.width()
        assert gap <= bound, L


def test_coprime_double_sum_near_sigma_at_2000():
    assert abs(coprime_double_sum(2000) - SIGMA_REF) < 1e-4


def test_tail_tau_sum_single_term():
    assert tail_tau_sum(1, 2) == 0.5


def test_tail_tau_sum_holds_one_window_of_terms():
    # the terms are fed to fsum one window of 2**20 values at a time; holding
    # every term until the sum peaked at 105 MB here
    tracemalloc.start()
    try:
        value = tail_tau_sum(10, 2 * 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == float.fromhex("0x1.b2cdc3d185e57p-2")
    assert peak <= 80 * 10 ** 6, peak


def test_tail_tau_sum_halving():
    t10 = tail_tau_sum(10, 10 ** 6)
    t20 = tail_tau_sum(20, 10 ** 6)
    assert 1.5 < t10 / t20 < 2.6


def test_tail_tau_sum_is_small_past_1e3():
    assert tail_tau_sum(10 ** 3, 10 ** 6) < 0.02


def test_tail_tau_sum_range_check():
    with pytest.raises(InvalidRangeError):
        tail_tau_sum(5, 5)


def test_reference_exponents():
    exps = reference_exponents()
    assert exps["carlitz"] == 2.0 / 3.0
    assert abs(exps["reuss"] - (26 + math.sqrt(433)) / 81) < 1e-15
    assert abs(exps["reuss"] - 0.577884593169) < 1e-12
    assert exps["main"] == 0.9
