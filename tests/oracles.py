"""Independent brute-force oracles the tests pin expected values against.

Everything here is deliberately naive (trial factorization, fixed-precision
scaled integers, term-by-term series) and shares no code path with the
package implementation.
"""

import math
from fractions import Fraction

ORACLE_BITS = 256


def factorize(n):
    """[(p, e), ...] by trial division."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def mu(n):
    if n <= 0:
        return 0
    sign = 1
    for _, e in factorize(n):
        if e >= 2:
            return 0
        sign = -sign
    return sign


def tau(n):
    if n <= 0:
        return 0
    t = 1
    for _, e in factorize(n):
        t *= e + 1
    return t


def square_radical(n):
    """R(n) for n >= 1: the product of the primes p with p*p | n, by trial division."""
    return math.prod(p for p, e in factorize(n) if e >= 2)


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def squarefree(n):
    """Direct square-divisor test, independent of mu. 0 is not squarefree."""
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def primes_to(N):
    return [p for p in range(2, N + 1) if is_prime(p)]


def primes_between(lo, hi):
    """The primes in [lo, hi): a plain bytearray sieve by every prime up to sqrt(hi - 1)."""
    flags = bytearray([1]) * (hi - lo)
    for n in range(lo, min(hi, 2)):  # 0 and 1 are not prime
        flags[n - lo] = 0
    for p in primes_to(math.isqrt(hi - 1)):
        start = max(p * p, -(-lo // p) * p)
        flags[start - lo:: p] = bytes(len(range(start, hi, p)))
    return [lo + i for i, f in enumerate(flags) if f]


# ---- fixed-precision floors: the "256-bit floating" oracle ----

def quad_alpha_bits(a, b, c, D, bits=ORACLE_BITS):
    """floor(((a + b*sqrt(D)) / c) * 2**bits) via one big integer square root."""
    s = math.isqrt(b * b * D << (2 * bits))
    if b < 0:
        s = -s - 1
    return (a * (1 << bits) + s) // c


def floor_fixed(alpha_scaled, n, bits=ORACLE_BITS):
    """floor(alpha * n) from the fixed-point value floor(alpha * 2**bits)."""
    return (alpha_scaled * n) >> bits


SQRT2_SCALED = quad_alpha_bits(0, 1, 1, 2)
GOLDEN_SCALED = quad_alpha_bits(1, 1, 2, 5)


def frac_fixed(alpha_scaled, h, n, m, bits=ORACLE_BITS):
    """{alpha*h*n/m} as a Fraction, from the fixed-point alpha."""
    num = alpha_scaled * h * n
    den = m << bits
    return Fraction(num % den, den)


# ---- brute-force experiment counts ----

def brute_pair_count(N, alpha_scaled):
    count = 0
    for p in primes_to(N):
        m = floor_fixed(alpha_scaled, p)
        if squarefree(m) and squarefree(m + 1):
            count += 1
    return count


def brute_single_count(N, alpha_scaled):
    count = 0
    for p in primes_to(N):
        if squarefree(floor_fixed(alpha_scaled, p)):
            count += 1
    return count


def brute_congruence_count(N, alpha_scaled, d, t):
    d2, t2 = d * d, t * t
    count = 0
    for p in primes_to(N):
        m = floor_fixed(alpha_scaled, p)
        if m % d2 == 0 and (m + 1) % t2 == 0:
            count += 1
    return count


def brute_decompose(N, alpha_scaled, z):
    """(sigma1, sigma2): mu(d)*mu(t) summed over p <= N, d^2 | m, t^2 | m + 1, m = [alpha*p] > 0.

    sigma1 takes the terms with d*t <= z, sigma2 the rest; every square
    divisor is found by scanning d up to sqrt(m).
    """
    sigma1 = sigma2 = 0
    for p in primes_to(N):
        m = floor_fixed(alpha_scaled, p)
        if m == 0:
            continue
        ds = [d for d in range(1, math.isqrt(m) + 1) if m % (d * d) == 0 and mu(d)]
        ts = [t for t in range(1, math.isqrt(m + 1) + 1) if (m + 1) % (t * t) == 0 and mu(t)]
        for d in ds:
            for t in ts:
                if d * t <= z:
                    sigma1 += mu(d) * mu(t)
                else:
                    sigma2 += mu(d) * mu(t)
    return sigma1, sigma2


def brute_carlitz(N):
    return sum(1 for n in range(1, N + 1) if squarefree(n) and squarefree(n + 1))


def brute_crt_scan(d, t):
    """First q in [0, d^2 t^2) meeting both congruences, by exhaustive scan."""
    d2, t2 = d * d, t * t
    for q in range(d2 * t2):
        if q % d2 == 0 and (q + 1) % t2 == 0:
            return q
    return None


# ---- high-precision constants ----

def machin_pi(digits=40):
    """pi as a Fraction via Machin's formula with tail-dominated truncation."""
    def atan_inv(x):
        total = Fraction(0)
        k = 0
        term = Fraction(1, x)
        limit = Fraction(1, 10 ** (digits + 10))
        while term > limit:
            total += term if k % 2 == 0 else -term
            k += 1
            term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def basel_density():
    """6/pi^2 to well beyond double precision."""
    pi = machin_pi()
    return float(Fraction(6) / (pi * pi))
