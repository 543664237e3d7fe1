"""Exact arithmetic for a positive irrational algebraic alpha.

Floors [alpha*n] and scaled floors [alpha*h*n/m] are computed exactly, never
through bare floating point.  Two representations are supported:

* quadratic -- (a + b*sqrt(D))/c with integer a, b, c and non-square D > 0.
  Floors reduce to one integer square root: b*w*sqrt(D) is irrational for
  w >= 1, so floor(b*w*sqrt(D)) = isqrt(b^2 w^2 D) (sign-adjusted) and no
  integer can sit strictly between a*w + floor(b*w*sqrt(D)) and the true
  value; hence floor((a*w + b*w*sqrt(D))/(c*m)) = (a*w + floor(b*w*sqrt(D))) // (c*m).

* poly_root -- the unique root of an integer polynomial inside a rational
  isolating interval, refined by exact bisection.  The interval is cached on
  the instance and only ever shrinks; refinement is idempotent, so instances
  are safe to share across threads.

Fractional parts are exposed only as floating approximations for exponential
sum evaluation; counting decisions always go through the exact floors.  The
bulk path evaluates them in fixed point: one wrapping uint64 multiply gives
the top 64 fractional bits of beta*n exactly, and a float tail adds the rest,
with a proven mod-1 error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AlphaParseError,
    InvalidRangeError,
    NonPositiveAlphaError,
    NotIrrationalError,
    PrecisionExhaustedError,
    RangeCapError,
)
from .sieves import GLOBAL_MAX

#: Refinement starts here and doubles per round.
_START_BITS = 128

#: Hard cap on working precision; hitting it means the representation is broken.
_MAX_BITS = 1 << 20

#: Largest h accepted by frac_parts; its error bound is proven up to here.
MAX_H = 1 << 20

#: Largest |c0*ck| whose rational-root candidates p/q (p | c0, q | ck) are
#: enumerated; the trial division costs about sqrt|c0| + sqrt|ck| steps.
_MAX_ROOT_TEST_PRODUCT = 10 ** 12

_ONE_BELOW_ONE = math.nextafter(1.0, 0.0)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _floor_mul_sqrt(y: int, D: int) -> int:
    """floor(y * sqrt(D)) for integer y (any sign), D > 0 non-square."""
    if y == 0:
        return 0
    s = math.isqrt(y * y * D)
    # y*sqrt(D) is irrational, so s < |y|*sqrt(D) < s+1 strictly
    return s if y > 0 else -s - 1


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return out


class AlgebraicAlpha:
    """A positive irrational algebraic number with exact floor operations.

    Build instances through sqrt / quadratic / poly_root or parse_alpha.
    """

    def __init__(self):
        raise TypeError("use AlgebraicAlpha.sqrt, .quadratic, .poly_root or parse_alpha")

    # ---- constructors ----

    @classmethod
    def sqrt(cls, D: int) -> "AlgebraicAlpha":
        return cls.quadratic(0, 1, 1, D, spec=f"sqrt:{D}")

    @classmethod
    def quadratic(cls, a: int, b: int, c: int, D: int,
                  spec: Optional[str] = None) -> "AlgebraicAlpha":
        """(a + b*sqrt(D))/c, validated irrational and positive."""
        if c == 0:
            raise AlphaParseError("quadratic denominator c must be nonzero")
        if c < 0:
            a, b, c = -a, -b, -c
        if D <= 0:
            raise AlphaParseError(f"need D > 0, got D={D}")
        if b == 0 or _is_square(D):
            raise NotIrrationalError(f"(({a})+({b})*sqrt({D}))/{c} is rational")
        if b > 0:
            positive = a >= 0 or a * a < b * b * D
        else:
            positive = a > 0 and a * a > b * b * D
        if not positive:
            raise NonPositiveAlphaError("alpha must be positive")
        self = object.__new__(cls)
        self.kind = "quadratic"
        self.spec = spec if spec is not None else f"quad:{a},{b},{c},{D}"
        self._a, self._b, self._c, self._D = a, b, c, D
        self._scaled_floors = {}
        return self

    @classmethod
    def poly_root(cls, coeffs: Sequence[int], lo, hi,
                  spec: Optional[str] = None) -> "AlgebraicAlpha":
        """The unique root of Sum c_i x^i inside the rational interval (lo, hi).

        Validation is rational-root exclusion plus a strict sign change;
        irreducibility for degree >= 3 is the caller's responsibility.
        """
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 3:
            raise NotIrrationalError("polynomial degree must be >= 2")
        lo = Fraction(lo)
        hi = Fraction(hi)
        if not lo < hi:
            raise AlphaParseError(f"isolating interval needs lo < hi, got ({lo}, {hi})")
        slo = cls._poly_sign_static(coeffs, lo)
        shi = cls._poly_sign_static(coeffs, hi)
        if slo == 0 or shi == 0 or slo == shi:
            raise AlphaParseError("polynomial must change sign strictly across (lo, hi)")
        cls._reject_rational_roots(coeffs, lo, hi)
        self = object.__new__(cls)
        self.kind = "poly_root"
        if spec is None:
            cs = ",".join(str(c) for c in coeffs)
            spec = (f"poly:{cs}@{lo.numerator}/{lo.denominator},"
                    f"{hi.numerator}/{hi.denominator}")
        self.spec = spec
        self._coeffs = tuple(coeffs)
        self._lo, self._hi = lo, hi
        self._sign_lo = slo
        self._bits = 0
        self._scaled_floors = {}
        while self._lo < 0:
            if self._hi <= 0:
                raise NonPositiveAlphaError("alpha must be positive")
            self._bisect_once()
        return self

    @staticmethod
    def _reject_rational_roots(coeffs, lo: Fraction, hi: Fraction) -> None:
        c0, ck = coeffs[0], coeffs[-1]
        if c0 == 0:
            if lo < 0 < hi:
                raise NotIrrationalError("0 is a rational root inside the interval")
            return
        if abs(c0 * ck) > _MAX_ROOT_TEST_PRODUCT:
            raise RangeCapError(f"|c0*ck| = {abs(c0 * ck)} exceeds the rational-root "
                                f"test's cap {_MAX_ROOT_TEST_PRODUCT}")
        for p in _divisors(c0):
            for q in _divisors(ck):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if lo < cand < hi and AlgebraicAlpha._poly_sign_static(coeffs, cand) == 0:
                        raise NotIrrationalError(f"rational root {cand} inside the interval")

    # ---- poly_root internals ----

    @staticmethod
    def _poly_sign_static(coeffs, x: Fraction) -> int:
        # sign of f(p/q) via the integer Sum c_i p^i q^(k-i)
        p, q = x.numerator, x.denominator
        k = len(coeffs) - 1
        acc = 0
        qpow = 1
        for i in range(k, -1, -1):
            acc = acc * p + coeffs[i] * qpow
            if i:
                qpow *= q
        return (acc > 0) - (acc < 0)

    def _bisect_once(self) -> None:
        if self._bits > _MAX_BITS:
            raise PrecisionExhaustedError(
                f"refinement of {self.spec} exceeded {_MAX_BITS} bits"
            )
        mid = (self._lo + self._hi) / 2
        # mid cannot be a root: rational roots in the interval were excluded
        if self._poly_sign_static(self._coeffs, mid) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid
        self._bits += 1

    def _refine_below(self, width: Fraction) -> None:
        while self._hi - self._lo >= width:
            self._bisect_once()

    # ---- exact floors ----

    def floor_times(self, n: int) -> int:
        """[alpha * n] exactly, n >= 0."""
        return self.floor_scaled(1, n, 1)

    def floor_scaled(self, h: int, n: int, m: int) -> int:
        """[alpha * h * n / m] exactly; h >= 1, n >= 0, m >= 1."""
        if h < 1 or m < 1 or n < 0:
            raise InvalidRangeError(
                f"need h >= 1, m >= 1, n >= 0; got h={h}, n={n}, m={m}"
            )
        w = h * n
        if w == 0:
            return 0
        if self.kind == "quadratic":
            return (self._a * w + _floor_mul_sqrt(self._b * w, self._D)) // (self._c * m)
        bits = _START_BITS
        while True:
            flo = (self._lo.numerator * w) // (self._lo.denominator * m)
            fhi = (self._hi.numerator * w) // (self._hi.denominator * m)
            if flo == fhi:
                return flo
            self._refine_below(Fraction(1, 1 << bits))
            bits *= 2

    def frac_in_window(self, n: int, m: int, q: int) -> bool:
        """Exact test of q/m < {alpha*n/m} < (q+1)/m.

        With F = [alpha*n/m] the window condition says alpha*n lies in
        (m*F + q, m*F + q + 1), i.e. [alpha*n] == m*F + q.  Both floors are
        computed independently, which is what makes the congruence
        cross-check in the tests meaningful.
        """
        if m < 1 or n < 1:
            raise InvalidRangeError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        if not 0 <= q <= m - 1:
            raise InvalidRangeError(f"need 0 <= q <= m-1, got q={q}")
        return self.floor_times(n) == m * self.floor_scaled(1, n, m) + q

    # ---- approximations (exponential sums only; never counting decisions) ----

    def scaled_floor_bits(self, bits: int) -> int:
        """floor(alpha * 2**bits), cached; alpha lies within 2**-bits above it.

        The exact floor_scaled(2**bits, 1, 1), for both kinds of alpha.
        """
        val = self._scaled_floors.get(bits)
        if val is None:
            val = self._scaled_floors[bits] = self.floor_scaled(1 << bits, 1, 1)
        return val

    def frac_part_approx(self, h: int, n: int, m: int, eps: float = 1e-12) -> float:
        """A float x in [0, 1) with |x - {alpha*h*n/m}| < eps + 2**-53.

        Anchored on the exact floor, so the bound holds even when the true
        fractional part sits next to 0 or 1; the 2**-53 is the final rounding
        to float.  This scalar path is the reference for frac_parts.
        """
        if h < 1 or n < 1 or m < 1:
            raise InvalidRangeError(f"need h, n, m >= 1, got h={h}, n={n}, m={m}")
        if not eps > 0:
            raise InvalidRangeError("eps must be positive")
        w = h * n
        bits = (w // m).bit_length() + max(8, math.ceil(-math.log2(eps))) + 8
        A = self.scaled_floor_bits(bits)
        F = self.floor_scaled(h, n, m)
        num = A * w - F * (m << bits)
        x = num / (m << bits)
        return min(max(x, 0.0), _ONE_BELOW_ONE)

    def frac_parts(self, h: int, ns, m: int) -> np.ndarray:
        """{alpha*h*n/m} for each n in ns, float64 in [0, 1).

        For 1 <= h <= MAX_H, m >= 1 and 0 <= n <= GLOBAL_MAX each value is
        within 2**-52 + 2**-64 (under 2**-51, 4.4e-16) of the true fractional
        part mod 1: values within that distance of an integer may come out at
        either end of [0, 1), which the exponential e(x), the only consumer,
        ignores.

        Proof sketch, in units of 2**-55.  With A = [alpha*2**128] and
        B = [A*h/m] mod 2**128, beta = B/2**128 sits below {alpha*h/m} by
        less than (h/m + 1)*2**-128, which n multiplies to under 1 unit.
        Split B = Hi*2**64 + Lo, so beta*n = n*Hi/2**64 + n*Lo/2**128.  The
        uint64 product u = n*Hi wraps to exactly n*Hi mod 2**64; read as
        int64, u/2**64 is the same value mod 1, in [-1/2, 1/2).  Its
        conversion to float rounds by at most 1 unit, and the scaling by
        2**-64 is exact.  The tail n*Lo/2**128 is under 2**-12 (n < 2**53 is
        exact in float64); rounding Lo to float and rounding the product
        each cost a relative 2**-53, together under 2**-64.  The sum lies in
        [-1/2, 1/2 + 2**-12) and rounds by at most 2 units.  Reducing mod 1
        is exact for a sum >= 0; a negative one gains 1 and rounds by at
        most 2 units, and where that gives 1.0 the clamp to the double below
        1 stays within 4 units of the true value.  In all at most
        1 + 1 + 2 + 4 units plus 2**-64, that is 2**-52 + 2**-64.
        """
        if h < 1 or m < 1:
            raise InvalidRangeError(f"need h, m >= 1, got h={h}, m={m}")
        if h > MAX_H:
            raise RangeCapError(f"h={h} exceeds cap {MAX_H}")
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and (ns.min() < 0 or ns.max() > GLOBAL_MAX):
            raise RangeCapError(f"frac_parts needs 0 <= n <= {GLOBAL_MAX}")
        B = (self.scaled_floor_bits(128) * h // m) & ((1 << 128) - 1)
        # a numpy uint64 operand keeps the product in wrapping uint64
        # arithmetic under the casting rules of every supported numpy
        hi = np.uint64(B >> 64)
        lo = math.ldexp(B & ((1 << 64) - 1), -128)
        u = ns.view(np.uint64) * hi
        x = u.view(np.int64).astype(np.float64)
        del u
        x *= 2.0 ** -64
        tail = ns.astype(np.float64)
        tail *= lo
        x += tail
        x -= np.floor(x, out=tail)
        return np.minimum(x, _ONE_BELOW_ONE, out=x)

    # ---- conversions ----

    def to_float(self) -> float:
        """Double-precision approximation (diagnostics and bound checks only)."""
        if self.kind == "quadratic":
            return (self._a + self._b * math.sqrt(self._D)) / self._c
        self._refine_below(Fraction(1, 1 << 64))
        mid = (self._lo + self._hi) / 2
        return mid.numerator / mid.denominator

    def floors_bulk(self, ns) -> np.ndarray:
        """[alpha * n] for an array of n >= 0; exact despite the float fast path.

        With v = fl(alpha) and r = fl(n*v), a float floor(r) is kept only when
        the fraction fr = r - floor(r) sits safely away from 0 and 1; the rare
        suspects fall back to the exact per-element floor_times.  Empty input
        gives an empty array; a negative n raises InvalidRangeError, as in
        floor_times.

        The margin M = fl(256*spacing(R) + 1e-15), R = max r, is one scalar
        for the whole array, and a point is a suspect when
        |fl(fr - 0.5)| >= fl(0.5 - M).  This suspect set contains the one of
        the per-point margins m = fl(256*spacing(r) + 1e-15) with the test
        fr < m or fr > fl(1 - m), which keeps the float floor only where
        it is exact:

        * 0 <= r <= R (n >= 0, v > 0) and spacing is monotone in |r|, so
          256*spacing(r) + 1e-15 <= 256*spacing(R) + 1e-15 as reals (each
          256*spacing is an exact power of two), and rounding to nearest is
          monotone: m <= M.
        * If M > 1/2, fl(0.5 - M) <= 0 and every point is a suspect.
          Otherwise the two tests below compare rounded values, so both use
          that rounding is monotone and symmetric, fl(-x) = -fl(x).
        * fr < m: fr - 0.5 < M - 0.5 <= 0, so fl(fr - 0.5) <= fl(M - 0.5)
          = -fl(0.5 - M) <= 0, hence |fl(fr - 0.5)| >= fl(0.5 - M).
        * fr > fl(1 - m): here 1 - m lies in [1/2, 1), where doubles are
          multiples of 2**-53, and fr is one of those too (r - floor(r) is
          exact).  So fr >= fl(1 - m) + 2**-53 > 1 - m >= 1 - M, since
          fl(1 - m) is within half a unit (2**-54) of 1 - m.  The difference
          g = fr - 0.5 is exact (Sterbenz: fr in [1/2, 1)) and g > 0.5 - M,
          so g = fl(g) >= fl(0.5 - M).

        No ulp of widening is needed.  floor(r) stays a float until the
        final cast; floats below 2**53 convert exactly.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and ns.min() < 0:
            raise InvalidRangeError(f"floors_bulk needs n >= 0, got {ns.min()}")
        r = ns * self.to_float()
        margin = 256.0 * np.spacing(r.max(initial=0.0)) + 1e-15
        fl = np.floor(r)
        r -= fl
        r -= 0.5
        np.abs(r, out=r)
        suspects = np.flatnonzero(r >= 0.5 - margin)
        floors = fl.astype(np.int64)
        for i in suspects.tolist():
            floors[i] = self.floor_times(int(ns[i]))
        return floors

    def __repr__(self) -> str:
        return f"AlgebraicAlpha({self.spec!r})"


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise AlphaParseError(f"bad integer {token!r} in {what}") from None


def _parse_fraction(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        d = _parse_int(den, "fraction")
        if d <= 0:
            raise AlphaParseError(f"fraction denominator must be positive in {token!r}")
        return Fraction(_parse_int(num, "fraction"), d)
    return Fraction(_parse_int(token, "fraction"))


def parse_alpha(spec: str) -> AlgebraicAlpha:
    """Parse an alpha spec string.

    Grammar:
        sqrt:<D>
        quad:<a>,<b>,<c>,<D>              meaning (a + b*sqrt(D))/c
        poly:<c0>,...,<ck>@<lo>,<hi>      root of Sum c_i x^i in (lo, hi);
                                          lo and hi are rationals like 7/5
    """
    spec = spec.strip()
    if ":" not in spec:
        raise AlphaParseError(f"alpha spec {spec!r} lacks a 'kind:' prefix")
    kind, _, body = spec.partition(":")
    if kind == "sqrt":
        D = _parse_int(body, "sqrt spec")
        if D <= 0:
            raise NonPositiveAlphaError(f"sqrt:{D} is not positive")
        if _is_square(D):
            raise NotIrrationalError(f"sqrt:{D} is rational")
        return AlgebraicAlpha.sqrt(D)
    if kind == "quad":
        parts = body.split(",")
        if len(parts) != 4:
            raise AlphaParseError("quad spec needs exactly a,b,c,D")
        a, b, c, D = (_parse_int(t, "quad spec") for t in parts)
        return AlgebraicAlpha.quadratic(a, b, c, D, spec=spec)
    if kind == "poly":
        if "@" not in body:
            raise AlphaParseError("poly spec needs '@lo,hi' interval suffix")
        coeff_part, _, iv_part = body.partition("@")
        coeffs = [_parse_int(t, "poly coefficients") for t in coeff_part.split(",")]
        iv_tokens = iv_part.split(",")
        if len(iv_tokens) != 2:
            raise AlphaParseError("poly interval needs exactly lo,hi")
        lo = _parse_fraction(iv_tokens[0])
        hi = _parse_fraction(iv_tokens[1])
        return AlgebraicAlpha.poly_root(coeffs, lo, hi, spec=spec)
    raise AlphaParseError(f"unknown alpha kind {kind!r}")
