"""Exact arithmetic for a positive irrational algebraic alpha.

Floors [alpha*n] and scaled floors [alpha*h*n/m] are computed exactly, never
through bare floating point.  alpha is the unique root of an integer
polynomial inside a rational isolating interval.  There is one refinement
rule: each question (is the grid step passed, is the interval positive, do
the floors at both ends agree, do both ends round to one double) bisects the
interval exactly until its answer is the same at both ends.  The interval is
cached on the instance and only ever shrinks; refinement is idempotent, so
instances are safe to share across threads.  A quadratic (a + b*sqrt(D))/c is
the root of (c*x - a)^2 - b^2*D in an interval of width 2**-256/c that one
integer square root gives.  A floor [alpha*w] bisects it only if alpha*w lies
within w/(c*2**256) of an integer, and to_float only if alpha lies within
2**-256/c of a point halfway between two doubles, so frac_parts (w = 2**128),
the counts' floors (w < 2**53) and to_float in practice never do.

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

#: Hard cap on working precision; hitting it means the representation is broken.
_MAX_BITS = 1 << 20

#: Largest h accepted by frac_parts; its error bound is proven up to here.
MAX_H = 1 << 20

_ONE_BELOW_ONE = math.nextafter(1.0, 0.0)


def _int64_ns(ns) -> np.ndarray:
    """ns as an int64 array, for floors_bulk and frac_parts.

    A non-empty ns of a non-integer dtype raises InvalidRangeError rather
    than being truncated; an empty list, which numpy reads as float64, gives
    an empty array.  A uint64 n above 2**63 - 1 raises RangeCapError rather
    than wrapping to a negative int64.
    """
    arr = np.asarray(ns)
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidRangeError(f"n must be integers, got dtype {arr.dtype}")
    if arr.dtype == np.uint64 and int(arr.max(initial=0)) >= 1 << 63:
        raise RangeCapError(f"n = {arr.max()} exceeds the int64 range")
    return arr.astype(np.int64, copy=False)


def check_floor_top(top: float) -> None:
    """Refuse top = fl(alpha)*N above GLOBAL_MAX: floors up to [alpha*N] leave the sieves' range."""
    if top > GLOBAL_MAX:
        raise RangeCapError(f"alpha*N = {top:.6g} exceeds global maximum {GLOBAL_MAX}")


class AlgebraicAlpha:
    """A positive irrational algebraic number with exact floor operations.

    Build instances through sqrt / quadratic / poly_root or parse_alpha.
    """

    def __init__(self):
        raise TypeError("use AlgebraicAlpha.sqrt, .quadratic, .poly_root or parse_alpha")

    # ---- constructors ----

    @classmethod
    def sqrt(cls, D: int) -> "AlgebraicAlpha":
        if D <= 0:
            raise NonPositiveAlphaError(f"sqrt:{D} is not positive")
        return cls.quadratic(0, 1, 1, D, spec=f"sqrt:{D}")

    @classmethod
    def quadratic(cls, a: int, b: int, c: int, D: int,
                  spec: Optional[str] = None) -> "AlgebraicAlpha":
        """(a + b*sqrt(D))/c, validated irrational and positive."""
        if c == 0:
            raise AlphaParseError("quadratic denominator c must be nonzero")
        if c < 0:
            a, b, c = -a, -b, -c
        if spec is None:
            spec = f"quad:{a},{b},{c},{D}"
        if D <= 0:
            raise AlphaParseError(f"need D > 0, got D={D}")
        if b == 0 or math.isqrt(D) ** 2 == D:
            raise NotIrrationalError(f"{spec} is rational")
        # |b|*sqrt(D)*2**k is irrational, so it lies strictly between s and
        # s + 1: alpha is in (L, L + 1)/(c*2**k), and its conjugate root,
        # 2|b|sqrt(D)/c away, is not; poly_root checks the sign change again
        k = 256
        s = math.isqrt(b * b * D << 2 * k)
        L = (a << k) + s if b > 0 else (a << k) - s - 1
        return cls.poly_root((a * a - b * b * D, -2 * a * c, c * c),
                             Fraction(L, c << k), Fraction(L + 1, c << k), spec=spec)

    @classmethod
    def poly_root(cls, coeffs: Sequence[int], lo, hi,
                  spec: Optional[str] = None) -> "AlgebraicAlpha":
        """The unique root of Sum c_i x^i inside the rational interval (lo, hi).

        Validation is a strict sign change plus one exact grid test: a
        rational root p/q of f has q | c_k, so it lies on the grid of step
        1/|c_k|, and once the interval is narrower than that step it holds
        at most one grid point, which is tested.  That the root in (lo, hi)
        is unique, and irreducibility for degree >= 3, are the caller's
        responsibility.
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
        self = object.__new__(cls)
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
        ck = abs(coeffs[-1])
        self._refine_until(lambda lo, hi: (hi - lo) * ck < 1)
        grid = Fraction(math.floor(self._lo * ck) + 1, ck)
        if grid < self._hi and cls._poly_sign_static(coeffs, grid) == 0:
            raise NotIrrationalError(f"rational root {grid} inside the interval")
        self._refine_until(lambda lo, hi: lo >= 0 or hi <= 0)
        if self._hi <= 0:
            raise NonPositiveAlphaError("alpha must be positive")
        return self

    # ---- isolating-interval internals ----

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
        # a root here is rational; none is left once poly_root's grid test passed
        sign = self._poly_sign_static(self._coeffs, mid)
        if sign == 0:
            raise NotIrrationalError(f"rational root {mid} inside the interval")
        if sign == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid
        self._bits += 1

    def _refine_until(self, decided) -> None:
        """Bisect until decided(lo, hi) holds: the one refinement rule."""
        while not decided(self._lo, self._hi):
            self._bisect_once()

    # ---- exact floors ----

    def floor_times(self, n: int) -> int:
        """[alpha * n] exactly, n >= 0."""
        return self.floor_scaled(1, n, 1)

    def floor_scaled(self, h: int, n: int, m: int) -> int:
        """[alpha * h * n / m] exactly; h >= 1, n >= 0, m >= 1.

        The interval is bisected until the floors of lo*w/m and hi*w/m agree,
        w = h*n.  For w > 0, alpha*w/m is irrational and strictly inside, so
        they come to agree; for w = 0 both are 0 at once.
        """
        if h < 1 or m < 1 or n < 0:
            raise InvalidRangeError(
                f"need h >= 1, m >= 1, n >= 0; got h={h}, n={n}, m={m}"
            )
        w = h * n

        def floor(x: Fraction) -> int:
            return (x.numerator * w) // (x.denominator * m)

        self._refine_until(lambda lo, hi: floor(lo) == floor(hi))
        return floor(self._lo)

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

        The exact floor_scaled(2**bits, 1, 1), whose refinement stops once
        the floors at both ends of the interval agree; frac_parts reads it at
        128 bits and frac_part_approx at the bits its eps needs.
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
        if not 0 < eps < math.inf:
            raise InvalidRangeError(f"eps must be positive and finite, got {eps}")
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
        ignores.  ns must hold integers: a non-empty ns of another dtype raises
        InvalidRangeError.

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
        ns = _int64_ns(ns)
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
        """fl(alpha): alpha rounded to the nearest double.

        alpha lies strictly inside the isolating interval (lo, hi), which is
        bisected until float(lo) == float(hi).  float of a fraction is the
        correctly rounded int / int division, and rounding is monotone, so the
        common double is fl(alpha).  An alpha whose ends round past the
        largest double has no fl(alpha): RangeCapError, as for an alpha*N
        beyond GLOBAL_MAX.
        """
        try:
            self._refine_until(lambda lo, hi: float(lo) == float(hi))
            return float(self._lo)
        except OverflowError:
            raise RangeCapError("alpha exceeds the double range (2**1024)") from None

    def floors_bulk(self, ns) -> np.ndarray:
        """[alpha * n] for each n >= 0 of ns, in its shape; exact despite the float fast path.

        With v = to_float(), which is fl(alpha), and r = fl(n*v), a float
        floor(r) is kept only when the fraction fr = r - floor(r) sits more
        than a margin M away from 0 and 1; the rare suspects, fr <= M or
        fr >= 1 - M, fall back to the exact per-element floor_times.  Empty
        input gives an empty array; a negative n raises InvalidRangeError, as
        in floor_times, and so does a non-empty ns of a non-integer dtype.
        top = max r above GLOBAL_MAX raises RangeCapError (check_floor_top,
        the cap the counts put on alpha*N), so every float floor is below
        2**53; so does an alpha beyond the double range (to_float), whatever
        ns is.  The result is floor(r) cast at the end, exact below 2**53.

        Certificate, with 2**(e-1) <= top < 2**e and M = 2**max(e - 45, -50):
        fl(n), v = fl(alpha) and the product each round by a relative
        2**-53, so |r - alpha*n| < 4 * 2**-53 * top < 2**(e-51) <= M/64 (a
        subnormal v leaves every r below 2**-50: all are suspects).  fr is
        exact (Sterbenz), and M and 1 - M are exact doubles, so a point that
        is no suspect has r more than M from every integer: floor(r) = [alpha*n].
        """
        ns = _int64_ns(ns)
        if ns.size and ns.min() < 0:
            raise InvalidRangeError(f"floors_bulk needs n >= 0, got {ns.min()}")
        r = ns * self.to_float()
        top = r.max(initial=0.0)
        check_floor_top(top)
        margin = math.ldexp(1.0, max(math.frexp(top)[1] - 45, -50))
        fl = np.floor(r)
        r -= fl
        suspects = np.flatnonzero((r <= margin) | (r >= 1.0 - margin))
        del r  # freed before the int64 floors are allocated
        floors = fl.astype(np.int64)
        for i in suspects.tolist():  # flat positions: ns may have any shape
            floors.flat[i] = self.floor_times(int(ns.flat[i]))
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
        return AlgebraicAlpha.sqrt(_parse_int(body, "sqrt spec"))
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
