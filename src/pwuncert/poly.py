"""Dense univariate polynomials over the rationals.

Coefficients are stored low degree first as `fractions.Fraction`, with no
trailing zeros, so two equal polynomials are structurally equal.  All
operations are exact; arbitrary-precision integers back the rationals, which
matters once degrees reach ~130 (squares of high-order spline pieces).

Each polynomial also has one integer-cleared form, `cleared = (ints, den)`
with p = ints / den.  The exact kernels run on it: point evaluation at a
rational (homogenised Horner; a float argument raises `TypeError`) and the
one change-of-variable kernel `compose_affine` (an additive Taylor shift:
integer additions only) work on plain integers and build a single Fraction
per result value, with no gcd inside the loops.  The form costs O(degree)
to build and is built per call, not kept: a per-instance cache adds a dict
and two tuples to every polynomial ever evaluated, and in workloads that
hold many small functions that extra garbage-collector work cost more than
the cache saved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

# "1e1000000000" would build 10**(10**9).  4300 is CPython's default integer
# digit limit (sys.get_int_max_str_digits is missing before 3.10.7).
MAX_DECIMAL_EXPONENT = 4300


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and decimal/ratio strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, str) and "e" in value.lower():
        exp = value.lower().partition("e")[2].replace("_", "").strip().lstrip("+-0")
        if exp.isdecimal() and int(exp[:5]) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: "
                             f"{value!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as 'num' or 'num/den'; Fraction() parses it back."""
    return str(value)


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; `coeffs[k]` multiplies x**k."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients must not end in zero; use Polynomial.of()")
        for c in self.coeffs:
            if not isinstance(c, Fraction):
                raise TypeError("coefficients must be Fractions; use Polynomial.of()")

    @staticmethod
    def of(coeffs: Iterable[RationalLike]) -> Polynomial:
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def cleared(self) -> tuple[tuple[int, ...], int]:
        """(ints, den) with p = ints / den: den is the lcm of the coefficient
        denominators, so ints are the smallest such integers."""
        pairs = [c.as_integer_ratio() for c in self.coeffs]
        den = math.lcm(*[d for _, d in pairs])
        return tuple([n * (den // d) for n, d in pairs]), den

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational x; a float raises TypeError.

        At x = n/d the cleared form is evaluated homogenised, on integers:
        acc = sum_k ints_k n^k d^(deg-k), and p(x) = acc / (den d^deg).
        """
        x = rat(x)
        ints, den = self.cleared
        if not ints:
            return Fraction(0)
        n, d = x.numerator, x.denominator
        acc, dj = ints[-1], 1
        for c in reversed(ints[:-1]):
            dj *= d
            acc = acc * n + c * dj
        return Fraction(acc, den * dj)

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.of(out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial(())
            if other == 1:
                return self
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial.of(out)

    __rmul__ = __mul__

    def compose_affine(self, scale: RationalLike, offset: RationalLike) -> Polynomial:
        """Exact composition p(scale*x + offset); the one change-of-variable kernel.

        The additive Taylor shift of von zur Gathen and Gerhard (ISSAC 1997).
        Write p = ints / den with degree d, and offset r = rn/rd.  Then
        p(r*y) = P(y) / (den rd^d), where P has the integer coefficients
        b_k = ints_k rn^k rd^(d-k).  P(y + 1) takes integer additions only,
        and p(x + r) = P(x/r + 1) / (den rd^d), so coefficient m of p(x + r)
        is c_m / (rn^m den rd^(d-m)), with c_m coefficient m of P(y + 1); c_m
        is exactly divisible by rn^m, because every b_k with k >= m is.  The
        scale s = sn/sd then multiplies coefficient m by (sn/sd)^m.  Offset 0
        skips the shift (rn := 1).  Each output coefficient is one Fraction;
        scale 0 leaves the constant p(offset).
        """
        s, r = rat(scale), rat(offset)
        if self.is_zero() or (s == 1 and r == 0):
            return self
        b, den = self.cleared
        d = self.degree
        rn, rd = r.numerator or 1, r.denominator
        if r:
            b = shift_one([c * rn**k * rd**(d - k) for k, c in enumerate(b)])
        sn, sd = s.numerator, s.denominator
        return Polynomial.of(
            Fraction(sn**m * (c // rn**m), den * sd**m * rd**(d - m))
            for m, c in enumerate(b)
        )

    def taylor_shift(self, offset: RationalLike) -> Polynomial:
        """p(x + offset), that is compose_affine(1, offset)."""
        return self.compose_affine(1, offset)

    def derivative(self) -> Polynomial:
        return Polynomial.of(k * c for k, c in enumerate(self.coeffs) if k)

    def antiderivative(self) -> Polynomial:
        """The antiderivative with zero constant term."""
        return Polynomial.of(
            [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        )

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact definite integral over [a, b]; requires a <= b."""
        lo, hi = rat(a), rat(b)
        if lo > hi:
            raise ValueError(f"reversed interval [{lo}, {hi}]")
        anti = self.antiderivative()
        return anti(hi) - anti(lo)

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        acc = Polynomial.of([1])
        for _ in range(n):
            acc = acc * self
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        return "Polynomial([" + ", ".join(map(rat_str, self.coeffs)) + "])"


def shift_one(b: list[int]) -> list[int]:
    """b(y + 1) in place, low degree first, by integer additions only."""
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += b[j + 1]
    return b


ZERO = Polynomial(())
ONE = Polynomial.of([1])
X = Polynomial.of([0, 1])
