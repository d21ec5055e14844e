"""Dense univariate polynomials over the rationals.

Coefficients are stored low degree first as `fractions.Fraction`, with no
trailing zeros, so two equal polynomials are structurally equal.  All
operations are exact; arbitrary-precision integers back the rationals, which
matters once degrees reach ~130 (squares of high-order spline pieces).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and decimal/ratio strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
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

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int x, float/complex pass through."""
        acc = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        """Exact composition p(scale*x + offset): q = p(x + offset), then
        coefficient k of q times scale**k (scale 0 leaves the constant p(offset))."""
        s = rat(scale)
        shifted = self.taylor_shift(offset)
        if s == 1:
            return shifted
        return Polynomial.of(c * s**k for k, c in enumerate(shifted.coeffs))

    def taylor_shift(self, offset: RationalLike) -> Polynomial:
        """p(x + offset) by binomial convolution over cleared denominators.

        The one change-of-variable kernel (compose_affine builds on it); it
        runs on plain integers, which matters for the degree-63 pieces in the
        spline recursion.
        """
        r = rat(offset)
        if r == 0 or self.is_zero():
            return self
        d = self.degree
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        rn, rd = r.numerator, r.denominator
        # powers rn^i and rd^i for i in 0..d
        pn = [1] * (d + 1)
        pd = [1] * (d + 1)
        for i in range(1, d + 1):
            pn[i] = pn[i - 1] * rn
            pd[i] = pd[i - 1] * rd
        out = []
        for m in range(d + 1):
            s = 0
            for k in range(m, d + 1):
                s += math.comb(k, m) * ints[k] * pn[k - m] * pd[d - k]
            # q_m = s / (den * rd^(d - m))
            out.append(Fraction(s, den * pd[d - m]))
        return Polynomial.of(out)

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

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(items: Iterable[str]) -> Polynomial:
        return Polynomial.of(items)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        return "Polynomial([" + ", ".join(self.to_strings()) + "])"


ZERO = Polynomial(())
ONE = Polynomial.of([1])
X = Polynomial.of([0, 1])
