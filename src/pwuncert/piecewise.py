"""Compactly supported piecewise polynomials on half-open rational intervals.

A function is a list of polynomial pieces over strictly increasing
breakpoints b_0 < b_1 < ... < b_n: piece i applies on [b_i, b_{i+1}).
Evaluation is half-open on the whole support [b_0, b_n): f(b_n) = 0, which
keeps point evaluation linear however the pieces are laid out.  Constructors
always canonicalize: identical adjacent pieces are merged and zero pieces at
either edge are trimmed, so structural equality of canonical forms is
function equality.

The four integrals behind every moment, int f^2, int x f^2, int x^2 f^2 and
int f'^2, are computed once per function (`square_moments`) by one exact
integer kernel, which also serves `moment`.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .poly import ZERO, Polynomial, RationalLike, rat, rat_str, shift_one


class SupportError(ValueError):
    """Raised for empty, degenerate or malformed piece layouts."""


class JumpDiscontinuityError(ValueError):
    """Raised when an operation requires continuity across interior knots."""


class FunctionClass(str, Enum):
    """Nested regularity classes, from bare support up to even bump."""

    NONE = "none"                  # has an interior jump
    F_SUPP = "F_supp"              # continuous inside its support
    F_PLUS_SUPP = "F_plus_supp"    # additionally nonnegative
    F_PLUS_ZERO = "F_plus_zero"    # additionally zero at both support ends
    P_PLUS_ZERO = "P_plus_zero"    # additionally even about the support midpoint


@dataclass(frozen=True)
class ClassTag:
    """Classification report: most specific class, decided exactly (no
    sampling), plus the raw knot evidence."""

    family: FunctionClass
    interior_jumps: tuple[Fraction, ...]
    boundary_values: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PiecewisePoly:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.pieces) + 1 or not self.pieces:
            raise SupportError("need n+1 breakpoints for n >= 1 pieces")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise SupportError("breakpoints must be strictly increasing")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_pieces(
        breakpoints: Iterable[RationalLike], pieces: Iterable[Polynomial]
    ) -> PiecewisePoly:
        """Build and canonicalize (merge equal neighbours, trim zero edges)."""
        bps = [rat(b) for b in breakpoints]
        ps = list(pieces)
        if len(bps) != len(ps) + 1:
            raise SupportError("need n+1 breakpoints for n pieces")
        # merge adjacent identical pieces
        merged_b = bps[:1]
        merged_p: list[Polynomial] = []
        for b, p in zip(bps[1:], ps):
            if merged_p and merged_p[-1] == p:
                merged_b[-1] = b
            else:
                merged_b.append(b)
                merged_p.append(p)
        # trim zero pieces at the edges
        while merged_p and merged_p[0].is_zero():
            merged_p.pop(0)
            merged_b.pop(0)
        while merged_p and merged_p[-1].is_zero():
            merged_p.pop()
            merged_b.pop()
        if not merged_p:
            return _ZERO_FN
        return PiecewisePoly(tuple(merged_b), tuple(merged_p))

    @staticmethod
    def single(lo: RationalLike, hi: RationalLike, piece: Polynomial) -> PiecewisePoly:
        return PiecewisePoly.from_pieces([lo, hi], [piece])

    @staticmethod
    def zero() -> PiecewisePoly:
        return _ZERO_FN

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0].is_zero()

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def intervals(self) -> list[tuple[Fraction, Fraction, Polynomial]]:
        return [
            (a, b, p)
            for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces)
        ]

    def _piece_at(self, x: Fraction) -> Polynomial:
        """Piece applying at x, ZERO outside the support [b_0, b_n)."""
        i = bisect_right(self.breakpoints, x) - 1
        return self.pieces[i] if 0 <= i < len(self.pieces) else ZERO

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        return self._piece_at(x)(x)

    @cached_property
    def knot_evidence(
        self,
    ) -> tuple[tuple[tuple[Fraction, Fraction], ...], tuple[Fraction, Fraction]]:
        """(jumps, boundary): (knot, right limit - left limit) at every
        discontinuous interior knot, and the one-sided values at b_0 and b_n.

        This is the finiteness evidence behind `classify`, `derivative` and
        the frequency variance; it is computed on first use and kept with
        the function, so each knot is evaluated once.
        """
        jumps = []
        for i in range(1, len(self.pieces)):
            knot = self.breakpoints[i]
            jump = self.pieces[i](knot) - self.pieces[i - 1](knot)
            if jump != 0:
                jumps.append((knot, jump))
        lo, hi = self.support
        return tuple(jumps), (self.pieces[0](lo), self.pieces[-1](hi))

    def knot_obstructions(self, tol: float = 0.0) -> tuple[bool, bool]:
        """(jump, edge): some interior jump, or some boundary value, exceeds
        tol in absolute value.  The one knot-tolerance rule: sigma_w2 is
        finite iff neither holds; `classify` gives NONE iff `jump` holds.
        The test is exact -- a Fraction compares with a float exactly -- so
        no value overflows, and none below the float range reads as zero.
        Every tolerance-taking entry point passes through here, so this is
        where a tolerance outside [0, inf) is refused."""
        if not 0 <= tol < math.inf:
            raise ValueError(f"class tolerance must be finite and >= 0, got {tol!r}")
        jumps, boundary = self.knot_evidence
        return (any(abs(j) > tol for _, j in jumps),
                any(abs(v) > tol for v in boundary))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: PiecewisePoly) -> PiecewisePoly:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = [self._piece_at(a) + other._piece_at(a) for a in bps[:-1]]
        return PiecewisePoly.from_pieces(bps, pieces)

    def __neg__(self) -> PiecewisePoly:
        return PiecewisePoly(self.breakpoints, tuple(-p for p in self.pieces))

    def __sub__(self, other: PiecewisePoly) -> PiecewisePoly:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO_FN
            return PiecewisePoly.from_pieces(
                self.breakpoints, [p * other for p in self.pieces]
            )
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        lo = max(self.support[0], other.support[0])
        hi = min(self.support[1], other.support[1])
        if not lo < hi:
            return _ZERO_FN
        cuts = sorted(
            {b for b in self.breakpoints if lo <= b <= hi}
            | {b for b in other.breakpoints if lo <= b <= hi}
            | {lo, hi}
        )
        pieces = [self._piece_at(a) * other._piece_at(a) for a in cuts[:-1]]
        return PiecewisePoly.from_pieces(cuts, pieces)

    __rmul__ = __mul__

    # -- calculus and transforms ------------------------------------------

    def affine(
        self, lam: RationalLike, gamma: RationalLike, tau: RationalLike
    ) -> PiecewisePoly:
        """g(x) = lam * f(gamma*x - tau) with gamma != 0, exactly."""
        lam, gamma, tau = rat(lam), rat(gamma), rat(tau)
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        if lam == 0:
            return _ZERO_FN
        new_b = [(b + tau) / gamma for b in self.breakpoints]
        new_p = [lam * p.compose_affine(gamma, -tau) for p in self.pieces]
        if gamma < 0:
            new_b.reverse()
            new_p.reverse()
        return PiecewisePoly.from_pieces(new_b, new_p)

    def translate(self, shift: RationalLike) -> PiecewisePoly:
        """f(x - shift)."""
        return self.affine(1, 1, rat(shift))

    def reflect(self, center: RationalLike) -> PiecewisePoly:
        """f(2c - x): mirror image about x = c."""
        return self.affine(1, -1, -2 * rat(center))

    def restrict(self, lo: RationalLike, hi: RationalLike) -> PiecewisePoly:
        """f * indicator([lo, hi))."""
        lo, hi = rat(lo), rat(hi)
        if not lo < hi:
            raise SupportError("empty restriction window")
        lo = max(lo, self.support[0])
        hi = min(hi, self.support[1])
        if not lo < hi:
            return _ZERO_FN
        cuts = sorted({b for b in self.breakpoints if lo <= b <= hi} | {lo, hi})
        pieces = [self._piece_at(a) for a in cuts[:-1]]
        return PiecewisePoly.from_pieces(cuts, pieces)

    def derivative(self) -> PiecewisePoly:
        """Piecewise derivative; refuses functions with interior jumps,
        where the distributional derivative would pick up delta terms."""
        jumps, _ = self.knot_evidence
        if jumps:
            knots = ", ".join(str(k) for k, _ in jumps)
            raise JumpDiscontinuityError(f"interior jump(s) at {knots}")
        return PiecewisePoly.from_pieces(
            self.breakpoints, [p.derivative() for p in self.pieces]
        )

    def moment(self, k: int, squared: bool = False) -> Fraction:
        """Exact integral of x^k * f(x) (or x^k * f(x)^2)."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        return _power_integrals(self.breakpoints, self.pieces, squared, (k,))[0]

    @cached_property
    def square_moments(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """(N, M1, M2, D): int f^2, int x f^2, int x^2 f^2 and int f'^2.

        f' is taken piece by piece (jumps contribute nothing).  Computed on
        first use and kept with the function, so each piece is squared once.
        """
        n, m1, m2 = _power_integrals(self.breakpoints, self.pieces, True, (0, 1, 2))
        derivs = [p.derivative() for p in self.pieces]
        (d,) = _power_integrals(self.breakpoints, derivs, True, (0,))
        return n, m1, m2, d

    # -- classification ---------------------------------------------------

    def _at_least(self, tol: float) -> bool:
        """f >= -tol, exactly: with x = a + t (b - a) and tol = tn / td, each
        piece's td * ints(t) + tn * den is >= 0 on [0, 1]."""
        tn, td = tol.as_integer_ratio()
        for a, b, p in self.intervals():
            ints, den = p.compose_affine(b - a, a).cleared
            q = [td * c for c in ints] or [0]
            q[0] += tn * den
            if not _nonneg_on_unit(q):
                return False
        return True

    def _even_about_midpoint(self, tol: float) -> bool:
        lo, hi = self.support
        mirrored = self.reflect((lo + hi) / 2)
        if tol == 0:
            return self == mirrored
        odd = self - mirrored
        return odd._at_least(tol) and (-odd)._at_least(tol)

    def classify(self, tol: float = 0.0) -> ClassTag:
        """Most specific class tag, decided exactly; `tol > 0` relaxes the
        jump, sign (f >= -tol), boundary-zero and evenness tests to that
        absolute tolerance (for printed-decimal roundoff in coefficients)."""
        jumps, boundary = self.knot_evidence
        tag = lambda family: ClassTag(family, tuple(k for k, _ in jumps), boundary)
        jump, edge = self.knot_obstructions(tol)
        if jump:
            return tag(FunctionClass.NONE)
        if not self._at_least(tol):
            return tag(FunctionClass.F_SUPP)
        if edge:
            return tag(FunctionClass.F_PLUS_SUPP)
        if not self._even_about_midpoint(tol):
            return tag(FunctionClass.F_PLUS_ZERO)
        return tag(FunctionClass.P_PLUS_ZERO)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [rat_str(b) for b in self.breakpoints],
            "pieces": [[rat_str(c) for c in p.coeffs] for p in self.pieces],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> PiecewisePoly:
        try:
            bps = obj["breakpoints"]
            pieces = obj["pieces"]
        except (KeyError, TypeError) as exc:
            raise SupportError(f"descriptor missing field: {exc}") from exc
        # a JSON string is iterable too, and would be read digit by digit
        if not (isinstance(bps, list) and isinstance(pieces, list)
                and all(isinstance(p, list) for p in pieces)
                and len(bps) == len(pieces) + 1):
            raise SupportError("descriptor breakpoints, pieces and each piece "
                               "must be lists, with one more breakpoint")
        return PiecewisePoly.from_pieces(bps, [Polynomial.of(p) for p in pieces])

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{a},{b}): {p!r}" for a, b, p in self.intervals()
        )
        return f"PiecewisePoly({parts})"


def _nonneg_on_unit(q: list[int]) -> bool:
    """Whether the integer polynomial q (low degree first) is >= 0 on [0, 1].

    Roots at t = 0 and 1 are divided out (t, 1 - t > 0 inside); then q(0)
    must be positive.  q >= 0 if its Bernstein coefficients are: up to positive
    binomials, the coefficients of rev(q)(s + 1).  Else q >= 0 iff no root in
    (0, 1) has odd multiplicity.  With g_0 = q and g_(k+1) = gcd(g_k, g_k'),
    the last member of g_k's Sturm chain, D(g_k) = V(0) - V(1) counts the
    roots of multiplicity > k, so D(g_0) - D(g_1) + ... counts the odd ones.
    """
    while len(q) > 1 and not q[0]:
        q = q[1:]  # q / t
    while len(q) > 1 and not sum(q):
        q = list(accumulate(q))[:-1]  # q / (1 - t)
    if q[0] < 0:
        return False
    if min(shift_one(q[::-1])) >= 0:
        return True
    odd, sign = 0, 1
    while len(q) > 1:
        chain = [q, [k * c for k, c in enumerate(q) if k]]
        while len(chain[-1]) > 1 and (r := _remainder(*chain[-2:])):
            chain.append([-c for c in r])
        for value, weight in ((lambda g: g[0], sign), (sum, -sign)):
            signs = [v > 0 for v in map(value, chain) if v]  # V(0), then V(1)
            odd += weight * sum(x != y for x, y in zip(signs, signs[1:]))
        sign, q = -sign, chain[-1]
    return odd == 0


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b, over the gcd of its coefficients."""
    m, s = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        top, shift = a[-1] * s, len(a) - len(b)  # m * a - top * x^shift * b
        a = [m * c - (top * b[i - shift] if i >= shift else 0)
             for i, c in enumerate(a[:-1])]
        while a and not a[-1]:
            a.pop()
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _cleared(p: Polynomial, squared: bool) -> tuple[Sequence[int], int]:
    """Integer coefficients c and denominator q with p (or p^2) = c / q; the
    square adds a_i^2 at 2i and 2 a_i a_j once for each pair i < j."""
    ints, den = p.cleared
    if not squared:
        return ints, den
    n = len(ints)
    sq = [0] * (2 * n - 1)
    for i, a in enumerate(ints):
        if a:
            sq[2 * i] += a * a
            a2 = a << 1
            for j in range(i + 1, n):
                sq[i + j] += a2 * ints[j]
    return sq, den * den


def _power_integrals(
    breakpoints: Sequence[Fraction],
    pieces: Sequence[Polynomial],
    squared: bool,
    orders: Sequence[int],
) -> list[Fraction]:
    """Sum over pieces of int_{b_i}^{b_(i+1)} x^k q_i(x) dx, for each k in
    `orders`, where q_i is piece i (or its square).

    Pieces are cleared to integers over their own denominators, breakpoints
    to integers B_i over their common denominator E.  With t = j + k + 1 the
    term of coefficient j is (B_(i+1)^t - B_i^t) / (t E^t); over the shared
    denominator L * E^top, L = lcm(1..top), every term is an integer, so each
    integral ends in a single Fraction.
    """
    cleared = [_cleared(p, squared) for p in pieces]
    top = max(len(c) for c, _ in cleared) + max(orders)
    big_l = math.lcm(*range(1, top + 1))
    e = math.lcm(*(b.denominator for b in breakpoints))
    q = math.lcm(*(den for _, den in cleared))
    e_pow = [1] * (top + 1)
    for t in range(1, top + 1):
        e_pow[t] = e_pow[t - 1] * e
    powers = []  # B_i^t for t = 0..top, shared by the pieces meeting at b_i
    for b in breakpoints:
        big_b = b.numerator * (e // b.denominator)
        ps = [1] * (top + 1)
        for t in range(1, top + 1):
            ps[t] = ps[t - 1] * big_b
        powers.append(ps)
    sums = [0] * len(orders)
    for (coeffs, den), pa, pb in zip(cleared, powers, powers[1:]):
        scale = q // den
        for i, k in enumerate(orders):
            s = 0
            for t, c in enumerate(coeffs, start=k + 1):
                if c:
                    s += c * (big_l // t) * (pb[t] - pa[t]) * e_pow[top - t]
            sums[i] += s * scale
    return [Fraction(s, q * big_l * e_pow[top]) for s in sums]


# Canonical zero function: single zero piece on [0, 1).
_ZERO_FN = PiecewisePoly((Fraction(0), Fraction(1)), (ZERO,))


def tent() -> PiecewisePoly:
    """The unit tent 1 - |x| on [-1, 1]."""
    return PiecewisePoly.from_pieces(
        [-1, 0, 1], [Polynomial.of([1, 1]), Polynomial.of([1, -1])]
    )
