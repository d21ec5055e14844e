"""The boxcar self-convolution family rect^p (cardinal B-splines).

rect^1 is the indicator of [-1/2, 1/2]; rect^p = rect^(p-1) * rect^1 is
supported on [-p/2, p/2] with knots at j - p/2 and polynomial degree p - 1.
Two constructions that share no change-of-variable kernel must agree exactly:

* `rect_p_explicit`: the truncated-power formula, kept on integers as
      (p-1)! 2^(p-1) rect^p(x) = sum_{i<=j} (-1)^i C(p,i) (2x + p - 2i)^(p-1)
  on piece j, [j - p/2, j + 1 - p/2);
* `rect_p_recursive`: the sliding-window integral
      rect^p(x) = int_{x-1/2}^{x+1/2} rect^(p-1)(s) ds,
  the running antiderivative of rect^(p-1)(x + 1/2) - rect^(p-1)(x - 1/2),
  also kept on integers: the half steps are `poly.shift_one` Taylor shifts
  in y = 2x.  The window shares that kernel with `poly`, never with the
  explicit formula, which takes no shift and no `compose_affine`.

With u_p = int x^2 |rect^p|^2 / int |rect^p|^2 and nu_p = ||(rect^p)'||^2 /
||rect^p||^2 (the frequency variance of the sinc^p transform), the product
U(p) = u_p * nu_p decreases strictly toward the Gaussian floor 1/4 and
U(2) = 3/10, U(3) = 215/847 exactly.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .moments import ExtReal, report
from .piecewise import PiecewisePoly
from .poly import Polynomial, shift_one


@lru_cache(maxsize=None)
def rect_p_explicit(p: int) -> PiecewisePoly:
    """Truncated-power construction, canonicalized.  acc holds the integer
    coefficients of (p-1)! 2^(p-1) rect^p; term i adds, at x^k,
    (-1)^i C(p,i) C(p-1,k) s^(p-1-k) 2^k with s = p - 2i."""
    if p < 1:
        raise ValueError("p must be >= 1")
    knots = [Fraction(2 * j - p, 2) for j in range(p + 1)]
    den = math.factorial(p - 1) << (p - 1)
    acc = [0] * p
    pieces = []
    for i in range(p):
        shift = p - 2 * i
        power = (-1) ** i * math.comb(p, i)
        for k in range(p - 1, -1, -1):
            acc[k] += math.comb(p - 1, k) * power << k
            power *= shift
        pieces.append(Polynomial.of([Fraction(a, den) for a in acc]))
    return PiecewisePoly.from_pieces(knots, pieces)


def _window_integral(f: PiecewisePoly) -> PiecewisePoly:
    """g(x) = int_{x-1/2}^{x+1/2} f(s) ds for compactly supported f: g
    vanishes left of lo - 1/2 and g' = f(x + 1/2) - f(x - 1/2), so g is the
    running antiderivative of that difference over the cuts b +- 1/2.

    All on integers, in y = 2x, where a half step is a unit step.  With f's
    pieces over one denominator D and n = degree + 1 coefficients,
    Q_i(y) = 2^(n-1) D f_i(y/2) is an integer polynomial and
    f_i(x +- 1/2) = Q_i(y +- 1) / (2^(n-1) D), one `shift_one` each (the
    minus shift between two sign flips of the odd coefficients).  On each
    cut interval the difference h integrates to G(2x) / (2^n D L),
    L = lcm(1..n), where G has the integer L h_k / (k+1) at y^(k+1).  The
    constant follows by continuity: at the cuts y = N / E (E the common
    denominator) the running value of g is the integer W = g 2^n D L E^n.
    """
    cleared = [p.cleared for p in f.pieces]
    n = max(len(ints) for ints, _ in cleared) or 1
    den = math.lcm(*(q for _, q in cleared))
    flip = lambda b: [-c if k & 1 else c for k, c in enumerate(b)]
    qs = [[c * (den // q) << (n - 1 - k) for k, c in enumerate(ints)]
          + [0] * (n - len(ints)) for ints, q in cleared]
    pad = [[0] * n]
    plus = pad + [shift_one(list(b)) for b in qs] + pad
    minus = pad + [flip(shift_one(flip(b))) for b in qs] + pad
    knots = [2 * b for b in f.breakpoints]
    cuts = sorted({b + s for b in knots for s in (-1, 1)})
    e = math.lcm(*(y.denominator for y in cuts))
    big_l = math.lcm(*range(1, n + 1))
    lk = [big_l // k for k in range(1, n + 1)]
    dens = [big_l * den << (n - m) for m in range(n + 1)]  # of x^m in g
    dens[0] *= e**n

    def at(g: list[int], y: Fraction) -> int:  # E^n G(y), homogenised Horner
        num, acc, ej = y.numerator * (e // y.denominator), 0, 1
        for c in reversed(g):
            acc = acc * num + c * ej
            ej *= e
        return acc * num

    w, pieces = 0, []
    for lo, hi in zip(cuts, cuts[1:]):
        a, b = plus[bisect_right(knots, lo + 1)], minus[bisect_right(knots, lo - 1)]
        g = [(x - y) * l for x, y, l in zip(a, b, lk)]  # G's coefficients at y^1..y^n
        g_lo = at(g, lo)
        pieces.append(Polynomial.of(map(Fraction, [w - g_lo, *g], dens)))
        w += at(g, hi) - g_lo
    return PiecewisePoly.from_pieces([y / 2 for y in cuts], pieces)


@lru_cache(maxsize=None)
def rect_p_recursive(p: int) -> PiecewisePoly:
    """Iterated sliding-window construction starting from the boxcar."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return rect_p_explicit(1)
    return _window_integral(rect_p_recursive(p - 1))


@dataclass(frozen=True)
class ScanRow:
    p: int
    u_p: Fraction
    nu_p: ExtReal
    uncertainty: ExtReal


def scan_row(p: int) -> ScanRow:
    """Exact u_p, nu_p and their product for one member (p >= 2 finite).

    rect^p is even, so its barycenter is 0 and u_p is its sigma_x2.
    """
    rep = report(rect_p_explicit(p), classify=False)
    return ScanRow(p, rep.sigma_x2, rep.sigma_w2, rep.uncertainty)


@lru_cache(maxsize=8)
def rect_scan(p_min: int = 2, p_max: int = 64) -> tuple[ScanRow, ...]:
    """Exact rows for p_min..p_max; p_min >= 2 keeps every row finite."""
    if p_min < 2:
        raise ValueError("scan starts at p = 2; the boxcar has infinite nu_p")
    if p_max < p_min:
        raise ValueError("p_max must be >= p_min")
    return tuple(scan_row(p) for p in range(p_min, p_max + 1))


@dataclass(frozen=True)
class LimitReport:
    p_max: int
    strictly_decreasing: bool
    all_above_quarter: bool
    gap_product_bounded: bool
    gap_at_8: Fraction
    gap_at_p_max: Fraction
    ok: bool


def limit_check(p_max: int = 64) -> LimitReport:
    """Monotone approach to the 1/4 floor with a 1/p-rate certificate.

    Checks, on exact rationals: U(p) strictly decreasing on [2, p_max];
    U(p) > 1/4 throughout; and the scaled gap (U(p) - 1/4) * p on [8, p_max]
    never exceeds twice its value at p = 8.
    """
    if p_max < 8:
        raise ValueError("limit check needs p_max >= 8")
    rows = rect_scan(2, p_max)
    qs = [r.uncertainty for r in rows]
    quarter = Fraction(1, 4)
    decreasing = all(a > b for a, b in zip(qs, qs[1:]))
    above = all(q > quarter for q in qs)
    gaps = {r.p: (r.uncertainty - quarter) * r.p for r in rows}
    bound = 2 * gaps[8]
    bounded = all(gaps[p] <= bound for p in range(8, p_max + 1))
    return LimitReport(
        p_max,
        decreasing,
        above,
        bounded,
        gaps[8],
        gaps[p_max],
        decreasing and above and bounded,
    )
