import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwuncert.bspline import (
    _window_integral,
    limit_check,
    rect_p_explicit,
    rect_p_recursive,
    rect_scan,
    scan_row,
)
from pwuncert.moments import report
from pwuncert.piecewise import PiecewisePoly, tent
from pwuncert.poly import Polynomial

HALF = Fraction(1, 2)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def piecewise_functions(draw):
    """Small random piecewise polynomials of degree <= 4 (possibly
    discontinuous or negative)."""
    n_pieces = draw(st.integers(1, 3))
    bps = sorted(draw(st.sets(rationals, min_size=n_pieces + 1,
                              max_size=n_pieces + 1)))
    pieces = [
        Polynomial.of(draw(st.lists(rationals, max_size=5)))
        for _ in range(n_pieces)
    ]
    return PiecewisePoly.from_pieces(bps, pieces)


def reference_explicit(p):
    """The truncated-power construction by Fraction arithmetic: each knot
    adds (-1)^j C(p,j)/(p-1)! (x - knot_j)^(p-1) to the running sum."""
    knots = [Fraction(2 * j - p, 2) for j in range(p + 1)]
    fact = math.factorial(p - 1)
    acc = [Fraction(0)] * p
    pieces = []
    for j in range(p):
        c = Fraction((-1) ** j * math.comb(p, j), fact)
        shift = -knots[j]
        power = Fraction(1)
        for k in range(p - 1, -1, -1):
            acc[k] += c * math.comb(p - 1, k) * power
            power *= shift
        pieces.append(Polynomial.of(list(acc)))
    return PiecewisePoly.from_pieces(knots, pieces)


def reference_window(f):
    """The sliding window by PiecewisePoly algebra: the running
    antiderivative of f(x + 1/2) - f(x - 1/2), piece by piece."""
    value = Fraction(0)
    anti = []
    diff = f.translate(-HALF) - f.translate(HALF)
    for a, b, piece in diff.intervals():
        ap = piece.antiderivative()
        anti.append(ap + Polynomial.of([value - ap(a)]))
        value += ap(b) - ap(a)
    return PiecewisePoly.from_pieces(diff.breakpoints, anti)


class TestConstruction:
    def test_rect_1_is_the_unit_boxcar(self):
        f = rect_p_explicit(1)
        assert f.support == (Fraction(-1, 2), Fraction(1, 2))
        assert f(0) == 1
        assert f.moment(0) == 1

    def test_rect_2_is_the_tent(self):
        assert rect_p_explicit(2) == tent()

    @pytest.mark.parametrize("p", [*range(1, 11), 64])
    def test_explicit_equals_recursive(self, p):
        assert rect_p_explicit(p) == rect_p_recursive(p)

    @example(1)
    @example(2)
    @example(40)
    @given(st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_explicit_matches_fraction_construction(self, p):
        assert rect_p_explicit(p) == reference_explicit(p)

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_support_and_smoothness(self, p):
        f = rect_p_explicit(p)
        assert f.support == (Fraction(-p, 2), Fraction(p, 2))
        assert f.knot_evidence == ((), (Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("p", [3, 4])
    def test_integer_translates_partition_unity(self, p):
        f = rect_p_explicit(p)
        for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 5)):
            total = sum(f(x - k) for k in range(-p, p + 1))
            assert total == 1

    def test_unit_mass(self):
        assert rect_p_explicit(6).moment(0) == 1

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            rect_p_explicit(0)
        with pytest.raises(ValueError):
            rect_p_recursive(0)


class TestWindow:
    @example(PiecewisePoly.zero())
    @given(piecewise_functions())
    @settings(max_examples=50, deadline=None)
    def test_window_integral_matches_algebra_reference(self, f):
        assert _window_integral(f) == reference_window(f)

    @given(piecewise_functions(), rationals)
    @settings(max_examples=60, deadline=None)
    def test_window_integral_matches_restricted_mass(self, f, x):
        # the reference integrates through the moment kernel, not a shift
        g = _window_integral(f)
        knots = {b + s for b in f.breakpoints for s in (-HALF, HALF)}
        for y in {x} | knots:
            assert g(y) == f.restrict(y - HALF, y + HALF).moment(0)


class TestScan:
    def test_known_rows(self):
        r2 = scan_row(2)
        assert (r2.u_p, r2.nu_p, r2.uncertainty) == (
            Fraction(1, 10), Fraction(3), Fraction(3, 10))
        r3 = scan_row(3)
        assert (r3.u_p, r3.nu_p, r3.uncertainty) == (
            Fraction(43, 308), Fraction(20, 11), Fraction(215, 847))

    @pytest.mark.parametrize("p", range(2, 7))
    def test_scan_matches_moments_pipeline(self, p):
        r = scan_row(p)
        rep = report(rect_p_explicit(p), classify=False)
        assert rep.alpha == 0
        assert r.u_p == rep.sigma_x2
        assert r.nu_p == rep.sigma_w2
        assert r.uncertainty == rep.uncertainty
        assert float(r.uncertainty) == float(rep.uncertainty)

    def test_scan_range_and_order(self):
        rows = rect_scan(2, 8)
        assert [r.p for r in rows] == list(range(2, 9))

    def test_limit_report(self):
        rep = limit_check(16)
        assert rep.strictly_decreasing
        assert rep.all_above_quarter
        assert rep.gap_at_8 > 0
        assert rep.gap_at_p_max > 0
        assert rep.gap_product_bounded
        assert rep.ok
