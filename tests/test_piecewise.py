import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwuncert.bspline import rect_p_explicit
from pwuncert.moments import is_finite, report, sigma_w2
from pwuncert.piecewise import (
    FunctionClass,
    JumpDiscontinuityError,
    PiecewisePoly,
    SupportError,
    _cleared,
    _nonneg_on_unit,
    tent,
)
from pwuncert.poly import Polynomial
from pwuncert.symmetry import asymmetric_cubic, theorem_bound_check

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def piecewise_functions(draw):
    """Small random piecewise polynomials (possibly discontinuous)."""
    n_pieces = draw(st.integers(1, 3))
    bps = sorted(draw(st.sets(rationals, min_size=n_pieces + 1,
                              max_size=n_pieces + 1)))
    pieces = [
        Polynomial.of(draw(st.lists(rationals, max_size=3)))
        for _ in range(n_pieces)
    ]
    return PiecewisePoly.from_pieces(bps, pieces)


class TestConstruction:
    def test_tent_layout(self):
        f = tent()
        assert f.support == (Fraction(-1), Fraction(1))
        assert len(f.pieces) == 2

    def test_merges_identical_adjacent_pieces(self):
        p = Polynomial.of([1, 1])
        f = PiecewisePoly.from_pieces([0, 1, 2], [p, p])
        assert len(f.pieces) == 1
        assert f.support == (Fraction(0), Fraction(2))

    def test_trims_zero_edges(self):
        p = Polynomial.of([1])
        f = PiecewisePoly.from_pieces(
            [-2, -1, 1, 2], [Polynomial.of([]), p, Polynomial.of([])]
        )
        assert f.support == (Fraction(-1), Fraction(1))

    def test_all_zero_collapses_to_canonical_zero(self):
        f = PiecewisePoly.from_pieces([0, 5], [Polynomial.of([])])
        assert f.is_zero()
        assert f == PiecewisePoly.zero()

    def test_rejects_bad_layouts(self):
        with pytest.raises(SupportError):
            PiecewisePoly.from_pieces([0, 1], [Polynomial.of([1]), Polynomial.of([2])])
        with pytest.raises(SupportError):
            PiecewisePoly.from_pieces([1, 0], [Polynomial.of([1])])

    def test_hashable_and_structurally_equal(self):
        assert len({tent(), tent()}) == 1


class TestEvaluation:
    def test_tent_values(self):
        f = tent()
        assert f(Fraction(-1, 2)) == Fraction(1, 2)
        assert f(0) == 1
        assert f("3/4") == Fraction(1, 4)

    def test_outside_support_is_zero(self):
        f = tent()
        assert f(2) == 0
        assert f(-100) == 0

    def test_final_breakpoint_takes_last_piece(self):
        f = tent()
        assert f(1) == 0
        step = PiecewisePoly.from_pieces(
            [0, 1, 2], [Polynomial.of([1]), Polynomial.of([5])]
        )
        assert step(1) == 5   # interior knots belong to the right piece
        assert step(2) == 0   # pieces are half-open, the support end included

    def test_boundary_values_and_interior_jumps(self):
        step = PiecewisePoly.from_pieces(
            [0, 1, 2], [Polynomial.of([1]), Polynomial.of([5])]
        )
        assert tent().knot_evidence == ((), (Fraction(0), Fraction(0)))
        # one immutable record, kept with the function
        assert step.knot_evidence == (((Fraction(1), Fraction(4)),),
                                      (Fraction(1), Fraction(5)))
        assert step.knot_evidence is step.knot_evidence


class TestAlgebra:
    @given(piecewise_functions(), piecewise_functions(), rationals)
    @settings(max_examples=60, deadline=None)
    def test_add_sub_match_pointwise(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)
        assert (f - g)(x) == f(x) - g(x)
        assert (-f)(x) == -f(x)

    @given(piecewise_functions(), piecewise_functions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_sub_match_pointwise_at_knots(self, f, g, data):
        knots = sorted(set(f.breakpoints) | set(g.breakpoints))
        x = data.draw(st.sampled_from(knots))
        assert (f + g)(x) == f(x) + g(x)
        assert (f - g)(x) == f(x) - g(x)

    @given(piecewise_functions(), piecewise_functions(), rationals)
    @settings(max_examples=60, deadline=None)
    def test_product_matches_pointwise_inside_supports(self, f, g, x):
        h = f * g
        lo_f, hi_f = f.support
        lo_g, hi_g = g.support
        # the product is truncated to the support intersection, where the
        # half-open piece convention makes it pointwise exact
        if max(lo_f, lo_g) <= x < min(hi_f, hi_g):
            assert h(x) == f(x) * g(x)

    def test_scalar_multiplication(self):
        f = tent() * Fraction(3, 2)
        assert f(0) == Fraction(3, 2)
        assert (tent() * 0).is_zero()
        assert (2 * tent())(0) == 2


class TestTransforms:
    def test_affine_matches_pointwise(self):
        f = tent().affine(2, 3, 1)  # 2 * tent(3x - 1)
        for x in (Fraction(1, 3), Fraction(1, 2), Fraction(0)):
            assert f(x) == 2 * tent()(3 * x - 1)

    def test_affine_negative_gamma_reverses(self):
        f = tent().affine(1, -2, "1/2")  # tent(-2x - 1/2)
        for x in (Fraction(-3, 4), Fraction(0), Fraction(1, 4)):
            assert f(x) == tent()(-2 * x - Fraction(1, 2))

    def test_affine_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            tent().affine(1, 0, 0)

    def test_affine_zero_lam_gives_zero(self):
        assert tent().affine(0, 1, 0).is_zero()

    def test_translate_and_reflect(self):
        g = tent().translate(5)
        assert g.support == (Fraction(4), Fraction(6))
        assert g(Fraction(9, 2)) == Fraction(1, 2)
        r = g.reflect(0)
        assert r.support == (Fraction(-6), Fraction(-4))
        assert r.reflect(0) == g

    def test_restrict_clips_and_zero_extends(self):
        f = tent().restrict("-1/2", 5)
        assert f.support == (Fraction(-1, 2), Fraction(1))
        assert f(Fraction(-3, 4)) == 0
        assert f(Fraction(1, 2)) == Fraction(1, 2)

    @given(piecewise_functions(), st.sets(rationals, min_size=2, max_size=2),
           rationals)
    @settings(max_examples=60, deadline=None)
    def test_restrict_matches_pointwise(self, f, window, x):
        lo, hi = sorted(window)
        r = f.restrict(lo, hi)
        for y in {x, lo, hi, *f.breakpoints}:
            assert r(y) == (f(y) if lo <= y < hi else 0)

    def test_restrict_empty_overlap_gives_zero(self):
        assert tent().restrict(3, 4).is_zero()

    def test_restrict_rejects_empty_window(self):
        with pytest.raises(SupportError):
            tent().restrict(1, 1)


class TestCalculus:
    def test_tent_derivative(self):
        d = tent().derivative()
        assert d(Fraction(-1, 2)) == 1
        assert d(Fraction(1, 2)) == -1

    def test_derivative_rejects_interior_jumps(self):
        step = PiecewisePoly.from_pieces(
            [0, 1, 2], [Polynomial.of([1]), Polynomial.of([5])]
        )
        with pytest.raises(JumpDiscontinuityError):
            step.derivative()

    def test_boundary_jumps_do_not_block_derivative(self, boxcar):
        # boundary deltas are the frequency layer's concern, not this one's
        assert boxcar.derivative().is_zero()

    def test_tent_moments(self):
        f = tent()
        assert f.moment(0) == 1
        assert f.moment(0, squared=True) == Fraction(2, 3)
        assert f.moment(1, squared=True) == 0
        assert f.moment(2, squared=True) == Fraction(1, 15)

    def test_moment_rejects_negative_order(self):
        with pytest.raises(ValueError):
            tent().moment(-1)

    @given(piecewise_functions())
    @settings(max_examples=40, deadline=None)
    def test_squared_moments_are_nonnegative(self, f):
        assert f.moment(0, squared=True) >= 0
        assert f.moment(2, squared=True) >= 0


class TestSquaring:
    @example(rect_p_explicit(20).pieces[10])
    @given(st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=21)
           .map(Polynomial.of))
    @settings(max_examples=80, deadline=None)
    def test_cleared_square_matches_product(self, p):
        sq, den = _cleared(p, squared=True)
        assert [Fraction(c, den) for c in sq] == list((p * p).coeffs)


class TestClassification:
    def test_nested_families(self, boxcar):
        assert tent().classify().family == FunctionClass.P_PLUS_ZERO
        assert boxcar.classify().family == FunctionClass.F_PLUS_SUPP
        skew = PiecewisePoly.single(0, 1, Polynomial.of([0, 0, 1, -1]))
        assert skew.classify().family == FunctionClass.F_PLUS_ZERO
        signed = PiecewisePoly.single(-1, 1, Polynomial.of([0, 1]))
        assert signed.classify().family == FunctionClass.F_SUPP
        step = PiecewisePoly.from_pieces(
            [0, 1, 2], [Polynomial.of([1]), Polynomial.of([2])]
        )
        assert step.classify().family == FunctionClass.NONE

    def test_tolerance_admits_decimal_roundoff(self, cubic):
        assert cubic.classify().family == FunctionClass.F_SUPP
        assert cubic.classify(1e-9).family == FunctionClass.F_PLUS_ZERO
        # f(1) = -1e-10 exactly: an edge obstruction at tol 0, none at 1e-10
        assert cubic.knot_obstructions(0.0) == (False, True)
        assert cubic.knot_obstructions(1e-10) == (False, False)

    def test_knot_rule_beyond_float_range(self):
        huge = PiecewisePoly.single(0, 1, Polynomial.of(["1e400"]))
        tiny = PiecewisePoly.single(0, 1, Polynomial.of(["1e-400"]))
        step = PiecewisePoly.from_pieces(
            [0, 1, 2], [Polynomial.of(["1e-400"]), Polynomial.of(["-1e400"])])
        for tol in (0.0, 1e-10):
            assert huge.knot_obstructions(tol) == (False, True)
            assert step.knot_obstructions(tol) == (True, True)
            assert huge.classify(tol).family == FunctionClass.F_PLUS_SUPP
            assert (-huge).classify(tol).family == FunctionClass.F_SUPP
        # below the float range is still nonzero at tol 0
        assert tiny.knot_obstructions(0.0) == (False, True)
        assert not is_finite(sigma_w2(tiny))
        assert tiny.knot_obstructions(1e-10) == (False, False)

    def test_sign_below_float_range(self):
        # -1e-400 rounds to -0.0, but the exact sign test sees it
        tiny = PiecewisePoly.single(0, 1, Polynomial.of(["-1e-400"]))
        assert tiny.classify().family == FunctionClass.F_SUPP
        assert tiny.classify(1e-10).family == FunctionClass.P_PLUS_ZERO
        assert (-tiny).classify().family == FunctionClass.F_PLUS_SUPP
        # skew c x (1 - x) peaks at c/4 = tol + 1e-400, which rounds to tol
        tol = 1e-10
        c = 4 * (Fraction(tol) + Fraction(1, 10**400))
        skew = tent() + PiecewisePoly.single(0, 1, Polynomial.of([0, c, -c]))
        assert skew.classify(tol).family == FunctionClass.F_PLUS_ZERO
        assert skew.classify(2 * tol).family == FunctionClass.P_PLUS_ZERO

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
    def test_tolerance_outside_zero_to_inf_refused(self, cubic, tol):
        entry_points = (lambda: cubic.classify(tol),
                        lambda: report(cubic, class_tol=tol),
                        lambda: sigma_w2(cubic, tol),
                        lambda: theorem_bound_check(cubic, class_tol=tol))
        for call in entry_points:
            with pytest.raises(ValueError, match=r"^class tolerance must be "
                                                 r"finite and >= 0, got "):
                call()
        assert tent().classify(-0.0).family == FunctionClass.P_PLUS_ZERO

    @example(asymmetric_cubic(), 1, 0.0)
    @example(asymmetric_cubic(), 1, 1e-10)
    @given(piecewise_functions(),
           st.sampled_from([1, Fraction(1, 10**4), Fraction(1, 10**11)]),
           st.sampled_from([0.0, 1e-10, 1e-3]))
    @settings(max_examples=80, deadline=None)
    def test_one_knot_tolerance_rule(self, f, scale, tol):
        f = f * scale
        assume(not f.is_zero())
        jump, edge = reference_obstructions(f, tol)
        assert f.knot_obstructions(tol) == (jump, edge)
        assert is_finite(sigma_w2(f, tol)) == (not jump and not edge)
        assert (f.classify(tol).family is FunctionClass.NONE) == jump


def reference_obstructions(f, tol):
    """(jump, edge) from the pieces' one-sided values at every knot."""
    bps, ps = f.breakpoints, f.pieces
    jump = any(abs(float(ps[i](bps[i]) - ps[i - 1](bps[i]))) > tol
               for i in range(1, len(ps)))
    edge = abs(float(ps[0](bps[0]))) > tol or abs(float(ps[-1](bps[-1]))) > tol
    return jump, edge


def sign_truth(a, b, c, roots):
    """Whether c * prod (x - r)^m >= 0 on [a, b], from the known roots: the
    sign at the midpoint of each stretch between interior roots."""
    cuts = sorted({a, b} | {r for r, _ in roots if a < r < b})
    return all(c * math.prod(((lo + hi) / 2 - r) ** m for r, m in roots) > 0
               for lo, hi in zip(cuts, cuts[1:]))


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def factored(draw):
    """(a, b, q, truth) with q = c (x^2 + s) prod (x - r_i)^m_i, times an
    optional near-tangent dip (x - r)^2 -/+ e^2 with e^2 down to 1e-30, and
    truth whether q >= 0 on [a, b]."""
    a, b = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
    root = st.one_of(st.sampled_from([a, b]), small)  # at the ends, in, out
    roots = draw(st.lists(st.tuples(root, st.integers(1, 4)), max_size=3))
    c = draw(st.sampled_from([-2, Fraction(-1, 3), Fraction(1, 2), 3]))
    s = draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
    q = Polynomial.of([s, 0, 1]) * c
    square = [] if s else [(Fraction(0), 2)]  # x^2 + 0 is the double root 0
    dip = draw(st.sampled_from([None, 1, 3, 15]))
    if dip is not None:
        r, e = draw(root), Fraction(1, 10**dip)
        if draw(st.booleans()):  # (x - r)^2 - e^2: two close simple roots
            roots = roots + [(r - e, 1), (r + e, 1)]
        else:
            q = q * Polynomial.of([r * r + e * e, -2 * r, 1])
    for r, m in roots:
        q = q * Polynomial.of([-r, 1]) ** m
    return a, b, q, sign_truth(a, b, c, roots + square)


class TestExactSign:
    # double roots where the Bernstein coefficients have mixed signs: a
    # non-alternating root count, or a root at t = 1 left in, rejects them
    @example((Fraction(0), Fraction(1), Polynomial.of([1, -4, 4]), True))
    @example((Fraction(0), Fraction(1), Polynomial.of([1, -5, 8, -4]), True))
    @given(factored())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_roots(self, case):
        a, b, q, truth = case
        ints, _ = q.compose_affine(b - a, a).cleared
        assert _nonneg_on_unit(list(ints)) == truth
        family = PiecewisePoly.single(a, b, q).classify().family
        assert (family is not FunctionClass.F_SUPP) == truth

    @given(small, small, st.sampled_from([0, Fraction(1, 2), 1]),
           st.sampled_from([1e-30, 1e-12, 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_tolerance_exactly_at_a_dip(self, a, b, at, tol):
        # (x - r)^2 - tol has its minimum -tol at r, an end or the middle
        assume(a < b)
        r = a + at * (b - a)
        dip = Polynomial.of([r * r - Fraction(tol), -2 * r, 1])
        f = PiecewisePoly.single(a, b, dip)
        assert f.classify(tol).family is not FunctionClass.F_SUPP
        assert f.classify(math.nextafter(tol, 0)).family is FunctionClass.F_SUPP

    @pytest.mark.parametrize("p", [16, 32, 64])
    def test_rect_p_is_an_even_bump(self, p):
        assert rect_p_explicit(p).classify().family is FunctionClass.P_PLUS_ZERO


class TestSerialization:
    def test_json_round_trip(self, cubic):
        for f in (tent(), cubic):
            assert PiecewisePoly.from_json_dict(
                json.loads(json.dumps(f.to_json_dict()))) == f

    def test_descriptor_missing_field(self):
        for text in (
            '{"breakpoints": ["0", "1"]}',
            '{"breakpoints": ["0", "1"], "pieces": ["12"]}',
            '{"breakpoints": "01", "pieces": [["1"]]}',
            # the counts are checked before any rational is parsed
            '{"breakpoints": ["0", "1", "x"], "pieces": [["1"]]}',
        ):
            with pytest.raises(SupportError):
                PiecewisePoly.from_json_dict(json.loads(text))

    def test_descriptor_bad_rational(self):
        with pytest.raises(ValueError):
            PiecewisePoly.from_json_dict(
                {"breakpoints": ["0", "x"], "pieces": [["1"]]})
