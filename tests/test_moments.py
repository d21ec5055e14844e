import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwuncert.moments import (
    INF,
    AtomParams,
    ZeroFunctionError,
    alpha,
    atom_report,
    ext_mul,
    ext_str,
    is_finite,
    json_pairs,
    norm_sq,
    report,
    sigma_w2,
    sigma_x2,
    uncertainty,
)
from pwuncert.piecewise import FunctionClass, PiecewisePoly, tent
from pwuncert.poly import ONE, ZERO, X, Polynomial

CUBIC_TOL = 1e-9

# knots straddle 0 and mix denominators (thirds, sevenths, ...)
knots = st.fractions(min_value=-4, max_value=4, max_denominator=7)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def layouts(draw):
    n_pieces = draw(st.integers(1, 4))
    bps = sorted(draw(st.sets(knots, min_size=n_pieces + 1, max_size=n_pieces + 1)))
    pieces = [Polynomial.of(draw(st.lists(coeffs, max_size=5)))
              for _ in range(n_pieces)]
    return PiecewisePoly.from_pieces(bps, pieces)


def reference_moment(f, k, squared):
    return sum(((X ** k) * (p * p if squared else p)).integrate(a, b)
               for a, b, p in f.intervals())


class TestKernel:
    @given(layouts())
    @example(PiecewisePoly.from_pieces([0, 1, 2, 3], [ONE, ZERO, ONE]))
    @example(PiecewisePoly.from_pieces(
        [-1, "2/7", "1/3"], [Polynomial.of(["1/2", -1]), Polynomial.of(["5/3"])]
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_polynomial_reference(self, f):
        for k in range(4):
            for squared in (False, True):
                assert f.moment(k, squared) == reference_moment(f, k, squared)
        # f' piece by piece, jumps ignored: what square_moments' D integrates
        d = PiecewisePoly.from_pieces(f.breakpoints,
                                      [p.derivative() for p in f.pieces])
        assert f.square_moments == (
            reference_moment(f, 0, True),
            reference_moment(f, 1, True),
            reference_moment(f, 2, True),
            reference_moment(d, 0, True),
        )
        assert f.square_moments is f.square_moments


class TestTentReport:
    def test_exact_values(self):
        rep = report(tent())
        assert rep.norm_sq == Fraction(2, 3)
        assert rep.alpha == 0
        assert rep.beta_coeff == 0
        assert rep.sigma_x2 == Fraction(1, 10)
        assert rep.sigma_w2 == Fraction(3)
        assert rep.uncertainty == Fraction(3, 10)
        assert rep.class_tag.family == FunctionClass.P_PLUS_ZERO

    def test_classify_opt_out(self):
        assert report(tent(), classify=False).class_tag is None

    def test_json_dict_fields(self):
        d = report(tent()).to_json_dict()
        assert d["uncertainty"] == "3/10"
        assert d["uncertainty_float"] == 0.3
        assert Fraction(d["sigma_x2"]) == Fraction(1, 10)
        assert d["class"] == "P_plus_zero"


class TestDivergence:
    def test_boxcar_sigma_w2_is_inf(self, boxcar):
        assert sigma_w2(boxcar) == INF
        assert uncertainty(boxcar) == INF
        assert not is_finite(uncertainty(boxcar))

    def test_interior_jump_diverges(self):
        from pwuncert.poly import Polynomial

        step = PiecewisePoly.from_pieces(
            [-1, 0, 1], [Polynomial.of([1]), Polynomial.of([0, 0, 1])]
        )
        assert sigma_w2(step) == INF

    def test_json_dict_inf_fields(self, boxcar):
        d = report(boxcar).to_json_dict()
        assert d["sigma_w2"] == "inf"
        assert d["sigma_w2_float"] is None
        assert d["uncertainty_float"] is None

    def test_class_tol_restores_finiteness(self, cubic):
        assert sigma_w2(cubic) == INF
        assert is_finite(sigma_w2(cubic, class_tol=CUBIC_TOL))


class TestInvariance:
    def test_translation_shifts_alpha_only(self, quartic_bump):
        base = report(quartic_bump)
        moved = report(quartic_bump.translate("7/3"))
        assert moved.alpha == base.alpha + Fraction(7, 3)
        assert moved.sigma_x2 == base.sigma_x2
        assert moved.sigma_w2 == base.sigma_w2
        assert moved.uncertainty == base.uncertainty

    def test_scalar_multiple_changes_nothing_but_mass(self, quartic_bump):
        base = report(quartic_bump)
        scaled = report(quartic_bump * Fraction(5, 2))
        assert scaled.norm_sq == base.norm_sq * Fraction(25, 4)
        assert scaled.sigma_x2 == base.sigma_x2
        assert scaled.uncertainty == base.uncertainty

    def test_dilation_trades_variances_exactly(self, quartic_bump):
        base = report(quartic_bump)
        squeezed = report(quartic_bump.affine(1, 3, 0))  # f(3x)
        assert squeezed.sigma_x2 == base.sigma_x2 / 9
        assert squeezed.sigma_w2 == base.sigma_w2 * 9
        assert squeezed.uncertainty == base.uncertainty


class TestAtoms:
    def test_covariance_rules(self):
        params = AtomParams.of(t=2, xi=1, u=5)
        rep = atom_report(tent(), params)
        assert rep.norm_sq == Fraction(4, 3)
        assert rep.alpha == 5
        assert rep.beta_coeff == 1
        assert rep.sigma_x2 == Fraction(2, 5)
        assert rep.sigma_w2 == Fraction(3, 4)
        assert rep.uncertainty == Fraction(3, 10)

    def test_beta_float_is_2pi_xi(self):
        params = AtomParams.of(t=1, xi="5/2", u=0)
        d = atom_report(tent(), params).to_json_dict()
        assert d["beta_coeff"] == "5/2"
        assert d["beta_float"] == pytest.approx(5 * math.pi)

    def test_divergent_envelope_stays_divergent(self, boxcar):
        rep = atom_report(boxcar, AtomParams.of(t="1/2", xi=0, u=1))
        assert rep.sigma_w2 == INF

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            AtomParams.of(t=0, xi=0, u=0)
        with pytest.raises(ValueError):
            AtomParams.of(t="-1/2", xi=0, u=0)


class TestGuards:
    def test_zero_function_rejected(self):
        z = PiecewisePoly.zero()
        with pytest.raises(ZeroFunctionError):
            norm_sq(z)
        with pytest.raises(ZeroFunctionError):
            alpha(z)
        with pytest.raises(ZeroFunctionError):
            sigma_x2(z)

    def test_ext_helpers(self):
        assert ext_str(Fraction(1, 3)) == "1/3"
        assert ext_str(INF) == "inf"
        assert json_pairs(a=Fraction(1, 4), b=INF) == {
            "a": "1/4", "a_float": 0.25, "b": "inf", "b_float": None}
        assert list(json_pairs(z=Fraction(0), a=Fraction(1))) == [
            "z", "z_float", "a", "a_float"]
        assert ext_mul(Fraction(2), INF) == INF
        with pytest.raises(ArithmeticError):
            ext_mul(Fraction(0), INF)
