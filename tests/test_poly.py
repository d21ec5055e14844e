from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwuncert.bspline import rect_p_explicit
from pwuncert.poly import ONE, X, ZERO, Polynomial, rat, rat_str

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.lists(rationals, max_size=6).map(Polynomial.of)
points = st.one_of(st.integers(-40, 40),
                   st.fractions(min_value=-40, max_value=40, max_denominator=60))
scales = st.one_of(st.fractions(max_value=Fraction(-1, 6), min_value=-8,
                                max_denominator=6),
                   st.just(Fraction(0)), st.just(Fraction(1)), rationals)


RECT64_MID = rect_p_explicit(64).pieces[32]


def horner(p, x):
    """Reference evaluation: Fraction Horner on the stored coefficients."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestConstruction:
    def test_of_trims_trailing_zeros(self):
        p = Polynomial.of([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_of_accepts_strings(self):
        p = Polynomial.of(["1/2", "-3", "0.25"])
        assert p.coeffs == (Fraction(1, 2), Fraction(-3), Fraction(1, 4))

    def test_zero_polynomial(self):
        assert Polynomial.of([0, 0]).is_zero()
        assert ZERO.is_zero()
        assert ZERO.degree == -1
        assert not ONE.is_zero()

    def test_raw_constructor_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            Polynomial((Fraction(1), Fraction(0)))

    def test_raw_constructor_rejects_non_fraction(self):
        with pytest.raises(TypeError):
            Polynomial((1.5,))


class TestEvaluation:
    def test_exact_at_rational_point(self):
        p = Polynomial.of([-1, 0, 3])  # 3x^2 - 1
        assert p(Fraction(2, 7)) == Fraction(3 * 4, 49) - 1

    def test_float_and_complex_input_raise(self):
        for x in (0.5, 2.0, 1j):
            with pytest.raises(TypeError, match="exact rational"):
                X(x)

    @given(polys, polys, rationals)
    @settings(max_examples=60, deadline=None)
    def test_ring_operations_match_pointwise(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)
        assert (3 * p)(x) == 3 * p(x)

    @given(polys, points)
    @settings(max_examples=100, deadline=None)
    @example(ZERO, Fraction(-7, 3))
    @example(ZERO, 5)
    @example(Polynomial.of(["-5/6"]), Fraction(9, 4))
    @example(Polynomial.of([1, "1/2", "-1/3"]), -3)
    def test_cleared_evaluation_matches_fraction_horner(self, p, x):
        ints, den = p.cleared
        assert Polynomial.of(Fraction(c, den) for c in ints) == p
        value = p(x)
        assert isinstance(value, Fraction)
        assert value == horner(p, x)

    def test_scalar_zero_multiplication(self):
        assert (Polynomial.of([1, 2]) * 0).is_zero()


class TestComposition:
    @given(polys, rationals)
    @settings(max_examples=60, deadline=None)
    def test_taylor_shift_matches_pointwise(self, p, c):
        shifted = p.taylor_shift(c)
        assert shifted == p.compose_affine(1, c)
        for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 2)):
            assert shifted(x) == p(x + c)

    # degree 63: the middle piece of rect^64, as the spline scan shifts it
    @example(RECT64_MID, Fraction(1), Fraction(1, 2))
    @example(RECT64_MID, Fraction(1), Fraction(-1, 2))
    @example(RECT64_MID, Fraction(-1), Fraction(0))
    @example(RECT64_MID, Fraction(0), Fraction(0))
    @example(RECT64_MID, Fraction(2, 3), Fraction(-7, 5))
    @given(polys, scales, rationals)
    @settings(max_examples=100, deadline=None)
    def test_compose_affine_matches_pointwise(self, p, s, r):
        comp = p.compose_affine(s, r)
        for x in (Fraction(0), Fraction(2, 5), Fraction(-7, 3)):
            assert horner(comp, x) == horner(p, s * x + r)


class TestCalculus:
    def test_derivative(self):
        assert Polynomial.of([5, 3, 0, 2]).derivative() == Polynomial.of([3, 0, 6])
        assert ONE.derivative().is_zero()

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_antiderivative_inverts_derivative(self, p):
        assert p.antiderivative().derivative() == p
        assert p.antiderivative()(0) == 0

    def test_integrate_exact(self):
        assert (X * X).integrate(0, 1) == Fraction(1, 3)
        assert Polynomial.of([1, 1]).integrate("-1", "1/2") == Fraction(9, 8)

    def test_integrate_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            ONE.integrate(1, 0)

    def test_power(self):
        assert Polynomial.of([1, 1]) ** 3 == Polynomial.of([1, 3, 3, 1])
        assert (X ** 0) == ONE
        with pytest.raises(ValueError):
            X ** -1


class TestSerialization:
    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_string_round_trip(self, p):
        assert Polynomial.of([rat_str(c) for c in p.coeffs]) == p

    def test_rat_coercions(self):
        assert rat(3) == Fraction(3)
        assert rat("3/4") == Fraction(3, 4)
        assert rat("0.25") == Fraction(1, 4)
        assert rat(Fraction(1, 7)) == Fraction(1, 7)

    def test_rat_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            rat(True)
        with pytest.raises(TypeError):
            rat(0.1)

    @given(rationals)
    @settings(max_examples=40, deadline=None)
    def test_rat_str_round_trip(self, x):
        assert Fraction(rat_str(x)) == x
