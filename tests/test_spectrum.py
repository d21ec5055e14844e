import inspect
import math
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwuncert import spectrum
from pwuncert.bspline import rect_p_explicit
from pwuncert.dictionaries import DictionaryId, envelope
from pwuncert.moments import AtomParams, report, sigma_w2
from pwuncert.piecewise import PiecewisePoly, tent
from pwuncert.poly import ZERO, Polynomial
from pwuncert.symmetry import (
    asymmetric_cubic,
    even_odd_split,
    random_f_plus_zero,
    reflections,
)

# straddles the series/partial-integration switchover on the unit pieces
GRID = np.array([-20.0, -5.0, -0.51, -0.49, 0.0, 1e-8, 0.3, 5.0, 20.0])


def sinc_hat(omega: np.ndarray) -> np.ndarray:
    """Transform of the unit boxcar: 2 sin(w/2) / w, with value 1 at 0."""
    safe = np.where(omega == 0.0, 1.0, omega)
    return np.where(omega == 0.0, 1.0, 2.0 * np.sin(safe / 2.0) / safe)


def eval_knot_expansion(terms, omega):
    """Sum a knot expansion at scalar ``omega`` != 0."""
    return sum(t.coeff * np.exp(-1j * omega * t.position) / omega**t.power
               for t in terms)


def F_n_eval(n, eta):
    """``F_n(eta) = int_0^1 (1 - y)^n cos(eta y) dy``."""
    g = PiecewisePoly.single(0, 1, Polynomial.of([1, -1]) ** n)
    return spectrum.fourier_eval(g, eta).real


def reference_piece_data(f):
    """The per-piece data by Fraction arithmetic on the exact kernels:
    the Taylor shift to the midpoint, Horner values and derivatives."""
    out = []
    for a, b, piece in f.intervals():
        mid = (a + b) / 2
        half = (b - a) / 2
        centered = piece.taylor_shift(mid)
        series = []
        for k in range(spectrum._SERIES_TERMS):
            mk = Fraction(0)
            for c, q in enumerate(centered.coeffs):
                if (k + c) % 2 == 0:
                    mk += 2 * q * half ** (k + c + 1) / (k + c + 1)
            series.append(float(mk) / math.factorial(k))
        da, db = [], []
        d = piece
        while not d.is_zero():
            da.append(float(d(a)))
            db.append(float(d(b)))
            d = d.derivative()
        if not da:
            da = db = [0.0]
        out.append(spectrum._PieceData(float(a), float(b), float(mid), float(half),
                                       tuple(series), tuple(da), tuple(db)))
    return tuple(out)


def reference_knot_expansion(f):
    """The knot terms from exact jumps of the pieces' derivatives."""
    terms = []
    n = len(f.pieces)
    for j, x in enumerate(f.breakpoints):
        left = f.pieces[j - 1] if j > 0 else ZERO
        right = f.pieces[j] if j < n else ZERO
        r = 0
        while not (left.is_zero() and right.is_zero()):
            jump = right(x) - left(x)
            if jump:
                terms.append(spectrum.KnotTerm(float(x), r + 1,
                                               float(jump) * spectrum._PHASE[r % 4]))
            left = left.derivative()
            right = right.derivative()
            r += 1
    return tuple(terms)


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)


@st.composite
def functions_with_zero_pieces(draw):
    """Up to 5 pieces of degree <= 7; a piece is zero one time in four, so
    interior zero pieces occur."""
    n = draw(st.integers(1, 5))
    bps = sorted(draw(st.sets(rationals, min_size=n + 1, max_size=n + 1)))
    pieces = [
        ZERO if draw(st.integers(0, 3)) == 0
        else Polynomial.of(draw(st.lists(rationals, min_size=1, max_size=8)))
        for _ in range(n)
    ]
    return PiecewisePoly.from_pieces(bps, pieces)


class TestFourierEval:
    def test_value_at_zero_is_the_integral(self):
        for f in (tent(), asymmetric_cubic()):
            assert spectrum.fourier_eval(f, 0.0) == pytest.approx(
                float(f.moment(0)), abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_iterated_boxcars_give_sinc_powers(self, p):
        got = spectrum.fourier_eval(rect_p_explicit(p), GRID)
        assert np.max(np.abs(got - sinc_hat(GRID) ** p)) < 1e-12

    def test_scalar_and_array_calls_agree(self):
        f = asymmetric_cubic()
        one = spectrum.fourier_eval(f, 1.7)
        assert isinstance(one, complex)
        many = spectrum.fourier_eval(f, np.array([1.7]))
        assert one == many[0]

    def test_hermitian_symmetry_for_real_input(self):
        f = asymmetric_cubic()
        left = spectrum.fourier_eval(f, -GRID)
        right = spectrum.fourier_eval(f, GRID)
        assert np.max(np.abs(left - np.conj(right))) < 1e-14


class TestKnotExpansion:
    @pytest.mark.parametrize("name,f", [
        ("cubic", asymmetric_cubic()),
        ("g3", envelope(DictionaryId("G", 3))),
        ("rect4", rect_p_explicit(4)),
    ])
    def test_matches_direct_evaluation(self, name, f):
        terms = spectrum.knot_expansion(f)
        for w in (0.7, -2.3, 11.0, 40.0):
            direct = spectrum.fourier_eval(f, w)
            via_knots = eval_knot_expansion(terms, w)
            assert abs(direct - via_knots) < 1e-12


class TestFrequencyMoments:
    @pytest.mark.parametrize("f", [tent(), envelope(DictionaryId("G", 2))])
    def test_quad_matches_plancherel(self, f):
        rep = report(f, classify=False)
        m0 = spectrum.quad_freq_moment(f, 0)
        m2 = spectrum.quad_freq_moment(f, 2)
        assert m0.value == pytest.approx(float(rep.norm_sq), rel=1e-9)
        assert m2.value == pytest.approx(
            float(rep.sigma_w2 * rep.norm_sq), rel=1e-9)
        assert m0.abs_error_estimate < 1e-6
        sw = spectrum.quad_sigma_w2(f)
        assert sw.value == pytest.approx(float(rep.sigma_w2), rel=1e-9)

    def test_boxcar_mass_converges(self, boxcar):
        m0 = spectrum.quad_freq_moment(boxcar, 0)
        assert m0.value == pytest.approx(1.0, rel=1e-9)

    def test_boxcar_second_moment_diverges(self, boxcar):
        with pytest.raises(spectrum.DivergentIntegralError):
            spectrum.quad_freq_moment(boxcar, 2)

    def test_moment_order_restricted(self):
        with pytest.raises(ValueError):
            spectrum.quad_freq_moment(tent(), 1)

    @pytest.mark.parametrize("f", [tent(), rect_p_explicit(3), asymmetric_cubic()])
    def test_cross_moment_of_a_function_with_itself(self, f):
        # one routine serves both: the same value, estimate and panels
        assert (spectrum.cross_freq_moment_quad(f, f)
                == spectrum.quad_freq_moment(f, 2))

    def test_cross_moment_against_derivative_inner_product(self):
        # for real even f, g the mixed moment reduces to int f' g' by the
        # Plancherel pairing, computable exactly on the space side
        f, g = tent(), rect_p_explicit(4)
        exact = (f.derivative() * g.derivative()).moment(0)
        got = spectrum.cross_freq_moment_quad(f, g)
        assert got.value == pytest.approx(float(exact), rel=1e-8)

    @pytest.mark.parametrize("f,rel", [(tent(), 1e-6), (asymmetric_cubic(), 1e-3)])
    def test_cross_moment_of_origin_halves(self, f, rel):
        # the mixed moment of the origin halves is the odd-minus-even
        # derivative energy that even_odd_split computes exactly
        pair = reflections(f, "origin")
        got = spectrum.cross_freq_moment_quad(pair.f_s, pair.f_d)
        assert got.value == pytest.approx(
            float(even_odd_split(f).cross_term_exact), rel=rel)


class TestHalfProfiles:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_f_sq_integral(self, n):
        res = spectrum.F_sq_integral(n)
        assert res.value == pytest.approx(math.pi / (2 * n + 1), rel=1e-9)

    def test_f1_closed_form_value(self):
        # F_1(eta) = (1 - cos eta) * 2 / eta^2, so F_1(pi) = 4 / pi^2... the
        # half-profile normalization used here gives 2 / pi^2 at eta = pi
        assert F_n_eval(1, math.pi) == pytest.approx(
            2.0 / math.pi**2, rel=1e-12)


class TestAtomFrequencyMean:
    @pytest.mark.parametrize("t,xi,u", [
        ("1/3", "5/2", "7"),
        ("2", "-3/4", "0"),
    ])
    def test_mean_is_2pi_xi_for_real_envelopes(self, t, xi, u):
        params = AtomParams.of(t=Fraction(t), xi=Fraction(xi), u=Fraction(u))
        got = spectrum.atom_freq_mean(tent(), params)
        assert got.value == pytest.approx(
            2.0 * math.pi * float(Fraction(xi)), abs=1e-9)

    def test_asymmetric_envelope(self):
        params = AtomParams.of(t="1/2", xi=3, u="1/4")
        got = spectrum.atom_freq_mean(asymmetric_cubic(), params)
        assert got.value == pytest.approx(6.0 * math.pi, abs=1e-9)


class TestPieceDataOnIntegers:
    @given(functions_with_zero_pieces())
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit_against_fraction_reference(self, f):
        # repr tells -0.0 from 0.0 and prints every float exactly
        assert repr(spectrum._spectral_data.__wrapped__(f)) == repr(
            (reference_piece_data(f), reference_knot_expansion(f)))

    def test_interior_zero_piece_and_high_degree(self):
        gap = PiecewisePoly.from_pieces(
            [-2, -1, 1, 2], [Polynomial.of([2, 1]), ZERO, Polynomial.of([2, -1])])
        assert gap.pieces[1].is_zero()
        for f in (gap, rect_p_explicit(12), envelope(DictionaryId("G", 5))):
            assert repr(spectrum._spectral_data.__wrapped__(f)) == repr(
                (reference_piece_data(f), reference_knot_expansion(f)))

    def test_one_integer_pass_per_piece(self, monkeypatch):
        calls = []
        real = spectrum._centred

        def counting(a, b, coeffs):
            calls.append((a, b))
            return real(a, b, coeffs)

        monkeypatch.setattr(spectrum, "_centred", counting)
        # coefficients no other test uses, so no cache holds this function
        f = PiecewisePoly.from_pieces(
            [Fraction(-7, 13), Fraction(2, 11), Fraction(19, 17)],
            [Polynomial.of([Fraction(997, 3), 5]),
             Polynomial.of([Fraction(31, 29), 0, 1])])
        spectrum.knot_expansion(f)
        spectrum.fourier_eval(f, GRID)
        spectrum.knot_expansion(f)
        assert calls == [(a, b) for a, b, _ in f.intervals()]


class TestIndependence:
    def test_oracle_calls_no_exact_kernel(self, monkeypatch):
        rng = random.Random(11)
        smooth = [random_f_plus_zero(rng) for _ in range(4)]
        exact = [float(sigma_w2(f)) for f in smooth]
        gap = PiecewisePoly.from_pieces(
            [Fraction(-3, 2), 0, Fraction(1, 3), 2],
            [Polynomial.of([3, 2]), ZERO, Polynomial.of([Fraction(7, 5), 0, -1])])

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called an exact kernel")

        for name in ("compose_affine", "taylor_shift", "__call__", "derivative"):
            monkeypatch.setattr(Polynomial, name, refuse)
        spectrum._spectral_data.cache_clear()
        for f in [*smooth, gap]:
            spectrum.knot_expansion(f)
            spectrum.fourier_eval(f, GRID)
            spectrum.quad_freq_moment(f, 0)
        for f, want in zip(smooth, exact):
            assert spectrum.quad_sigma_w2(f).value == pytest.approx(want, rel=1e-9)


class TestOneTransformPass:
    def test_sigma_w2_is_the_ratio_of_the_single_order_moments(self):
        for f in (tent(), rect_p_explicit(3), envelope(DictionaryId("F", 2))):
            both = spectrum.quad_sigma_w2(f)
            m2 = spectrum.quad_freq_moment(f, 2)
            m0 = spectrum.quad_freq_moment(f, 0)
            assert both.value == m2.value / m0.value
            assert both.panels == max(m2.panels, m0.panels)

    def test_transform_evaluated_once_per_panel_count(self, monkeypatch):
        calls = []
        real = spectrum.fourier_eval

        def counting(f, w):
            calls.append(len(w))
            return real(f, w)

        monkeypatch.setattr(spectrum, "fourier_eval", counting)
        f = rect_p_explicit(4)
        res = spectrum.quad_sigma_w2(f)
        # one call per panel count: p0, 2 p0, 4 p0, ... up to res.panels
        nodes = [n // spectrum._GL_NODES for n in calls]
        assert nodes == [res.panels >> i for i in reversed(range(len(calls)))]

    def test_divergence_raised_before_any_head_quadrature(self, boxcar, monkeypatch):
        def no_transform(f, w):
            raise AssertionError("head quadrature ran")

        monkeypatch.setattr(spectrum, "fourier_eval", no_transform)
        with pytest.raises(spectrum.DivergentIntegralError,
                           match=r"^tail term 2\.000e\+00 \* w\^0 with phase "
                                 r"slope 0\.0 does not converge$"):
            spectrum.quad_sigma_w2(boxcar)


class TestConvergenceEvidence:
    def test_results_carry_panels(self):
        f = tent()
        results = [spectrum.quad_freq_moment(f, 0), spectrum.quad_freq_moment(f, 2),
                   spectrum.quad_sigma_w2(f), spectrum.F_sq_integral(2),
                   spectrum.cross_freq_moment_quad(f, rect_p_explicit(4)),
                   spectrum.atom_freq_mean(f, AtomParams.of(t=1, xi=1, u=0))]
        for res in results:
            assert res.panels >= 16  # at least one doubling of >= 8 panels
        zero = spectrum.quad_freq_moment(PiecewisePoly.zero(), 0)
        assert (zero.value, zero.panels) == (0.0, 0)

    def test_no_settable_quadrature_parameters(self):
        assert [fl.name for fl in fields(spectrum.QuadratureResult)] == [
            "value", "abs_error_estimate", "panels"]
        for fn, n in ((spectrum.quad_freq_moment, 2), (spectrum.quad_sigma_w2, 1),
                      (spectrum.cross_freq_moment_quad, 2),
                      (spectrum.F_sq_integral, 1), (spectrum.atom_freq_mean, 2)):
            assert len(inspect.signature(fn).parameters) == n, fn.__name__

    def test_no_doubling_allowed_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_MAX_DOUBLINGS", 0)
        for call in (lambda: spectrum.quad_freq_moment(tent(), 0),
                     lambda: spectrum.quad_sigma_w2(tent()),
                     lambda: spectrum.F_sq_integral(1),
                     lambda: spectrum.atom_freq_mean(
                         tent(), AtomParams.of(t=1, xi=0, u=0))):
            with pytest.raises(spectrum.QuadratureConvergenceError,
                               match="missed rtol"):
                call()
        assert issubclass(spectrum.QuadratureConvergenceError, ArithmeticError)
