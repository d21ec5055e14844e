import math
from fractions import Fraction

import numpy as np
import pytest

from pwuncert import spectrum
from pwuncert.bspline import rect_p_explicit
from pwuncert.dictionaries import DictionaryId, envelope
from pwuncert.moments import AtomParams, report
from pwuncert.piecewise import tent
from pwuncert.symmetry import asymmetric_cubic, even_odd_split, reflections

# straddles the series/partial-integration switchover on the unit pieces
GRID = np.array([-20.0, -5.0, -0.51, -0.49, 0.0, 1e-8, 0.3, 5.0, 20.0])


def sinc_hat(omega: np.ndarray) -> np.ndarray:
    """Transform of the unit boxcar: 2 sin(w/2) / w, with value 1 at 0."""
    safe = np.where(omega == 0.0, 1.0, omega)
    return np.where(omega == 0.0, 1.0, 2.0 * np.sin(safe / 2.0) / safe)


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
            via_knots = spectrum.eval_knot_expansion(terms, w)
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
        assert spectrum.F_n_eval(1, math.pi) == pytest.approx(
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
