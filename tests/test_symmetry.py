import dataclasses
import decimal
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwuncert.moments import ZeroFunctionError, norm_sq, report, uncertainty
from pwuncert.piecewise import FunctionClass, PiecewisePoly, tent
from pwuncert.poly import Polynomial
from pwuncert.symmetry import (
    BoundReport,
    ClassViolationError,
    ReflectionPair,
    asymmetric_cubic,
    corollary_normalize,
    even_odd_split,
    random_f_plus_zero,
    reflections,
    theorem_bound_check,
)

CUBIC_TOL = 1e-9


class TestReflections:
    def test_even_input_reproduces_itself(self):
        pair = reflections(tent())
        assert pair.axis == 0
        assert pair.f_s == tent()
        assert pair.f_d == tent()
        assert pair.w == Fraction(1, 2)

    def test_axis_names(self, cubic):
        assert reflections(cubic, "origin").axis == 0
        bary = reflections(cubic, "barycenter")
        assert bary.axis == report(cubic, classify=False).alpha
        with pytest.raises(ValueError):
            reflections(cubic, "midpoint")

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunctionError):
            reflections(PiecewisePoly.zero())

    @pytest.mark.parametrize("axis", ["origin", "barycenter"])
    def test_halves_are_even_and_mass_splits(self, cubic, axis):
        pair = reflections(cubic, axis)
        for half in (pair.f_s, pair.f_d):
            assert half.reflect(pair.axis) == half
        assert norm_sq(pair.f_s) + norm_sq(pair.f_d) == 2 * norm_sq(cubic)
        assert pair.w == norm_sq(pair.f_d) / (2 * norm_sq(cubic))

    def test_one_sided_support_gives_zero_half(self):
        shifted = tent().translate(5)  # supported on [4, 6]
        pair = reflections(shifted, "origin")
        assert pair.f_s.is_zero()
        assert pair.w == 1


class TestEvenOddSplit:
    def test_even_function_has_no_even_derivative_part(self):
        rep = even_odd_split(tent())
        assert rep.u_even_norm_sq == 0
        assert rep.u_odd_norm_sq == 2  # ||f'||^2 of the tent
        assert rep.cross_term_exact == 2

    def test_cubic_balance(self, cubic):
        rep = even_odd_split(cubic)
        assert float(rep.u_even_norm_sq) == pytest.approx(0.675886085, abs=1e-6)
        assert float(rep.u_odd_norm_sq) == pytest.approx(0.433013302, abs=1e-6)
        assert float(rep.cross_term_exact) == pytest.approx(
            -0.2428727825546161, abs=1e-12)

    def test_energy_decomposes_exactly(self, cubic):
        rep = even_odd_split(cubic)
        total = cubic.derivative().moment(0, squared=True)
        assert rep.u_even_norm_sq + rep.u_odd_norm_sq == total


def _translated_bound_check(f: PiecewisePoly) -> BoundReport:
    """The centered check built the long way: translate f so that its
    barycenter sits at 0, split the copy about the origin, and move the
    halves back."""
    axis = report(f, classify=False).alpha
    g = f.translate(-axis)
    pair = reflections(g, "origin")
    rep, rs, rd = (report(h, classify=False) for h in (g, pair.f_s, pair.f_d))
    w, u, u_s, u_d = pair.w, rep.uncertainty, rs.uncertainty, rd.uncertainty
    gap = u - w * w * u_d - (1 - w) ** 2 * u_s
    return BoundReport(
        centered=True, uncertainty=u,
        pair=ReflectionPair(pair.f_s.translate(axis), pair.f_d.translate(axis),
                            axis, w),
        uncertainty_s=u_s, uncertainty_d=u_d,
        cs_rhs=(float(w) * math.sqrt(u_d) + float(1 - w) * math.sqrt(u_s)) ** 2,
        cs_ok=gap >= 0 and gap * gap >= 4 * w * w * (1 - w) ** 2 * u_d * u_s,
        min_ok=u >= min(u_s, u_d),
        decompositions_ok=all(
            getattr(rep, k) == w * getattr(rd, k) + (1 - w) * getattr(rs, k)
            for k in ("sigma_x2", "sigma_w2")),
    )


class TestBoundCheck:
    def test_centered_cubic_passes(self, cubic):
        rep = theorem_bound_check(cubic, class_tol=CUBIC_TOL)
        assert rep.centered
        assert rep.min_ok and rep.cs_ok and rep.decompositions_ok and rep.ok
        assert rep.cs_rhs == pytest.approx(0.315762797738420892, abs=1e-12)
        assert rep.cs_rhs <= float(rep.uncertainty) + 1e-12

    def test_uncentered_cubic_fails_min_bound(self, cubic):
        rep = theorem_bound_check(cubic, center=False, class_tol=CUBIC_TOL)
        assert not rep.centered
        assert not rep.min_ok
        assert not rep.ok

    def test_class_gate(self, cubic, boxcar):
        with pytest.raises(ClassViolationError):
            theorem_bound_check(cubic)  # boundary residue, needs class_tol
        with pytest.raises(ClassViolationError):
            theorem_bound_check(boxcar)  # nonzero boundary values

    def test_even_input_is_its_own_decomposition(self, quartic_bump):
        rep = theorem_bound_check(quartic_bump)
        assert rep.w == Fraction(1, 2)
        assert rep.uncertainty_s == rep.uncertainty
        assert rep.uncertainty_d == rep.uncertainty
        # so the Cauchy-Schwarz bound holds with equality (gap^2 and
        # 4 w^2 (1-w)^2 U_d U_s are both U^2/4): only an exact test passes it
        assert rep.cs_ok and rep.ok

    @given(seed=st.integers(0, 2**32 - 1),
           shift=st.fractions(-10, 10, max_denominator=12))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_translated_construction(self, seed, shift):
        f = random_f_plus_zero(random.Random(seed))
        rep = theorem_bound_check(f)
        assert vars(rep) == vars(_translated_bound_check(f))  # cs_rhs bit for bit
        moved = theorem_bound_check(f.translate(shift))
        assert moved.pair == ReflectionPair(
            *(h.translate(shift) for h in (rep.pair.f_s, rep.pair.f_d)),
            rep.axis + shift, rep.w)
        assert dataclasses.replace(moved, pair=rep.pair) == rep


def _decimal_bound(rep) -> tuple[bool, decimal.Decimal]:
    """U >= (w*sqrt(U_d) + (1-w)*sqrt(U_s))**2 evaluated unsquared with 60
    significant digits, and the relative distance of the two sides."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dec = lambda q: decimal.Decimal(q.numerator) / q.denominator
        rhs = sum(dec(a) * dec(u).sqrt()
                  for a, u in ((rep.w, rep.uncertainty_d),
                               (1 - rep.w, rep.uncertainty_s))
                  if u != math.inf) ** 2
        lhs = dec(rep.uncertainty)
        return lhs >= rhs, abs(lhs - rhs) / max(lhs, rhs)


class TestExactCauchySchwarz:
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=31)  # draws that a dropped `gap >= 0` or a factor 2 gets wrong
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_a_60_digit_evaluation(self, seed):
        rng = random.Random(seed)
        for _ in range(2):
            f = random_f_plus_zero(rng)
            for center in (True, False):
                rep = theorem_bound_check(f, center=center)
                holds, distance = _decimal_bound(rep)
                if distance > decimal.Decimal("1e-40"):
                    assert rep.cs_ok == holds


# Case 37 of the default-seed properties population, before squaring: its
# piece on [3/2, 7/3] is -2.55e-5 near x = 2.32999.
CASE_37 = {"breakpoints": ["-7/3", "0", "3/4", "3/2", "7/3"],
           "pieces": [["7/3", "-5/2", "19/6", "2"], ["7/3", "-4/3"],
                      ["383/192", "-209/288", "-11/24", "1/3"],
                      ["-21/80", "1357/240", "-113/24", "1"]]}


class TestSignWitnesses:
    """Functions with a dip below zero that a 65-point sample of each piece
    misses; the exact sign test puts both outside F_plus_zero."""

    @staticmethod
    def _assert_outside_f_plus_zero(f: PiecewisePoly) -> None:
        assert f.classify().family is FunctionClass.F_SUPP
        with pytest.raises(ClassViolationError):
            theorem_bound_check(f)

    def test_narrow_dip(self):
        # x(1-x)((x - 1/128)^2 - 1e-6) on [0, 1] is -7.75e-9 at x = 1/128
        dip = Polynomial.of([-Fraction(1, 128), 1]) ** 2 - Polynomial.of(
            [Fraction(1, 10**6)])
        f = PiecewisePoly.single(0, 1, Polynomial.of([0, 1, -1]) * dip)
        assert f(Fraction(1, 128)) < 0
        self._assert_outside_f_plus_zero(f)

    def test_seeded_population_case_37(self):
        case = PiecewisePoly.from_json_dict(CASE_37)
        assert case(Fraction(232999, 100000)) < 0
        self._assert_outside_f_plus_zero(case)
        # so `random_f_plus_zero` squares that draw, as it does any F_supp one
        rng = random.Random(20240817)
        draw = [random_f_plus_zero(rng) for _ in range(38)][37]
        assert draw == case * case
        assert draw.classify().family is FunctionClass.F_PLUS_ZERO


class TestNormalization:
    def test_rescaled_halves_preserve_uncertainty(self):
        pair = reflections(tent())
        psi_s, psi_d = corollary_normalize(pair, 2)
        assert psi_s.support == (Fraction(-2), Fraction(2))
        assert psi_d.support == (Fraction(-2), Fraction(2))
        assert uncertainty(psi_s) == Fraction(3, 10)
        assert uncertainty(psi_d) == Fraction(3, 10)

    def test_cubic_halves(self, cubic):
        pair = reflections(cubic, "barycenter")
        psi_s, psi_d = corollary_normalize(pair, 1)
        assert psi_s.support == (Fraction(-1), Fraction(1))
        assert uncertainty(psi_s, class_tol=CUBIC_TOL) == uncertainty(
            pair.f_s, class_tol=CUBIC_TOL)
        assert uncertainty(psi_d, class_tol=CUBIC_TOL) == uncertainty(
            pair.f_d, class_tol=CUBIC_TOL)

    def test_zero_half_maps_to_none(self):
        pair = reflections(tent().translate(5), "origin")
        psi_s, psi_d = corollary_normalize(pair, 1)
        assert psi_s is None
        assert psi_d is not None

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            corollary_normalize(reflections(tent()), 0)


class TestAsymmetricCubic:
    def test_boundary_residue_is_exact(self, cubic):
        _, (left, right) = cubic.knot_evidence
        assert left == 0
        assert right == Fraction(-1, 10**10)

    def test_frozen_headline_values(self, cubic):
        rep = report(cubic, class_tol=CUBIC_TOL)
        assert float(rep.alpha) == pytest.approx(0.3842090381022477, abs=1e-14)
        assert float(rep.uncertainty) == pytest.approx(
            0.32820591003632227, abs=1e-14)
        assert float(rep.norm_sq) == pytest.approx(
            0.2107112325203938, abs=1e-14)


class TestRandomGenerator:
    def test_draws_lie_in_the_zero_boundary_class(self):
        rng = random.Random(99)
        for _ in range(20):
            f = random_f_plus_zero(rng)
            tag = f.classify()
            assert tag.family in (
                FunctionClass.F_PLUS_ZERO, FunctionClass.P_PLUS_ZERO)
            assert uncertainty(f) > Fraction(1, 4)

    def test_reproducible(self):
        a = random_f_plus_zero(random.Random(5))
        b = random_f_plus_zero(random.Random(5))
        assert a == b

    def test_first_draws_are_frozen(self):
        # only draw 37 moved when the grid sign test became exact: it dips
        # below zero (`CASE_37`), so it is now squared
        rng = random.Random(20240817)
        draws = [random_f_plus_zero(rng).to_json_dict() for _ in range(200)]
        digest = hashlib.sha256(
            json.dumps(draws, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "b4e460b25e521a589b71d57783ca7972bb28d8a02c24b813875b4d756e33cc1e")
