"""Reflection halves, even/odd derivative balance, and reflection bounds.

Splitting a function about an axis c produces two even halves: the s-half
agrees with f left of c and is mirrored to the right, the d-half keeps the
right side.  Their masses add to exactly twice the original mass, and when
the axis is the barycenter both the position and the frequency variance of
f are exact convex combinations of those of the halves, weighted by the
half-mass w.  That convexity is what `theorem_bound_check` turns into the
lower bounds

    U[f] >= (w*sqrt(U[f_d]) + (1-w)*sqrt(U[f_s]))**2   and
    U[f] >= min(U[f_s], U[f_d]),

both of which can fail when the split axis is not the barycenter -- the
check's ``center=False`` reproduces exactly that failure.  The module
also quantifies the interaction of the two halves in frequency: the mixed
moment ``int w^2 fhat_s(w) fhat_d(w) dw`` equals ``2*pi`` times the surplus
of odd over even derivative energy, so its sign is decided by the balance of
the even/odd parts of f'.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .moments import ExtReal, ZeroFunctionError, json_float, report
from .moments import alpha as barycenter
from .piecewise import FunctionClass, PiecewisePoly
from .poly import Polynomial, RationalLike, rat

__all__ = [
    "BoundReport",
    "ClassViolationError",
    "ReflectionPair",
    "SplitReport",
    "asymmetric_cubic",
    "corollary_normalize",
    "even_odd_split",
    "random_f_plus_zero",
    "reflections",
    "theorem_bound_check",
]

_HALF = Fraction(1, 2)


class ClassViolationError(ValueError):
    """The input lies outside the function class a check requires."""


@dataclass(frozen=True)
class ReflectionPair:
    """Even reflection halves of a function about a fixed axis.

    ``w`` is the half-mass weight ``||f_d||^2 / (||f_d||^2 + ||f_s||^2)``;
    the denominator equals ``2 ||f||^2`` exactly.
    """

    f_s: PiecewisePoly
    f_d: PiecewisePoly
    axis: Fraction
    w: Fraction


def reflections(f: PiecewisePoly, axis: str = "barycenter") -> ReflectionPair:
    """Split ``f`` into even halves about the origin or the barycenter.

    ``f`` is treated, by zero extension, as defined on the whole line, so no
    support symmetry is required: each half is supported on the symmetric
    hull of the corresponding side.  Both halves are verified to be exactly
    even about the axis before returning.
    """
    if f.is_zero():
        raise ZeroFunctionError("cannot split the zero function")
    if axis == "origin":
        c = Fraction(0)
    elif axis == "barycenter":
        c = barycenter(f)
    else:
        raise ValueError(f"axis must be 'origin' or 'barycenter', got {axis!r}")
    lo, hi = f.support
    left = f.restrict(lo, c) if lo < c else PiecewisePoly.zero()
    right = f.restrict(c, hi) if c < hi else PiecewisePoly.zero()
    f_s = left + left.reflect(c)
    f_d = right + right.reflect(c)
    for half in (f_s, f_d):
        if not (half.is_zero() or half.reflect(c) == half):
            raise AssertionError("reflection half is not even about the axis")
    ns = f_s.square_moments[0]
    nd = f_d.square_moments[0]
    return ReflectionPair(f_s, f_d, c, nd / (ns + nd))


@dataclass(frozen=True)
class SplitReport:
    """Even/odd energy balance of f' and the mixed frequency moment.

    ``cross_term_exact`` is the exact coefficient of ``2*pi`` in
    ``int w^2 fhat_s(w) fhat_d(w) dw`` for the origin halves, and equals
    ``u_odd_norm_sq - u_even_norm_sq``.
    """

    u_even_norm_sq: Fraction
    u_odd_norm_sq: Fraction
    cross_term_exact: Fraction


def even_odd_split(f: PiecewisePoly) -> SplitReport:
    """Split u = f' into even/odd parts about 0 and report their balance.

    The origin halves satisfy ``f_s'(x) f_d'(x) = -u(x) u(-x)`` almost
    everywhere, which integrates to ``||u_odd||^2 - ||u_even||^2``: whether
    the mixed frequency moment of the halves is positive or negative is
    decided by which part of the derivative carries more energy.  Requires a
    continuous input (interior jumps have no piecewise-polynomial
    derivative).
    """
    du = f.derivative()
    mirrored = du.reflect(0)
    ue2 = ((du + mirrored) * _HALF).square_moments[0]
    uo2 = ((du - mirrored) * _HALF).square_moments[0]
    return SplitReport(ue2, uo2, uo2 - ue2)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the reflection lower-bound check.

    All three boolean verdicts are reported rather than asserted, so an
    uncentered run can document a failing bound without raising.
    ``cs_ok`` is decided on exact rationals; ``cs_rhs``, the weighted
    Cauchy-Schwarz right-hand side ``(w*sqrt(U_d) + (1-w)*sqrt(U_s))**2`` in
    double precision, is for display only.  ``pair`` is the split the
    verdicts rest on, so a caller that also needs the halves reads them here.
    """

    centered: bool
    pair: ReflectionPair
    uncertainty: ExtReal
    uncertainty_s: ExtReal
    uncertainty_d: ExtReal
    cs_rhs: float
    cs_ok: bool
    min_ok: bool
    decompositions_ok: bool

    @property
    def axis(self) -> Fraction:
        return self.pair.axis

    @property
    def w(self) -> Fraction:
        return self.pair.w

    @property
    def ok(self) -> bool:
        return self.cs_ok and self.min_ok and self.decompositions_ok


def theorem_bound_check(f: PiecewisePoly, *, center: bool = True,
                        class_tol: float = 0.0) -> BoundReport:
    """Check the reflection lower bounds on the uncertainty product.

    With ``center=True`` f is split about its barycenter c, in f's own
    frame, and the report checks, with exact rational arithmetic,

        sigma_x^2[f] = w*sigma_x^2[f_d] + (1-w)*sigma_x^2[f_s],
        sigma_w^2[f] = w*sigma_w^2[f_d] + (1-w)*sigma_w^2[f_s],
        U[f] >= min(U[f_s], U[f_d]),
        U[f] >= (w*sqrt(U[f_d]) + (1-w)*sqrt(U[f_s]))**2,

    the last without square roots: with gap = U - w^2 U_d - (1-w)^2 U_s it
    holds iff gap >= 0 and gap^2 >= 4 w^2 (1-w)^2 U_d U_s (a zero half drops
    its terms, and the product term is then 0).  No translation is needed:
    both variances are translation invariant; f_s and f_d are even about c,
    so their means are c, f's mean; and summed over the halves, the mass and
    the integrals of (x - c)^2 f_i^2 and of f_i'^2 are each twice f's, so
    the masses 2(1-w)N and 2wN give the identities.  ``center=False`` splits
    about the origin; the identities are then not guaranteed, and the
    verdicts record whether they happen to hold.

    The input must be continuous, nonnegative and zero at its support
    boundary (within ``class_tol``), which also guarantees every variance
    involved is finite at that tolerance.
    """
    tag = f.classify(class_tol)
    if tag.family not in (FunctionClass.F_PLUS_ZERO, FunctionClass.P_PLUS_ZERO):
        raise ClassViolationError(
            "bound check needs a continuous nonnegative function vanishing at "
            f"its support boundary; classified as {tag.family.value!r}"
        )
    pair = reflections(f, "barycenter" if center else "origin")
    rep = report(f, class_tol=class_tol, classify=False)

    w = pair.w
    rs, rd = (None if half.is_zero()
              else report(half, class_tol=class_tol, classify=False)
              for half in (pair.f_s, pair.f_d))
    # (weight, report) of each nonzero half
    halves = [(a, r) for a, r in ((w, rd), (1 - w, rs)) if r is not None]
    u_s, u_d = (math.inf if r is None else r.uncertainty for r in (rs, rd))

    min_ok = rep.uncertainty >= min(u_s, u_d)

    # U >= (sum a*sqrt(U_i))**2  iff  gap >= 0 and gap**2 >= 4*prod a**2*U_i
    terms = [a * a * r.uncertainty for a, r in halves]
    gap = rep.uncertainty - sum(terms)
    cs_ok = gap >= 0 and gap * gap >= (4 * math.prod(terms) if len(terms) == 2 else 0)

    sqrt_s = math.sqrt(json_float("uncertainty_s", u_s)) if rs is not None else 0.0
    sqrt_d = math.sqrt(json_float("uncertainty_d", u_d)) if rd is not None else 0.0
    cs_rhs = (float(w) * sqrt_d + float(1 - w) * sqrt_s) ** 2

    decompositions_ok = (
        rep.sigma_x2 == sum(a * r.sigma_x2 for a, r in halves)
        and rep.sigma_w2 == sum(a * r.sigma_w2 for a, r in halves)
    )

    return BoundReport(
        centered=center,
        pair=pair,
        uncertainty=rep.uncertainty,
        uncertainty_s=u_s,
        uncertainty_d=u_d,
        cs_rhs=cs_rhs,
        cs_ok=cs_ok,
        min_ok=min_ok,
        decompositions_ok=decompositions_ok,
    )


def corollary_normalize(
    pair: ReflectionPair, a: RationalLike
) -> tuple[Optional[PiecewisePoly], Optional[PiecewisePoly]]:
    """Rescale each reflection half onto ``[-a, a]`` about the origin.

    Each half ``f_i`` (even about the pair's axis, with one-sided radius
    ``r_i``) is mapped to ``psi_i(x) = f_i((r_i/a) x + axis)``, an even
    function supported exactly on ``[-a, a]``.  Affine maps leave the
    uncertainty product unchanged, which is asserted exactly.  A degenerate
    half (identically zero, radius 0) yields ``None`` in its slot.
    """
    a = rat(a)
    if a <= 0:
        raise ValueError("target half-width must be positive")
    out: list[Optional[PiecewisePoly]] = []
    for half in (pair.f_s, pair.f_d):
        if half.is_zero():
            out.append(None)
            continue
        radius = half.support[1] - pair.axis
        psi = half.affine(1, radius / a, -pair.axis)
        before = report(half, classify=False).uncertainty
        after = report(psi, classify=False).uncertainty
        if before != after:
            raise AssertionError(
                "affine normalization changed the uncertainty product"
            )
        out.append(psi)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# standard test inputs
# ---------------------------------------------------------------------------


def asymmetric_cubic() -> PiecewisePoly:
    """Continuous piecewise cubic on [-1, 1] with distinct left/right arcs.

    The two cubic arcs share their constant term, so the function is
    continuous at 0 with a kink.  The coefficients are exact ten-digit
    decimals chosen so that f(-1) = 0 exactly while f(1) = -1e-10 exactly;
    classification and bandwidth therefore need a small tolerance (any
    ``class_tol`` in [1e-10, ~1e-4] works).  Its barycenter sits well right
    of the origin, which makes it the standard asymmetric test input for the
    reflection machinery.
    """
    left = Polynomial.of(
        ["0.3030894498", "0.9779994788", "1.2275239864", "0.5526139574"]
    )
    right = Polynomial.of(
        ["0.3030894498", "1.3050416889", "-1.6176420481", "0.0095109093"]
    )
    return PiecewisePoly((Fraction(-1), Fraction(0), Fraction(1)), (left, right))


def random_f_plus_zero(rng: random.Random) -> PiecewisePoly:
    """Draw a random continuous nonnegative function with zero boundary.

    A random grid of up to 5 knots gets nonnegative values (zero at the
    endpoints); each piece interpolates them linearly plus a random cubic
    bump vanishing at both piece ends, so continuity and the boundary zeros
    hold by construction and the degree stays at most 4.  The bump can dip
    below zero; `classify` decides the sign exactly, and a draw it puts in
    F_supp is squared, which keeps continuity and the boundary zeros.
    """
    while True:
        n_knots = rng.randint(2, 5)
        knots = sorted(
            {Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n_knots)}
        )
        if len(knots) < 2:
            continue
        values = [Fraction(0)]
        values += [
            Fraction(rng.randint(0, 8), rng.randint(1, 3))
            for _ in range(len(knots) - 2)
        ]
        values.append(Fraction(0))
        pieces = []
        for (x0, v0), (x1, v1) in zip(zip(knots, values), zip(knots[1:], values[1:])):
            slope = (v1 - v0) / (x1 - x0)
            linear = Polynomial.of([v0 - slope * x0, slope])
            # bump c*(x - x0)*(x1 - x)*(x - m): vanishes at both ends
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            m = Fraction(rng.randint(-12, 12), 8)
            bump = (
                Polynomial.of([-x0, 1])
                * Polynomial.of([x1, -1])
                * Polynomial.of([-m, 1])
                * c
            )
            pieces.append(linear + bump)
        f = PiecewisePoly.from_pieces(list(knots), pieces)
        if f.is_zero():
            continue
        if f.classify().family is FunctionClass.F_SUPP:
            f = f * f
        return f
