"""One-shot verification suite: every headline result as a named check.

Each ``check_*`` function returns a list of `CheckResult` rows comparing a
computed quantity against its frozen reference value at a stated tolerance
(or exactly, for rational identities).  The CLI ``verify`` subcommand and
the acceptance test suite both run these rows, so a claim can only pass or
fail in one place.

Reference values fall into three groups: closed forms proved in the module
docstrings (exact rationals), decimal references for the standard asymmetric
cubic (checked to the printed precision), and cross-oracle comparisons where
the exact pipeline and the floating-point spectral route must agree.  For
the barycentric s-half of the asymmetric cubic the reference number follows
a window convention: moments taken on the clipped window [-1, 1] with the
second moment about the reflection axis rather than the clipped function's
own barycenter; the unclipped product is also checked, against its own
frozen value.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import spectrum
from .bspline import limit_check, rect_p_explicit, rect_p_recursive, rect_scan
from .dictionaries import N_MAX, DictionaryId, envelope, row, verify_minimizer
from .moments import AtomParams, alpha, norm_sq, report, sigma_w2, uncertainty
from .piecewise import PiecewisePoly, tent
from .poly import rat_str
from .symmetry import (
    asymmetric_cubic,
    even_odd_split,
    random_f_plus_zero,
    theorem_bound_check,
)

DEFAULT_SEED = 20240817
PROPERTY_CASES = 50


def resolve_seed() -> int:
    """UNCERT_SEED from the environment, else DEFAULT_SEED."""
    env = os.environ.get("UNCERT_SEED")
    return int(env) if env else DEFAULT_SEED


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    got: str
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: expected {self.expected}, got {self.got}"


def _exact(name: str, expected: Fraction, got: Fraction) -> CheckResult:
    return CheckResult(name, rat_str(expected), rat_str(got), expected == got)


def _close(name: str, expected: float, got: float, tol: float) -> CheckResult:
    expected, got = float(expected), float(got)
    return CheckResult(name, repr(expected), repr(got), abs(got - expected) <= tol)


def _flag(name: str, expected: bool, got: bool) -> CheckResult:
    return CheckResult(name, str(expected), str(got), expected == got)


# ---------------------------------------------------------------------------
# exact dictionary values
# ---------------------------------------------------------------------------

_G_TABLE = {
    1: (Fraction(1, 10), Fraction(3), Fraction(3, 10)),
    2: (Fraction(1, 21), Fraction(20, 3), Fraction(20, 63)),
    3: (Fraction(1, 36), Fraction(63, 5), Fraction(7, 20)),
}
_F_TABLE = {
    1: (Fraction(1, 10), Fraction(3), Fraction(3, 10)),
    2: (Fraction(1, 7), Fraction(5, 2), Fraction(5, 14)),
    3: (Fraction(14, 81), Fraction(14, 5), Fraction(196, 405)),
}


def check_dictionary_exact() -> list[CheckResult]:
    out = []
    for family, table in (("G", _G_TABLE), ("F", _F_TABLE)):
        for n, (sx, sw, u) in table.items():
            # row() internally requires the moments pipeline and the closed
            # forms to coincide exactly, so a single call checks both routes
            r = row(DictionaryId(family, n))
            out.append(_exact(f"({family},{n}) sigma_x^2", sx, r.sigma_x2))
            out.append(_exact(f"({family},{n}) sigma_w^2", sw, r.sigma_w2))
            out.append(_exact(f"({family},{n}) U", u, r.uncertainty))
    return out


# ---------------------------------------------------------------------------
# minimizer and growth rates over n in [1, 100]
# ---------------------------------------------------------------------------


def check_minimizer() -> list[CheckResult]:
    """`verify_minimizer` decides the claims over n <= N_MAX; the two
    asymptotic rows are decided here, on pipeline rows at n = N_MAX."""
    out = []
    for family in ("G", "F"):
        rep = verify_minimizer(family)
        out.append(
            CheckResult(
                f"{family}-family argmin over n<={N_MAX}",
                "n=1, U=3/10",
                f"n={rep.argmin_n}, U={rat_str(rep.min_uncertainty)}",
                rep.argmin_n == 1 and rep.min_uncertainty == Fraction(3, 10),
            )
        )
        out.append(_flag(f"{family}-family strictly increasing", True,
                         rep.strictly_increasing))
    g_top = row(DictionaryId("G", N_MAX)).uncertainty
    out.append(
        CheckResult(
            f"U(G,{N_MAX}) within 1e-2 of 1/2",
            "|U - 1/2| < 0.01",
            f"gap={float(Fraction(1, 2) - g_top)!r}",
            abs(Fraction(1, 2) - g_top) < Fraction(1, 100),
        )
    )
    ratio = row(DictionaryId("F", N_MAX)).uncertainty / Fraction(N_MAX, 6)
    out.append(
        CheckResult(
            f"U(F,{N_MAX}) tracks n/6 within 2%",
            "ratio in [0.98, 1.02]",
            f"ratio={float(ratio)!r}",
            Fraction(49, 50) <= ratio <= Fraction(51, 50),
        )
    )
    return out


# ---------------------------------------------------------------------------
# the rect^p family up to p = 64
# ---------------------------------------------------------------------------


def check_rect_family() -> list[CheckResult]:
    out = []
    agree = all(rect_p_explicit(p) == rect_p_recursive(p) for p in range(1, 65))
    out.append(_flag("rect^p explicit == recursive for p <= 64", True, agree))
    rows = {r.p: r for r in rect_scan(2, 64)}
    out.append(_exact("U(rect^2)", Fraction(3, 10), rows[2].uncertainty))
    out.append(_exact("U(rect^3)", Fraction(215, 847), rows[3].uncertainty))
    rep = limit_check(64)
    out.append(_flag("U(rect^p) strictly decreasing on [2,64]", True,
                     rep.strictly_decreasing))
    out.append(_flag("U(rect^p) > 1/4 throughout", True, rep.all_above_quarter))
    gap = rows[64].uncertainty - Fraction(1, 4)
    out.append(
        CheckResult(
            "U(rect^64) - 1/4 < 1e-3",
            "< 0.001",
            repr(float(gap)),
            gap < Fraction(1, 1000),
        )
    )
    out.append(_flag("(U(p) - 1/4) * p bounded", True, rep.gap_product_bounded))
    return out


# ---------------------------------------------------------------------------
# the asymmetric cubic and its reflections
# ---------------------------------------------------------------------------

_CUBIC_TOL = 1e-9  # covers the deliberate -1e-10 boundary residue


def _window_product(half: PiecewisePoly, axis: Fraction,
                    lo: Fraction, hi: Fraction) -> Fraction:
    """Uncertainty-style product of a reflection half on a fixed window.

    Mass and bandwidth are taken from the restriction to ``[lo, hi]`` and the
    second spatial moment is measured about ``axis`` (not about the clipped
    function's own barycenter).  This is the window convention under which
    the barycentric s-half reference value below is stated.
    """
    n, m1, m2, d = half.restrict(lo, hi).square_moments
    sx = (m2 - 2 * axis * m1) / n + axis * axis
    return sx * d / n


def check_cubic_reflections() -> list[CheckResult]:
    f = asymmetric_cubic()
    out = []
    out.append(_close("cubic barycenter alpha", 0.384209038102,
                      float(alpha(f)), 1e-8))
    rep = report(f, class_tol=_CUBIC_TOL)
    out.append(_close("cubic U", 0.328205910036,
                      float(rep.uncertainty), 1e-8))

    centered, origin = (theorem_bound_check(f, center=c, class_tol=_CUBIC_TOL)
                        for c in (True, False))
    out.append(_close("origin-axis U[f_s]", 0.488135390966,
                      float(origin.uncertainty_s), 1e-8))
    out.append(_close("origin-axis U[f_d]", 1.064558791510,
                      float(origin.uncertainty_d), 1e-8))

    bary = centered.pair
    clipped = _window_product(bary.f_s, bary.axis, Fraction(-1), Fraction(1))
    out.append(_close("barycentric U[f_s] (window convention)",
                      0.233608189515, float(clipped), 1e-8))
    out.append(_close("barycentric U[f_s] (unclipped product)",
                      0.267321709743983948, float(centered.uncertainty_s), 1e-12))
    out.append(_close("barycentric U[f_d]", 0.365009365360,
                      float(centered.uncertainty_d), 1e-8))

    split = even_odd_split(f)
    out.append(_close("||u_even||^2", 0.675886085,
                      float(split.u_even_norm_sq), 1e-6))
    out.append(_close("||u_odd||^2", 0.433013302,
                      float(split.u_odd_norm_sq), 1e-6))
    cross = 2 * math.pi * float(split.cross_term_exact)
    out.append(_close("cross frequency term", -1.526014699, cross, 1e-6))

    out.append(_flag("centered min-bound holds", True,
                     centered.min_ok and centered.ok))
    out.append(_flag("uncentered min-bound fails", True, not origin.min_ok))
    return out


# ---------------------------------------------------------------------------
# seeded property suites
# ---------------------------------------------------------------------------


def _random_nonzero(rng: random.Random, lo: int, hi: int) -> Fraction:
    while True:
        v = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        if v != 0:
            return v


def _population() -> tuple[random.Random, list[PiecewisePoly]]:
    """The generator seeded by `resolve_seed` and the PROPERTY_CASES random
    F+0 functions drawn first from it."""
    rng = random.Random(resolve_seed())
    return rng, [random_f_plus_zero(rng) for _ in range(PROPERTY_CASES)]


def check_properties() -> list[CheckResult]:
    """Five verdicts per seeded case, from one bound check and one
    reflection pair; each row tallies one of them."""
    rng, cases = _population()
    good: dict[str, int] = {}
    for f in cases:
        u = uncertainty(f)
        lam = _random_nonzero(rng, -6, 6)
        gam = _random_nonzero(rng, -6, 6)
        tau = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        bound = theorem_bound_check(f)
        pair = bound.pair
        for name, ok in (
            ("U invariant under affine maps and scaling (exact)",
             uncertainty(f.affine(lam, gam, tau)) == u and uncertainty(f * 3) == u),
            ("centered convex decompositions (exact)", bound.decompositions_ok),
            ("weighted Cauchy-Schwarz bound (exact)", bound.cs_ok),
            ("mass identity of reflection halves (exact)",
             norm_sq(pair.f_s) + norm_sq(pair.f_d) == 2 * norm_sq(f)),
            ("Heisenberg floor U > 1/4", u > Fraction(1, 4)),
        ):
            good[name] = good.get(name, 0) + ok
    return [
        CheckResult(name, f"{PROPERTY_CASES}/{PROPERTY_CASES} cases",
                    f"{n}/{PROPERTY_CASES} cases", n == PROPERTY_CASES)
        for name, n in good.items()
    ]


# ---------------------------------------------------------------------------
# spectral oracle agreement
# ---------------------------------------------------------------------------


def check_spectral_agreement() -> list[CheckResult]:
    out = []
    cases = [
        ("tent", tent()),
        ("rect^3", rect_p_explicit(3)),
        ("rect^4", rect_p_explicit(4)),
        ("g_2", envelope(DictionaryId("G", 2))),
        ("f_2", envelope(DictionaryId("F", 2))),
    ]
    for name, f in cases:
        rep = report(f, classify=False)
        exact = {0: rep.norm_sq, 2: rep.sigma_w2 * rep.norm_sq}
        worst = max(
            abs(spectrum.quad_freq_moment(f, k).value - float(exact[k]))
            / float(exact[k])
            for k in (0, 2)
        )
        out.append(
            CheckResult(f"frequency moments of {name} (quad vs exact)",
                        "rel err <= 1e-6", f"rel err {worst:.3e}",
                        worst <= 1e-6)
        )

    grid = np.concatenate([np.linspace(-30.0, 30.0, 96),
                           [-1e-5, -5e-7, 0.0, 5e-7]])  # 100 points
    safe = np.where(grid == 0.0, 1.0, grid)
    base = np.where(grid == 0.0, 1.0, 2.0 * np.sin(safe / 2.0) / safe)
    for p in (1, 2, 3):
        got = spectrum.fourier_eval(rect_p_explicit(p), grid)
        worst = float(np.max(np.abs(got - base**p)))
        out.append(
            CheckResult(f"fourier_eval(rect^{p}) vs sinc^{p} on 100-point grid",
                        "abs err <= 1e-10", f"abs err {worst:.3e}",
                        worst <= 1e-10)
        )

    for n in range(1, 6):
        got = spectrum.F_sq_integral(n).value
        expected = math.pi / (2 * n + 1)
        out.append(_close(f"integral of F_{n}^2 = pi/{2 * n + 1}",
                          expected, got, 1e-6 * expected))

    params = AtomParams.of(t=Fraction(1, 3), xi=Fraction(5, 2), u=Fraction(7))
    got = spectrum.atom_freq_mean(tent(), params).value
    out.append(_close("atom frequency mean = 2*pi*xi (tent envelope)",
                      2 * math.pi * 2.5, got, 1e-6))
    params = AtomParams.of(t=Fraction(2), xi=Fraction(-3, 4), u=Fraction(0))
    got = spectrum.atom_freq_mean(asymmetric_cubic(), params).value
    out.append(_close("atom frequency mean = 2*pi*xi (asymmetric envelope)",
                      2 * math.pi * -0.75, got, 1e-6))
    return out


def check_population_oracle() -> list[CheckResult]:
    """The spectral route against the exact one on the seeded random F+0
    functions of `check_properties`: the frequency variance and the mass, to
    1e-6 relative."""
    _, cases = _population()
    worst = {"quad_sigma_w2": 0.0, "quad_freq_moment(f, 0)": 0.0}
    for f in cases:
        for name, got, exact in (
            ("quad_sigma_w2", spectrum.quad_sigma_w2(f).value, sigma_w2(f)),
            ("quad_freq_moment(f, 0)", spectrum.quad_freq_moment(f, 0).value,
             norm_sq(f)),
        ):
            rel = abs(got - float(exact)) / float(exact)
            worst[name] = max(worst[name], rel)
    return [
        CheckResult(f"{name} of {PROPERTY_CASES} seeded F+0 functions (quad vs exact)",
                    "rel err <= 1e-6", f"worst rel err {err:.3e}", err <= 1e-6)
        for name, err in worst.items()
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECK_GROUPS: dict[str, Callable[[], list[CheckResult]]] = {
    "dictionary": check_dictionary_exact,
    "minimizer": check_minimizer,
    "rect": check_rect_family,
    "reflections": check_cubic_reflections,
    "properties": check_properties,
    "spectral": check_spectral_agreement,
    "population-oracle": check_population_oracle,
}


def run_checks(name_filter: str = "") -> list[CheckResult]:
    """Run every check group whose name contains ``name_filter``.  A group
    that raises an ArithmeticError (a quadrature that does not converge, a
    divergent integral) gives one failing row naming it and the error."""
    results: list[CheckResult] = []
    for group, fn in CHECK_GROUPS.items():
        if name_filter and name_filter not in group:
            continue
        try:
            results.extend(fn())
        except ArithmeticError as exc:
            results.append(CheckResult(f"{group} group", "no error",
                                       f"{type(exc).__name__}: {exc}", False))
    return results
