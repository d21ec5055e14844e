"""Exact time/frequency moments and the Heisenberg uncertainty product.

Conventions, for f with squared norm N = integral of |f|^2:

    alpha     = (1/N) * int x |f(x)|^2 dx
    sigma_x2  = (1/N) * int (x - alpha)^2 |f(x)|^2 dx
    sigma_w2  = (1/(2 pi N)) * int w^2 |fhat(w)|^2 dw
    U         = sigma_x2 * sigma_w2

with the transform fhat(w) = int exp(-i w x) f(x) dx.  For a compactly
supported piecewise polynomial, sigma_w2 is finite exactly when f is
continuous across interior knots and vanishes at both support endpoints; by
Plancherel it then equals ||f'||^2 / ||f||^2, an exact rational.  Otherwise
sigma_w2 = +inf (math.inf here; the frequency tail decays like 1/w^2 only).

Frequency means are rational multiples of 2*pi, so reports carry `beta_coeff`
with beta = 2*pi*beta_coeff.  Modulated atoms

    A(x) = env((x - u)/t) * exp(2 pi i xi x)

are never materialized: their moments follow from the envelope's by the exact
covariance rules (alpha -> u + t*alpha, beta_coeff -> xi, sigma_x2 -> t^2 *
sigma_x2, sigma_w2 -> sigma_w2 / t^2, U unchanged).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .piecewise import ClassTag, PiecewisePoly
from .poly import RationalLike, rat, rat_str

#: Finite values are exact Fractions; the only float ever used is math.inf.
ExtReal = Union[Fraction, float]

INF: float = math.inf


class ZeroFunctionError(ValueError):
    """Moments of the zero function are undefined."""


def is_finite(value: ExtReal) -> bool:
    return isinstance(value, Fraction)


def ext_mul(a: ExtReal, b: ExtReal) -> ExtReal:
    if not is_finite(a) or not is_finite(b):
        if a == 0 or b == 0:
            raise ArithmeticError("0 * inf is undefined")
        return INF
    return a * b


def ext_str(value: ExtReal) -> str:
    return rat_str(value) if is_finite(value) else "inf"


def json_float(field: str, value: ExtReal, scale: float = 1.0) -> float | None:
    """``scale * float(value)`` for the field or value named ``field``: None
    (-> null) for inf, since strict JSON has no Infinity literal.  A finite
    value beyond the float range raises OverflowError naming the field."""
    if not is_finite(value):
        return None
    try:
        out = scale * float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise OverflowError(f"{field}: the exact value is too large for a float")
    return out


def json_pairs(**values: ExtReal) -> dict:
    """{name: exact string, name_float: float} for each value, in order;
    inf gives "inf" and None (see `json_float`)."""
    out = {}
    for name, value in values.items():
        out[name] = ext_str(value)
        out[name + "_float"] = json_float(name + "_float", value)
    return out


@dataclass(frozen=True)
class AtomParams:
    """Scale t > 0, modulation frequency xi (in units of 2*pi), shift u."""

    t: Fraction
    xi: Fraction
    u: Fraction

    @staticmethod
    def of(t: RationalLike, xi: RationalLike, u: RationalLike) -> AtomParams:
        t = rat(t)
        if t <= 0:
            raise ValueError("atom scale t must be positive")
        return AtomParams(t, rat(xi), rat(u))


@dataclass(frozen=True)
class MomentsReport:
    norm_sq: Fraction
    alpha: Fraction
    beta_coeff: Fraction
    sigma_x2: Fraction
    sigma_w2: ExtReal
    uncertainty: ExtReal
    class_tag: ClassTag | None = None

    def to_json_dict(self) -> dict:
        out = {
            **json_pairs(norm_sq=self.norm_sq, alpha=self.alpha),
            "beta_coeff": rat_str(self.beta_coeff),
            "beta_float": json_float("beta_float", self.beta_coeff, 2.0 * math.pi),
            **json_pairs(sigma_x2=self.sigma_x2, sigma_w2=self.sigma_w2,
                         uncertainty=self.uncertainty),
        }
        if self.class_tag is not None:
            out["class"] = self.class_tag.family.value
            out["interior_jumps"] = [rat_str(k) for k in self.class_tag.interior_jumps]
            out["boundary_values"] = [
                rat_str(v) for v in self.class_tag.boundary_values
            ]
        return out


def norm_sq(f: PiecewisePoly) -> Fraction:
    n = f.square_moments[0]
    if n == 0:
        raise ZeroFunctionError("function has zero L2 norm")
    return n


def alpha(f: PiecewisePoly) -> Fraction:
    return f.square_moments[1] / norm_sq(f)


def sigma_x2(f: PiecewisePoly) -> Fraction:
    n = norm_sq(f)
    a = f.square_moments[1] / n
    return f.square_moments[2] / n - a * a


def sigma_w2(f: PiecewisePoly, class_tol: float = 0.0) -> ExtReal:
    """Exact frequency variance, +inf outside the finite regime.

    With class_tol > 0, boundary values and jumps below the tolerance are
    treated as zero for the finiteness decision (the Plancherel value is
    still computed from the exact coefficients as given).
    """
    n = norm_sq(f)
    if any(f.knot_obstructions(class_tol)):
        return INF
    return f.square_moments[3] / n


def uncertainty(f: PiecewisePoly, class_tol: float = 0.0) -> ExtReal:
    return report(f, class_tol, classify=False).uncertainty


def report(
    f: PiecewisePoly, class_tol: float = 0.0, classify: bool = True
) -> MomentsReport:
    sx = sigma_x2(f)
    if sx <= 0:
        # impossible for a nonzero piecewise polynomial; guards 0 * inf
        raise ArithmeticError("sigma_x2 must be positive")
    sw = sigma_w2(f, class_tol)
    return MomentsReport(
        norm_sq=norm_sq(f),
        alpha=alpha(f),
        beta_coeff=Fraction(0),
        sigma_x2=sx,
        sigma_w2=sw,
        uncertainty=ext_mul(sx, sw),
        class_tag=f.classify(class_tol) if classify else None,
    )


def atom_report(
    envelope: PiecewisePoly, params: AtomParams, class_tol: float = 0.0
) -> MomentsReport:
    """Moments of env((x-u)/t) * exp(2 pi i xi x), via exact covariance."""
    base = report(envelope, class_tol)
    t, t2 = params.t, params.t * params.t
    sw = base.sigma_w2 / t2 if is_finite(base.sigma_w2) else INF
    return MomentsReport(
        norm_sq=t * base.norm_sq,
        alpha=params.u + t * base.alpha,
        beta_coeff=params.xi,
        sigma_x2=t2 * base.sigma_x2,
        sigma_w2=sw,
        uncertainty=base.uncertainty,
        class_tag=base.class_tag,
    )
