"""Two dictionaries of compactly supported envelopes and their uncertainties.

Family G, indexed by n >= 0, has envelope shape (1 - |x|)^n on [-1, 1]; the
n = 0 member is the boxcar, whose frequency variance diverges.  Family F,
indexed by n >= 1, has envelope shape 1 - |x|^n on [-1, 1].  Envelopes are
stored unnormalized; the squared normalization prefactor (a rational, so the
square root never has to be materialized) is available separately:

    G: (2n+1)/2          so that prefactor^2 * int shape^2 = 1
    F: (2n+1)(n+1)/(4 n^2)

Closed-form moments (unit scale):

    G:  sigma_x2 = 1/(2n^2+5n+3)        sigma_w2 = n^2 (2n+1)/(2n-1)
    F:  sigma_x2 = (2n^2+3n+1)/(3(2n^2+9n+9))
                                        sigma_w2 = (2n+1)(n+1)/(2(2n-1))

`dict_table` recomputes every row through the exact piecewise pipeline and
insists on exact agreement with these closed forms; any mismatch is a bug,
not a tolerance issue, and raises.  Both families attain their minimum
uncertainty 3/10 at n = 1 (the tent); U_G increases toward its supremum 1/2
and U_F grows like n/6.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from . import moments
from .moments import INF, ExtReal, is_finite
from .piecewise import PiecewisePoly
from .poly import Polynomial

Family = Literal["G", "F"]


class ClosedFormMismatch(AssertionError):
    """Exact pipeline and closed form disagree: an implementation bug."""


@dataclass(frozen=True)
class DictionaryId:
    family: Family
    n: int

    def __post_init__(self) -> None:
        if self.family not in ("G", "F"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "G" and self.n < 0:
            raise ValueError("family G needs n >= 0")
        if self.family == "F" and self.n < 1:
            raise ValueError("family F needs n >= 1")


@dataclass(frozen=True)
class DictRow:
    family: Family
    n: int
    sigma_x2: Fraction
    sigma_w2: ExtReal
    uncertainty: ExtReal


def envelope(ident: DictionaryId) -> PiecewisePoly:
    """Unnormalized envelope shape on [-1, 1]."""
    n = ident.n
    if ident.family == "G":
        if n == 0:
            return PiecewisePoly.single(-1, 1, Polynomial.of([1]))
        left = Polynomial.of([1, 1]) ** n     # (1 + x)^n
        right = Polynomial.of([1, -1]) ** n   # (1 - x)^n
    else:
        one = Polynomial.of([1])
        xn = Polynomial.of([0, 1]) ** n
        right = one - xn                       # 1 - x^n
        left = one - xn.compose_affine(-1, 0)  # 1 - (-x)^n
    return PiecewisePoly.from_pieces([-1, 0, 1], [left, right])


def prefactor_sq(ident: DictionaryId) -> Fraction:
    """Squared L2 normalization constant of the unit-scale envelope."""
    n = ident.n
    if ident.family == "G":
        return Fraction(2 * n + 1, 2)
    return Fraction((2 * n + 1) * (n + 1), 4 * n * n)


def closed_sigma_x2(ident: DictionaryId) -> Fraction:
    n = ident.n
    if ident.family == "G":
        return Fraction(1, 2 * n * n + 5 * n + 3)
    return Fraction(2 * n * n + 3 * n + 1, 3 * (2 * n * n + 9 * n + 9))


def closed_sigma_w2(ident: DictionaryId) -> ExtReal:
    n = ident.n
    if ident.family == "G":
        if n == 0:
            return INF
        return Fraction(n * n * (2 * n + 1), 2 * n - 1)
    return Fraction((2 * n + 1) * (n + 1), 2 * (2 * n - 1))


def closed_uncertainty(ident: DictionaryId) -> ExtReal:
    sx, sw = closed_sigma_x2(ident), closed_sigma_w2(ident)
    return sx * sw if is_finite(sw) else INF


def row(ident: DictionaryId) -> DictRow:
    """One table row, cross-checked exactly against the piecewise pipeline."""
    rep = moments.report(envelope(ident), classify=False)
    sx, sw, u = closed_sigma_x2(ident), closed_sigma_w2(ident), closed_uncertainty(ident)
    if rep.sigma_x2 != sx or rep.sigma_w2 != sw or rep.uncertainty != u:
        raise ClosedFormMismatch(
            f"({ident.family},{ident.n}): pipeline "
            f"({rep.sigma_x2}, {rep.sigma_w2}, {rep.uncertainty}) "
            f"vs closed form ({sx}, {sw}, {u})"
        )
    if rep.norm_sq * prefactor_sq(ident) != 1:
        raise ClosedFormMismatch(
            f"({ident.family},{ident.n}): prefactor^2 * ||shape||^2 != 1"
        )
    return DictRow(ident.family, ident.n, sx, sw, u)


def dict_table(family: Family, n_max: int) -> list[DictRow]:
    """Rows n = 1..n_max (family G additionally gets the n = 0 boxcar)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    start = 0 if family == "G" else 1
    return [row(DictionaryId(family, n)) for n in range(start, n_max + 1)]


N_MAX = 100


@dataclass(frozen=True)
class MinimizerReport:
    family: Family
    argmin_n: int
    min_uncertainty: Fraction
    strictly_increasing: bool
    all_below_half: bool | None      # family G only
    ok: bool


def verify_minimizer(family: Family) -> MinimizerReport:
    """Decide on the closed forms over n = 1..N_MAX that n = 1 (the tent) is
    the unique minimizer, at 3/10, that U strictly increases and, for G,
    that U stays below 1/2.  `verify` decides the asymptotic claims."""
    values = [closed_uncertainty(DictionaryId(family, n)) for n in range(1, N_MAX + 1)]
    argmin_n = 1 + values.index(min(values))
    increasing = all(a < b for a, b in zip(values, values[1:]))
    below_half = all(v < Fraction(1, 2) for v in values) if family == "G" else None
    ok = (argmin_n == 1 and values[0] == Fraction(3, 10) and increasing
          and below_half is not False)
    return MinimizerReport(family, argmin_n, values[argmin_n - 1], increasing,
                           below_half, ok)
