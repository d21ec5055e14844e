"""Exact time-frequency uncertainty products for piecewise polynomials.

The package computes the Heisenberg product U = sigma_x^2 * sigma_w^2 for
compactly supported piecewise-polynomial functions in exact rational
arithmetic, with a floating-point spectral module serving as an independent
cross-check.  ``import pwuncert`` loads the exact route only, which needs
nothing outside the standard library; numpy and scipy load when
`pwuncert.spectrum` (or `pwuncert.verify`, which compares the two routes) is
imported.  See the module docstrings for conventions and derivations:

- `poly`, `piecewise`: exact polynomial and piecewise-polynomial arithmetic
- `moments`: norms, means, variances, the uncertainty product, atom covariance
- `dictionaries`: the two closed-form envelope families G and F
- `bspline`: the iterated-boxcar family rect^p and its monotone limit
- `symmetry`: reflection halves, convexity bounds, even/odd energy balance
- `spectrum`: numerical Fourier transforms and frequency-moment quadrature
- `verify`: every headline value as a named pass/fail check
- `cli`: the `pwuncert` command-line tool
"""

from .poly import Polynomial, rat, rat_str
from .piecewise import (
    ClassTag,
    FunctionClass,
    JumpDiscontinuityError,
    PiecewisePoly,
    SupportError,
    tent,
)
from .moments import (
    INF,
    AtomParams,
    ExtReal,
    MomentsReport,
    ZeroFunctionError,
    atom_report,
    report,
    uncertainty,
)
from .dictionaries import DictionaryId, DictRow, dict_table, envelope, verify_minimizer
from .bspline import limit_check, rect_p_explicit, rect_p_recursive, rect_scan
from .symmetry import (
    ClassViolationError,
    ReflectionPair,
    asymmetric_cubic,
    corollary_normalize,
    even_odd_split,
    reflections,
    theorem_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "ClassTag",
    "ClassViolationError",
    "DictRow",
    "DictionaryId",
    "ExtReal",
    "FunctionClass",
    "INF",
    "JumpDiscontinuityError",
    "MomentsReport",
    "PiecewisePoly",
    "Polynomial",
    "ReflectionPair",
    "SupportError",
    "ZeroFunctionError",
    "asymmetric_cubic",
    "atom_report",
    "corollary_normalize",
    "dict_table",
    "envelope",
    "even_odd_split",
    "limit_check",
    "rat",
    "rat_str",
    "rect_p_explicit",
    "rect_p_recursive",
    "rect_scan",
    "reflections",
    "report",
    "tent",
    "theorem_bound_check",
    "uncertainty",
    "verify_minimizer",
]
