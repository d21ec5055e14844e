"""Floating-point Fourier analysis used to cross-check the exact pipeline.

The rational modules never evaluate an oscillatory integral: norms, moments
and bandwidths all come from antiderivatives of polynomials.  This module
deliberately takes the opposite route -- pointwise transform values and
frequency moments by numerical quadrature -- so the two routes can be
compared without sharing any code path.

Conventions.  The transform is ``fhat(w) = int e^{-iwx} f(x) dx``, hence
Plancherel reads ``int |fhat|^2 dw = 2*pi * int f^2 dx``, and for continuous
compactly supported f with square-integrable derivative
``int w^2 |fhat|^2 dw = 2*pi * int f'(x)^2 dx``.

Frequency moments are split at a truncation radius R.  On [0, R] the
integrand is evaluated pointwise (`fourier_eval`) and integrated by composite
Gauss-Legendre panels, doubling the panel count until two successive passes
agree.  On [R, inf) the integrand is rewritten through the boundary-term form
of the transform (`knot_expansion`), which is an exact identity -- not an
asymptotic series -- so the tail reduces to a finite combination of
``int_R^inf e^{-i*delta*w} w^{-M} dw`` evaluated with sine and cosine
integrals.  The only tail error is roundoff plus any explicitly dropped
sub-tolerance divergent coefficients; both are folded into the reported
error estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .piecewise import PiecewisePoly
from .poly import Polynomial, ZERO

TWO_PI = 2.0 * math.pi

# |w| * half_length below which a piece is evaluated by its moment series
# rather than by endpoint terms.  At the crossover the series still converges
# like 0.5^k / k! while the endpoint form loses only a few bits to
# cancellation, so both sides of the switch are accurate.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 26
_GL_NODES = 24
_GL_X, _GL_W = leggauss(_GL_NODES)
_MAX_DOUBLINGS = 10


class DivergentIntegralError(ArithmeticError):
    """Raised when a requested frequency moment does not converge."""


@dataclass(frozen=True)
class QuadratureResult:
    """A numerically computed value with an a-posteriori error estimate."""

    value: float
    abs_error_estimate: float
    truncation_radius: float


# ---------------------------------------------------------------------------
# pointwise transform values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PieceData:
    a: float
    b: float
    mid: float
    half: float
    series: tuple[float, ...]    # k-th entry: (moment about mid) / k!
    derivs_a: tuple[float, ...]  # derivative values P^(r)(a)
    derivs_b: tuple[float, ...]


@lru_cache(maxsize=256)
def _piece_data(f: PiecewisePoly) -> tuple[_PieceData, ...]:
    out = []
    for a, b, piece in f.intervals():
        mid = (a + b) / 2
        half = (b - a) / 2
        centered = piece.taylor_shift(mid)  # piece(y + mid) on [-half, half]
        series = []
        for k in range(_SERIES_TERMS):
            mk = Fraction(0)
            for c, q in enumerate(centered.coeffs):
                if (k + c) % 2 == 0:
                    mk += 2 * q * half ** (k + c + 1) / (k + c + 1)
            series.append(float(mk) / math.factorial(k))
        da: list[float] = []
        db: list[float] = []
        d = piece
        while not d.is_zero():
            da.append(float(d(a)))
            db.append(float(d(b)))
            d = d.derivative()
        if not da:
            da = db = [0.0]
        out.append(
            _PieceData(float(a), float(b), float(mid), float(half),
                       tuple(series), tuple(da), tuple(db))
        )
    return tuple(out)


def fourier_eval(f: PiecewisePoly, omega):
    """Evaluate ``fhat(w) = int e^{-iwx} f(x) dx`` at scalar or array ``w``.

    Each piece uses one of two exact-in-principle formulas.  For small
    ``|w| * half_length`` the transform is a rapidly convergent series in the
    exact polynomial moments about the piece midpoint (uniformly accurate
    through w == 0).  Otherwise repeated integration by parts gives a closed
    endpoint form in the derivative values at the piece boundary.
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros(w.shape, dtype=complex)
    for pd in _piece_data(f):
        small = np.abs(w) * pd.half <= _SERIES_CUTOFF
        if small.any():
            ws = w[small]
            z = -1j * ws
            acc = np.zeros(ws.shape, dtype=complex)
            for term in reversed(pd.series):
                acc = acc * z + term
            out[small] += np.exp(-1j * ws * pd.mid) * acc
        big = ~small
        if big.any():
            wb = w[big]
            s = -1j * wb
            u = -1.0 / s
            ga = np.zeros(wb.shape, dtype=complex)
            gb = np.zeros(wb.shape, dtype=complex)
            for va, vb in zip(reversed(pd.derivs_a), reversed(pd.derivs_b)):
                ga = ga * u + va
                gb = gb * u + vb
            out[big] += np.exp(s * pd.b) * (gb / s) - np.exp(s * pd.a) * (ga / s)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# boundary-term (knot) expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnotTerm:
    """One term ``coeff * e^{-i w position} / w**power`` of the transform.

    Summing the terms of `knot_expansion` reproduces fhat(w) exactly for
    every w != 0; the coefficient collects the jump of the r-th derivative at
    a breakpoint (the function is extended by zero outside its support) times
    the phase factor (-i)^(r+1), with power = r + 1.
    """

    position: float
    power: int
    coeff: complex


_PHASE = (-1j, complex(-1), 1j, complex(1))  # (-i)^(r+1) for r = 0,1,2,3 mod 4


@lru_cache(maxsize=256)
def knot_expansion(f: PiecewisePoly) -> tuple[KnotTerm, ...]:
    """Exact boundary-term form of the transform of ``f``.

    Obtained by integrating ``e^{-iwx}`` by parts on each piece until the
    polynomial is exhausted; interior contributions combine into derivative
    jumps at the breakpoints.
    """
    terms: list[KnotTerm] = []
    n = len(f.pieces)
    for j, x in enumerate(f.breakpoints):
        left = f.pieces[j - 1] if j > 0 else ZERO
        right = f.pieces[j] if j < n else ZERO
        r = 0
        while not (left.is_zero() and right.is_zero()):
            jump = right(x) - left(x)
            if jump:
                terms.append(KnotTerm(float(x), r + 1, float(jump) * _PHASE[r % 4]))
            left = left.derivative()
            right = right.derivative()
            r += 1
    return tuple(terms)


def eval_knot_expansion(terms, omega):
    """Sum a knot expansion at scalar or array ``omega`` (all entries != 0)."""
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros(w.shape, dtype=complex)
    for t in terms:
        out += t.coeff * np.exp(-1j * w * t.position) / w**t.power
    return complex(out[0]) if scalar else out


def _product_terms(ta, tb, k: int, conjugate_second: bool = True):
    """Terms of ``w^k * A(w) * B~(w)`` with A, B given by knot expansions.

    B~ is conj(B) when ``conjugate_second`` else B itself.  Returns a dict
    mapping (delta, M) -> coefficient for terms ``c * e^{-i w delta} / w^M``.
    Coefficients sharing a key are accumulated before any convergence
    screening, which matters: pairings whose individually divergent parts
    cancel by symmetry must be allowed to do so.
    """
    out: dict[tuple[float, int], complex] = {}
    for u in ta:
        for v in tb:
            if conjugate_second:
                delta = u.position - v.position
                c = u.coeff * v.coeff.conjugate()
            else:
                delta = u.position + v.position
                c = u.coeff * v.coeff
            key = (delta, u.power + v.power - k)
            out[key] = out.get(key, 0j) + c
    return out


def _tail_I(radius: float, delta: float, m_max: int) -> list[complex]:
    """``I_M = int_R^inf e^{-i delta w} w^{-M} dw`` for M = 1..m_max."""
    # imported here: scipy.special adds about 25 MB to every process that
    # imports this module, and only the quadrature tails need it
    from scipy.special import sici

    vals = [0j] * (m_max + 1)
    if delta == 0.0:
        for m in range(2, m_max + 1):
            vals[m] = complex(radius ** (1 - m) / (m - 1))
        return vals
    z = abs(delta) * radius
    si, ci = sici(z)
    vals[1] = -ci - 1j * math.copysign(1.0, delta) * (math.pi / 2 - si)
    phase = cmath.exp(-1j * delta * radius)
    for m in range(2, m_max + 1):
        vals[m] = (phase * radius ** (1 - m) - 1j * delta * vals[m - 1]) / (m - 1)
    return vals


def _tail_sum(prod, radius: float, drop_tol: float):
    """Sum ``c * I_M(delta)`` over product terms; returns (total, dropped).

    Terms with M <= 0, or M == 1 with zero phase slope, have no convergent
    improper integral.  A coefficient above ``drop_tol`` raises
    `DivergentIntegralError`; below it the term is dropped and a crude bound
    on its size over one radius-length window is added to ``dropped``.
    """
    by_delta: dict[float, dict[int, complex]] = {}
    dropped = 0.0
    for (delta, m), c in prod.items():
        if m <= 0 or (m == 1 and delta == 0.0):
            if abs(c) > drop_tol:
                raise DivergentIntegralError(
                    f"tail term {abs(c):.3e} * w^{-m} with phase slope "
                    f"{delta!r} does not converge"
                )
            dropped += abs(c) * radius ** max(1 - m, 0)
            continue
        by_delta.setdefault(delta, {})[m] = c
    total = 0j
    for delta, by_m in by_delta.items():
        vals = _tail_I(radius, delta, max(by_m))
        for m, c in by_m.items():
            total += c * vals[m]
    return total, dropped


# ---------------------------------------------------------------------------
# head quadrature
# ---------------------------------------------------------------------------


def _gl_panels(func, lo: float, hi: float, panels: int) -> float:
    edges = np.linspace(lo, hi, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2
    halfw = (edges[1:] - edges[:-1]) / 2
    pts = (mid[:, None] + halfw[:, None] * _GL_X[None, :]).ravel()
    weights = (halfw[:, None] * _GL_W[None, :]).ravel()
    return float(np.dot(func(pts), weights))


def _head_quad(func, lo: float, hi: float, rtol: float, panels0: int,
               scale_floor: float = 0.0):
    """Composite Gauss-Legendre with panel doubling; returns (value, err)."""
    prev = _gl_panels(func, lo, hi, panels0)
    panels = panels0
    err = math.inf
    cur = prev
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur = _gl_panels(func, lo, hi, panels)
        err = abs(cur - prev)
        if err <= rtol * max(abs(cur), scale_floor) + 1e-300:
            break
        prev = cur
    return cur, err


def _initial_panels(radius: float, diameter: float) -> int:
    # keep the phase advance of the fastest oscillation modest per panel
    return max(8, int(radius * max(diameter, 1.0) / 12.0) + 1)


# ---------------------------------------------------------------------------
# frequency moments
# ---------------------------------------------------------------------------


def quad_freq_moment(f: PiecewisePoly, k: int, *, radius: float = 40.0,
                     rtol: float = 1e-9, drop_tol: float = 1e-8) -> QuadratureResult:
    """``(1/2pi) * int_R w^k |fhat(w)|^2 dw`` for k in {0, 2}, by quadrature.

    By Plancherel the k = 0 value equals ``int f^2`` and the k = 2 value
    equals ``int (f')^2`` whenever the latter is finite.  If f has a genuine
    jump (interior, or a nonzero boundary value) the k = 2 tail carries a
    non-decaying term and `DivergentIntegralError` is raised; jump
    coefficients whose tail contribution stays below ``drop_tol`` are instead
    dropped into the error estimate.
    """
    if k not in (0, 2):
        raise ValueError(f"frequency moment order must be 0 or 2, got {k!r}")
    if f.is_zero():
        return QuadratureResult(0.0, 0.0, radius)
    terms = knot_expansion(f)
    prod = _product_terms(terms, terms, k)
    tail, dropped = _tail_sum(prod, radius, drop_tol)

    def integrand(w):
        fh = fourier_eval(f, w)
        vals = fh.real**2 + fh.imag**2
        return vals * w**k if k else vals

    lo, hi = f.support
    head, head_err = _head_quad(integrand, 0.0, radius, rtol,
                                _initial_panels(radius, float(hi - lo)))
    # even integrand: both half-lines contribute equally; the tail sum is
    # real up to roundoff, so its imaginary part is counted as error
    value = (2.0 * head + 2.0 * tail.real) / TWO_PI
    est = (2.0 * head_err + 2.0 * abs(tail.imag) + dropped) / TWO_PI
    return QuadratureResult(value, est, radius)


def quad_sigma_w2(f: PiecewisePoly, *, radius: float = 40.0, rtol: float = 1e-9,
                  drop_tol: float = 1e-8) -> QuadratureResult:
    """Frequency variance about 0 by pure frequency-side quadrature.

    Ratio of the second to the zeroth frequency moment; for a real function
    with zero frequency mean this is the spectral variance that the exact
    pipeline computes from ``int (f')^2 / int f^2``.
    """
    m2 = quad_freq_moment(f, 2, radius=radius, rtol=rtol, drop_tol=drop_tol)
    m0 = quad_freq_moment(f, 0, radius=radius, rtol=rtol, drop_tol=drop_tol)
    value = m2.value / m0.value
    est = (m2.abs_error_estimate + abs(value) * m0.abs_error_estimate) / m0.value
    return QuadratureResult(value, est, radius)


def cross_freq_moment_quad(fs: PiecewisePoly, fd: PiecewisePoly, *,
                           radius: float = 40.0, rtol: float = 1e-9,
                           drop_tol: float = 1e-8) -> QuadratureResult:
    """``(1/2pi) * int_R w^2 fhat_s(w) conj(fhat_d(w)) dw`` (real part).

    For real fs, fd with square-integrable derivatives this equals
    ``int fs' fd'`` -- the mixed term that appears when the bandwidth of a
    sum is expanded into its reflection halves.
    """
    prod = _product_terms(knot_expansion(fs), knot_expansion(fd), 2)
    tail, dropped = _tail_sum(prod, radius, drop_tol)

    def integrand(w):
        a = fourier_eval(fs, w)
        b = fourier_eval(fd, w)
        return (a * np.conj(b)).real * w * w

    lo_s, hi_s = fs.support
    lo_d, hi_d = fd.support
    diam = float(max(hi_s, hi_d) - min(lo_s, lo_d))
    head, head_err = _head_quad(integrand, 0.0, radius, rtol,
                                _initial_panels(radius, diam))
    # the integrand at -w is the conjugate of its value at +w, so the full
    # line integral is twice the real part of the half-line integral
    value = (2.0 * head + 2.0 * tail.real) / TWO_PI
    est = (2.0 * head_err + dropped) / TWO_PI
    return QuadratureResult(value, est, radius)


# ---------------------------------------------------------------------------
# half-profile transform of the G-family envelope
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _g_half_profile(n: int) -> PiecewisePoly:
    # (1 - y)^n on [0, 1]
    return PiecewisePoly.single(0, 1, Polynomial.of([1, -1]) ** n)


def F_n_eval(n: int, eta):
    """``F_n(eta) = int_0^1 (1 - y)^n cos(eta y) dy`` (scalar or array eta)."""
    return fourier_eval(_g_half_profile(n), eta).real


def F_sq_integral(n: int, *, radius: float = 60.0, rtol: float = 1e-9,
                  drop_tol: float = 1e-8) -> QuadratureResult:
    """``int_R F_n(eta)^2 d eta``; equals pi/(2n+1) by Plancherel.

    F_n is the real part of the half-profile transform A, so
    ``F_n^2 = Re(A^2)/2 + |A|^2/2`` and both tail pieces reduce to the same
    sine/cosine-integral machinery (one without conjugation, one with).
    """
    g = _g_half_profile(n)
    terms = knot_expansion(g)
    t_sq, d_sq = _tail_sum(_product_terms(terms, terms, 0, conjugate_second=False),
                           radius, drop_tol)
    t_abs, d_abs = _tail_sum(_product_terms(terms, terms, 0), radius, drop_tol)
    tail = 0.5 * t_sq.real + 0.5 * t_abs.real

    def integrand(eta):
        v = fourier_eval(g, eta).real
        return v * v

    head, head_err = _head_quad(integrand, 0.0, radius, rtol,
                                _initial_panels(radius, 1.0))
    value = 2.0 * head + 2.0 * tail
    est = 2.0 * head_err + 0.5 * (d_sq + d_abs) + abs(t_abs.imag)
    return QuadratureResult(value, est, radius)


# ---------------------------------------------------------------------------
# modulated atoms
# ---------------------------------------------------------------------------


def atom_freq_mean(envelope: PiecewisePoly, params, *, radius: float = 40.0,
                   rtol: float = 1e-9, drop_tol: float = 1e-8) -> QuadratureResult:
    """Frequency mean of ``env((x - u)/t) e^{2 pi i xi x}`` by quadrature.

    The modulated-atom spectrum is the envelope spectrum translated to
    ``2 pi xi`` and dilated by 1/t, so the mean is ``2 pi xi`` plus the
    envelope's own (normalized) first frequency moment divided by t.  For a
    real envelope that moment has an odd integrand: the head is integrated
    over a symmetric window where it cancels to roundoff, and the two tails
    cancel exactly and are omitted.
    """
    t = float(params.t)
    xi = float(params.xi)
    m0 = quad_freq_moment(envelope, 0, radius=radius, rtol=rtol, drop_tol=drop_tol)
    denom = TWO_PI * m0.value  # int |env_hat|^2

    def integrand(eta):
        fh = fourier_eval(envelope, eta)
        return eta * (fh.real**2 + fh.imag**2)

    lo, hi = envelope.support
    panels0 = 2 * _initial_panels(radius, float(hi - lo))
    first, first_err = _head_quad(integrand, -radius, radius, rtol, panels0,
                                  scale_floor=denom * radius)
    value = TWO_PI * xi + first / (t * denom)
    est = (first_err + abs(first / denom) * TWO_PI * m0.abs_error_estimate) / (t * denom)
    return QuadratureResult(value, est, radius)
