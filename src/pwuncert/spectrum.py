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

Independence.  The oracle reads only the breakpoints and the raw
coefficients of a function; it calls no `Polynomial` evaluation, derivative
or change of variable, so it shares no kernel with the route it checks.
One integer pass per function (`_spectral_data`, cached) gives all it
needs: each piece is cleared to integers and Taylor-shifted to its midpoint
on integers (`_centred`), which yields the moments behind the small-``|w|``
series, the derivative values at the piece ends behind the
integration-by-parts form, and the knot jumps behind the boundary-term form
(`knot_expansion`).  Each value is one integer division, which Python rounds
correctly, and a knot jump is tested against exact zero.

Every frequency integral is one routine, `_freq_moments`:
``int w^k Re(fhat_a conj fhat_b)`` for a pair of functions, split at the
radius R = 40.  On [0, R] the transform (`fourier_eval`, evaluated once per
panel count, shared by the orders and, when a is b, by the two factors) is
integrated by composite Gauss-Legendre panels, doubling the panel count
until two passes agree to 1e-9 relative, else `QuadratureConvergenceError`.
On [R, inf) the boundary-term form -- an exact identity, not an asymptotic
series -- reduces the tail to a finite combination of
``int_R^inf e^{-i*delta*w} w^{-M} dw`` evaluated with sine and cosine
integrals.  The only tail error is roundoff plus divergent coefficients
below 1e-8, which are dropped; both are folded into the error estimate.
The radius, tolerance and drop threshold are constants: every caller uses
the same values.

The Gauss-Legendre rule (`numpy.polynomial`) and ``scipy.special`` are
loaded by the first quadrature, not at import.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .piecewise import PiecewisePoly
from .poly import Polynomial

TWO_PI = 2.0 * math.pi

# |w| * half_length below which a piece is evaluated by its moment series
# rather than by endpoint terms.  At the crossover the series still converges
# like 0.5^k / k! while the endpoint form loses only a few bits to
# cancellation, so both sides of the switch are accurate.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 26
_GL_NODES = 24
_MAX_DOUBLINGS = 10
_RADIUS = 40.0       # truncation radius of every frequency moment
_F_SQ_RADIUS = 60.0  # truncation radius of `F_sq_integral`
_RTOL = 1e-9         # relative agreement of two successive head passes
_DROP_TOL = 1e-8     # largest divergent tail coefficient dropped as roundoff


class DivergentIntegralError(ArithmeticError):
    """Raised when a requested frequency moment does not converge."""


class QuadratureConvergenceError(ArithmeticError):
    """Raised when a head quadrature misses its tolerance at every panel
    count it is allowed to try."""


@dataclass(frozen=True)
class QuadratureResult:
    """A numerically computed value with an a-posteriori error estimate.

    ``panels`` is the largest Gauss-Legendre panel count of the head
    quadratures behind the value (0 when none ran); each of them met its
    tolerance there, since a head that does not raises
    `QuadratureConvergenceError` instead of returning.
    """

    value: float
    abs_error_estimate: float
    panels: int


# ---------------------------------------------------------------------------
# per-piece data on integers
# ---------------------------------------------------------------------------


def _shift(c: list[int], t: int) -> list[int]:
    """Coefficients of C(w + t) from those of C(w), on integers."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += t * c[j + 1]
    return c


def _centred(a: Fraction, b: Fraction, coeffs) -> tuple[list[int], int, int, int, int]:
    """One piece on integers, about the midpoint of [a, b].

    With E = lcm(den a, den b), S = 2E, M = E(a + b) and H = E(b - a), all
    integers, put w = S x - M, which runs over [-H, H] on the piece.  For a
    piece p of degree d with coefficients n_j / D (D their common
    denominator), p(x) = sum_j n_j S^(d-j) (w + M)^j / (D S^d), so
    p(x) = sum_c e_c w^c / (D S^d) with e the integer Taylor shift by M of
    n_j S^(d-j).  Returns (e, D, S, M, H); e is empty for the zero piece.
    """
    pairs = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*[q for _, q in pairs])
    d = len(pairs) - 1
    big_e = math.lcm(a.denominator, b.denominator)
    lo = a.numerator * (big_e // a.denominator)
    hi = b.numerator * (big_e // b.denominator)
    s = 2 * big_e
    ints = [n * (den // q) * s ** (d - j) for j, (n, q) in enumerate(pairs)]
    return _shift(ints, lo + hi), den, s, lo + hi, hi - lo


def _series(e: list[int], den: int, s: int, h: int) -> tuple[float, ...]:
    """(moment of order k about the midpoint) / k!, for k < _SERIES_TERMS.

    The moment is int_{-H}^{H} (w/S)^k p dw / S
    = sum over c with k + c even of 2 e_c H^(k+c+1) / ((k+c+1) D S^(d+k+1));
    over the common denominator L = lcm(1..top) it is one integer quotient.
    """
    d = len(e) - 1
    top = _SERIES_TERMS + d
    big_l = math.lcm(*range(1, top + 1))
    h_pow = [1] * (top + 1)
    s_pow = [1] * (top + 1)
    for t in range(1, top + 1):
        h_pow[t] = h_pow[t - 1] * h
        s_pow[t] = s_pow[t - 1] * s
    out = []
    for k in range(_SERIES_TERMS):
        num = 0
        for c in range(k % 2, d + 1, 2):
            t = k + c + 1
            num += e[c] * h_pow[t] * (big_l // t)
        out.append(2 * num / (big_l * den * s_pow[d + k + 1]) / math.factorial(k))
    return tuple(out)


def _end_values(e: list[int], den: int, s: int,
                h: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Exact p^(r) at the left and the right piece end, r = 0..d, each as an
    integer pair (num, den).

    With w = S x - M, p^(r)(x) = S^r E^(r)(w) / (D S^d), and E^(r)(w0) is
    r! times coefficient r of E(w + w0); the ends are w0 = -H and w0 = H.
    """
    d = len(e) - 1
    return tuple(
        [(math.factorial(r) * c, den * s ** (d - r))
         for r, c in enumerate(_shift(e, w0))]
        for w0 in (-h, h)
    )


@dataclass(frozen=True)
class _PieceData:
    a: float
    b: float
    mid: float
    half: float
    series: tuple[float, ...]    # k-th entry: (moment about mid) / k!
    derivs_a: tuple[float, ...]  # derivative values P^(r)(a)
    derivs_b: tuple[float, ...]


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
def _spectral_data(f: PiecewisePoly) -> tuple[tuple[_PieceData, ...],
                                              tuple[KnotTerm, ...]]:
    """The per-piece data behind `fourier_eval` and the knot terms behind
    `knot_expansion`, from one integer pass over the pieces.

    A knot term is found by integrating ``e^{-iwx}`` by parts on each piece
    until the polynomial is exhausted; interior contributions combine into
    derivative jumps at the breakpoints.  Each jump is the exact difference
    of the two one-sided derivative values, rounded to float once.
    """
    pieces, ends = [], []
    for a, b, piece in f.intervals():
        e, den, s, m, h = _centred(a, b, piece.coeffs)
        at_a, at_b = _end_values(e, den, s, h)
        ends.append((at_a, at_b))
        pieces.append(
            _PieceData(float(a), float(b), m / s, h / s, _series(e, den, s, h),
                       tuple(n / q for n, q in at_a) or (0.0,),
                       tuple(n / q for n, q in at_b) or (0.0,))
        )
    terms: list[KnotTerm] = []
    for j, x in enumerate(f.breakpoints):
        left = ends[j - 1][1] if j > 0 else []
        right = ends[j][0] if j < len(ends) else []
        for r in range(max(len(left), len(right))):
            ln, ld = left[r] if r < len(left) else (0, 1)
            rn, rd = right[r] if r < len(right) else (0, 1)
            jump = rn * ld - ln * rd
            if jump:
                terms.append(KnotTerm(float(x), r + 1,
                                      jump / (rd * ld) * _PHASE[r % 4]))
    return tuple(pieces), tuple(terms)


def knot_expansion(f: PiecewisePoly) -> tuple[KnotTerm, ...]:
    """Exact boundary-term form of the transform of ``f``."""
    return _spectral_data(f)[1]


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
    for pd in _spectral_data(f)[0]:
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
# tails from the boundary-term form
# ---------------------------------------------------------------------------


def _product_terms(ta, tb):
    """Terms of ``A(w) * conj(B(w))`` with A, B given by knot expansions.

    Returns a dict mapping (delta, M) -> coefficient for terms
    ``c * e^{-i w delta} / w^M``.  Coefficients sharing a key are
    accumulated before any convergence screening, which matters: pairings
    whose individually divergent parts cancel by symmetry must be allowed to
    do so.
    """
    out: dict[tuple[float, int], complex] = {}
    for u in ta:
        for v in tb:
            key = (u.position - v.position, u.power + v.power)
            out[key] = out.get(key, 0j) + u.coeff * v.coeff.conjugate()
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


def _tail_sums(prod, orders: tuple[int, ...],
               radius: float) -> list[tuple[complex, float]]:
    """Sum ``c * I_(M-k)(delta)`` over the product terms, that is the tail of
    ``w^k`` times the product, for each k in ``orders``; returns one
    (total, dropped) per order.

    Terms with M - k <= 0, or M - k == 1 with zero phase slope, have no
    convergent improper integral.  A coefficient above ``_DROP_TOL`` raises
    `DivergentIntegralError` (checked for every order before any integral is
    evaluated); below it the term is dropped and a crude bound on its size
    over one radius-length window is added to ``dropped``.  The orders share
    one `_tail_I` list per phase slope: its forward recurrence gives the same
    values whatever its length.
    """
    kept = []
    m_top: dict[float, int] = {}
    for k in orders:
        by_delta: dict[float, dict[int, complex]] = {}
        dropped = 0.0
        for (delta, power), c in prod.items():
            m = power - k
            if m <= 0 or (m == 1 and delta == 0.0):
                if abs(c) > _DROP_TOL:
                    raise DivergentIntegralError(
                        f"tail term {abs(c):.3e} * w^{-m} with phase slope "
                        f"{delta!r} does not converge"
                    )
                dropped += abs(c) * radius ** max(1 - m, 0)
                continue
            by_delta.setdefault(delta, {})[m] = c
            m_top[delta] = max(m_top.get(delta, 0), m)
        kept.append((by_delta, dropped))
    vals = {delta: _tail_I(radius, delta, m) for delta, m in m_top.items()}
    out = []
    for by_delta, dropped in kept:
        total = 0j
        for delta, by_m in by_delta.items():
            for m, c in by_m.items():
                total += c * vals[delta][m]
        out.append((total, dropped))
    return out


# ---------------------------------------------------------------------------
# head quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights, built by the first quadrature."""
    # imported here: numpy.polynomial and the LAPACK call inside leggauss
    # add about 1 MB to every process that imports this module
    from numpy.polynomial.legendre import leggauss
    return leggauss(_GL_NODES)


def _gl_panels(rows, lo: float, hi: float, panels: int) -> list[float]:
    gl_x, gl_w = _gl_rule()
    edges = np.linspace(lo, hi, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2
    halfw = (edges[1:] - edges[:-1]) / 2
    pts = (mid[:, None] + halfw[:, None] * gl_x[None, :]).ravel()
    weights = (halfw[:, None] * gl_w[None, :]).ravel()
    return [float(np.dot(row, weights)) for row in rows(pts)]


def _head_quad(rows, lo: float, hi: float, panels0: int,
               scale_floor: float = 0.0) -> list[tuple[float, float, int]]:
    """Composite Gauss-Legendre on [lo, hi] with panel doubling, for several
    integrands evaluated at shared nodes.

    ``rows(pts)`` returns one 1-D array of values per integrand.  Each
    integrand has its own convergence test -- two successive panel counts
    agree to ``_RTOL`` relative, against at least ``scale_floor`` -- and keeps
    the value of the panel count where it first passes; doubling goes on
    while any has not passed.  Each is summed by its own 1-D ``np.dot``, so
    its value does not depend on which others share the pass.  Returns
    (value, err, panels) per integrand, or raises
    `QuadratureConvergenceError` after ``_MAX_DOUBLINGS`` doublings.
    """
    prev = _gl_panels(rows, lo, hi, panels0)
    done: list[tuple[float, float, int] | None] = [None] * len(prev)
    for doubling in range(1, _MAX_DOUBLINGS + 1):
        panels = panels0 << doubling
        cur = _gl_panels(rows, lo, hi, panels)
        for i, (c, p) in enumerate(zip(cur, prev)):
            err = abs(c - p)
            if done[i] is None and err <= _RTOL * max(abs(c), scale_floor) + 1e-300:
                done[i] = (c, err, panels)
        if all(done):
            return done
        prev = cur
    raise QuadratureConvergenceError(
        f"head quadrature on [{lo!r}, {hi!r}] missed rtol {_RTOL!r} up to "
        f"{panels0 << _MAX_DOUBLINGS} panels")


def _initial_panels(radius: float, diameter: float) -> int:
    # keep the phase advance of the fastest oscillation modest per panel
    return max(8, int(radius * max(diameter, 1.0) / 12.0) + 1)


# ---------------------------------------------------------------------------
# frequency moments
# ---------------------------------------------------------------------------


def _freq_moments(fa: PiecewisePoly, fb: PiecewisePoly,
                  orders: tuple[int, ...]) -> list[QuadratureResult]:
    """``(1/2pi) * int_R w^k Re(fhat_a(w) conj(fhat_b(w))) dw`` for each
    order k in ``orders``, all from one transform pass.

    When ``fa is fb`` the integrand is ``w^k |fhat|^2`` and the transform is
    evaluated once per panel count.  Every tail is summed before any head
    quadrature runs, so a divergent order raises before the transform is
    evaluated.
    """
    for k in orders:
        if k not in (0, 2):
            raise ValueError(f"frequency moment order must be 0 or 2, got {k!r}")
    if fa.is_zero() and fb.is_zero():  # one zero factor still runs the head
        return [QuadratureResult(0.0, 0.0, 0) for _ in orders]
    prod = _product_terms(knot_expansion(fa), knot_expansion(fb))
    tails = _tail_sums(prod, orders, _RADIUS)

    def rows(w):
        ha = fourier_eval(fa, w)
        hb = ha if fa is fb else fourier_eval(fb, w)
        vals = ha.real * hb.real + ha.imag * hb.imag
        return [vals * w**k if k else vals for k in orders]

    (lo_a, hi_a), (lo_b, hi_b) = fa.support, fb.support
    diameter = float(max(hi_a, hi_b) - min(lo_a, lo_b))
    heads = _head_quad(rows, 0.0, _RADIUS, _initial_panels(_RADIUS, diameter))
    out = []
    for (tail, dropped), (head, head_err, panels) in zip(tails, heads):
        # the integrand at -w is the conjugate of its value at +w, so the
        # line integral is twice the real part of the half-line one; for
        # a single function the tail sum is real up to roundoff, so its
        # imaginary part is counted as error
        roundoff = 2.0 * abs(tail.imag) if fa is fb else 0.0
        value = (2.0 * head + 2.0 * tail.real) / TWO_PI
        est = (2.0 * head_err + roundoff + dropped) / TWO_PI
        out.append(QuadratureResult(value, est, panels))
    return out


def quad_freq_moment(f: PiecewisePoly, k: int) -> QuadratureResult:
    """``(1/2pi) * int_R w^k |fhat(w)|^2 dw`` for k in {0, 2}, by quadrature.

    By Plancherel the k = 0 value equals ``int f^2`` and the k = 2 value
    equals ``int (f')^2`` whenever the latter is finite.  If f has a genuine
    jump (interior, or a nonzero boundary value) the k = 2 tail carries a
    non-decaying term and `DivergentIntegralError` is raised; jump
    coefficients below the drop threshold (1e-8) are instead dropped into
    the error estimate.
    """
    return _freq_moments(f, f, (k,))[0]


def quad_sigma_w2(f: PiecewisePoly) -> QuadratureResult:
    """Frequency variance about 0 by pure frequency-side quadrature.

    Ratio of the second to the zeroth frequency moment, both from one
    transform pass; for a real function with zero frequency mean this is the
    spectral variance that the exact pipeline computes from
    ``int (f')^2 / int f^2``.
    """
    m2, m0 = _freq_moments(f, f, (2, 0))
    value = m2.value / m0.value
    est = (m2.abs_error_estimate + abs(value) * m0.abs_error_estimate) / m0.value
    return QuadratureResult(value, est, max(m2.panels, m0.panels))


def cross_freq_moment_quad(fs: PiecewisePoly, fd: PiecewisePoly) -> QuadratureResult:
    """``(1/2pi) * int_R w^2 fhat_s(w) conj(fhat_d(w)) dw`` (real part).

    For real fs, fd with square-integrable derivatives this equals
    ``int fs' fd'`` -- the mixed term that appears when the bandwidth of a
    sum is expanded into its reflection halves.
    """
    return _freq_moments(fs, fd, (2,))[0]


# ---------------------------------------------------------------------------
# half-profile transform of the G-family envelope
# ---------------------------------------------------------------------------


def F_sq_integral(n: int) -> QuadratureResult:
    """``int_R F_n(eta)^2 d eta``; equals pi/(2n+1) by Plancherel.

    F_n(eta) = int_0^1 (1 - y)^n cos(eta y) dy is the real part of the
    half-profile transform A, so ``F_n^2 = Re(A^2)/2 + |A|^2/2`` and both
    tail pieces reduce to the same sine/cosine-integral machinery: A^2 is
    A times the conjugate of the transform of the mirrored terms.
    """
    g = PiecewisePoly.single(0, 1, Polynomial.of([1, -1]) ** n)  # (1 - y)^n
    terms = knot_expansion(g)
    mirrored = [KnotTerm(-t.position, t.power, t.coeff.conjugate()) for t in terms]
    [(t_sq, d_sq)] = _tail_sums(_product_terms(terms, mirrored), (0,), _F_SQ_RADIUS)
    [(t_abs, d_abs)] = _tail_sums(_product_terms(terms, terms), (0,), _F_SQ_RADIUS)
    tail = 0.5 * t_sq.real + 0.5 * t_abs.real

    def rows(eta):
        v = fourier_eval(g, eta).real
        return [v * v]

    [(head, head_err, panels)] = _head_quad(rows, 0.0, _F_SQ_RADIUS,
                                            _initial_panels(_F_SQ_RADIUS, 1.0))
    value = 2.0 * head + 2.0 * tail
    est = 2.0 * head_err + 0.5 * (d_sq + d_abs) + abs(t_abs.imag)
    return QuadratureResult(value, est, panels)


# ---------------------------------------------------------------------------
# modulated atoms
# ---------------------------------------------------------------------------


def atom_freq_mean(envelope: PiecewisePoly, params) -> QuadratureResult:
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
    m0 = quad_freq_moment(envelope, 0)
    denom = TWO_PI * m0.value  # int |env_hat|^2

    def rows(eta):
        fh = fourier_eval(envelope, eta)
        return [eta * (fh.real**2 + fh.imag**2)]

    lo, hi = envelope.support
    panels0 = 2 * _initial_panels(_RADIUS, float(hi - lo))
    [(first, first_err, panels)] = _head_quad(rows, -_RADIUS, _RADIUS, panels0,
                                              scale_floor=denom * _RADIUS)
    value = TWO_PI * xi + first / (t * denom)
    est = (first_err + abs(first / denom) * TWO_PI * m0.abs_error_estimate) / (t * denom)
    return QuadratureResult(value, est, max(m0.panels, panels))
