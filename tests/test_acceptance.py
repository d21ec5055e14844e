"""Acceptance gate: one test per headline criterion.

Each test prints one ``[PASS]``/``[FAIL]`` line per claim (visible with
``pytest -s`` and in the report of any failing run) and then asserts that
every claim holds at its stated tolerance.  The whole file is budgeted to
run in well under a minute; the expensive artifacts (the order-64 spline
chain, the n=100 family tables) are module-level caches shared with the
other test files and the ``pwuncert verify`` subcommand.
"""

from pwuncert import verify


def _run(rows):
    for row in rows:
        print(row.line())
    failing = [row.name for row in rows if not row.ok]
    assert not failing, f"failing claims: {failing}"


def test_exact_dictionary_values():
    """Closed forms, the moments pipeline and the reference tables agree
    exactly for both envelope families at n = 1, 2, 3."""
    _run(verify.check_dictionary_exact())


def test_minimizer_and_asymptotes():
    """Both families are minimized at n = 1 with value 3/10 and grow as
    expected: the G products climb to within 1e-2 of 1/2 by n = 100, the F
    products track n/6 within 2%."""
    _run(verify.check_minimizer())


def test_rect_family_monotone_limit():
    """The two iterated-boxcar constructions agree exactly up to order 64;
    the uncertainty scan starts at 3/10 and 215/847, decreases strictly,
    stays above 1/4, and closes the gap at the stated rate."""
    _run(verify.check_rect_family())


def test_asymmetric_cubic_reflections():
    """The rounded-cubic example reproduces its reference numbers (1e-8 on
    the uncertainty products, 1e-6 on the derivative energy split) and the
    centered/uncentered bound narrative."""
    _run(verify.check_cubic_reflections())


def test_seeded_property_suites():
    """Fifty seeded random functions satisfy the exact invariance,
    decomposition, Cauchy-Schwarz, mass and floor properties."""
    _run(verify.check_properties())


def test_spectral_oracle_agreement():
    """The floating-point frequency route agrees with the exact one:
    quadrature moments to 1e-6 relative, closed-form transforms to 1e-10,
    half-profile energies to 1e-6, atom frequency means to 1e-6."""
    _run(verify.check_spectral_agreement())


def test_population_oracle_agreement():
    """On fifty seeded random F+0 functions the quadrature frequency
    variance and mass agree with the exact values to 1e-6 relative."""
    _run(verify.check_population_oracle())
