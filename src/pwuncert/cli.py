"""Command-line surface for the uncertainty toolkit.

Subcommands
-----------
moments         uncertainty report (JSON) for a piecewise-polynomial descriptor
dict-table      CSV table of the two reference envelope families
rect-scan       CSV scan of the iterated-boxcar family rect^p
symmetry-check  reflection decomposition and convexity-bound report (JSON)
spectrum-sample CSV samples of the Fourier transform for plotting
verify          run the full verification suite and report pass/fail lines

Functions enter as JSON descriptors with rational-string coefficients,

    {"breakpoints": ["-1", "0", "1"], "pieces": [["1", "1"], ["1", "-1"]]}

read from a file argument or, with ``-``, from stdin.  Every exact rational
in any output is printed as a string that parses back to the identical
value; float columns use the shortest round-trip representation.  Exit
codes: 0 on success, 1 when a verification check fails, 2 on usage or
input errors.  Only ``spectrum-sample`` and ``verify`` import the float
route, inside their handlers, so the exact subcommands never load numpy or
scipy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence

from .bspline import rect_scan
from .dictionaries import dict_table
from .moments import AtomParams, atom_report, ext_str, json_float, json_pairs
from .piecewise import PiecewisePoly
from .poly import rat, rat_str
from .symmetry import reflections, theorem_bound_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Caps above every function built here: rect^64 has 64 pieces, envelopes degree 100.
MAX_PIECES = 128
MAX_DEGREE = 128


class InputError(ValueError):
    """Unusable input: unreadable file, malformed descriptor, bad rational or
    option value."""


def _load_function(path: str) -> PiecewisePoly:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
        pieces = obj.get("pieces") if isinstance(obj, dict) else None
        if isinstance(pieces, list) and (len(pieces) > MAX_PIECES or any(
                isinstance(p, list) and len(p) > MAX_DEGREE + 1 for p in pieces)):
            raise ValueError(f"over the caps: {MAX_PIECES} pieces, degree {MAX_DEGREE}")
        return PiecewisePoly.from_json_dict(obj)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad function descriptor in {path!r}: {exc}") from exc


def _parse_rat(text: str, flag: str):
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{flag} expects a rational, got {text!r}: {exc}") from exc


def _tolerance(text: str) -> float:
    """A --class-tol value: a finite float >= 0, compared exactly."""
    tol = float(text)
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
    return tol


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows) -> None:
    """Write the header, then the rows as ``rows`` yields them: an error
    raised while producing a row leaves the lines before it on stdout."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_moments(args: argparse.Namespace) -> int:
    f = _load_function(args.input)
    params = AtomParams.of(
        _parse_rat(args.t, "--t"),
        _parse_rat(args.xi, "--xi"),
        _parse_rat(args.u, "--u"),
    )
    _emit_json(atom_report(f, params, class_tol=args.class_tol).to_json_dict())
    return EXIT_OK


def _cmd_dict_table(args: argparse.Namespace) -> int:
    # a generator, so the header is written before dict_table can refuse n_max
    def rows():
        for r in dict_table(args.family, args.n_max):
            yield [r.family, r.n, rat_str(r.sigma_x2), ext_str(r.sigma_w2),
                   ext_str(r.uncertainty), repr(float(r.uncertainty))]

    _emit_csv(["family", "n", "sigma_x2", "sigma_w2", "U", "U_float"], rows())
    return EXIT_OK


def _cmd_rect_scan(args: argparse.Namespace) -> int:
    if args.p_min < 2 or args.p_max < args.p_min:
        raise InputError("need 2 <= p-min <= p-max")
    _emit_csv(["p", "u_p", "nu_p", "U", "U_float"],
              ([r.p, rat_str(r.u_p), rat_str(r.nu_p), rat_str(r.uncertainty),
                repr(float(r.uncertainty))]
               for r in rect_scan(args.p_min, args.p_max)))
    return EXIT_OK


def _cmd_symmetry_check(args: argparse.Namespace) -> int:
    f = _load_function(args.input)
    pair = reflections(f, args.axis)
    payload = {
        "axis": args.axis,
        "axis_value": rat_str(pair.axis),
        "axis_float": json_float("axis_float", pair.axis),
        **json_pairs(w=pair.w),
        "f_s": pair.f_s.to_json_dict(),
        "f_d": pair.f_d.to_json_dict(),
    }
    bound = theorem_bound_check(
        f, center=not args.no_centering, class_tol=args.class_tol
    )
    payload["bound"] = {
        "centered": bound.centered,
        **json_pairs(axis=bound.axis, w=bound.w, uncertainty=bound.uncertainty,
                     uncertainty_s=bound.uncertainty_s,
                     uncertainty_d=bound.uncertainty_d),
        "cs_rhs": bound.cs_rhs,
        "cs_ok": bound.cs_ok,
        "min_ok": bound.min_ok,
        "decompositions_ok": bound.decompositions_ok,
        "ok": bound.ok,
    }
    _emit_json(payload)
    return EXIT_OK


def _cmd_spectrum_sample(args: argparse.Namespace) -> int:
    import numpy as np

    from . import spectrum

    f = _load_function(args.input)
    if args.count < 2:
        raise InputError("--count must be at least 2")
    grid = np.linspace(args.omega_min, args.omega_max, args.count)
    values = map(complex, spectrum.fourier_eval(f, grid))
    _emit_csv(["omega", "re", "im", "abs2"],
              ([repr(float(w)), repr(v.real), repr(v.imag), repr(abs(v) ** 2)]
               for w, v in zip(grid, values)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    results = verify.run_checks(args.filter)
    for res in results:
        print(res.line())
    failed = sum(1 for res in results if not res.ok)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwuncert",
        description="exact uncertainty products of piecewise polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="uncertainty report for a descriptor")
    p.add_argument("input", help="descriptor path, or - for stdin")
    p.add_argument("--t", default="1", help="atom scale (rational, > 0)")
    p.add_argument("--xi", default="0",
                   help="atom modulation frequency in units of 2*pi")
    p.add_argument("--u", default="0", help="atom shift (rational)")
    p.add_argument("--class-tol", type=_tolerance, default=0.0,
                   help="tolerance for boundary-zero / continuity checks")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("dict-table", help="closed-form envelope family table")
    p.add_argument("--family", choices=["G", "F"], default="G")
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=_cmd_dict_table)

    p = sub.add_parser("rect-scan", help="iterated-boxcar uncertainty scan")
    p.add_argument("--p-min", type=int, default=2)
    p.add_argument("--p-max", type=int, default=64)
    p.set_defaults(func=_cmd_rect_scan)

    p = sub.add_parser("symmetry-check",
                       help="reflection halves and convexity bounds")
    p.add_argument("input", help="descriptor path, or - for stdin")
    p.add_argument("--axis", choices=["origin", "barycenter"],
                   default="barycenter",
                   help="reflection axis for the reported decomposition")
    p.add_argument("--no-centering", action="store_true",
                   help="run the bound check about the origin instead of "
                        "the barycenter")
    p.add_argument("--class-tol", type=_tolerance, default=0.0)
    p.set_defaults(func=_cmd_symmetry_check)

    p = sub.add_parser("spectrum-sample",
                       help="sample the Fourier transform on a grid")
    p.add_argument("input", help="descriptor path, or - for stdin")
    p.add_argument("--omega-min", type=float, default=-20.0)
    p.add_argument("--omega-max", type=float, default=20.0)
    p.add_argument("--count", type=int, default=401)
    p.set_defaults(func=_cmd_spectrum_sample)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default="",
                   help="only run check groups whose name contains this")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
