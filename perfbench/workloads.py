"""The four workloads: the calls each item makes, and the checks on them.

Every call into pwuncert goes through `Tracer.call`, named after the public
function, so a traced run can attribute time to layers without touching
`src/`.  `run_item` is what gets timed; `check` runs afterwards, outside the
timed phase, and raises `CheckError` when an identity fails.  `check`
returns the item's exact answers as strings, for the reference digests.

Import this module only after `pwuncert` has been imported and timed.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np

import gen
from tracer import Tracer
from pwuncert import bspline, moments, spectrum, symmetry
from pwuncert.piecewise import FunctionClass, PiecewisePoly

DEFAULT_SEED = 1
# Highest spline order.  A pass is dominated by the generic report at this
# order; p_max = 64 (as in `pwuncert rect-scan`) would take minutes per pass.
P_MAX = 20
# The `spectrum-sample` default grid.
GRID = np.linspace(-20.0, 20.0, 401)
QUAD_RTOL = 1e-6          # the tolerance `pwuncert verify` applies to quad vs exact
CLI_TIMEOUT_S = 60.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

F_PLUS_ZERO = (FunctionClass.F_PLUS_ZERO, FunctionClass.P_PLUS_ZERO)
EXPECTED_CLASSES = {
    "F+0": F_PLUS_ZERO,
    "jump": (FunctionClass.NONE,),
    "boundary": (FunctionClass.F_PLUS_SUPP,),
}


class CheckError(Exception):
    """An item's output broke one of the identities the benchmark checks."""


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def digest(strings: list[str]) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _report_strings(rep: moments.MomentsReport) -> list[str]:
    return [str(rep.norm_sq), str(rep.alpha), str(rep.sigma_x2),
            moments.ext_str(rep.sigma_w2), moments.ext_str(rep.uncertainty)]


class SplineScan:
    """Orders p = 2..p_max of rect^p, rebuilt from cold caches every pass.

    The input does not depend on the seed: the scan is one fixed family.
    """

    name = "spline-scan"
    in_process = True

    def __init__(self, p_max: int = P_MAX, reference: dict | None = None):
        self.p_max = p_max
        self.rows = (reference or {}).get("rect_rows", {})
        self.rect_u = (reference or {}).get("rect_U", {})

    def size(self) -> str:
        return (f"orders p = 2..{self.p_max} per pass (degree <= {self.p_max - 1}, "
                f"squares of degree {2 * self.p_max - 2})")

    def batches(self):
        while True:
            yield list(range(2, self.p_max + 1))

    def item_id(self, p: int) -> str:
        return f"p{p}"

    def begin(self, tr) -> None:
        for fn in (bspline.rect_p_explicit, bspline.rect_p_recursive, bspline.rect_scan):
            tr.call("bspline.cache_clear", fn.cache_clear)

    def run_item(self, p: int, tr):
        explicit = tr.call("bspline.rect_p_explicit", bspline.rect_p_explicit, p)
        recursive = tr.call("bspline.rect_p_recursive", bspline.rect_p_recursive, p)
        (row,) = tr.call("bspline.rect_scan", bspline.rect_scan, p, p)
        rep = tr.call("moments.report", moments.report, explicit, classify=False)
        return explicit, recursive, row, rep

    def end(self, tr):
        return tr.call("bspline.limit_check", bspline.limit_check, self.p_max)

    def check_end(self, limit) -> None:
        _need(limit.ok, f"limit_check({self.p_max}) failed: {limit}")

    def check(self, p: int, out) -> list[str]:
        explicit, recursive, row, rep = out
        _need(explicit == recursive, f"rect^{p}: explicit != recursive")
        _need(row.p == p and row.u_p == rep.sigma_x2 and row.nu_p == rep.sigma_w2
              and row.uncertainty == rep.uncertainty,
              f"rect^{p}: scan row != generic report")
        strings = [str(p), str(row.u_p), str(row.nu_p), str(row.uncertainty)]
        if str(p) in self.rect_u:
            _need(strings[3] == self.rect_u[str(p)],
                  f"U(rect^{p}) = {strings[3]}, reference {self.rect_u[str(p)]}")
        if str(p) in self.rows:
            _need(digest(strings) == self.rows[str(p)],
                  f"rect^{p}: exact row differs from the reference")
        return strings


class _Seeded:
    """A workload fed by a `gen.Stream`, one function per item."""

    stream = "population"
    batch = 8
    in_process = True

    def __init__(self, seed: int):
        self.inputs = gen.Stream(self.stream, seed)

    def batches(self):
        while True:
            yield self.inputs.take(self.batch)

    def item_id(self, d: dict) -> str:
        return d["id"]

    def begin(self, tr) -> None:
        pass

    def end(self, tr):
        return None

    def check_end(self, _) -> None:
        pass


class Population(_Seeded):
    """Small seeded functions (2-5 pieces, degree <= 4), a quarter outside F+0."""

    name = "population"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seen: list[dict] = []   # descriptors of checked items
        self.finite = 0

    def size(self) -> str:
        return ("one function per item: 2-5 pieces, degree <= 4, "
                f"{gen.BROKEN_SHARE:.0%} with an interior jump or nonzero boundary")

    def run_item(self, d: dict, tr):
        f = tr.call("piecewise.from_json_dict", PiecewisePoly.from_json_dict, d["function"])
        rep = tr.call("moments.report", moments.report, f, classify=False)
        tag = tr.call("piecewise.classify", f.classify)
        g = tr.call("piecewise.affine", f.affine, *d["affine"])
        u_g = tr.call("moments.uncertainty", moments.uncertainty, g)
        pair = tr.call("symmetry.reflections", symmetry.reflections, f)
        try:
            bound = tr.call("symmetry.theorem_bound_check", symmetry.theorem_bound_check, f)
        except symmetry.ClassViolationError as exc:
            bound = exc
        return f, rep, tag, u_g, pair, bound

    def check(self, d: dict, out) -> list[str]:
        f, rep, tag, u_g, pair, bound = out
        name = d["id"]
        _need(tag.family in EXPECTED_CLASSES[d["expect"]],
              f"{name}: classified {tag.family.value}, built as {d['expect']}")
        _need(u_g == rep.uncertainty, f"{name}: U not invariant under affine map")
        halves = pair.f_s.moment(0, squared=True) + pair.f_d.moment(0, squared=True)
        _need(halves == 2 * rep.norm_sq, f"{name}: reflection halves break the mass identity")
        strings = [name, *_report_strings(rep), tag.family.value, str(pair.axis), str(pair.w)]
        if d["expect"] == "F+0":
            _need(moments.is_finite(rep.sigma_w2), f"{name}: sigma_w2 infinite in F+0")
            _need(not isinstance(bound, Exception), f"{name}: bound check refused F+0")
            _need(bound.decompositions_ok, f"{name}: convex decompositions not exact")
            _need(bound.ok, f"{name}: reflection bound fails")
            strings += [str(bound.w), moments.ext_str(bound.uncertainty_s),
                        moments.ext_str(bound.uncertainty_d)]
        else:
            _need(not moments.is_finite(rep.sigma_w2), f"{name}: sigma_w2 finite outside F+0")
            _need(isinstance(bound, symmetry.ClassViolationError),
                  f"{name}: bound check accepted a function outside F+0")
            strings.append("ClassViolationError")
        self.seen.append(d)
        self.finite += moments.is_finite(rep.sigma_w2)
        return strings


class Oracle(_Seeded):
    """Seeded F+0 functions, one exact report each, checked by the float route."""

    name = "oracle"
    stream = "oracle"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.max_rel_err = 0.0

    def size(self) -> str:
        return ("one F+0 function per item: 2-5 pieces, degree <= 4; "
                f"transform on {len(GRID)} points")

    def run_item(self, d: dict, tr):
        f = tr.call("piecewise.from_json_dict", PiecewisePoly.from_json_dict, d["function"])
        rep = tr.call("moments.report", moments.report, f, classify=False)
        quad = tr.call("spectrum.quad_sigma_w2", spectrum.quad_sigma_w2, f)
        fhat = tr.call("spectrum.fourier_eval", spectrum.fourier_eval, f, GRID)
        return f, rep, quad, fhat

    def check(self, d: dict, out) -> list[str]:
        f, rep, quad, fhat = out
        name = d["id"]
        _need(moments.is_finite(rep.sigma_w2), f"{name}: sigma_w2 infinite in F+0")
        exact = float(rep.sigma_w2)
        err = abs(quad.value - exact) / exact
        _need(err <= QUAD_RTOL, f"{name}: quad sigma_w2 rel err {err:.3e} > {QUAD_RTOL}")
        mass = float(f.moment(0))
        at_zero = complex(fhat[len(GRID) // 2])
        _need(fhat.shape == GRID.shape and abs(at_zero - mass) <= 1e-9 * abs(mass),
              f"{name}: fhat(0) = {at_zero} but the mass is {mass}")
        self.max_rel_err = max(self.max_rel_err, err)
        return [name, *_report_strings(rep)]


# string fields of `pwuncert moments` output, all exact
CLI_EXACT_FIELDS = ("norm_sq", "alpha", "beta_coeff", "sigma_x2", "sigma_w2",
                    "uncertainty", "class", "interior_jumps", "boundary_values")


class CliCold(_Seeded):
    """One fresh `python -m pwuncert.cli moments -` per population function."""

    name = "cli-cold"
    batch = 1
    in_process = False      # the work runs in a child process

    def __init__(self, seed: int):
        super().__init__(seed)
        self.peak_rss_kb = 0

    def size(self) -> str:
        return "one cold CLI process per item, closed loop, one client"

    def run_item(self, d: dict, tr):
        return tr.call("cli.moments", self._moments, json.dumps(d["function"]))

    def _moments(self, text: str):
        proc = subprocess.Popen(
            [sys.executable, "-m", "pwuncert.cli", "moments", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.stdin.write(text.encode())
            proc.stdin.close()
            out = proc.stdout.read()
            err = proc.stderr.read()
            # wait4, not wait: it returns this child's own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def expected(self, d: dict) -> dict:
        rep = moments.report(PiecewisePoly.from_json_dict(d["function"]))
        return {k: v for k, v in rep.to_json_dict().items() if k in CLI_EXACT_FIELDS}

    def check(self, d: dict, out) -> list[str]:
        code, stdout, stderr = out
        name = d["id"]
        _need(code == 0, f"{name}: CLI exit {code}: {stderr.decode(errors='replace')[-200:]}")
        got = json.loads(stdout)
        want = self.expected(d)
        _need({k: got.get(k) for k in want} == want,
              f"{name}: CLI strings differ from the in-process report")
        return [name, json.dumps(want, sort_keys=True)]

    def reference_strings(self, items: list[dict]) -> list[str]:
        return [json.dumps(self.expected(d), sort_keys=True) for d in items]


WORKLOADS = {w.name: w for w in (SplineScan, Population, Oracle, CliCold)}
# Items in each workload's fixed reference batch (default seed).
REFERENCE_ITEMS = {"population": 32, "oracle": 16, "cli-cold": 32}


def reference_digest(name: str) -> str:
    """Digest of the exact answers on the default seed's first items."""
    wl = WORKLOADS[name](DEFAULT_SEED)
    items = wl.inputs.take(REFERENCE_ITEMS[name])
    if isinstance(wl, CliCold):
        return digest(wl.reference_strings(items))
    off = Tracer(False)
    return digest([s for d in items for s in wl.check(d, wl.run_item(d, off))])


def record_reference() -> dict:
    """Exact answers of this commit: per-order spline rows and per-workload
    digests.  Written to reference.json; every run compares against it."""
    scan = SplineScan()
    off = Tracer(False)
    scan.begin(off)
    rows = {}
    rect_u = {}
    for p in range(2, P_MAX + 1):
        strings = scan.check(p, scan.run_item(p, off))
        rows[str(p)] = digest(strings)
        if p <= 3:
            rect_u[str(p)] = strings[3]
    out = {"p_max": P_MAX, "default_seed": DEFAULT_SEED,
           "rect_U": rect_u, "rect_rows": rows,
           "reference_items": REFERENCE_ITEMS}
    out.update({name: reference_digest(name) for name in REFERENCE_ITEMS})
    return out
