"""Timed phases, metrics and the result line.  Imported by run.py only after
`pwuncert` itself has been imported and timed."""
from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import gen
import workloads
from tracer import Tracer
from pwuncert import bspline

# Run in a fresh interpreter: wall seconds of the first `import pwuncert`.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pwuncert; "
                "print(time.perf_counter() - t)")
# Fresh processes timing `import pwuncert`; setup_s is their median.
SETUP_SAMPLES = 5
CAL_REF_S = 0.002       # calibrate() at the reference speed, s
# A cold process independent of pwuncert, and its wall time at the
# reference speed: the yardstick for work done in child processes.
REF_CHILD = ("-c", "import numpy")
REF_CHILD_S = 0.2
PROBE_REPEATS = 3       # cold-process probes of the traced run
POLY_REPEATS = 15       # calls per poly kernel in the traced run
TAIL_BEYOND = 10        # items required above the reported tail percentile
PROBE_P_MAX = 8         # spline orders in the side probe of other workloads

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "poly.mul_ms": "ms",
    "poly.taylor_shift_ms": "ms",
    "poly.integrate_ms": "ms",
    "poly.coeff_products": "count",
    "bspline.explicit_s": "s/item",
    "bspline.recursive_s": "s/item",
    "bspline.scan_s": "s/item",
    "bspline.limit_check_s": "s/item",
    "moments.report_s": "s/item",
    "moments.uncertainty_s": "s/item",
    "moments.calls_per_item": "calls/item",
    "piecewise.classify_s": "s/item",
    "piecewise.affine_s": "s/item",
    "piecewise.from_json_s": "s/item",
    "symmetry.reflections_s": "s/item",
    "symmetry.bound_check_s": "s/item",
    "spectrum.quad_sigma_w2_s": "s/item",
    "spectrum.fourier_eval_s": "s/item",
    "spectrum.max_rel_err": "ratio",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "population.finite_share": "ratio",
    "population.max_degree": "count",
    "population.pieces_mean": "count",
    "trace.overhead_items_per_s": "1/s",
}
# per-layer metric -> span name; value = self time per item
SPAN_METRICS = {
    "bspline.explicit_s": "bspline.rect_p_explicit",
    "bspline.recursive_s": "bspline.rect_p_recursive",
    "bspline.scan_s": "bspline.rect_scan",
    "bspline.limit_check_s": "bspline.limit_check",
    "moments.report_s": "moments.report",
    "moments.uncertainty_s": "moments.uncertainty",
    "piecewise.classify_s": "piecewise.classify",
    "piecewise.affine_s": "piecewise.affine",
    "piecewise.from_json_s": "piecewise.from_json_dict",
    "symmetry.reflections_s": "symmetry.reflections",
    "symmetry.bound_check_s": "symmetry.theorem_bound_check",
    "spectrum.quad_sigma_w2_s": "spectrum.quad_sigma_w2",
    "spectrum.fourier_eval_s": "spectrum.fourier_eval",
}
MOMENT_QUERIES = ("moments.report", "moments.uncertainty")
# Order in which the side probes fill layers the workload itself never calls.
PROBE_ORDER = ("population", "spline-scan", "oracle")


def calibrate() -> float:
    """Wall time of a fixed piece of pure-Python work like the exact
    pipeline's: Fraction sums and products, and big-integer products."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 2) * Fraction(2 * i + 1, 3)
    n = 3 ** 400
    for i in range(1, 300):
        n = (n * (n + i)) >> 640
    return perf_counter() - start


class Calibrated:
    """Converts wall time of work in this process to the reference speed,
    at which `calibrate()` takes CAL_REF_S.  A shared machine's speed drifts by tens
    of percent within seconds, so each item is scaled by the calibrations
    taken just before and just after it."""

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        """Scale for the work done since the previous call."""
        now = calibrate()
        f = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return f

    def time(self, fn, *args):
        """(result, scaled seconds) of one call."""
        self.factor()
        start = perf_counter()
        out = fn(*args)
        return out, (perf_counter() - start) * self.factor()


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)   # scaled, s
    elapsed: float = 0.0        # scaled timed work, s
    wall: float = 0.0           # the same work in wall seconds
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return len(self.latencies) / self.elapsed

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)


def run_phase(wl, seconds: float, tr: Tracer, max_batches: int | None = None) -> Phase:
    """Closed loop: whole batches until `seconds` of timed wall time have
    passed (at least one batch).  Input generation, checks and calibration
    are not timed."""
    ph = Phase()
    clock = Calibrated() if wl.in_process else None
    reference = None if wl.in_process else ReferenceChild()
    # wall time since the last calibration: item latencies, plus the batch's
    # begin/end work, which is scaled with the item next to it
    segment: list[float] = []
    seg_wall = 0.0

    def close_segment() -> None:
        nonlocal segment, seg_wall
        f = clock.factor() if clock else 1.0
        ph.latencies.extend(x * f for x in segment)
        ph.elapsed += seg_wall * f
        ph.wall += seg_wall
        segment, seg_wall = [], 0.0

    def timed(fn, *args):
        nonlocal seg_wall
        start = perf_counter()
        try:
            return fn(*args), None
        except Exception as exc:  # counted as a failure, the run goes on
            return None, exc
        finally:
            seg_wall += perf_counter() - start

    batches = wl.batches()
    done = 0
    while (ph.wall + seg_wall < seconds or done == 0) and (max_batches is None or done < max_batches):
        items = next(batches)
        results = []
        _, begin_err = timed(wl.begin, tr)
        for item in items:
            tr.item = wl.item_id(item)
            before = seg_wall
            with tr.span("item"):
                out, err = timed(wl.run_item, item, tr)
            segment.append(seg_wall - before)
            results.append((item, out, err))
            if reference:
                reference.sample()
            else:
                close_segment()
        tr.item = None
        end, end_err = timed(wl.end, tr)
        done += 1
        batch_err = begin_err or end_err
        if batch_err is None:
            try:
                wl.check_end(end)
            except workloads.CheckError as exc:
                batch_err = exc
        for item, out, err in results:
            ph.attempted += 1
            if err is None and batch_err is None:
                try:
                    wl.check(item, out)
                    continue
                except Exception as exc:  # CheckError, or a check that raised
                    err = exc
            err = err or batch_err
            ph.fail(f"{wl.item_id(item)}: {type(err).__name__}: {err}")
    if segment or seg_wall:
        close_segment()
    if reference:
        f = reference.factor()
        ph.latencies = [x * f for x in ph.latencies]
        ph.elapsed *= f
    return ph


class ReferenceChild:
    """Converts wall time of work in child processes to the reference
    speed, at which a REF_CHILD process takes REF_CHILD_S.  The in-process
    loop does not track cold-process times (a child may run on the other
    CPU, and its time is mostly loading code), so child work is scaled by
    the median of reference processes run in between."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        _child(list(REF_CHILD))
        self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        return REF_CHILD_S / statistics.median(self.samples)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, items beyond it): the highest percentile with at
    least TAIL_BEYOND items above it, or the maximum if there are too few."""
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def _child(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter with this process's environment (one thread,
    PYTHONPATH at src/)."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)


def child_import_s() -> float:
    """Wall seconds of `import pwuncert` in a fresh interpreter."""
    return float(_child(["-c", IMPORT_PROBE]).stdout)


def _importtime_ms(stderr: str, package: str) -> float:
    """Cumulative import time of the outermost `package` modules, from
    `-X importtime` output (children are printed before their parent)."""
    total_us = 0
    stack: list[str] = []
    lines = [ln for ln in stderr.splitlines() if ln.startswith("import time:")][1:]
    for line in reversed(lines):
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        stack[depth:] = [name]
        inside = any(a == package or a.startswith(package + ".") for a in stack[:depth])
        if (name == package or name.startswith(package + ".")) and not inside:
            total_us += int(cumulative)
    return total_us / 1000.0


def cli_probes(repeats: int) -> dict:
    start, imp, np_ms, sp_ms = [], [], [], []
    for _ in range(repeats):
        t0 = perf_counter()
        _child(["-c", "pass"])
        start.append(1000 * (perf_counter() - t0))
        imp.append(1000 * child_import_s())
        err = _child(["-X", "importtime", "-c", "import pwuncert"]).stderr
        np_ms.append(_importtime_ms(err, "numpy"))
        sp_ms.append(_importtime_ms(err, "scipy"))
    med = statistics.median
    return {"cli.python_start_ms": med(start), "cli.import_ms": med(imp),
            "cli.import_numpy_ms": med(np_ms), "cli.import_scipy_ms": med(sp_ms)}


def poly_probe(p_max: int, repeats: int) -> dict:
    """Per-call kernel times at degree p_max - 1 on the middle piece of rect^p_max."""
    f = bspline.rect_p_explicit(p_max)
    a, b, piece = f.intervals()[len(f.pieces) // 2]
    square = piece * piece
    calls = {
        "poly.mul_ms": lambda: piece * piece,
        "poly.taylor_shift_ms": lambda: piece.taylor_shift(Fraction(1, 2)),
        "poly.integrate_ms": lambda: square.integrate(a, b),
    }
    clock = Calibrated()
    out = {name: statistics.median(1000 * clock.time(call)[1] for _ in range(repeats))
           for name, call in calls.items()}
    out["poly.coeff_products"] = sum(len(p.coeffs) ** 2 for p in f.pieces)
    return out


def span_metrics(tr: Tracer, ph: Phase) -> dict:
    """Self time per item of each layer, scaled like the phase it ran in."""
    selfs = tr.self_times()
    items = len(ph.latencies)
    scale = ph.elapsed / ph.wall
    out = {m: selfs[s][1] * scale / items for m, s in SPAN_METRICS.items() if s in selfs}
    queries = sum(selfs[s][0] for s in MOMENT_QUERIES if s in selfs)
    if queries:
        out["moments.calls_per_item"] = queries / items
    return out


def stream_metrics(wl) -> dict:
    out = {}
    if isinstance(wl, workloads.Oracle):
        out["spectrum.max_rel_err"] = wl.max_rel_err
    elif isinstance(wl, workloads.Population) and wl.seen:
        props = gen.properties(wl.seen)
        out["population.finite_share"] = wl.finite / len(wl.seen)
        out["population.max_degree"] = props["max_degree"]
        out["population.pieces_mean"] = props["pieces_mean"]
    return out


def make(name: str, seed: int, reference: dict, p_max: int):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.SplineScan:
        return cls(p_max, reference)
    return cls(seed)


def reference_ok(name: str, reference: dict) -> bool:
    if name not in reference:
        return True   # spline-scan: each order is compared inside its check
    return workloads.reference_digest(name) == reference[name]


def peak_rss_mb(wl) -> float:
    if isinstance(wl, workloads.CliCold):
        return wl.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<28} {value:<14.6g} {unit}{'  ' + note if note else ''}")


def end_to_end(opts: dict, first_import_s: float) -> dict:
    units = END_TO_END_UNITS
    reference = workloads.load_reference()
    wl = make(opts["workload"], opts["seed"], reference, opts["p_max"])
    ph = run_phase(wl, opts["seconds"], Tracer(False))
    rss = peak_rss_mb(wl)
    ref_ok = reference_ok(wl.name, reference)
    yardstick = ReferenceChild()
    samples = []
    for _ in range(opts["setup_samples"]):
        samples.append(child_import_s())
        yardstick.sample()
    setup_wall = statistics.median(samples)
    tail_ms, pct, beyond = tail(ph.latencies)
    failed = ph.failed if ref_ok else ph.attempted
    metrics = {
        "setup_s": setup_wall * yardstick.factor(),
        "items_per_s": ph.items_per_s,
        "item_p50_ms": 1000 * statistics.median(ph.latencies),
        "item_tail_ms": 1000 * tail_ms,
        "peak_rss_mb": rss,
    }
    print(f"workload {wl.name}  seed {opts['seed']}  input: {wl.size()}")
    notes = {
        "setup_s": f"median of {len(samples)} fresh-process imports, "
                   f"{setup_wall:.4f} s wall; this process: {first_import_s:.4f} s wall",
        "items_per_s": f"{len(ph.latencies)} items in {ph.elapsed:.3f} s "
                       f"({ph.wall:.3f} s wall)",
        "item_tail_ms": f"p{pct:.1f} of {len(ph.latencies)} items, {beyond} beyond",
    }
    for name, value in metrics.items():
        _print_metric(name, value, units[name], notes.get(name, ""))
    _print_metric("failed_frac", failed / ph.attempted, "ratio",
                  f"{failed}/{ph.attempted}" + ("" if ref_ok else ", reference mismatch"))
    for note in ph.notes:
        print(f"  failed: {note}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": ph.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def traced(opts: dict, out_dir: str) -> dict:
    """Half the time untraced, half traced (the difference is the tracing
    overhead), then probes for layers the workload does not call."""
    units = PER_LAYER_UNITS
    reference = workloads.load_reference()
    name, seed, p_max = opts["workload"], opts["seed"], opts["p_max"]
    half = opts["seconds"] / 2
    plain = run_phase(make(name, seed, reference, p_max), half, Tracer(False))
    tr = Tracer(True)
    wl = make(name, seed, reference, p_max)
    ph = run_phase(wl, half, tr)
    metrics = span_metrics(tr, ph)
    metrics.update(stream_metrics(wl))
    probed = []
    phases = [plain, ph]
    for other in PROBE_ORDER:
        if other == name:
            continue
        ptr = Tracer(True)
        pw = make(other, seed, reference, PROBE_P_MAX)
        pph = run_phase(pw, 0.0, ptr, max_batches=1)
        phases.append(pph)
        found = span_metrics(ptr, pph)
        found.update(stream_metrics(pw))
        new = {k: v for k, v in found.items() if k not in metrics}
        metrics.update(new)
        if new:
            probed.append(other)
    metrics.update(poly_probe(p_max, opts["poly_repeats"]))
    metrics.update(cli_probes(opts["probe_repeats"]))
    metrics["trace.overhead_items_per_s"] = plain.items_per_s - ph.items_per_s
    os.makedirs(out_dir, exist_ok=True)
    tr.write(os.path.join(out_dir, f"spans-{name}.jsonl"))

    ref_ok = reference_ok(name, reference)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) if ref_ok else attempted
    missing = sorted(set(units) - set(metrics))
    print(f"workload {name}  seed {seed}  traced  input: {wl.size()}")
    print(f"  tracing overhead: untraced {plain.items_per_s:.6g} items/s, "
          f"traced {ph.items_per_s:.6g} items/s, {len(tr.spans)} spans")
    if probed:
        print(f"  layers this workload does not call were timed on one batch of: "
              f"{', '.join(probed)}")
    for k in units:
        if k in metrics:
            _print_metric(k, metrics[k], units[k])
    if missing:
        print(f"  not measured: {', '.join(missing)}", file=sys.stderr)
        failed = attempted
    for p in phases:
        for note in p.notes:
            print(f"  failed: {note}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units if k in metrics}}
