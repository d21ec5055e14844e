"""Reproduce the hand-measured Baseline rows of ROADMAP.md with this harness.

    python3 perfbench/baseline.py

Prints one line per row in wall seconds, as the ROADMAP rows were taken,
and the calibration reading at the time (see README.md, "Machine speed").
Takes about 20 s.  Each row runs once, except the two cold-process rows,
which report the median of five fresh processes.
"""
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TENT = '{"breakpoints": ["-1", "0", "1"], "pieces": [["1", "1"], ["1", "-1"]]}'


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def wall(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def main() -> int:
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(1, SRC)
    import measure
    from pwuncert import bspline

    def clear():
        for fn in (bspline.rect_p_explicit, bspline.rect_p_recursive, bspline.rect_scan):
            fn.cache_clear()

    def cold_moments() -> float:
        return wall(lambda: subprocess.run(
            [sys.executable, "-m", "pwuncert.cli", "moments", "-"], input=TENT,
            capture_output=True, text=True, cwd=ROOT, check=True, timeout=120))

    def child_import() -> float:
        return measure.child_import_s()

    cal = statistics.median(measure.calibrate() for _ in range(50))
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, {cpu_model()}")
    print(f"calibrate() median {cal * 1000:.3f} ms (reference {measure.CAL_REF_S * 1000:.3f} ms)")
    rows = []
    clear()
    rows.append(("rect_p_recursive(1..64)", wall(lambda: [bspline.rect_p_recursive(p) for p in range(1, 65)])))
    clear()
    rows.append(("rect_p_explicit(1..64)", wall(lambda: [bspline.rect_p_explicit(p) for p in range(1, 65)])))
    rows.append(("rect_scan(2, 64), explicit cache warm", wall(lambda: bspline.rect_scan(2, 64))))
    clear()
    rows.append(("rect_scan(2, 64), all caches cold", wall(lambda: bspline.rect_scan(2, 64))))
    rows.append(("cold `pwuncert moments` on the tent", statistics.median(cold_moments() for _ in range(5))))
    rows.append(("import pwuncert, fresh process", statistics.median(child_import() for _ in range(5))))
    for name, seconds in rows:
        print(f"{name:<40} {seconds:8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
