"""Benchmark for pwuncert.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload population --seed 1 --seconds 20 --trace 0

Workloads: spline-scan, population, oracle, cli-cold (see README.md).
`--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer ones.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

`--tiny` shrinks the spline scan and the repeat counts for the self-check;
`--record-reference` rewrites reference.json from the current sources.
The program is always imported from `src/` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("spline-scan", "population", "oracle", "cli-cold")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
USAGE = ("usage: run.py --workload {" + ",".join(WORKLOADS) + "} --seed N "
         "--seconds S --trace {0,1} [--tiny] | run.py --record-reference")


def parse_args(argv: list[str]) -> dict:
    """Hand-rolled on purpose: argparse would import modules that
    `import pwuncert` also needs, and hide their cost from setup_s."""
    opts = {"tiny": False, "record": False}
    args = list(argv)
    try:
        while args:
            flag = args.pop(0)
            if flag == "--tiny":
                opts["tiny"] = True
            elif flag == "--record-reference":
                opts["record"] = True
            elif flag in ("--workload", "--seed", "--seconds", "--trace"):
                opts[flag[2:]] = args.pop(0)
            else:
                raise ValueError(f"unknown argument {flag!r}")
        if opts["record"]:
            return opts
        if opts["workload"] not in WORKLOADS:
            raise ValueError(f"unknown workload {opts['workload']!r}")
        opts["seed"] = int(opts["seed"])
        opts["seconds"] = float(opts["seconds"])
        if not opts["seconds"] > 0:
            raise ValueError("--seconds must be positive")
        if opts["trace"] not in ("0", "1"):
            raise ValueError("--trace must be 0 or 1")
        opts["trace"] = opts["trace"] == "1"
    except (IndexError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}\n")
        sys.exit(2)
    return opts


def main() -> int:
    opts = parse_args(sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "pwuncert", "__init__.py")):
        sys.stderr.write(f"error: no pwuncert sources at {SRC}; run from a checkout\n")
        return 2
    # one thread in this process and in every child it starts
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(1, SRC)

    start = time.perf_counter()
    import pwuncert
    first_import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(pwuncert.__file__)) != os.path.join(SRC, "pwuncert"):
        sys.stderr.write(f"error: imported pwuncert from {pwuncert.__file__}, not {SRC}\n")
        return 2

    import json
    import measure
    import workloads

    if opts["record"]:
        with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(workloads.record_reference(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    tiny = opts["tiny"]
    opts["p_max"] = 8 if tiny else workloads.P_MAX
    opts["setup_samples"] = 1 if tiny else measure.SETUP_SAMPLES
    opts["probe_repeats"] = 1 if tiny else measure.PROBE_REPEATS
    opts["poly_repeats"] = 3 if tiny else measure.POLY_REPEATS
    if opts["trace"]:
        result = measure.traced(opts, OUT_DIR)
    else:
        result = measure.end_to_end(opts, first_import_s)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
