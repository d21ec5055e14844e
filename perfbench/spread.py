"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload population --seeds 1-10 [--trace 0]

For each metric: the median of the runs, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  Runs go one after
another, never in parallel.  Exits 1 if a run fails or reports
`"correct": false`.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    args = dict(zip(argv[::2], argv[1::2]))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workload = args["--workload"]
    trace = args.get("--trace", "0")
    seconds = args.get("--seconds", str(bench["run_seconds"]))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in seeds_from(args.get("--seeds", "1-5")):
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(k)
        print(f"{k:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
              f"{'' if bound is None else bound:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
