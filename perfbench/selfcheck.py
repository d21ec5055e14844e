"""Fast self-check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload, with tracing off and on, runs `run.py --tiny` briefly
and asserts that the result line has exactly the keys correct, attempted,
failed and metrics, that every metric BENCHMARK.json lists is emitted with
its unit and a finite value, and that nothing failed (failed_frac 0).
Finally runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.  Exits 1
if any of these checks fails.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(ROOT, ".perfbench_out", "bare")


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench: dict, workload: str, trace: str) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", trace, "--tiny")
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct {result['correct']}, failed {result['failed']}"
                        f"/{result['attempted']}: {proc.stderr.strip()[-500:]}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics/units {got} != {wanted}")
    for k, v in result["metrics"].items():
        if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
            problems.append(f"{k} = {v['value']!r}")
    if trace == "0":
        frac = [ln.split() for ln in lines if ln.split()[:1] == ["failed_frac"]]
        if not frac or float(frac[0][1]) != 0.0:
            problems.append(f"failed_frac line: {frac}")
    return problems


def check_bare() -> list[str]:
    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    shutil.copytree(HERE, os.path.join(BARE, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(BARE, "--workload", "population", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            problems = check_run(bench, w["name"], trace)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    problems = check_bare()
    print(f"{'FAIL' if problems else 'ok  '} bare directory refuses to run")
    for p in problems:
        print(f"     {p}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
