"""Seeded input generator for the benchmark.

Emits one JSON object per item.  Its `function` field is a descriptor in
the format `pwuncert moments` reads (`{"breakpoints": [...], "pieces":
[[...], ...]}` with rational strings); the other fields belong to the
benchmark: `id`, `expect` (the class the function was built in) and, for the
population, `affine` (lam, gamma, tau for the invariance check).  The
program under test only ever sees `function` and the `affine` strings.

This file deliberately does not use `pwuncert.symmetry.random_f_plus_zero`:
the workloads must not move when the library's own test generator changes.
It needs only the standard library, so it can run before `pwuncert` is
imported.

The shape of each function (piece count, degree, class) follows a fixed
schedule that repeats every `PERIOD` items; the seed picks only the
knots and coefficients.  That keeps the work per item statistically the same
across seeds, so runs with different seeds are comparable.

    python3 perfbench/gen.py --stream population --seed 1 --count 5
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

# Classes, one per item in this order: "F+0" is continuous, nonnegative and
# zero at both ends (finite sigma_w2); "jump" has an interior jump and
# "boundary" a nonzero end value (both have sigma_w2 = inf).
CLASSES = ("F+0", "F+0", "F+0", "jump", "F+0", "F+0", "F+0", "boundary")
# (pieces, bump degree); item i gets shape (i + i // 8) % 4, so any 8
# consecutive items hold every class and every shape, and over 32 items each
# class meets each shape.
SHAPES = ((2, 2), (3, 4), (4, 2), (5, 4))
PERIOD = len(CLASSES) * len(SHAPES)
BROKEN_SHARE = sum(c != "F+0" for c in CLASSES) / len(CLASSES)

STREAMS = ("population", "oracle")


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _piece(rng: random.Random, x0: Fraction, x1: Fraction, v0: Fraction,
           v1: Fraction, bump: int) -> list[Fraction]:
    """Line through (x0, v0), (x1, v1) plus c*(x - x0)*(x1 - x)*q(x), with
    c >= 0 and q = 1 (bump 2) or q = (x - m)^2 (bump 4): nonnegative on
    [x0, x1] whenever v0, v1 >= 0, and equal to the line at both ends."""
    slope = (v1 - v0) / (x1 - x0)
    line = [v0 - slope * x0, slope]
    c = Fraction(rng.randint(0, 4), rng.randint(1, 3))
    q = [c]
    if bump == 4:
        m = Fraction(rng.randint(-8, 8), 4)
        q = _poly_mul(q, _poly_mul([-m, Fraction(1)], [-m, Fraction(1)]))
    b = _poly_mul(_poly_mul([-x0, Fraction(1)], [x1, Fraction(-1)]), q)
    coeffs = [Fraction(0)] * max(len(line), len(b))
    for k, v in enumerate(line):
        coeffs[k] += v
    for k, v in enumerate(b):
        coeffs[k] += v
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _function(rng: random.Random, pieces: int, bump: int, cls: str) -> dict:
    x = Fraction(rng.randint(-6, 0), 2)
    knots = [x]
    for _ in range(pieces):
        x += Fraction(rng.randint(1, 4), 2)
        knots.append(x)
    values = [Fraction(0)]
    values += [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(pieces - 1)]
    values.append(Fraction(0))
    if cls == "boundary":
        values[rng.choice((0, -1))] = Fraction(rng.randint(1, 4), 2)
    polys = [
        _piece(rng, knots[i], knots[i + 1], values[i], values[i + 1], bump)
        for i in range(pieces)
    ]
    if cls == "jump":
        j = rng.randrange(pieces)
        polys[j][0] += Fraction(rng.randint(1, 3), 2)
    return {
        "function": {
            "breakpoints": [str(k) for k in knots],
            "pieces": [[str(c) for c in p] for p in polys],
        },
        "expect": cls,
    }


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


class Stream:
    """Endless, reproducible sequence of descriptors for one workload."""

    def __init__(self, stream: str, seed: int):
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}")
        self.stream = stream
        # separate, string-seeded generators: the oracle stream never shares
        # draws with the population stream of the same seed
        self._rng = random.Random(f"pwuncert-bench/{stream}/{seed}")
        self._n = 0

    def take(self, count: int) -> list[dict]:
        out = []
        for _ in range(count):
            i = self._n
            pieces, bump = SHAPES[(i + i // len(CLASSES)) % len(SHAPES)]
            cls = CLASSES[i % len(CLASSES)] if self.stream == "population" else "F+0"
            d = _function(self._rng, pieces, bump, cls)
            d["id"] = f"{self.stream}-{self._n}"
            if self.stream == "population":
                r = self._rng
                d["affine"] = [str(_nonzero(r)), str(_nonzero(r)),
                               str(Fraction(r.randint(-8, 8), r.randint(1, 4)))]
            out.append(d)
            self._n += 1
        return out


def properties(descriptors: list[dict]) -> dict:
    """Input properties of a descriptor batch (counted from the descriptors)."""
    n = len(descriptors)
    return {
        "count": n,
        "max_degree": max(len(p) - 1 for d in descriptors
                          for p in d["function"]["pieces"]),
        "pieces_mean": sum(len(d["function"]["pieces"]) for d in descriptors) / n,
        "f_plus_zero_share": sum(d["expect"] == "F+0" for d in descriptors) / n,
    }


def main(argv: list[str]) -> int:
    args = dict(zip(argv[::2], argv[1::2]))
    stream = Stream(args.get("--stream", "population"), int(args.get("--seed", "1")))
    batch = stream.take(int(args.get("--count", "8")))
    for d in batch:
        print(json.dumps(d))
    print(json.dumps(properties(batch)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
