"""In-memory spans around the benchmark's own calls into pwuncert.

Nothing in `src/` is patched: a span starts when the benchmark calls a public
function and ends when that call returns.  A span is
`[name, start, end, parent index, item id]`; `parent` is -1 for a root.
With tracing off, `call` is a plain call and `span` records nothing.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self.item: str | None = None
        self._open: list[int] = []

    def _start(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.item]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _stop(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """`fn(*args, **kwargs)`, recorded as a span `name` when tracing."""
        if not self.on:
            return fn(*args, **kwargs)
        span = self._start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stop(span)

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        span = self._start(name)
        try:
            yield
        finally:
            self._stop(span)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, total self time in s); self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            n, t = out.get(name, (0, 0.0))
            out[name] = (n + 1, t + (end - start) - child[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
