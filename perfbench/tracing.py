"""In-memory spans recorded around the benchmark's own calls into idealfam.

A span is (name, start, end, parent, instance, attempt).  Spans stay in
memory while the benchmark runs and are written out once at the end.  The
self time of a span is its duration minus the part its direct children
cover; the children of one span never overlap because the benchmark is
single-threaded.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str
    attempt: int


class Tracer:
    """Records nested spans for one instance attempt at a time."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = ""
        self.attempt = -1

    def begin(self, instance: str, attempt: int):
        self.instance = instance
        self.attempt = attempt

    @contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.instance, self.attempt)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Stands in for a tracer on untraced attempts; records nothing."""

    enabled = False
    _null = nullcontext()

    def begin(self, instance, attempt):
        pass

    def span(self, name):
        return self._null


NULL_TRACER = NullTracer()


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, index-aligned with ``spans``."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]
