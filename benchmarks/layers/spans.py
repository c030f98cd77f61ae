"""In-memory spans and the self-time arithmetic over them.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
index of the enclosing span (``None`` at the root).  The benchmark
records spans only around calls into each layer's public functions;
nothing inside the program is instrumented.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class SpanRecorder:
    """Collects nested spans in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter_ns(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def dump(self, path: str) -> None:
        fields = ("name", "start_ns", "end_ns", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)


def no_spans(_name: str):
    """The untraced stand-in for a :class:`SpanRecorder`."""
    return nullcontext()


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_seconds(spans) -> dict[str, float]:
    """Self time per span name, summed over every span of that name."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        own = end - start - covered_ns(children.get(i, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own / 1e9
    return totals
