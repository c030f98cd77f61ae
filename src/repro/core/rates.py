"""Timer set-rate time series (the paper's Figure 1).

Figure 1 plots timers set per second by Outlook, a web browser, other
system processes and the kernel over a 90-second excerpt of a Vista
desktop trace: the kernel around a thousand per second, a browser tens
per second, Outlook ~70/s with bursts up to 7000/s caused by its
wrap-every-upcall-in-a-5-second-timeout idiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.clock import SECOND
from ..tracing.events import EventKind, TimerEvent
from ..tracing.trace import Trace
from .index import SET_LIKE_KINDS, TraceIndex


@dataclass
class RateSeries:
    """Per-group timers-set-per-second series."""

    bucket_ns: int
    buckets: int
    series: dict[str, list[int]]

    def peak(self, group: str) -> int:
        return max(self.series.get(group, [0]))

    def mean(self, group: str) -> float:
        values = self.series.get(group, [])
        if not values:
            return 0.0
        return sum(values) / len(values)

    def per_second(self, group: str) -> list[float]:
        scale = SECOND / self.bucket_ns
        return [v * scale for v in self.series.get(group, [])]


def default_group(event: TimerEvent) -> str:
    """Figure 1's grouping: named apps, system processes, the kernel."""
    if event.domain == "kernel" or event.comm == "kernel":
        return "Kernel"
    comm = event.comm.lower()
    if "outlook" in comm:
        return "Outlook"
    if "iexplore" in comm or "firefox" in comm or "browser" in comm:
        return "Browser"
    return "System"


def rate_series(source, *, bucket_ns: int = SECOND,
                group_fn: Callable[[TimerEvent], str] = default_group,
                kinds: tuple = (EventKind.SET, EventKind.WAIT_UNBLOCK),
                duration_ns: Optional[int] = None) -> RateSeries:
    """Count timer sets per bucket per group (trace or index input).

    WAIT_UNBLOCK events count as one set at their block time, matching
    the paper's instrumentation of the wait fast path.  A fold of
    :class:`~repro.core.streaming.StreamingRates`.
    """
    # The default kinds are exactly the index's set-like view.  Use an
    # index when handed or already cached; a rate series alone is a
    # single scan either way, so never force a full build for it.
    if isinstance(source, TraceIndex):
        trace, index = source.trace, source
    elif isinstance(source, Trace):
        trace, index = source, TraceIndex.peek(source)
    else:
        from ..tracing.binfmt2 import ColumnarTrace
        if not isinstance(source, ColumnarTrace):
            raise TypeError(f"expected Trace, ColumnarTrace or "
                            f"TraceIndex, got {type(source).__name__}")
        trace = source.as_trace()
        index = TraceIndex.peek(trace)
    from .streaming import StreamingRates
    reducer = StreamingRates(trace.os_name, trace.workload,
                             bucket_ns=bucket_ns, group_fn=group_fn,
                             kinds=kinds)
    reducer.emit_batch(index.set_like
                       if index is not None
                       and tuple(kinds) == SET_LIKE_KINDS
                       else trace.events)
    return reducer.finish(duration_ns if duration_ns is not None
                          else trace.duration_ns)


def render_rates(rates: RateSeries, *, groups: Optional[list[str]] = None,
                 max_rows: int = 30) -> str:
    """Tabular rendering of the per-second series."""
    if groups is None:
        groups = sorted(rates.series)
    header = "t[s]  " + "".join(f"{g:>10}" for g in groups)
    lines = [header]
    step = max(1, rates.buckets // max_rows)
    for index in range(0, rates.buckets, step):
        cells = "".join(
            f"{rates.series.get(g, [0] * rates.buckets)[index]:>10}"
            for g in groups)
        lines.append(f"{index * rates.bucket_ns // SECOND:>4}  {cells}")
    summary = "mean  " + "".join(f"{rates.mean(g):>10.1f}" for g in groups)
    peak = "peak  " + "".join(f"{rates.peak(g):>10}" for g in groups)
    lines.extend([summary, peak])
    return "\n".join(lines)
