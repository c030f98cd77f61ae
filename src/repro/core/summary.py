"""Trace summarisation — the schema of the paper's Tables 1 and 2.

For each workload trace we report:

* **timers** — number of distinct timer structure addresses,
* **concurrency** — maximum number of simultaneously-pending timers,
* **accesses** — total accesses to the timer subsystem,
* **user-space / kernel** — split of accesses by origin,
* **set / expired / canceled** — operation totals.

Accesses are counted the way each paper table implies: on Linux every
instrumented call is an access (including ``del_timer`` on an inactive
timer and expiry processing); on Vista the ETW events hooked the
KeSet/KeCancel *calls* plus thread unblocks, while ring expiry happens
inside the clock DPC — which is why Table 2's access totals are close
to set+canceled rather than including expiries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import as_index


@dataclass
class TraceSummary:
    """One column of Table 1 / Table 2."""

    workload: str
    os_name: str
    timers: int
    concurrency: int
    accesses: int
    user_space: int
    kernel: int
    set_count: int
    expired: int
    canceled: int

    def as_row(self) -> dict:
        return {
            "Timers": self.timers, "Concurrency": self.concurrency,
            "Accesses": self.accesses, "User-space": self.user_space,
            "Kernel": self.kernel, "Set": self.set_count,
            "Expired": self.expired, "Canceled": self.canceled,
        }


def summarize(source) -> TraceSummary:
    """Compute the Table 1/2 metrics for one trace or index: a fold of
    :class:`~repro.core.streaming.StreamingSummary` over its events
    (memoised on the :class:`~repro.core.index.TraceIndex`)."""
    index = as_index(source)
    summary = index.memo.get("summary")
    if summary is None:
        from .streaming import StreamingSummary
        trace = index.trace
        # Every endpoint is buffered before the one commit at finish(),
        # so the sweep is exact on any trace.
        reducer = StreamingSummary(trace.os_name, trace.workload,
                                   wait_horizon_ns=float("inf"))
        reducer.emit_batch(trace.events)
        summary = index.memo["summary"] = reducer.finish(trace.duration_ns)
    return summary


def summary_table(summaries: list[TraceSummary]) -> str:
    """Render summaries side by side, like the paper's tables."""
    if not summaries:
        return "(no traces)"
    names = [s.workload for s in summaries]
    rows = ["Timers", "Concurrency", "Accesses", "User-space", "Kernel",
            "Set", "Expired", "Canceled"]
    width = max(12, *(len(n) + 2 for n in names))
    out = [" " * 14 + "".join(f"{n:>{width}}" for n in names)]
    for row in rows:
        cells = "".join(f"{s.as_row()[row]:>{width}}" for s in summaries)
        out.append(f"{row:<14}{cells}")
    return "\n".join(out)
