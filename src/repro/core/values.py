"""Common-timeout-value analysis (the paper's Figures 3–7).

The paper's most immediate finding: the distribution of timeout values
is dominated by a handful of fixed, human-chosen round numbers.  This
module computes

* value histograms over all SET operations (Figure 3/5/7), optionally
  restricted to syscall-level user values (Figure 6),
* the select-loop countdown series behind Figure 4,
* a round-number metric quantifying "0.5, 1, 5, or 15 seconds"-style
  human values versus measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.clock import JIFFY, MILLISECOND, SECOND, to_seconds
from ..tracing.events import EventKind
from .index import as_index


@dataclass
class ValueHistogram:
    """Timeout-value frequency table for one trace."""

    workload: str
    os_name: str
    total_sets: int
    #: value_ns -> count, for every distinct nominal value.
    counts: dict[int, int]

    def common_values(self, threshold_pct: float = 2.0
                      ) -> list[tuple[int, float]]:
        """Values responsible for at least ``threshold_pct`` of sets,
        sorted by value — the bars of Figures 3/5/6/7."""
        if self.total_sets == 0:
            return []
        out = [(value, 100.0 * count / self.total_sets)
               for value, count in self.counts.items()
               if 100.0 * count / self.total_sets >= threshold_pct]
        return sorted(out)

    def coverage(self, threshold_pct: float = 2.0) -> float:
        """What % of all sets the common values account for — the
        paper quotes e.g. 97% for the Linux webserver trace."""
        return sum(pct for _, pct in self.common_values(threshold_pct))

    def percentage_of(self, value_ns: int) -> float:
        if self.total_sets == 0:
            return 0.0
        return 100.0 * self.counts.get(value_ns, 0) / self.total_sets


def value_histogram(source, *, domain: Optional[str] = None,
                    include_waits: bool = True,
                    raw_user_values: bool = True) -> ValueHistogram:
    """Histogram of nominal SET values over a trace or index.

    ``domain="user"`` restricts to syscall-level accesses (Figure 6).
    ``raw_user_values`` keeps user values exactly as requested; kernel
    observations are quantised back to jiffies on Linux.  A fold of
    :class:`~repro.core.streaming.StreamingValues` over the index's
    set-like events.
    """
    from .streaming import StreamingValues
    index = as_index(source)
    reducer = StreamingValues(index.os_name, index.trace.workload,
                              domain=domain, include_waits=include_waits,
                              raw_user_values=raw_user_values)
    reducer.emit_batch(index.set_like)
    return reducer.finish()


def countdown_series(source, comm: str) -> list[tuple[int, int]]:
    """(timestamp, set value) pairs for one process — Figure 4's dots."""
    return [(e.ts, e.timeout_ns or 0)
            for e in as_index(source).by_comm.get(comm, [])
            if e.kind == EventKind.SET]


#: Values humans pick: multiples of these read as "round".
_ROUND_BASES_NS = (
    100 * MILLISECOND, 250 * MILLISECOND, 500 * MILLISECOND, SECOND,
)


def is_round_value(value_ns: int, tolerance_ns: int = MILLISECOND) -> bool:
    """Heuristic for a human-chosen "round number" timeout.

    A value is round if it is (a) within tolerance of a multiple of
    100 ms, 250 ms, 500 ms or a whole second (covering the paper's 0.5,
    1, 5, 15, 30, 7200 examples); (b) the jiffy-*truncation* of such a
    multiple, like the USB poll's 248 ms (62 jiffies standing in for
    250 ms) — but NOT a value a few ms *above* a multiple, so the
    adapted TCP RTO of 204 ms stays non-round; or (c) a small whole
    number of jiffies under 100 ms (the 1/2/3-jiffy soft-realtime polls
    are "minimal" rather than measured).
    """
    if value_ns <= 0:
        return True
    if value_ns < 100 * MILLISECOND and value_ns % JIFFY == 0:
        return True
    for base in _ROUND_BASES_NS:
        remainder = value_ns % base
        if min(remainder, base - remainder) <= tolerance_ns:
            return True
        if base - remainder < JIFFY:     # truncated-to-jiffy round value
            return True
    return False


def round_value_share(histogram: ValueHistogram) -> float:
    """Fraction of sets whose value is a round number (0..1)."""
    if histogram.total_sets == 0:
        return 0.0
    round_count = sum(count for value, count in histogram.counts.items()
                      if is_round_value(value))
    return round_count / histogram.total_sets


def render_histogram(histogram: ValueHistogram,
                     threshold_pct: float = 2.0, width: int = 46) -> str:
    """ASCII rendering in the style of the paper's bar charts."""
    rows = histogram.common_values(threshold_pct)
    if not rows:
        return "(no values above threshold)"
    peak = max(pct for _, pct in rows)
    lines = []
    for value, pct in rows:
        bar = "#" * max(1, round(width * pct / peak))
        lines.append(f"{_fmt_value(value):>14} {pct:5.1f}% {bar}")
    lines.append(f"{'coverage':>14} {histogram.coverage(threshold_pct):5.1f}%"
                 f" of {histogram.total_sets} sets")
    return "\n".join(lines)


def _fmt_value(value_ns: int) -> str:
    seconds_value = to_seconds(value_ns)
    if seconds_value >= 1 and value_ns % SECOND == 0:
        return f"{int(seconds_value)}"
    return f"{seconds_value:.4g}"
