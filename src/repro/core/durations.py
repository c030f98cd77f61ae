"""Observed timer durations (the paper's Figures 8–11).

For every episode we plot the set timeout value against the time after
which the timer actually expired or was cancelled, expressed as a
percentage of the set value.  Expiries land at or slightly above 100%
(delivery happens at tick granularity, so short timeouts exceed 100%
by a large relative margin); cancellations scatter below 100%.

As in the paper: timers set to expire immediately or in the past are
not plotted, and the y axis is cut off at 250%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.clock import SECOND
from .episodes import Outcome
from .index import as_index

CUTOFF_PCT = 250.0


@dataclass
class ScatterPoint:
    """One aggregated circle: (value, fraction) with multiplicity."""

    value_ns: int
    fraction_pct: float
    count: int
    outcome: Outcome


@dataclass
class DurationScatter:
    """The data behind one panel of Figures 8–11."""

    workload: str
    os_name: str
    points: list[ScatterPoint] = field(default_factory=list)
    clipped: int = 0        #: points above the 250% cutoff
    skipped: int = 0        #: immediate/past expiries, not plotted

    # -- summary statistics used by the benchmarks ----------------------

    def total(self) -> int:
        return sum(p.count for p in self.points)

    def share_above_100pct(self) -> float:
        """Fraction of plotted points delivered late (>100%)."""
        total = self.total()
        if total == 0:
            return 0.0
        late = sum(p.count for p in self.points if p.fraction_pct > 100.0)
        return late / total

    def cancel_share(self, *, value_min_ns: int = 0,
                     value_max_ns: Optional[int] = None) -> float:
        """Fraction of episodes in a value band that were cancelled."""
        selected = [p for p in self.points
                    if p.value_ns >= value_min_ns
                    and (value_max_ns is None or p.value_ns <= value_max_ns)]
        total = sum(p.count for p in selected)
        if total == 0:
            return 0.0
        canceled = sum(p.count for p in selected
                       if p.outcome == Outcome.CANCELED)
        return canceled / total

    def points_near(self, value_ns: int, rel_tol: float = 0.1
                    ) -> list[ScatterPoint]:
        """Points whose set value is within ``rel_tol`` of ``value_ns``
        (the paper's 'column at 5 seconds' style observations)."""
        lo, hi = value_ns * (1 - rel_tol), value_ns * (1 + rel_tol)
        return [p for p in self.points if lo <= p.value_ns <= hi]

    def fraction_spread(self, value_ns: int, rel_tol: float = 0.1
                        ) -> tuple[float, float]:
        """(min, max) cancellation/expiry fraction at one value column."""
        pts = self.points_near(value_ns, rel_tol)
        if not pts:
            return (0.0, 0.0)
        fracs = [p.fraction_pct for p in pts]
        return (min(fracs), max(fracs))


def duration_scatter(source, *, logical: Optional[bool] = None,
                     cutoff_pct: float = CUTOFF_PCT) -> DurationScatter:
    """Build the Figure 8–11 scatter for one trace or index: a fold of
    :class:`~repro.core.streaming.StreamingDurations` over the index's
    cached episode lists."""
    from .streaming import StreamingDurations
    index = as_index(source)
    if logical is None:
        logical = index.default_logical
    reducer = StreamingDurations(index.os_name, index.trace.workload,
                                 cutoff_pct=cutoff_pct)
    for episodes in index.episodes(logical):
        reducer.on_episodes(None, episodes)
    return reducer.finish()


def render_scatter(scatter: DurationScatter, *, rows: int = 12,
                   cols: int = 64) -> str:
    """Coarse ASCII rendering of the scatter (log-x, linear-y)."""
    import math
    if not scatter.points:
        return "(no points)"
    min_v = min(p.value_ns for p in scatter.points)
    max_v = max(p.value_ns for p in scatter.points)
    lo, hi = math.log10(min_v), math.log10(max_v) + 1e-9
    grid = [[" "] * cols for _ in range(rows)]
    for p in scatter.points:
        x = int((math.log10(p.value_ns) - lo) / (hi - lo + 1e-12)
                * (cols - 1))
        y = int(min(p.fraction_pct, CUTOFF_PCT) / CUTOFF_PCT * (rows - 1))
        row = rows - 1 - y
        char = "o" if p.count < 100 else "O"
        grid[row][x] = char
    labels = [f"{CUTOFF_PCT:.0f}%"] + [""] * (rows - 2) + ["0%"]
    lines = [f"{labels[i]:>5}|" + "".join(grid[i]) for i in range(rows)]
    lines.append(" " * 6 + f"{min_v / SECOND:.4g}s ... {max_v / SECOND:.4g}s"
                 f"  (log scale, {scatter.total()} episodes)")
    return "\n".join(lines)
