"""Detecting adaptive timeout values in traces (Section 4.2's claim).

"Very few regular uses of timers are adaptive (in that they react to
measured timeouts or cancelation times via a control loop), and many
timers are set to round number values."  This module makes that claim
measurable: each (logical) timer's sequence of set values is classified
as

* **CONSTANT** — one dominant value (within the jitter tolerance):
  the overwhelmingly common case the paper found;
* **COUNTDOWN** — the select remaining-time idiom (decreasing runs);
* **ADAPTIVE** — values vary, but *smoothly*: successive values are
  close relative to the overall spread, the signature of a control
  loop nudging its estimate (TCP RTO on a varying path, the journal's
  load-adjusted commit interval);
* **IRREGULAR** — values vary with no smooth structure (Skype's
  event-loop residues).

Not to be confused with :mod:`repro.core.adaptive`, which *builds*
adaptive timeout policies (the Section 5.1 estimator/backoff/quantile
machinery).  Rule of thumb: ``adaptivity`` (this module) asks "were
the traced timers adaptive?", ``adaptive`` answers "here is how to be
adaptive".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .episodes import DEFAULT_TOLERANCE_NS
from .index import as_index

__all__ = [
    "AdaptivityReport", "ValueBehavior", "adaptivity_report",
    "classify_values",
]


class ValueBehavior(enum.Enum):
    CONSTANT = "constant"
    COUNTDOWN = "countdown"
    ADAPTIVE = "adaptive"
    IRREGULAR = "irregular"


def classify_values(values: Sequence[int], *,
                    tolerance_ns: int = DEFAULT_TOLERANCE_NS,
                    min_observations: int = 5) -> ValueBehavior:
    """Classify one timer's sequence of set values."""
    if len(values) < min_observations:
        return ValueBehavior.CONSTANT if len(set(values)) <= 1 \
            else ValueBehavior.IRREGULAR
    ordered = sorted(values)
    n = len(ordered)
    p10 = ordered[n // 10]
    p90 = ordered[(9 * n) // 10]
    spread = p90 - p10
    if spread <= 2 * tolerance_ns:
        return ValueBehavior.CONSTANT

    # TimerStats' countdown pair counters, computed straight off the
    # value sequence (no per-value episode shims on this hot path).
    if n >= 4:
        decreasing = resets = 0
        prev = values[0]
        for cur in values[1:]:
            if cur < prev - tolerance_ns:
                decreasing += 1
            elif cur > prev + tolerance_ns:
                resets += 1
            prev = cur
        if decreasing / (n - 1) >= 0.55 and resets >= 1:
            return ValueBehavior.COUNTDOWN

    # Smoothness: mean step between successive values, relative to the
    # overall spread.  A control loop moves gradually; an event loop
    # jumps around its whole range.
    steps = [abs(b - a) for a, b in zip(values, values[1:])]
    mean_step = sum(steps) / len(steps)
    if mean_step < 0.25 * spread:
        return ValueBehavior.ADAPTIVE
    return ValueBehavior.IRREGULAR


@dataclass
class AdaptivityReport:
    """Per-trace share of timer sets by value behaviour."""

    workload: str
    os_name: str
    set_counts: dict[ValueBehavior, int] = field(default_factory=dict)
    timer_counts: dict[ValueBehavior, int] = field(default_factory=dict)

    @property
    def total_sets(self) -> int:
        return sum(self.set_counts.values())

    def set_share(self, behavior: ValueBehavior) -> float:
        total = self.total_sets
        if total == 0:
            return 0.0
        return self.set_counts.get(behavior, 0) / total

    def render(self) -> str:
        lines = [f"{'behaviour':<10} {'timers':>7} {'sets':>9} "
                 f"{'% of sets':>10}"]
        for behavior in ValueBehavior:
            lines.append(
                f"{behavior.value:<10} "
                f"{self.timer_counts.get(behavior, 0):>7} "
                f"{self.set_counts.get(behavior, 0):>9} "
                f"{self.set_share(behavior) * 100:>9.1f}%")
        return "\n".join(lines)


def adaptivity_report(source, *, logical: Optional[bool] = None,
                      tolerance_ns: int = DEFAULT_TOLERANCE_NS
                      ) -> AdaptivityReport:
    """Measure how much of a trace's timer traffic is adaptive."""
    index = as_index(source)
    if logical is None:
        logical = index.default_logical
    report = AdaptivityReport(index.trace.workload, index.os_name)
    for episodes in index.episodes(logical):
        values = [value for _set_at, value, _o, _e, _g in episodes]
        if not values:
            continue
        behavior = classify_values(values, tolerance_ns=tolerance_ns)
        report.timer_counts[behavior] = \
            report.timer_counts.get(behavior, 0) + 1
        report.set_counts[behavior] = \
            report.set_counts.get(behavior, 0) + len(values)
    return report
