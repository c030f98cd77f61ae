"""Usage-pattern taxonomy (the paper's Section 4.1.1).

Classifies each timer's episode stream into the patterns the paper
identifies:

* **PERIODIC** — always expires and is immediately re-set to the same
  relative value (page-out timer, workqueue tick).
* **WATCHDOG** — never expires: re-set to the same relative value
  before expiry (console blank, Apache connection guards).
* **DELAY** — usually/always expires, re-set to the same value after a
  non-trivial gap (fixed-interval thread delays).
* **TIMEOUT** — almost never expires: cancelled shortly after being
  set, re-set to the same value after a gap (RPC calls, IDE commands).
* **DEFERRED** — Vista-only fifth pattern: deferred like a watchdog,
  but after a few iterations allowed to expire, then restarted
  (registry lazy close).
* **COUNTDOWN** — the select-loop idiom: the set value repeatedly
  counts down to zero, then resets (X server, icewm; Section 4.2).
  The paper files these under "other" after identifying them.
* **OTHER** — irregular or too few observations.

Comparisons use the 2 ms variance the paper determined experimentally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..tracing.trace import TimerHistory
from .episodes import (DEFAULT_TOLERANCE_NS, Episode, Outcome,
                       ValueBuckets, extract_episodes)
from .index import as_index


class TimerClass(enum.Enum):
    PERIODIC = "periodic"
    WATCHDOG = "watchdog"
    DELAY = "delay"
    TIMEOUT = "timeout"
    DEFERRED = "deferred"
    COUNTDOWN = "countdown"
    OTHER = "other"


@dataclass
class Classification:
    """Classifier verdict for one (logical) timer."""

    history: TimerHistory
    episodes: list[Episode]
    timer_class: TimerClass
    dominant_value_ns: Optional[int]

    @property
    def set_count(self) -> int:
        return len(self.episodes)


class TimerStats:
    """O(1)-per-episode accumulators for the Section 4.1.1 statistics
    (dominant value, countdown pairs, outcome fractions, deferral
    fraction, deferred runs) in a single fold over the episode stream.

    ``tests/core/test_classify_reference.py`` keeps the historical
    multi-pass definitions of those statistics as a reference and
    checks, over generated episode lists, that :meth:`add_batch` agrees
    with them on every one however the stream is split into batches.

    Every classification runs through this class:
    :func:`classify_episodes` folds one whole episode list, and
    :class:`~repro.core.streaming.StreamingClassifier` folds each
    group's episodes in the batches the
    :class:`~repro.core.streaming.EpisodeRouter` hands it (or, for
    :func:`pattern_breakdown` and :func:`~repro.core.origin_table`, the
    index's cached lists).
    """

    __slots__ = ("n", "buckets", "n_resolved", "expired", "canceled",
                 "rearmed", "prev_value", "decreasing", "resets",
                 "gaps", "gaps_small", "deferrals", "run", "runs_ok",
                 "prev_outcome", "prev_outcome_value", "tolerance_ns")

    def __init__(self, tolerance_ns: int):
        self.tolerance_ns = tolerance_ns
        self.n = 0
        self.buckets = ValueBuckets(tolerance_ns)
        self.n_resolved = 0
        self.expired = self.canceled = self.rearmed = 0
        self.prev_value: Optional[int] = None
        self.decreasing = self.resets = 0
        self.gaps = self.gaps_small = 0
        self.deferrals = 0
        self.run = self.runs_ok = 0
        self.prev_outcome: Optional[Outcome] = None
        self.prev_outcome_value = 0

    def add_batch(self, episodes: list) -> None:
        """Fold the next episodes of the stream, accumulating in
        locals (per-episode ``self`` attribute churn was the
        classifier's dominant cost).  The statistics do not depend on
        how the stream is split into batches."""
        tol = self.tolerance_ns
        buckets = self.buckets
        counts = buckets.counts
        bucket_add = buckets.add
        REARMED = Outcome.REARMED
        CANCELED = Outcome.CANCELED
        EXPIRED = Outcome.EXPIRED
        UNRESOLVED = Outcome.UNRESOLVED

        n = n_resolved = expired = canceled = rearmed = 0
        decreasing = resets = gaps = gaps_small = deferrals = runs_ok = 0
        run = self.run
        prev_value = self.prev_value
        prev_outcome = self.prev_outcome
        prev_outcome_value = self.prev_outcome_value

        for _set_at, value, outcome, _ended_at, gap in episodes:
            n += 1
            if value in counts:
                counts[value] += 1
            else:
                bucket_add(value)
            if prev_value is not None:
                if value < prev_value - tol:
                    decreasing += 1
                elif value > prev_value + tol:
                    resets += 1
            prev_value = value
            if gap is not None:
                gaps += 1
                if gap <= tol:
                    gaps_small += 1
            if outcome is REARMED:
                deferrals += 1
            if prev_outcome is CANCELED and gap is not None \
                    and gap <= tol \
                    and abs(value - prev_outcome_value) <= tol:
                deferrals += 1
            prev_outcome = outcome
            prev_outcome_value = value
            if outcome is not UNRESOLVED:
                n_resolved += 1
                if outcome is EXPIRED:
                    expired += 1
                    if run >= 1:
                        runs_ok += 1
                    run = 0
                elif outcome is CANCELED:
                    canceled += 1
                    run = 0
                else:
                    rearmed += 1
                    run += 1

        self.n += n
        self.n_resolved += n_resolved
        self.expired += expired
        self.canceled += canceled
        self.rearmed += rearmed
        self.decreasing += decreasing
        self.resets += resets
        self.gaps += gaps
        self.gaps_small += gaps_small
        self.deferrals += deferrals
        self.runs_ok += runs_ok
        self.run = run
        self.prev_value = prev_value
        self.prev_outcome = prev_outcome
        self.prev_outcome_value = prev_outcome_value

    # -- the classification decision tree, from the counters -------------

    def dominant(self) -> tuple[Optional[int], float]:
        if self.n == 0:
            return None, 0.0
        center, count = self.buckets.dominant()
        return center, count / self.n

    def _is_deferred(self) -> bool:
        if self.expired == 0 or self.rearmed == 0:
            return False
        return self.runs_ok >= max(1, self.expired * 0.6) \
            and self.rearmed / self.n_resolved >= 0.4

    def classify(self, *, min_observations: int = 3
                 ) -> tuple[TimerClass, Optional[int]]:
        value, share = self.dominant()
        if self.n < min_observations:
            return TimerClass.OTHER, value
        pairs = self.n - 1
        if self.n >= 4 and self.decreasing / pairs >= 0.55 \
                and self.resets >= 1:
            return TimerClass.COUNTDOWN, value

        if self.n_resolved:
            expired = self.expired / self.n_resolved
            canceled = self.canceled / self.n_resolved
            deferral = self.deferrals / self.n_resolved
        else:
            expired = canceled = deferral = 0.0
        constant = share >= 0.7

        if constant and deferral >= 0.5:
            if expired <= 0.05:
                return TimerClass.WATCHDOG, value
            if self._is_deferred():
                return TimerClass.DEFERRED, value
            if expired <= 0.1:
                return TimerClass.WATCHDOG, value
        if constant and expired >= 0.85:
            if self.gaps == 0 or self.gaps_small / self.gaps >= 0.5:
                return TimerClass.PERIODIC, value
            return TimerClass.DELAY, value
        if constant and canceled >= 0.85:
            return TimerClass.TIMEOUT, value
        if self._is_deferred() and constant:
            return TimerClass.DEFERRED, value
        return TimerClass.OTHER, value


def classify_episodes(episodes: list[Episode], *,
                      tolerance_ns: int = DEFAULT_TOLERANCE_NS,
                      min_observations: int = 3
                      ) -> tuple[TimerClass, Optional[int]]:
    """Classify one episode stream; returns (class, dominant value).

    One fold through :class:`TimerStats` replaces the historical five
    passes (dominant value, countdown detection, outcome fractions,
    deferral fraction, deferred-run detection); the reference
    definitions of those passes live in
    ``tests/core/test_classify_reference.py``, which pins the fold's
    statistics to them.
    """
    stats = TimerStats(tolerance_ns)
    stats.add_batch(episodes)
    return stats.classify(min_observations=min_observations)


def classify_timer(history: TimerHistory, os_name: str, *,
                   tolerance_ns: int = DEFAULT_TOLERANCE_NS,
                   episodes: Optional[list[Episode]] = None
                   ) -> Classification:
    """Classify one timer; ``episodes`` may be passed pre-extracted
    (the :class:`~repro.core.index.TraceIndex` cache)."""
    if episodes is None:
        episodes = extract_episodes(history, os_name)
    timer_class, value = classify_episodes(episodes,
                                           tolerance_ns=tolerance_ns)
    return Classification(history, episodes, timer_class, value)


@dataclass
class PatternBreakdown:
    """Figure 2's data for one workload: % of timers per class."""

    workload: str
    os_name: str
    counts: dict[TimerClass, int] = field(default_factory=dict)
    total: int = 0

    def percentage(self, timer_class: TimerClass) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(timer_class, 0) / self.total

    def figure2_row(self) -> dict[str, float]:
        """The paper's Figure 2 buckets (countdown folds into other)."""
        other = (self.percentage(TimerClass.OTHER)
                 + self.percentage(TimerClass.COUNTDOWN)
                 + self.percentage(TimerClass.DEFERRED))
        return {
            "delay": self.percentage(TimerClass.DELAY),
            "periodic": self.percentage(TimerClass.PERIODIC),
            "timeout": self.percentage(TimerClass.TIMEOUT),
            "watchdog": self.percentage(TimerClass.WATCHDOG),
            "other": other,
        }


def classify_trace(source, *, logical: Optional[bool] = None,
                   tolerance_ns: int = DEFAULT_TOLERANCE_NS
                   ) -> list[Classification]:
    """Classify every timer in a trace (or pre-built index).

    ``logical`` selects call-site clustering (default for Vista, where
    timer addresses are dynamically reused) versus per-address grouping
    (default for Linux).
    """
    index = as_index(source)
    if logical is None:
        logical = index.default_logical
    key = ("classify", logical, tolerance_ns)
    verdicts = index.memo.get(key)
    if verdicts is None:
        verdicts = [classify_timer(history, index.os_name,
                                   tolerance_ns=tolerance_ns,
                                   episodes=episodes)
                    for history, episodes in index.grouped(logical)]
        index.memo[key] = verdicts
    return verdicts


def trace_classifier(source, *, logical: Optional[bool] = None,
                     tolerance_ns: int = DEFAULT_TOLERANCE_NS):
    """A finished :class:`~repro.core.streaming.StreamingClassifier`
    folded over one grouping's cached episode lists (memoised on the
    index, so Figure 2 and Table 3 share one classification)."""
    index = as_index(source)
    if logical is None:
        logical = index.default_logical
    key = ("classifier", logical, tolerance_ns)
    folded = index.memo.get(key)
    if folded is None:
        from .streaming import StreamingClassifier
        folded = StreamingClassifier(index.os_name, index.trace.workload,
                                     tolerance_ns=tolerance_ns)
        for history, episodes in index.grouped(logical):
            folded.on_group(history)
            folded.on_episodes(history, episodes)
        folded.finish()
        index.memo[key] = folded
    return folded


def pattern_breakdown(source, **kwargs) -> PatternBreakdown:
    """Compute Figure 2's per-class timer percentages for one trace."""
    return trace_classifier(source, **kwargs).breakdown
