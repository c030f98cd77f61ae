"""One unified entry point over every trace analysis.

``analyze(source)`` accepts whatever representation of a timer trace
you happen to hold — a :class:`~repro.tracing.trace.Trace`, a
pre-built :class:`~repro.core.index.TraceIndex`, a path to a saved
trace file, a finished :class:`~repro.core.streaming.StreamingSuite`,
or a plain iterable of :class:`~repro.tracing.events.TimerEvent` — and
returns an :class:`Analysis` with lazy, cached accessors for each of
the paper's analyses (Tables 1–3, Figures 1–11, the Section 4.2
adaptivity claim and the Section 5.2 nesting inference).

Two modes, one surface, one implementation of each core analysis
(the :mod:`~repro.core.streaming` reducers):

* **batch** — the source is (or loads into) a full in-memory trace;
  every analysis is available and computed on demand by folding its
  reducer over the shared single-pass index.
* **streaming** — the source is a finished streaming suite, or an
  event iterable that gets folded through one here.  The core
  analyses come straight from the suite's reducers; the two analyses
  that inherently need random access to full episode lists
  (:meth:`Analysis.adaptivity` and :meth:`Analysis.nesting`) raise
  :class:`NotImplementedError` — probe with :meth:`Analysis.supports`
  first.
"""

from __future__ import annotations

import os as _os
from typing import Iterable, Optional, Union

from ..tracing.events import TimerEvent
from ..tracing.trace import Trace
from .adaptivity import AdaptivityReport, adaptivity_report
from .classify import PatternBreakdown, pattern_breakdown
from .durations import DurationScatter, duration_scatter
from .index import TraceIndex, as_index
from .nesting import NestedPair, infer_nesting
from .origins import OriginRow, origin_table
from .rates import RateSeries, rate_series
from .streaming import StreamingSuite
from .summary import TraceSummary, summarize
from .values import ValueHistogram, value_histogram

Source = Union[Trace, TraceIndex, StreamingSuite, str, "_os.PathLike",
               Iterable[TimerEvent]]

#: Analyses that need the full episode lists in memory and therefore
#: exist only in batch mode.
_BATCH_ONLY = frozenset({"adaptivity", "nesting"})


class Analysis:
    """Lazy facade over one trace's analyses (see :func:`analyze`).

    Accessors compute on first call and cache; in batch mode keyword
    overrides bypass the cache and recompute.  ``mode`` is ``"batch"``
    or ``"streaming"``.
    """

    def __init__(self, *, index: Optional[TraceIndex] = None,
                 suite: Optional[StreamingSuite] = None):
        if (index is None) == (suite is None):
            raise ValueError("exactly one of index/suite required")
        self._index = index
        self._suite = suite
        self._cache: dict = {}

    # -- metadata -------------------------------------------------------

    @property
    def mode(self) -> str:
        return "batch" if self._index is not None else "streaming"

    @property
    def os_name(self) -> str:
        return self._index.os_name if self._index is not None \
            else self._suite.os_name

    @property
    def workload(self) -> str:
        return self._index.trace.workload if self._index is not None \
            else self._suite.workload

    @property
    def duration_ns(self) -> int:
        return self._index.trace.duration_ns if self._index is not None \
            else self._suite.duration_ns

    @property
    def n_events(self) -> int:
        return self._index.n_events if self._index is not None \
            else self._suite.n_events

    @property
    def trace(self) -> Trace:
        """The underlying trace (batch mode only)."""
        self._require_batch("trace")
        return self._index.trace

    @property
    def index(self) -> TraceIndex:
        self._require_batch("index")
        return self._index

    @property
    def suite(self) -> Optional[StreamingSuite]:
        return self._suite

    def supports(self, name: str) -> bool:
        """Whether accessor ``name`` works in this mode."""
        return self._index is not None or name not in _BATCH_ONLY

    def _require_batch(self, name: str) -> None:
        if self._index is None:
            raise NotImplementedError(
                f"{name} needs the full trace in memory; it is not "
                f"available on a streaming analysis (check "
                f"Analysis.supports({name!r}))")

    def _cached(self, name: str, compute, kwargs: dict):
        if kwargs:     # explicit overrides: recompute, don't cache
            return compute(self._index, **kwargs)
        if name not in self._cache:
            self._cache[name] = compute(self._index)
        return self._cache[name]

    def _no_overrides(self, name: str, kwargs: dict) -> None:
        if kwargs:
            raise ValueError(
                f"{name} options are fixed at streaming time; "
                f"configure the StreamingSuite instead "
                f"(got {sorted(kwargs)})")

    # -- the paper's analyses -------------------------------------------

    def summary(self) -> TraceSummary:
        """Tables 1/2 row."""
        if self._suite is not None:
            return self._suite.summary
        return self._cached("summary", summarize, {})

    def pattern_breakdown(self, **kwargs) -> PatternBreakdown:
        """Figure 2 usage-pattern shares."""
        if self._suite is not None:
            self._no_overrides("pattern_breakdown", kwargs)
            return self._suite.breakdown
        return self._cached("breakdown", pattern_breakdown, kwargs)

    def value_histogram(self, **kwargs) -> ValueHistogram:
        """Figures 3–7 common-value histogram."""
        if self._suite is not None:
            self._no_overrides("value_histogram", kwargs)
            return self._suite.histogram
        return self._cached("histogram", value_histogram, kwargs)

    def duration_scatter(self, **kwargs) -> DurationScatter:
        """Figures 8–11 expiry/cancel scatter."""
        if self._suite is not None:
            self._no_overrides("duration_scatter", kwargs)
            return self._suite.scatter
        return self._cached("scatter", duration_scatter, kwargs)

    def rate_series(self, **kwargs) -> RateSeries:
        """Figure 1 set-rate series."""
        if self._suite is not None:
            self._no_overrides("rate_series", kwargs)
            return self._suite.rates
        return self._cached("rates", rate_series, kwargs)

    def origin_table(self, *, min_sets: int = 3, **kwargs
                     ) -> list[OriginRow]:
        """Table 3 rows."""
        if self._suite is not None:
            self._no_overrides("origin_table", kwargs)
            return self._suite.origin_table(min_sets=min_sets)
        return origin_table(self._index, min_sets=min_sets, **kwargs)

    def adaptivity(self, **kwargs) -> AdaptivityReport:
        """Section 4.2 value-adaptivity shares (batch only)."""
        self._require_batch("adaptivity")
        return self._cached("adaptivity", adaptivity_report, kwargs)

    def nesting(self, **kwargs) -> list[NestedPair]:
        """Section 5.2 inferred nested timeouts (batch only)."""
        self._require_batch("nesting")
        return self._cached("nesting", infer_nesting, kwargs)


def analyze(source: Source, *, os_name: Optional[str] = None,
            workload: Optional[str] = None,
            duration_ns: Optional[int] = None) -> Analysis:
    """Build an :class:`Analysis` from any trace representation.

    * ``Trace`` / ``TraceIndex`` / ``ColumnarTrace`` → batch mode over
      the shared index (a columnar view hydrates lazily, once).
    * ``str`` / path → :func:`repro.tracing.open_trace` (format
      sniffed by magic), then batch mode.
    * ``StreamingSuite`` → streaming mode; an unfinished suite is
      finished here (``duration_ns`` required in that case).
    * any other iterable of :class:`TimerEvent` → streaming mode: the
      events are folded through a fresh suite (``os_name``,
      ``workload`` and ``duration_ns`` describe the stream; the first
      two default to ``"unknown"``).
    """
    if isinstance(source, StreamingSuite):
        if not source.finished:
            if duration_ns is None:
                raise ValueError("duration_ns required to finish an "
                                 "unfinished StreamingSuite")
            source.finish(duration_ns)
        return Analysis(suite=source)
    if isinstance(source, (str, _os.PathLike)):
        from ..tracing.formats import open_trace
        source = open_trace(_os.fspath(source))
    from ..tracing.binfmt2 import ColumnarTrace
    if isinstance(source, (Trace, TraceIndex, ColumnarTrace)):
        return Analysis(index=as_index(source))
    try:
        events = iter(source)
    except TypeError:
        raise TypeError(
            f"analyze() expects a Trace, TraceIndex, StreamingSuite, "
            f"path or iterable of TimerEvent, got "
            f"{type(source).__name__}") from None
    suite = StreamingSuite(os_name or "unknown", workload or "unknown")
    last_ts = 0
    for event in events:
        suite.emit(event)
        last_ts = event.ts
    suite.finish(duration_ns if duration_ns is not None else last_ts)
    return Analysis(suite=suite)
