"""The paper's contribution: trace analyses (Section 4) and the
clean-slate timer design machinery (Section 5).

Analysis side: :mod:`~repro.core.summary` (Tables 1–2),
:mod:`~repro.core.classify` (the usage taxonomy, Figure 2),
:mod:`~repro.core.values` (common values, Figures 3–7),
:mod:`~repro.core.durations` (expiry/cancel fractions, Figures 8–11),
:mod:`~repro.core.origins` (Table 3), :mod:`~repro.core.rates`
(Figure 1) — each a fold of its :mod:`~repro.core.streaming` reducer
over the shared single-pass :mod:`~repro.core.index` instead of a
re-scan of the trace.

One roof over all of it: :func:`~repro.core.analyze.analyze` wraps a
trace, index, saved file, event stream or finished
:class:`~repro.core.streaming.StreamingSuite` in a lazy
:class:`~repro.core.analyze.Analysis`; the same reducers, behind one
live sink, give the bounded-memory streaming mode.

Design side: :mod:`~repro.core.adaptive` (5.1),
:mod:`~repro.core.provenance` (5.2), :mod:`~repro.core.timespec` (5.3),
:mod:`~repro.core.interfaces` (5.4), :mod:`~repro.core.dispatch` (5.5).
"""

from .adaptivity import (AdaptivityReport, ValueBehavior,
                         adaptivity_report, classify_values)
from .analyze import Analysis, analyze
from .adaptive import (AdaptiveTimeout, ExponentialBackoff,
                       JacobsonEstimator, LevelShiftDetector, P2Quantile,
                       WaitOutcome, simulate_wait_policy)
from .classify import (Classification, PatternBreakdown, TimerClass,
                       classify_episodes, classify_timer, classify_trace,
                       pattern_breakdown)
from .dispatch import (ActivationScheduler, MediaLoopResult, Requirement,
                       run_media_comparison, run_media_loop_dispatcher,
                       run_media_loop_timers)
from .durations import (DurationScatter, ScatterPoint, duration_scatter,
                        render_scatter)
from .episodes import (DEFAULT_TOLERANCE_NS, Episode, Outcome,
                       dominant_value, extract_episodes, nominal_value_ns)
from .index import TraceIndex, as_index
from .interfaces import (DeferredAction, DelayTimer, PeriodicTicker,
                         ScopedTimeout, Watchdog)
from .nesting import NestedPair, infer_nesting, render_nesting
from .compare import (ClassShift, SummaryComparison, class_shift,
                      compare_summaries, histogram_distance,
                      trace_value_distance)
from .planned import AdmissionError, Plan, PlannedScheduler
from .origins import (OriginRow, attribute_origin, origin_table,
                      render_origin_table, value_origins)
from .provenance import (DependencyGraph, LayeredTimeoutStack, LayerSpec,
                         Relation)
from .rates import RateSeries, default_group, rate_series, render_rates
from .report import generate_report, render_analysis
from .streaming import (EpisodeRouter, ProgressSink, StreamingClassifier,
                        StreamingDurations, StreamingRates,
                        StreamingSuite, StreamingSummary,
                        StreamingValues)
from .summary import TraceSummary, summarize, summary_table
from .timespec import (AverageRate, Exact, FlexibleTimer,
                       FlexibleTimerQueue, Window, after, stab_windows)
from .values import (ValueHistogram, countdown_series, is_round_value,
                     render_histogram, round_value_share, value_histogram)

__all__ = [name for name in dir() if not name.startswith("_")]
