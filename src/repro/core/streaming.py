"""Streaming incremental analyses — the one implementation of each
core analysis.

Every reducer here folds :class:`~repro.tracing.events.TimerEvent`
records (or, for the episode consumers, completed episode lists) in
one loop, and serves both halves of ``analyze()``:

* **batch** — :func:`~repro.core.summarize`,
  :func:`~repro.core.value_histogram`, :func:`~repro.core.rate_series`,
  :func:`~repro.core.duration_scatter`,
  :func:`~repro.core.pattern_breakdown` and
  :func:`~repro.core.origin_table` fold a fresh reducer over the
  :class:`~repro.core.index.TraceIndex`'s events, its ``set_like`` view
  or its cached episode lists, then call ``finish``;
* **live** — :class:`StreamingSuite` is a sink (anything with
  ``emit``) that can be attached to a running machine
  (:meth:`LinuxKernel.attach_sink` / :meth:`VistaKernel.attach_sink`).
  It buffers live events and folds them chunk-wise through the same
  reducers, in memory proportional to the number of *active* timers,
  not the number of events.

The reducers:

* :class:`StreamingSummary` — Tables 1/2 (including exact maximum
  concurrency, via a watermarked sort sweep),
* :class:`StreamingClassifier` — Figure 2 usage patterns and the
  Table 3 origin rows, from O(1)-per-timer accumulators,
* :class:`StreamingValues` — the Figure 3–7 value histograms,
* :class:`StreamingDurations` — the Figure 8–11 scatter, plus exact
  quantiles of the expiry/cancel fraction (free: the fractions are
  already in the bounded cell aggregation),
* :class:`StreamingRates` — the Figure 1 set-rate series,
* :class:`EpisodeRouter` — routes events to per-timer
  :class:`~repro.core.episodes.EpisodeBuilder`\\ s and hands completed
  episodes to the classifier and the durations reducer.

Exactness: a batch fold and a live suite run the same code, so they
agree wherever the reducers see the same events.  The one subtlety is
concurrency: the Vista thread-unblock record arrives at unblock time
but describes an interval that *started* at block time, so the live
sweep buffers interval endpoints and only commits those below a
watermark ``wait_horizon_ns`` behind the newest event (generously above
the longest wait timeout any workload uses).  Any endpoint that still
lands at or before the last committed instant is counted in
:attr:`StreamingSummary.late_waits` — zero in every workload, asserted
by the tests, so the streamed maximum equals the batch maximum.  The
batch fold passes an unbounded horizon and commits once, at
:meth:`StreamingSummary.finish`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Callable, Iterable, Optional, Tuple

from ..sim.clock import JIFFY, SECOND
from ..tracing.events import (FLAG_WAIT_SATISFIED, EventKind, TimerEvent)
from .classify import PatternBreakdown, TimerStats
from .durations import CUTOFF_PCT, DurationScatter, ScatterPoint
from .episodes import (DEFAULT_TOLERANCE_NS, Episode, EpisodeBuilder,
                       Outcome, quantizes_to_jiffies)
from .origins import OriginRow, attribute_origin
from .rates import RateSeries, default_group
from .summary import TraceSummary
from .values import ValueHistogram

#: Sliding-window slack for retroactive WAIT_UNBLOCK interval starts.
#: A wait unblocks at most its timeout after it blocks; the longest
#: timed wait any modelled workload issues is 60 s, so 120 s of slack
#: keeps the streamed concurrency sweep exact (``late_waits == 0``)
#: while bounding the endpoint buffer to a two-minute window.
DEFAULT_WAIT_HORIZON_NS = 120 * SECOND


class StreamingSummary:
    """Table 1/2 metrics (see :func:`repro.core.summarize`).

    Counters are trivially exact; distinct-timer and concurrency
    tracking keep O(timers) and O(active + horizon window) state.

    Maximum concurrency is a sweep over interval endpoints: one open
    per SET (and per wait, at its block time), one close per expiry,
    cancel, re-set or trace end.  The endpoints are buffered in two
    plain int lists; a commit sorts them and applies those below a
    watermark, closes before opens at the same instant, so a timer
    re-armed at time t counts once, not twice.  :meth:`emit_batch` ends
    with a commit at ``wait_horizon_ns`` behind its newest event, and
    :meth:`finish` commits the rest.  The running level carries over
    between commits, so applying the sorted endpoints in
    watermark-cut prefixes gives the same maximum as one sweep over all
    of them, provided no endpoint arrives at or before an instant
    already applied — the condition ``late_waits`` counts.
    """

    def __init__(self, os_name: str, workload: str, *,
                 wait_horizon_ns: Optional[float] = None):
        self.os_name = os_name
        self.workload = workload
        from ..kern.registry import backend_traits
        self._vista = backend_traits(os_name).etw_style
        if wait_horizon_ns is None:
            wait_horizon_ns = DEFAULT_WAIT_HORIZON_NS if self._vista else 0
        self.wait_horizon_ns = wait_horizon_ns
        #: Interval endpoints that arrived at or before the last
        #: committed instant (would make the streamed concurrency
        #: inexact).
        self.late_waits = 0
        self._timer_ids: set = set()
        self._pending: set = set()
        self._opens: list[int] = []
        self._closes: list[int] = []
        self._level = 0
        self._concurrency = 0
        self._committed_ts = -1
        self._commit_at = 0
        self._last_ts = 0
        self._user = self._kernel = 0
        self._accesses = 0
        self._set = self._expired = self._canceled = 0

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        set_kind = EventKind.SET
        expire_kind = EventKind.EXPIRE
        cancel_kind = EventKind.CANCEL
        wait_kind = EventKind.WAIT_UNBLOCK
        init_kind = EventKind.INIT
        satisfied = FLAG_WAIT_SATISFIED
        vista = self._vista
        add_id = self._timer_ids.add
        pending = self._pending
        pending_add = pending.add
        pending_discard = pending.discard
        open_ = self._opens.append
        close = self._closes.append
        accesses = user = kernel = 0
        sets = expired = canceled = 0
        ts = self._last_ts
        # One C-level unpack of the event tuple per iteration.
        for (kind, ts, timer_id, _pid, _comm, domain, _site,
             timeout_ns, expires_ns, flags, host, _cpu) in events:
            if host:
                # Cluster traces: ids are per-host counters, so the
                # same raw id on two hosts is two distinct timers.
                timer_id = (host, timer_id)
            add_id(timer_id)

            # ETW-style backends (Vista) expire timers inside the clock
            # DPC, so EXPIRE/INIT records are not API accesses (§3.3).
            if not (vista and (kind is expire_kind or kind is init_kind)):
                accesses += 1
                if domain == "user":
                    user += 1
                else:
                    kernel += 1

            if kind is set_kind:
                sets += 1
                if timer_id in pending:
                    close(ts)
                else:
                    pending_add(timer_id)
                open_(ts)
            elif kind is expire_kind:
                expired += 1
                if timer_id in pending:
                    pending_discard(timer_id)
                    close(ts)
            elif kind is cancel_kind:
                if expires_ns is not None:    # was actually pending
                    canceled += 1
                if timer_id in pending:
                    pending_discard(timer_id)
                    close(ts)
            elif kind is wait_kind:
                # One event describes a whole blocked interval; it
                # occupied a ring slot between block and unblock.
                if timeout_ns is not None:
                    sets += 1
                    if flags & satisfied:
                        canceled += 1
                    else:
                        expired += 1
                    open_(expires_ns)   # block timestamp
                    close(ts)
        self._last_ts = ts
        self._accesses += accesses
        self._user += user
        self._kernel += kernel
        self._set += sets
        self._expired += expired
        self._canceled += canceled
        # Amortised commits: only once the buffer has doubled since the
        # last one, so each endpoint is sorted O(1) times on average.
        watermark = ts - self.wait_horizon_ns
        if watermark > self._committed_ts + 1 and \
                len(self._opens) + len(self._closes) >= self._commit_at:
            self._commit(watermark)
            self._commit_at = 2 * (len(self._opens) + len(self._closes))

    def _commit(self, watermark: float) -> None:
        """Apply every buffered endpoint strictly below ``watermark``."""
        opens, closes = self._opens, self._closes
        opens.sort()
        closes.sort()
        committed = self._committed_ts
        for endpoints in (opens, closes):
            # Late endpoints sort first; they apply just after the last
            # committed instant, which keeps the lists sorted.
            late = bisect_right(endpoints, committed)
            if late:
                self.late_waits += late
                endpoints[:late] = [committed + 1] * late
        n_opens = bisect_left(opens, watermark)
        n_closes = bisect_left(closes, watermark)
        level = self._level
        peak = self._concurrency
        j = 0
        for ts in islice(opens, n_opens):
            while j < n_closes and closes[j] <= ts:
                level -= 1
                j += 1
            level += 1
            if level > peak:
                peak = level
        self._level = level - (n_closes - j)
        self._concurrency = peak
        if n_opens:
            committed = max(committed, opens[n_opens - 1])
        if n_closes:
            committed = max(committed, closes[n_closes - 1])
        self._committed_ts = committed
        del opens[:n_opens]
        del closes[:n_closes]

    def state_size(self) -> int:
        """Entries of *transient* sweep state (pending timers plus
        buffered endpoints) — the part that would be O(events) if the
        trace were buffered instead."""
        return len(self._pending) + len(self._opens) + len(self._closes)

    def finish(self, duration_ns: int) -> TraceSummary:
        # Still-armed timers occupy their slot until the trace ends
        # (their opening endpoint was buffered at the SET).
        self._closes.extend([duration_ns] * len(self._pending))
        self._commit(float("inf"))
        result = TraceSummary(
            workload=self.workload, os_name=self.os_name,
            timers=len(self._timer_ids), concurrency=self._concurrency,
            accesses=self._accesses, user_space=self._user,
            kernel=self._kernel, set_count=self._set,
            expired=self._expired, canceled=self._canceled)
        self._timer_ids = set()
        self._pending = set()
        self._opens = []
        self._closes = []
        return result


# ---------------------------------------------------------------------------
# Shared per-timer episode routing
# ---------------------------------------------------------------------------

class _Group:
    """One timer grouping (per-address or per-(site, pid) cluster)."""

    __slots__ = ("key", "comm", "first_site", "set_site", "builder",
                 "episodes")

    def __init__(self, key, event: TimerEvent):
        self.key = key
        self.comm = event[4]
        self.first_site = event[6]
        self.set_site: Optional[Tuple[str, ...]] = None
        self.builder: Optional[EpisodeBuilder] = None
        #: Completed episodes not yet handed to the subscribers.
        self.episodes: list[Episode] = []

    @property
    def site(self) -> Tuple[str, ...]:
        # TimerHistory.site: the first SET's stack, else the first
        # event's stack.
        return self.set_site if self.set_site is not None \
            else self.first_site


class EpisodeRouter:
    """Route an event stream to per-group :class:`EpisodeBuilder`\\ s.

    Replicates :class:`~repro.core.index.TraceIndex`'s grouping logic
    incrementally: per timer address (``logical=False``) or per
    (most-recent-SET-site, pid) cluster (``logical=True``, the Vista
    default).  Subscribers get ``on_group(group)`` at group creation
    (in first-event order, matching the batch grouping dicts) and, at
    the end of each :meth:`emit_batch`, ``on_episodes(group, episodes)``
    with each group's newly completed episodes in order; only the open
    episode per group is retained.
    """

    def __init__(self, os_name: str, *, logical: Optional[bool] = None):
        if logical is None:
            from ..kern.registry import backend_traits
            logical = backend_traits(os_name).logical_timers
        self.os_name = os_name
        self.logical = logical
        self._groups: dict = {}
        self._site_of_id: dict = {}
        self._subscribers: list = []
        #: Groups holding completed episodes not yet dispatched.
        self._ready: list[_Group] = []
        #: Routing volume counters (mirrored into repro.obs metrics).
        self.groups_created = 0
        self.episodes_routed = 0

    def subscribe(self, consumer) -> None:
        self._subscribers.append(consumer)

    def open_episodes(self) -> int:
        return sum(1 for group in self._groups.values()
                   if group.builder is not None
                   and group.builder._armed_at is not None)

    def _new_group(self, key, event: TimerEvent) -> _Group:
        group = self._groups[key] = _Group(key, event)
        self.groups_created += 1
        ready = self._ready

        def collect(episode: Episode, group=group) -> None:
            if not group.episodes:
                ready.append(group)
            group.episodes.append(episode)

        group.builder = EpisodeBuilder(self.os_name, collect)
        for consumer in self._subscribers:
            consumer.on_group(group)
        return group

    def _dispatch(self) -> None:
        subscribers = self._subscribers
        for group in self._ready:
            episodes = group.episodes
            group.episodes = []
            self.episodes_routed += len(episodes)
            for consumer in subscribers:
                consumer.on_episodes(group, episodes)
        self._ready.clear()

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Route a batch of events, then dispatch the episodes it
        completed."""
        logical = self.logical
        lookup = self._groups.get
        site_of_id = self._site_of_id
        site_lookup = site_of_id.get
        new_group = self._new_group
        SET = EventKind.SET
        INIT = EventKind.INIT
        WAIT_UNBLOCK = EventKind.WAIT_UNBLOCK
        # The hot per-event fields come from C-level tuple subscripts.
        for event in events:
            kind = event[0]
            host = event[10]
            # Host-qualified keys on cluster traces: raw timer ids (and
            # (site, pid) clusters) are per-host namespaces.
            timer_id = (host, event[2]) if host else event[2]
            if not logical:
                key = timer_id
            elif kind is SET or kind is INIT or kind is WAIT_UNBLOCK:
                key = (host, event[6], event[3]) if host \
                    else (event[6], event[3])      # (site, pid)
                site_of_id[timer_id] = key
            else:
                key = site_lookup(timer_id)
                if key is None:
                    key = (host, event[6], event[3]) if host \
                        else (event[6], event[3])
            group = lookup(key)
            if group is None:
                group = new_group(key, event)
            if group.set_site is None and kind is SET:
                group.set_site = event[6]
            group.builder.push(event)
        self._dispatch()

    def finish(self) -> None:
        """Flush still-open episodes as UNRESOLVED, then drop the
        builders (and their callbacks) so finished consumers pickle
        cleanly across process boundaries."""
        for group in self._groups.values():
            if group.builder is not None:
                group.builder.finish()
                group.builder = None
        self._dispatch()
        self._site_of_id = {}


class StreamingClassifier:
    """Figure 2 / Table 3: per-group :class:`TimerStats` fed episode
    lists (by an :class:`EpisodeRouter`, or by the batch fold in
    :func:`repro.core.classify.pattern_breakdown` over the index's
    cached episodes).  Groups are anything with ``site`` and ``comm``:
    a router group or a :class:`~repro.tracing.trace.TimerHistory`."""

    def __init__(self, os_name: str, workload: str, *,
                 tolerance_ns: int = DEFAULT_TOLERANCE_NS):
        self.os_name = os_name
        self.workload = workload
        self.tolerance_ns = tolerance_ns
        #: id(group) -> (group, stats), in group-creation order — the
        #: iteration order of the batch grouping dicts, which
        #: tie-breaks must match.
        self._stats: dict[int, tuple] = {}
        self.breakdown: Optional[PatternBreakdown] = None
        self._origin_rows: Optional[dict] = None

    def on_group(self, group) -> None:
        self._stats[id(group)] = (group, TimerStats(self.tolerance_ns))

    def on_episodes(self, group, episodes: list[Episode]) -> None:
        self._stats[id(group)][1].add_batch(episodes)

    def finish(self, duration_ns: int = 0) -> PatternBreakdown:
        """Classify every group; groups timers by (dominant value,
        origin) for :meth:`origin_table`."""
        breakdown = PatternBreakdown(self.workload, self.os_name)
        origin_rows: dict = {}
        for group, stats in self._stats.values():
            timer_class, value = stats.classify()
            breakdown.counts[timer_class] = \
                breakdown.counts.get(timer_class, 0) + 1
            breakdown.total += 1
            if value is None or value <= 0:
                continue
            origin = attribute_origin(group.site, group.comm)
            key = (value, origin)
            entry = origin_rows.get(key)
            if entry is None:
                entry = origin_rows[key] = {"sets": 0, "classes": {}}
            entry["sets"] += stats.n
            entry["classes"][timer_class] = \
                entry["classes"].get(timer_class, 0) + 1
        self.breakdown = breakdown
        self._origin_rows = origin_rows
        self._stats = {}
        return breakdown

    def origin_table(self, *, min_sets: int = 3) -> list[OriginRow]:
        """The Table 3 rows (call after :meth:`finish`): a row's class
        is the majority verdict among its timers, mirroring how the
        paper combined trace data with code inspection."""
        if self._origin_rows is None:
            raise RuntimeError("origin_table() requires finish() first")
        out = []
        for (value, origin), entry in self._origin_rows.items():
            if entry["sets"] < min_sets:
                continue
            majority = max(entry["classes"].items(),
                           key=lambda kv: kv[1])[0]
            out.append(OriginRow(value, origin, majority, entry["sets"]))
        out.sort(key=lambda r: (r.timeout_ns, r.origin))
        return out


class StreamingValues:
    """Figure 3–7 value histogram (a counter per distinct nominal
    value; see :func:`repro.core.value_histogram`)."""

    def __init__(self, os_name: str, workload: str, *,
                 domain: Optional[str] = None,
                 include_waits: bool = True,
                 raw_user_values: bool = True):
        self.os_name = os_name
        self.workload = workload
        self.domain = domain
        self.include_waits = include_waits
        self.raw_user_values = raw_user_values
        #: The backend's value-quantisation trait, resolved once — the
        #: per-event ``nominal_value_ns`` is inlined in the loop.
        self._quantize = quantizes_to_jiffies(os_name)
        self._counts: dict[int, int] = {}
        self._total = 0

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        set_kind = EventKind.SET
        wait_kind = EventKind.WAIT_UNBLOCK
        include_waits = self.include_waits
        domain = self.domain
        quantize = self.raw_user_values and self._quantize
        counts = self._counts
        get = counts.get
        total = 0
        for (kind, _ts, _tid, _pid, _comm, event_domain, _site,
             timeout_ns, _expires, _flags, _host, _cpu) in events:
            if kind is wait_kind:
                if not include_waits or timeout_ns is None:
                    continue
            elif kind is not set_kind:
                continue
            if domain is not None and event_domain != domain:
                continue
            value = timeout_ns or 0
            if quantize and value > 0 and event_domain != "user":
                value = -(-value // JIFFY) * JIFFY
            counts[value] = get(value, 0) + 1
            total += 1
        self._total += total

    def finish(self, duration_ns: int = 0) -> ValueHistogram:
        return ValueHistogram(self.workload, self.os_name, self._total,
                              self._counts)


class StreamingDurations:
    """Figure 8–11 scatter (see :func:`repro.core.duration_scatter`).

    The aggregated (value, fraction, outcome) cells are exact — the
    scatter sorts its cells, so interleaved cross-timer episode order
    cannot show.  Fraction quantiles are exact too, and cost nothing
    per episode: every plotted fraction already lives in the bounded
    cell aggregation with its multiplicity, so
    :meth:`fraction_quantiles` takes weighted quantiles over the cells.
    """

    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, os_name: str, workload: str, *,
                 cutoff_pct: float = CUTOFF_PCT):
        self.os_name = os_name
        self.workload = workload
        self.cutoff_pct = cutoff_pct
        # Only EXPIRED and CANCELED episodes survive the filters, so
        # aggregate into one dict per outcome keyed by plain
        # (int, float) tuples — no enum hashing per episode.
        self._expired: dict[tuple[int, float], int] = {}
        self._canceled: dict[tuple[int, float], int] = {}
        self._skipped = 0
        self._clipped = 0

    def on_group(self, group) -> None:
        pass

    def on_episodes(self, _group, episodes: list[Episode]) -> None:
        agg_e = self._expired
        agg_c = self._canceled
        agg_e_get = agg_e.get
        agg_c_get = agg_c.get
        cutoff = self.cutoff_pct
        skipped = clipped = 0
        UNRESOLVED = Outcome.UNRESOLVED
        REARMED = Outcome.REARMED
        EXPIRED = Outcome.EXPIRED
        for set_at, value_ns, outcome, ended_at, _gap in episodes:
            if outcome is UNRESOLVED or outcome is REARMED:
                continue
            if value_ns <= 0:
                skipped += 1
                continue
            if ended_at is None:
                continue
            pct = round(100.0 * (ended_at - set_at) / value_ns, 1)
            if pct > cutoff:
                clipped += 1
                continue
            key = (value_ns, pct)
            if outcome is EXPIRED:
                agg_e[key] = agg_e_get(key, 0) + 1
            else:
                agg_c[key] = agg_c_get(key, 0) + 1
        self._skipped += skipped
        self._clipped += clipped

    def fraction_quantiles(self) -> dict[float, Optional[float]]:
        """Exact weighted quantiles of the plotted fraction
        distribution (%), computed from the aggregation cells."""
        weights: dict[float, int] = {}
        for agg in (self._expired, self._canceled):
            for (_value, pct), n in agg.items():
                weights[pct] = weights.get(pct, 0) + n
        total = sum(weights.values())
        if not total:
            return {p: None for p in self.QUANTILES}
        ordered = sorted(weights.items())
        out: dict[float, Optional[float]] = {}
        for p in self.QUANTILES:
            rank = p * total
            cum = 0
            for pct, n in ordered:
                cum += n
                if cum >= rank:
                    out[p] = pct
                    break
        return out

    def finish(self, duration_ns: int = 0) -> DurationScatter:
        scatter = DurationScatter(self.workload, self.os_name)
        scatter.skipped = self._skipped
        scatter.clipped = self._clipped
        combined = [(v, pct, outcome, n)
                    for outcome, agg in ((Outcome.EXPIRED, self._expired),
                                         (Outcome.CANCELED,
                                          self._canceled))
                    for (v, pct), n in agg.items()]
        scatter.points = [
            ScatterPoint(v, pct, n, outcome) for v, pct, outcome, n in
            sorted(combined, key=lambda t: (t[0], t[1], t[2].value))]
        return scatter


class StreamingRates:
    """Figure 1 set-rate series (see :func:`repro.core.rate_series`):
    sparse buckets, materialised at :meth:`finish` once the duration is
    known.  A group whose every set lands at or past the last bucket
    gets no row."""

    def __init__(self, os_name: str, workload: str, *,
                 bucket_ns: int = SECOND,
                 group_fn: Callable[[TimerEvent], str] = default_group,
                 kinds: tuple = (EventKind.SET, EventKind.WAIT_UNBLOCK)):
        self.os_name = os_name
        self.workload = workload
        self.bucket_ns = bucket_ns
        self.group_fn = group_fn
        self.kinds = kinds
        self._sparse: dict[str, dict[int, int]] = {}
        # The default grouping is a pure function of (domain, comm),
        # both drawn from small sets — memoise it per pair instead of
        # paying the string scans once per event.
        self._group_memo: Optional[dict] = \
            {} if group_fn is default_group else None

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        kinds = self.kinds
        wait_kind = EventKind.WAIT_UNBLOCK
        bucket_ns = self.bucket_ns
        group_fn = self.group_fn
        group_memo = self._group_memo
        sparse = self._sparse
        sparse_get = sparse.get
        for event in events:
            kind = event[0]
            if kind not in kinds:
                continue
            ts = event[1]
            if kind is wait_kind:
                if event[7] is None:          # timeout_ns
                    continue
                ts = event[8]                 # block timestamp
            if group_memo is None:
                name = group_fn(event)
            else:
                memo_key = (event[5], event[4])   # (domain, comm)
                name = group_memo.get(memo_key)
                if name is None:
                    name = group_memo[memo_key] = group_fn(event)
            group = sparse_get(name)
            if group is None:
                group = sparse[name] = {}
            bucket = ts // bucket_ns
            group[bucket] = group.get(bucket, 0) + 1

    def finish(self, duration_ns: int) -> RateSeries:
        n_buckets = max(1, -(-duration_ns // self.bucket_ns))
        series: dict[str, list[int]] = {}
        for name, sparse in self._sparse.items():
            row = None
            for bucket, count in sparse.items():
                if bucket < n_buckets:
                    if row is None:
                        row = series[name] = [0] * n_buckets
                    row[bucket] += count
        self._sparse = {}
        return RateSeries(self.bucket_ns, n_buckets, series)


class StreamingSuite:
    """Every streaming reducer behind one sink.

    Attach to a machine (``sinks=[suite]`` on any workload runner, or
    ``kernel.attach_sink(suite)`` mid-run), then call
    :meth:`finish` with the trace duration; results land on
    :attr:`summary`, :attr:`breakdown`, :attr:`histogram`,
    :attr:`scatter`, :attr:`rates` and :meth:`origin_table`.  After
    ``finish`` the suite holds only plain result dataclasses, so it
    pickles across process boundaries (the ``run_study_traces``
    ``sink_factory`` path).

    :meth:`emit` appends each live event to a buffer; the buffer is
    folded through every reducer's ``emit_batch`` in chunks that end on
    multiples of ``sample_every`` events (and at :meth:`finish` or
    :meth:`state_size`), however the events arrive — one at a time or
    through :meth:`emit_batch` in slices of any size — so every reducer
    sees the same chunks and ``peak_state`` is sampled at the same
    points.

    :meth:`state_size` counts the transient aggregation entries (open
    episodes, pending timers, buffered sweep endpoints); ``peak_state``
    samples its maximum every ``sample_every`` events — the number the
    bounded-memory benchmark tracks.
    """

    def __init__(self, os_name: str, workload: str, *,
                 logical: Optional[bool] = None,
                 tolerance_ns: int = DEFAULT_TOLERANCE_NS,
                 sample_every: int = 4096):
        self.os_name = os_name
        self.workload = workload
        self.n_events = 0
        self.sample_every = sample_every
        self.peak_state = 0
        self._buffer: list[TimerEvent] = []
        #: Buffered events that end the current chunk.
        self._chunk = sample_every
        self.router = EpisodeRouter(os_name, logical=logical)
        self.summary_reducer = StreamingSummary(os_name, workload)
        self.classifier = StreamingClassifier(os_name, workload,
                                              tolerance_ns=tolerance_ns)
        self.values_reducer = StreamingValues(os_name, workload)
        self.durations_reducer = StreamingDurations(os_name, workload)
        self.rates_reducer = StreamingRates(os_name, workload)
        self.router.subscribe(self.classifier)
        self.router.subscribe(self.durations_reducer)
        self.finished = False
        self.duration_ns: Optional[int] = None
        self._groups_routed = 0
        self._episodes_routed = 0
        self.summary: Optional[TraceSummary] = None
        self.breakdown: Optional[PatternBreakdown] = None
        self.histogram: Optional[ValueHistogram] = None
        self.scatter: Optional[DurationScatter] = None
        self.rates: Optional[RateSeries] = None

    def emit(self, event: TimerEvent) -> None:
        buffer = self._buffer
        buffer.append(event)
        if len(buffer) == self._chunk:
            self._fold()

    def emit_batch(self, events: Iterable[TimerEvent]) -> None:
        """Fold a batch of events, exactly as if each were passed to
        :meth:`emit`.

        A zero-copy :class:`~repro.tracing.binfmt2.ColumnarTrace` is a
        first-class source: its ``__iter__`` hydrates events lazily
        from the mmap'd columns, so each chunk is materialised once,
        shared by every reducer loop, and released — the whole event
        list never exists in memory.
        """
        it = iter(events)
        buffer = self._buffer
        while True:
            buffer.extend(islice(it, self._chunk - len(buffer)))
            if len(buffer) < self._chunk:
                return
            self._fold()
            buffer = self._buffer

    def _fold(self) -> None:
        """Run the buffered chunk through every reducer, then sample
        the state at each ``sample_every`` boundary."""
        chunk = self._buffer
        self._buffer = []
        self.summary_reducer.emit_batch(chunk)
        self.values_reducer.emit_batch(chunk)
        self.rates_reducer.emit_batch(chunk)
        self.router.emit_batch(chunk)
        self.n_events += len(chunk)
        self._chunk = self.sample_every - self.n_events % self.sample_every
        if self._chunk == self.sample_every:
            self._sample()

    def _entries(self) -> int:
        return self.summary_reducer.state_size() \
            + self.router.open_episodes()

    def _sample(self) -> None:
        size = self._entries()
        if size > self.peak_state:
            self.peak_state = size

    def state_size(self) -> int:
        if self._buffer:
            self._fold()
        return self._entries()

    def finish(self, duration_ns: int) -> "StreamingSuite":
        if self.finished:
            return self
        if self._buffer:
            self._fold()
        self._sample()
        self.duration_ns = duration_ns
        self.router.finish()
        self.summary = self.summary_reducer.finish(duration_ns)
        self.breakdown = self.classifier.finish(duration_ns)
        self.histogram = self.values_reducer.finish(duration_ns)
        self.scatter = self.durations_reducer.finish(duration_ns)
        self.rates = self.rates_reducer.finish(duration_ns)
        self._groups_routed = self.router.groups_created
        self._episodes_routed = self.router.episodes_routed
        self.router = None          # drop episode callbacks: picklable
        self.finished = True
        return self

    @property
    def late_waits(self) -> int:
        return self.summary_reducer.late_waits

    @property
    def groups_routed(self) -> int:
        """Timer groups created by the shared router (live or final)."""
        router = self.router
        return self._groups_routed if router is None \
            else router.groups_created

    @property
    def episodes_routed(self) -> int:
        """Completed episodes dispatched to subscribers."""
        router = self.router
        return self._episodes_routed if router is None \
            else router.episodes_routed

    def live_state(self) -> dict:
        """Point-in-time progress counters over the events folded so
        far, safe both mid-run and after :meth:`finish` (when the
        transient state has been dropped) — the ``timerstudy serve``
        daemon reports these on ``/statusz``.  Folds nothing, so it
        never runs the reducers on the caller's thread.
        """
        return {
            "events": self.n_events,
            "state_entries": 0 if self.finished else self._entries(),
            "state_peak": self.peak_state,
            "groups": self.groups_routed,
            "episodes": self.episodes_routed,
            "late_waits": self.late_waits,
            "finished": self.finished,
        }

    def origin_table(self, *, min_sets: int = 3) -> list[OriginRow]:
        return self.classifier.origin_table(min_sets=min_sets)

    def fraction_quantiles(self) -> dict[float, Optional[float]]:
        return self.durations_reducer.fraction_quantiles()


class ProgressSink:
    """Live event counter for ``timerstudy run --stream``: prints a
    carriage-return progress line every ``every`` events."""

    def __init__(self, every: int = 200_000, label: str = "",
                 stream=None):
        self.every = every
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.n_events = 0
        self._printed = False

    def emit(self, event: TimerEvent) -> None:
        self.n_events += 1
        if self.n_events % self.every == 0:
            print(f"\r{self.label}{self.n_events:,} events",
                  end="", file=self.stream, flush=True)
            self._printed = True

    def finish(self, duration_ns: int = 0) -> int:
        if self._printed:
            print(file=self.stream)
            self._printed = False
        return self.n_events
