"""Tests for the shared single-pass TraceIndex and the parallel
study-pipeline driver.

The index must be invisible: every analysis run against an indexed
trace has to produce exactly what it produced when it re-scanned the
event list privately.  The equivalence tests therefore compare each
analysis on the same event list twice — once through a fresh ``Trace``
wrapper (no cached index, the pre-index behaviour) and once through the
shared index.
"""

import threading

import pytest

from repro.core import (TraceIndex, adaptivity_report, classify_trace,
                        duration_scatter, infer_nesting, origin_table,
                        pattern_breakdown, rate_series, render_histogram,
                        render_nesting, render_origin_table, render_rates,
                        render_scatter, summarize, value_histogram)
from repro.core.episodes import extract_episodes
from repro.core.report import render_analysis
from repro.core.streaming import StreamingSuite
from repro.sim.clock import MINUTE, SECOND
from repro.tracing import EventKind, Trace, trace_to_bytes
from repro.workloads import base, run_study_traces, run_workload

from .helpers import TraceBuilder, periodic_timer, watchdog_timer

DURATION = 12 * SECOND
WORKLOADS = ("idle", "skype", "firefox", "webserver")


@pytest.fixture(scope="module")
def traces():
    return {(os_name, wl): run_workload(os_name, wl, DURATION,
                                        seed=3).trace
            for os_name in ("linux", "vista") for wl in WORKLOADS}


def fresh(trace):
    """Same events, no cached index: the pre-index scan behaviour."""
    return Trace(os_name=trace.os_name, workload=trace.workload,
                 duration_ns=trace.duration_ns, events=trace.events)


class TestGroupingEquivalence:
    def test_instances_match_direct_scan(self, traces):
        for trace in traces.values():
            index = TraceIndex.of(trace)
            direct = fresh(trace).instances()
            assert [h.key for h in index.instances] \
                == [h.key for h in direct]
            assert [h.events for h in index.instances] \
                == [h.events for h in direct]

    def test_logical_match_direct_scan(self, traces):
        for trace in traces.values():
            index = TraceIndex.of(trace)
            direct = fresh(trace).logical_timers()
            assert [h.key for h in index.logical] \
                == [h.key for h in direct]
            assert [h.events for h in index.logical] \
                == [h.events for h in direct]

    def test_episodes_match_direct_extraction(self, traces):
        for trace in traces.values():
            index = TraceIndex.of(trace)
            for logical in (False, True):
                direct = [extract_episodes(h, trace.os_name)
                          for h in index.histories(logical)]
                assert index.episodes(logical) == direct

    def test_set_like_preserves_trace_order(self, traces):
        for trace in traces.values():
            index = TraceIndex.of(trace)
            expected = [e for e in trace.events
                        if e.kind in (EventKind.SET,
                                      EventKind.WAIT_UNBLOCK)]
            assert index.set_like == expected

    def test_default_grouping_follows_os(self, traces):
        assert not TraceIndex.of(
            traces[("linux", "idle")]).default_logical
        assert TraceIndex.of(traces[("vista", "idle")]).default_logical


class TestAnalysisEquivalence:
    """Each analysis: indexed output == pre-index fresh-scan output."""

    @staticmethod
    def _verdict_rows(verdicts):
        # Classification.history compares by identity; compare the
        # semantically meaningful fields.
        return [(v.history.key, v.episodes, v.timer_class,
                 v.dominant_value_ns) for v in verdicts]

    def test_classify(self, traces):
        for trace in traces.values():
            assert self._verdict_rows(classify_trace(trace)) \
                == self._verdict_rows(classify_trace(fresh(trace)))

    def test_summary(self, traces):
        for trace in traces.values():
            assert summarize(trace).as_row() \
                == summarize(fresh(trace)).as_row()

    def test_pattern_breakdown(self, traces):
        for trace in traces.values():
            assert pattern_breakdown(trace).figure2_row() \
                == pattern_breakdown(fresh(trace)).figure2_row()

    def test_value_histogram(self, traces):
        for trace in traces.values():
            assert render_histogram(value_histogram(trace)) \
                == render_histogram(value_histogram(fresh(trace)))

    def test_duration_scatter(self, traces):
        for trace in traces.values():
            assert render_scatter(duration_scatter(trace)) \
                == render_scatter(duration_scatter(fresh(trace)))

    def test_origin_table(self, traces):
        for trace in traces.values():
            assert render_origin_table(origin_table(trace, min_sets=5)) \
                == render_origin_table(origin_table(fresh(trace),
                                                    min_sets=5))

    def test_adaptivity(self, traces):
        for trace in traces.values():
            assert adaptivity_report(trace).render() \
                == adaptivity_report(fresh(trace)).render()

    def test_nesting(self, traces):
        for trace in traces.values():
            assert render_nesting(infer_nesting(trace)) \
                == render_nesting(infer_nesting(fresh(trace)))

    def test_rate_series(self, traces):
        for trace in traces.values():
            indexed = rate_series(trace)
            plain = rate_series(fresh(trace))
            assert indexed.series == plain.series


class TestCaching:
    def test_index_is_cached_on_trace(self):
        trace = periodic_timer(TraceBuilder()).build()
        assert TraceIndex.of(trace) is TraceIndex.of(trace)

    def test_peek_only_returns_built_index(self):
        trace = periodic_timer(TraceBuilder()).build()
        assert TraceIndex.peek(trace) is None
        index = TraceIndex.of(trace)
        assert TraceIndex.peek(trace) is index

    def test_classification_is_memoized(self):
        trace = watchdog_timer(TraceBuilder()).build()
        assert classify_trace(trace) is classify_trace(trace)

    def test_extend_updates_index_in_place(self):
        builder = TraceBuilder()
        periodic_timer(builder, count=5)
        trace = builder.build()
        index = TraceIndex.of(trace)
        more = periodic_timer(TraceBuilder(), count=3,
                              timer_id=9).build().events
        trace.extend(more)
        updated = TraceIndex.of(trace)
        assert updated is index          # incrementally ingested, not rebuilt
        assert updated.n_events == len(trace.events)
        assert any(h.key == 9 for h in updated.instances)

    def test_incremental_extend_matches_rebuild(self):
        builder = TraceBuilder()
        periodic_timer(builder, count=5)
        watchdog_timer(builder)
        trace = builder.build()
        events = list(trace.events)
        split = len(events) // 2

        grown = Trace(os_name=trace.os_name, workload=trace.workload,
                      duration_ns=trace.duration_ns, events=events[:split])
        incremental = TraceIndex.of(grown)
        incremental.extend(events[split:])

        whole = TraceIndex.of(fresh(trace))
        assert incremental.n_events == whole.n_events
        assert [h.key for h in incremental.instances] \
            == [h.key for h in whole.instances]
        assert [h.key for h in incremental.logical] \
            == [h.key for h in whole.logical]
        assert [[e.ts for e in h.events] for h in incremental.logical] \
            == [[e.ts for e in h.events] for h in whole.logical]


class _LockedCounter:
    """A live sink that counts records and cannot be pickled."""

    def __init__(self):
        self.lock = threading.Lock()
        self.n = 0

    def emit(self, event):
        self.n += 1


def locked_counter_factory(os_name, workload):
    return [_LockedCounter()]


class _RejectingSink:
    def emit(self, event):
        raise TypeError("sink rejects the record")


def rejecting_factory(os_name, workload):
    return [_RejectingSink()]


def suite_factory(os_name, workload):
    return [StreamingSuite(os_name, workload)]


@pytest.fixture
def serial_calls(monkeypatch):
    """Count the driver's serial runs (its fallback included)."""
    calls = []
    real = base._run_serial

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(base, "_run_serial", counted)
    return calls


class TestParallelDriver:
    JOBS = [("linux", "idle", 6 * SECOND, 5),
            ("vista", "idle", 6 * SECOND, 5),
            ("linux", "skype", 6 * SECOND, 5)]
    #: The longest expected job listed last, an unnamed one in between.
    LONGEST_LAST = [("vista", "idle", 4 * SECOND, 1),
                    ("linux", "webserver", 4 * SECOND, 1),
                    ("linux", "portable", 4 * SECOND, 1),
                    ("vista", "firefox", 4 * SECOND, 1)]
    SHORT = [("linux", "idle", 2 * SECOND, 0),
             ("vista", "idle", 2 * SECOND, 0)]

    def test_serial_matches_parallel_byte_for_byte(self):
        serial = run_study_traces(self.JOBS, processes=1)
        parallel = run_study_traces(self.JOBS, processes=2)
        assert [trace_to_bytes(t) for t in serial] == \
            [trace_to_bytes(t) for t in parallel]

    def test_job_order_is_preserved(self):
        results = run_study_traces(self.JOBS, processes=2)
        assert [(t.os_name, t.workload) for t in results] \
            == [(os_name, wl) for os_name, wl, _, _ in self.JOBS]

    def test_longest_first_schedule(self):
        order = base._longest_first(self.LONGEST_LAST)
        assert order == [2, 3, 1, 0]

    def test_longest_job_listed_last_comes_back_in_job_order(
            self, serial_calls):
        parallel = run_study_traces(self.LONGEST_LAST, processes=2)
        assert serial_calls == []
        assert [(t.os_name, t.workload) for t in parallel] == \
            [job[:2] for job in self.LONGEST_LAST]
        serial = run_study_traces(self.LONGEST_LAST, processes=1)
        assert [trace_to_bytes(t) for t in serial] == \
            [trace_to_bytes(t) for t in parallel]

    def test_sink_factory_parallel_matches_serial(self, serial_calls):
        parallel = run_study_traces(self.JOBS, processes=2,
                                    sink_factory=suite_factory)
        assert serial_calls == []
        serial = run_study_traces(self.JOBS, processes=1,
                                  sink_factory=suite_factory)
        for (p_trace, (p_suite,)), (s_trace, (s_suite,)) in \
                zip(parallel, serial):
            assert trace_to_bytes(p_trace) == trace_to_bytes(s_trace)
            assert render_analysis(p_suite) == render_analysis(s_suite)

    def test_collect_metrics_parallel_matches_serial(self, serial_calls):
        parallel = run_study_traces(self.JOBS, processes=2,
                                    sink_factory=suite_factory,
                                    collect_metrics=True)
        assert serial_calls == []
        serial = run_study_traces(self.JOBS, processes=1,
                                  sink_factory=suite_factory,
                                  collect_metrics=True)
        for (p_trace, (p_suite,), p_snap), (s_trace, (s_suite,), s_snap) \
                in zip(parallel, serial):
            assert trace_to_bytes(p_trace) == trace_to_bytes(s_trace)
            assert render_analysis(p_suite) == render_analysis(s_suite)
            assert p_snap.stable().render() == s_snap.stable().render()

    def test_unpicklable_sink_falls_back_to_serial(self, serial_calls):
        results = run_study_traces(self.SHORT, processes=2,
                                   sink_factory=locked_counter_factory)
        assert len(serial_calls) == 1
        for trace, (sink,) in results:
            assert sink.n == len(trace) > 0

    def test_unpicklable_factory_falls_back_before_forking(
            self, serial_calls, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(base.multiprocessing, "get_context", no_pool)
        results = run_study_traces(
            self.SHORT, processes=2,
            sink_factory=lambda os_name, wl: [_LockedCounter()])
        assert len(serial_calls) == 1
        assert len(results) == 2

    def test_pool_start_failure_falls_back_to_serial(
            self, serial_calls, monkeypatch):
        class NoSemaphores:
            def Pool(self, processes):
                raise OSError("no semaphores here")

        monkeypatch.setattr(base.multiprocessing, "get_context",
                            NoSemaphores)
        results = run_study_traces(self.SHORT, processes=2)
        assert len(serial_calls) == 1
        assert [t.workload for t in results] == ["idle", "idle"]

    def test_simulation_error_propagates_once(self, serial_calls):
        with pytest.raises(TypeError, match="sink rejects the record"):
            run_study_traces(self.SHORT, processes=2,
                             sink_factory=rejecting_factory)
        assert serial_calls == []

    def test_desktop_duration_none_uses_default(self):
        (trace,) = run_study_traces(
            [("vista", "desktop", None, 0)], processes=1)
        assert trace.workload == "desktop"
        assert trace.duration_ns >= MINUTE
