"""Streaming reducers must reproduce the batch analyses exactly, with
bounded state, behind the unified ``analyze()`` surface."""

import pickle

import pytest

from repro import (StreamingSuite, analyze, render_analysis,
                   run_study_traces, run_workload)
from repro.core import (TraceIndex, duration_scatter, origin_table,
                        pattern_breakdown, rate_series, summarize,
                        value_histogram)
from repro.core.analyze import Analysis
from repro.core.streaming import ProgressSink
from repro.sim.clock import MINUTE
from repro.tracing import write_trace

DURATION = int(0.5 * MINUTE)


def _traced_pair(os_name, workload, duration=DURATION, seed=0):
    """(batch trace, finished streaming suite) for one workload —
    the suite fed live from the kernel's trace sink."""
    batch = run_workload(os_name, workload, duration, seed=seed).trace
    suite = StreamingSuite(os_name, workload)
    run = run_workload(os_name, workload, duration, seed=seed,
                       sinks=[suite], retain_events=False)
    assert len(run.trace) == 0          # nothing buffered
    suite.finish(run.trace.duration_ns)
    return batch, suite


@pytest.fixture(scope="module")
def linux_pair():
    return _traced_pair("linux", "idle")


@pytest.fixture(scope="module")
def vista_pair():
    # Vista exercises the wait fast path (KeWaitForSingleObject
    # timeouts), i.e. the retroactive concurrency-sweep inserts.
    return _traced_pair("vista", "idle")


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_summary_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        assert suite.summary == summarize(trace)
        assert suite.late_waits == 0

    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_breakdown_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = pattern_breakdown(trace)
        assert suite.breakdown.counts == batch.counts
        assert suite.breakdown.total == batch.total
        assert suite.breakdown.figure2_row() == batch.figure2_row()

    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_histogram_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        assert suite.histogram.counts == value_histogram(trace).counts

    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_scatter_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = duration_scatter(trace)
        assert suite.scatter.points == batch.points
        assert suite.scatter.skipped == batch.skipped
        assert suite.scatter.clipped == batch.clipped

    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_origin_table_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        assert suite.origin_table(min_sets=3) == \
            origin_table(trace, min_sets=3)

    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_rates_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = rate_series(trace, duration_ns=trace.duration_ns)
        assert suite.rates.series == batch.series

    def test_fraction_quantiles_ordered_and_in_range(self, linux_pair):
        trace, suite = linux_pair
        quantiles = suite.fraction_quantiles()
        q50, q90, q99 = (quantiles[q] for q in (0.5, 0.9, 0.99))
        assert q50 <= q90 <= q99
        pcts = [p.fraction_pct for p in duration_scatter(trace).points]
        assert min(pcts) <= q50 and q99 <= max(pcts) + 1e-9


class TestBoundedState:
    def test_peak_state_far_below_event_count(self, linux_pair):
        _trace, suite = linux_pair
        assert suite.n_events > 1000
        assert 0 < suite.peak_state < suite.n_events // 10

    def test_finished_suite_pickles(self, vista_pair):
        trace, suite = vista_pair
        clone = pickle.loads(pickle.dumps(suite))
        assert clone.summary == summarize(trace)
        assert clone.scatter.points == suite.scatter.points


class TestAnalyzeSurface:
    def test_batch_inputs_agree(self, linux_pair, tmp_path):
        trace, _suite = linux_pair
        path = tmp_path / "t.jsonl.gz"
        write_trace(trace, str(path))
        by_trace = analyze(trace)
        by_index = analyze(TraceIndex.of(trace))
        by_path = analyze(path)
        for a in (by_trace, by_index, by_path):
            assert a.mode == "batch"
            assert a.summary() == summarize(trace)
        assert by_trace.supports("nesting")
        assert isinstance(by_trace.adaptivity().render(), str)

    def test_streaming_inputs_agree(self, linux_pair):
        trace, suite = linux_pair
        by_suite = analyze(suite)
        by_events = analyze(iter(trace.events), os_name="linux",
                            workload="idle",
                            duration_ns=trace.duration_ns)
        for a in (by_suite, by_events):
            assert a.mode == "streaming"
            assert a.summary() == summarize(trace)
            assert not a.supports("nesting")
            with pytest.raises(NotImplementedError):
                a.nesting()
            with pytest.raises(NotImplementedError):
                a.adaptivity()
        with pytest.raises(ValueError):
            by_suite.value_histogram(domain="user")

    def test_unfinished_suite_needs_duration(self):
        suite = StreamingSuite("linux", "idle")
        with pytest.raises(ValueError):
            analyze(suite)
        analysis = analyze(suite, duration_ns=MINUTE)
        assert analysis.duration_ns == MINUTE

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            analyze(42)

    def test_analysis_is_idempotent_passthrough(self, linux_pair):
        trace, _suite = linux_pair
        analysis = analyze(trace)
        assert isinstance(analysis, Analysis)
        assert render_analysis(analysis) == render_analysis(trace)


class TestGoldenOutput:
    def test_analyze_text_pinned(self):
        import os
        trace = run_workload("linux", "idle", DURATION, seed=0).trace
        golden_path = os.path.join(os.path.dirname(__file__), "..",
                                   "data", "golden_analyze.txt")
        golden = open(golden_path, encoding="utf-8").read()
        assert render_analysis(trace) == golden

    def test_streaming_render_matches_batch_sections(self, linux_pair):
        trace, suite = linux_pair
        batch = render_analysis(trace)
        stream = render_analysis(suite)
        # Identical up to the batch-only tail sections.
        head = batch.split("=== Value adaptivity")[0]
        assert stream.startswith(head)
        assert "(unavailable on a streaming analysis)" in stream


class TestStudySinkFactory:
    def test_sinks_ride_the_study_driver(self):
        jobs = [("linux", "idle", DURATION, 0),
                ("vista", "idle", DURATION, 0)]
        results = run_study_traces(
            jobs, processes=2,
            sink_factory=lambda os_name, wl: [StreamingSuite(os_name, wl)])
        assert len(results) == 2
        for (os_name, wl, duration, seed), (trace, sinks) in \
                zip(jobs, results):
            (suite,) = sinks
            assert suite.finished
            assert suite.summary == summarize(trace)

    def test_retain_events_false_drops_traces(self):
        jobs = [("linux", "idle", DURATION, 0)]
        ((trace, sinks),) = run_study_traces(
            jobs, processes=1, retain_events=False,
            sink_factory=lambda os_name, wl: [StreamingSuite(os_name, wl)])
        assert len(trace) == 0
        assert sinks[0].n_events > 1000


class TestProgressSink:
    def test_counts_and_newline(self, capsys):
        sink = ProgressSink(every=10, label="x: ")
        trace = run_workload("linux", "idle", DURATION, seed=0,
                             sinks=[sink]).trace
        assert sink.finish(trace.duration_ns) == len(trace)
        assert "events" in capsys.readouterr().err


class TestEmitBatch:
    """The batch fast path must be result-identical to per-event emit."""

    @pytest.mark.parametrize("pair", ["linux_pair", "vista_pair"])
    def test_suite_batch_equals_sequential(self, pair, request):
        trace, sequential = request.getfixturevalue(pair)
        batched = StreamingSuite(trace.os_name, trace.workload)
        # Odd chunk sizes straddle the sample_every boundary on
        # purpose — the chunking logic must resample at the exact
        # same event counts regardless of how the stream is sliced.
        events = trace.events
        for start in range(0, len(events), 2999):
            batched.emit_batch(events[start:start + 2999])
        batched.finish(trace.duration_ns)
        assert batched.n_events == sequential.n_events
        assert batched.peak_state == sequential.peak_state
        assert batched.summary == sequential.summary
        assert batched.breakdown.counts == sequential.breakdown.counts
        assert batched.histogram.counts == sequential.histogram.counts
        assert batched.scatter.points == sequential.scatter.points
        assert batched.rates.series == sequential.rates.series
        assert batched.origin_table(min_sets=3) == \
            sequential.origin_table(min_sets=3)

    @pytest.mark.parametrize("os_name", ["linux", "vista"])
    def test_router_batch_equals_sequential(self, os_name):
        from repro.core.streaming import EpisodeRouter

        trace = run_workload(os_name, "idle", DURATION, seed=1).trace

        def collect(router):
            seen = []

            class Consumer:
                def on_group(self, group):
                    seen.append(("group", group.key))

                def on_episode(self, group, episode):
                    seen.append(("episode", group.key, episode.set_at,
                                 episode.outcome, episode.ended_at))

            router.subscribe(Consumer())
            return seen

        one = EpisodeRouter(os_name)
        one_seen = collect(one)
        for event in trace.events:
            one.emit(event)
        one.finish()

        many = EpisodeRouter(os_name)
        many_seen = collect(many)
        many.emit_batch(trace.events)
        many.finish()

        assert many.groups_created == one.groups_created
        assert many.episodes_routed == one.episodes_routed
        assert many_seen == one_seen
