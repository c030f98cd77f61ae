"""Streaming reducers must reproduce the batch analyses exactly, with
bounded state, behind the unified ``analyze()`` surface."""

import pickle
import random

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
from repro.workloads import base

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


@pytest.fixture(scope="module")
def firefox_pair():
    # The busiest Linux study trace: thousands of episodes per second,
    # so scatter cells whose fraction sits on a rounding boundary occur.
    return _traced_pair("linux", "firefox", int(0.25 * MINUTE))


@pytest.fixture(scope="module")
def skype_pair():
    return _traced_pair("vista", "skype", int(0.25 * MINUTE))


ALL_PAIRS = ["linux_pair", "vista_pair", "firefox_pair", "skype_pair"]


def _weighted_quantiles(points, quantiles=(0.5, 0.9, 0.99)):
    """Reference quantiles of the plotted fractions, straight from a
    scatter's points (each weighted by its count)."""
    pcts = sorted(p.fraction_pct for p in points for _ in range(p.count))
    if not pcts:
        return {q: None for q in quantiles}
    out = {}
    for q in quantiles:
        rank = q * len(pcts)
        out[q] = next(pct for i, pct in enumerate(pcts, 1) if i >= rank)
    return out


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_summary_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        assert suite.summary == summarize(trace)
        assert suite.late_waits == 0

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_breakdown_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = pattern_breakdown(trace)
        assert suite.breakdown.counts == batch.counts
        assert suite.breakdown.total == batch.total
        assert suite.breakdown.figure2_row() == batch.figure2_row()

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_histogram_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = value_histogram(trace)
        assert suite.histogram.counts == batch.counts
        assert suite.histogram.total_sets == batch.total_sets

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_scatter_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = duration_scatter(trace)
        assert suite.scatter.points == batch.points
        assert suite.scatter.skipped == batch.skipped
        assert suite.scatter.clipped == batch.clipped
        assert suite.fraction_quantiles() == \
            _weighted_quantiles(batch.points)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_origin_table_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        for min_sets in (3, 5):
            assert suite.origin_table(min_sets=min_sets) == \
                origin_table(trace, min_sets=min_sets)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_rates_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        batch = rate_series(trace, duration_ns=trace.duration_ns)
        assert suite.rates == batch

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_event_count_exact(self, pair, request):
        trace, suite = request.getfixturevalue(pair)
        assert suite.n_events == len(trace)

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


def suite_factory(os_name, workload):
    return [StreamingSuite(os_name, workload)]


class TestStudySinkFactory:
    def test_sinks_ride_the_study_driver(self, monkeypatch):
        def no_serial(*_args, **_kwargs):
            raise AssertionError("the study driver fell back to serial")

        # Every finished suite must cross the pool's process boundary.
        monkeypatch.setattr(base, "_run_serial", no_serial)
        jobs = [("linux", "idle", DURATION, 0),
                ("vista", "idle", DURATION, 0)]
        results = run_study_traces(jobs, processes=2,
                                   sink_factory=suite_factory)
        assert len(results) == 2
        for (os_name, wl, duration, seed), (trace, sinks) in \
                zip(jobs, results):
            (suite,) = sinks
            assert suite.finished
            assert suite.summary == summarize(trace)
            assert suite.rates == rate_series(trace)
            assert suite.scatter.points == duration_scatter(trace).points

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
        """Routing the stream in one batch or sliced at random chunk
        boundaries creates the same groups in the same order and hands
        each group the same episodes in the same order."""
        from repro.core.streaming import EpisodeRouter

        trace = run_workload(os_name, "idle", DURATION, seed=1).trace

        def collect(router):
            groups, episodes = [], {}

            class Consumer:
                def on_group(self, group):
                    groups.append(group.key)
                    episodes[group.key] = []

                def on_episodes(self, group, batch):
                    episodes[group.key].extend(
                        (e.set_at, e.outcome, e.ended_at) for e in batch)

            router.subscribe(Consumer())
            return groups, episodes

        whole = EpisodeRouter(os_name)
        whole_seen = collect(whole)
        whole.emit_batch(trace.events)
        whole.finish()

        sliced = EpisodeRouter(os_name)
        sliced_seen = collect(sliced)
        rng = random.Random(7)
        events = trace.events
        start = 0
        while start < len(events):
            size = rng.choice((1, 2, 5, 64, 1000, 4097))
            sliced.emit_batch(events[start:start + size])
            start += size
        sliced.finish()

        assert sliced.groups_created == whole.groups_created
        assert sliced.episodes_routed == whole.episodes_routed
        assert whole.episodes_routed > 100
        assert sliced_seen == whole_seen
