"""One rep of one benchmark workload, in a fresh process.

``bench.py`` starts this file once per rep, one process at a time, so
peak RSS and garbage-collector state never carry over between reps::

    python rep.py '{"workload": "farm-linux", "mode": "timed", ...}'

The single argument is a JSON spec: ``workload``, ``params``, ``seed``,
``mode`` and, per mode, ``inputs``/``work_dir`` (replay) and ``spans``.
Modes:

* ``prepare`` -- write the replay input traces into ``work_dir``;
* ``setup``   -- imports and workload set-up only (a ``setup_s`` sample);
* ``timed``   -- set up, then run the workload once with no tracing;
* ``traced``  -- the same run with spans around every public call, the
  virtual-time profiler on the engine and metric collection, followed by
  the measurements that only the traced run takes.

The last stdout line is one JSON object.  ``wall_s`` runs from the end
of set-up to the end of the rep and includes digesting its outputs,
under 1% of a rep; the comparisons against pins happen in ``bench.py``.
"""

from __future__ import annotations

import time

#: Child start, before anything from the program is imported.
T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from spans import SpanRecorder, no_spans, self_seconds  # noqa: E402

#: Replay inputs: the two heaviest study traces, one per backend.
REPLAY_TRACES = (("linux", "firefox"), ("vista", "skype"))


def _peak_rss_mib() -> float:
    """Largest resident set of this process or of any descendant it
    has reaped (the study's pool workers); ru_maxrss is KiB on Linux."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _sha_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sections(text: str) -> dict:
    """Report text split on its ``=== title ===`` headers."""
    out = {}
    for chunk in ("\n" + text).split("\n=== ")[1:]:
        title, _, body = chunk.partition("\n")
        out[title] = body
    return out


def streaming_matches_batch(stream_text: str, batch_text: str) -> bool:
    """Every section the streaming render has matches the batch render,
    section by section, except the batch-only adaptivity/nesting tail."""
    head_s, _, rest_s = stream_text.partition("\n=== ")
    head_b, _, rest_b = batch_text.partition("\n=== ")
    stream = _sections("=== " + rest_s)
    batch = _sections("=== " + rest_b)
    tail = ("Value adaptivity", "Inferred nested")
    kept = [t for t in batch if not t.startswith(tail)]
    return head_s == head_b and all(stream.get(t) == batch[t] for t in kept)


def _snapshot_sum(snapshots, name: str, **match) -> float:
    total = 0
    for snapshot in snapshots:
        for sample in snapshot.filter(name):
            labels = dict(sample.labels)
            if all(labels.get(k) == v for k, v in match.items()):
                total += sample.value
    return total


def _engine_layers(prof, snapshots) -> dict:
    """sim.*, cb.* and kernel-model occupancy from one traced run: the
    profiler's per-callback wall time and the runs' metric snapshots."""
    engine_s = _snapshot_sum(snapshots, "repro_engine_wall_seconds")
    dispatched = _snapshot_sum(snapshots,
                               "repro_engine_events_dispatched_total")
    layers = {
        "sim.engine_self_s": engine_s - prof.total_wall_ns / 1e9,
        "sim.ns_per_event": engine_s * 1e9 / max(1, dispatched),
        "sim.dispatched": dispatched,
        "sim.scheduled": _snapshot_sum(
            snapshots, "repro_engine_events_scheduled_total"),
        "sim.peak_pending": max(
            sample.value for snapshot in snapshots
            for sample in snapshot.filter("repro_engine_queue_depth_peak")),
        "sim.cascades": _snapshot_sum(
            snapshots, "repro_engine_sched_cascades_total"),
        "sim.bucket_drains": _snapshot_sum(
            snapshots, "repro_engine_sched_bucket_drains_total"),
        "sim.compactions": _snapshot_sum(
            snapshots, "repro_engine_sched_compactions_total"),
        "vistakern.ring_pending": _snapshot_sum(
            snapshots, "repro_ring_pending"),
    }
    for level in range(1, 6):
        layers[f"linuxkern.wheel_occupancy.tv{level}"] = _snapshot_sum(
            snapshots, "repro_wheel_occupancy", level=f"tv{level}")
    for label, stat in prof.stats.items():
        layers[f"cb.{label}.wall_s"] = stat.wall_ns / 1e9
    return layers


# -- workloads --------------------------------------------------------------
#
# Each workload is ``setup(spec, span) -> state``, which imports what the
# run needs and builds what must exist before it starts, and
# ``run(state, spec, span) -> dict`` with ``events``, ``digest``,
# ``checks``, the untraced phase times in ``phases`` and, when traced,
# ``layers``.  Imports inside ``run`` only look up modules ``setup``
# already loaded.


def study_setup(spec, span):
    import battery  # noqa: F401  imports repro.core
    import repro.workloads  # noqa: F401


def study_run(_state, spec, span):
    import battery
    from repro.core.index import as_index
    from repro.obs import profile
    from repro.sim.clock import MINUTE
    from repro.workloads import run_study_traces
    params, traced = spec["params"], spec["mode"] == "traced"
    duration = int(params["minutes"] * MINUTE)
    jobs = [(os_name, workload,
             None if workload == "desktop" else duration, spec["seed"])
            for os_name, workload in battery.STUDY_ORDER]
    t = time.perf_counter()
    with span("workloads.run_study_traces"), \
            (profile() if traced else nullcontext()) as prof:
        results = run_study_traces(jobs, processes=params["jobs"],
                                   collect_metrics=traced)
    phases = {"run_s": time.perf_counter() - t}
    traces = [trace for trace, _ in results] if traced else results
    t = time.perf_counter()
    texts = []
    for (_, workload), trace in zip(battery.STUDY_ORDER, traces):
        if traced:
            # The untraced battery builds the index and episodes lazily;
            # doing it first only moves that work into its own spans.
            with span("core.index"):
                index = as_index(trace)
            with span("core.episodes"):
                index.episodes(index.default_logical)
        run_battery = battery.figure1 if workload == "desktop" \
            else battery.analysis_battery
        texts.append(run_battery(trace, span))
    phases["analyze_s"] = time.perf_counter() - t
    out = {"events": sum(len(trace) for trace in traces),
           "digest": battery.study_digest(texts), "phases": phases,
           "checks": {}}
    if traced:
        snapshots = [snapshot for _, snapshot in results]
        layers = _engine_layers(prof, snapshots)
        # emitted = retained + dropped + drained, per relay/ETW buffer.
        violations = 0
        for snapshot in snapshots:
            for sample in snapshot.filter("repro_sink_records_total"):
                labels = dict(sample.labels)
                parts = sum(snapshot.get(name, **labels) for name in (
                    "repro_sink_retained", "repro_sink_dropped_total",
                    "repro_sink_drained_total"))
                violations += sample.value != parts
        layers.update({
            "tracing.records_emitted": _snapshot_sum(
                snapshots, "repro_sink_records_total"),
            "tracing.records_dropped": _snapshot_sum(
                snapshots, "repro_sink_dropped_total"),
            "tracing.conservation_violations": violations,
        })
        out["checks"]["conservation"] = violations == 0
        out["layers"] = layers
    return out


def farm_setup(spec, span):
    from repro.kern.machine import Machine
    import repro.study.sec51  # noqa: F401
    import repro.workloads  # noqa: F401  registers the serverfarm scene
    params = spec["params"]
    with span("kern.setup"):
        machine = Machine(params["os"], seed=spec["seed"],
                          retain_events=False)
        machine.scene("serverfarm", connections=params["connections"])
    return machine


def farm_run(machine, spec, span):
    from repro.obs import profile
    from repro.study.sec51 import harvest_population
    engine = machine.kernel.engine
    duration = int(spec["params"]["seconds"] * 1e9)
    traced = spec["mode"] == "traced"
    with span("sim.run"), \
            (profile(engine) if traced else nullcontext()) as prof:
        run = machine.finish("serverfarm", duration)
    digest = hashlib.sha256(json.dumps(
        [engine.dispatched, engine.peak_pending, harvest_population(run)]
    ).encode()).hexdigest()
    out = {"events": engine.dispatched, "digest": digest, "checks": {}}
    if traced:
        out["layers"] = _engine_layers(prof, [run.metrics()])
    return out


def replay_prepare(spec):
    from repro.sim.clock import MINUTE
    from repro.tracing import write_trace
    from repro.workloads import run_workload
    paths = []
    for os_name, workload in REPLAY_TRACES:
        run = run_workload(os_name, workload,
                           int(spec["params"]["minutes"] * MINUTE),
                           seed=spec["seed"])
        path = os.path.join(spec["work_dir"], f"{os_name}-{workload}.bin")
        write_trace(run.trace, path)
        paths.append(path)
        del run
    return {"inputs": paths}


def replay_setup(spec, span):
    import repro.core.analyze  # noqa: F401
    import repro.core.report  # noqa: F401
    import repro.tracing  # noqa: F401


def _batch_traced(view, span) -> str:
    """``render_analysis(view)`` with every analysis called explicitly
    first, so each lands in its own span; the text is the same."""
    from repro.core.analyze import analyze
    from repro.core.index import as_index
    from repro.core.report import render_analysis
    with span("tracing.hydrate"):
        trace = view.as_trace()
    with span("core.index"):
        index = as_index(trace)
    with span("core.episodes"):
        index.episodes(index.default_logical)
    analysis = analyze(index)
    for name, call in (("core.summary", analysis.summary),
                       ("core.classify", analysis.pattern_breakdown),
                       ("core.values", analysis.value_histogram),
                       ("core.durations", analysis.duration_scatter),
                       ("core.origins",
                        lambda: analysis.origin_table(min_sets=5)),
                       ("core.adaptivity", analysis.adaptivity),
                       ("core.nesting", analysis.nesting)):
        with span(name):
            call()
    with span("core.render"):
        return render_analysis(analysis)


def replay_run(_state, spec, span):
    from repro.core.report import render_analysis
    from repro.core.streaming import StreamingSuite
    from repro.tracing import open_trace, write_trace
    traced = spec["mode"] == "traced"
    phases = {"stream_s": 0.0, "batch_s": 0.0}
    checks, texts = {}, []
    events = peak_state = 0
    for i, path in enumerate(spec["inputs"]):
        t = time.perf_counter()
        with span("tracing.open"):
            view = open_trace(path)
        with span("core.streaming.emit"):
            suite = StreamingSuite(view.os_name, view.workload)
            suite.emit_batch(view)
        with span("core.streaming.finish"):
            suite.finish(view.duration_ns)
        with span("core.render"):
            stream_text = render_analysis(suite)
        phases["stream_s"] += time.perf_counter() - t
        events += len(view)
        peak_state = max(peak_state, suite.peak_state)
        del view, suite

        t = time.perf_counter()
        with span("tracing.open"):
            view = open_trace(path)
        batch_text = _batch_traced(view, span) if traced \
            else render_analysis(view)
        phases["batch_s"] += time.perf_counter() - t
        rewrite = os.path.join(spec["work_dir"], f"rewrite-{i}.bin")
        with span("tracing.write"):
            write_trace(view, rewrite)
        del view
        texts.append(batch_text)
        checks[f"stream_matches_batch.{i}"] = streaming_matches_batch(
            stream_text, batch_text)
        checks[f"rewrite_identical.{i}"] = \
            _sha_file(path) == _sha_file(rewrite)
    digest = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    out = {"events": events, "digest": digest, "phases": phases,
           "checks": checks, "texts": texts}
    if traced:
        out["layers"] = {
            "core.streaming.peak_state": peak_state,
            "tracing.v2_bytes": sum(os.path.getsize(p)
                                    for p in spec["inputs"]),
        }
    return out


def replay_extras(spec, span, result) -> None:
    """Traced-run-only measurements, outside the rep's own span:
    ``analyze`` against ``analyze --jobs 2``, and the streaming heap
    peak under tracemalloc (which would distort any timing it wraps)."""
    import tracemalloc
    from repro.core.report import render_analysis
    from repro.core.shard import sharded_analysis
    from repro.core.streaming import StreamingSuite
    from repro.tracing import open_trace
    for i, (path, text) in enumerate(zip(spec["inputs"], result["texts"])):
        with span("core.shard.jobs1"):
            serial = render_analysis(open_trace(path))
        with span("core.shard.jobs2"):
            sharded = sharded_analysis(open_trace(path), jobs=2)
        result["checks"][f"shard_matches_batch.{i}"] = \
            serial == text == sharded
    heap_peak = 0
    for path in spec["inputs"]:
        tracemalloc.start()
        try:
            view = open_trace(path)
            suite = StreamingSuite(view.os_name, view.workload)
            suite.emit_batch(view)
            suite.finish(view.duration_ns)
            heap_peak = max(heap_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del view, suite
    result["layers"]["core.streaming.heap_peak_mib"] = heap_peak / 2**20


WORKLOADS = {
    "study": (study_setup, study_run),
    "farm-linux": (farm_setup, farm_run),
    "farm-vista": (farm_setup, farm_run),
    "replay": (replay_setup, replay_run),
}


def main(spec: dict) -> dict:
    if spec["mode"] == "prepare":
        return replay_prepare(spec)
    traced = spec["mode"] == "traced"
    span = SpanRecorder() if traced else no_spans
    setup, run = WORKLOADS[spec["workload"]]
    state = setup(spec, span)
    ready = time.perf_counter()
    result = {"setup_s": ready - T0}
    if spec["mode"] == "setup":
        return result
    with span("rep"):
        out = run(state, spec, span)
    result.update(wall_s=time.perf_counter() - ready,
                  peak_rss_mib=_peak_rss_mib())
    if traced and spec["workload"] == "replay":
        replay_extras(spec, span, out)
    out.pop("texts", None)
    result.update(out)
    if traced:
        for name, seconds in self_seconds(span.spans).items():
            if name != "rep":
                result["layers"][f"{name}_s"] = seconds
        span.dump(spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
