"""Pull-collection: walk a finished run and fill a metrics registry.

Instrumentation here is deliberately *pull-based*: the simulation
layers maintain their own plain integer counters (the engine's
dispatch count, the wheel's cascade count, a buffer's drop count —
most predate this module), and this collector mirrors them into
:class:`~repro.obs.metrics.MetricsRegistry` instruments once the run
is over.  That is what makes the two hard guarantees cheap:

* **zero perturbation** — collection never touches simulation state,
  so a run with ``--metrics`` produces byte-identical traces and
  study output to one without (pinned by the test battery and the
  ``bench_pipeline`` metrics phase);
* **zero cost when disabled** — the only always-on additions to hot
  paths are single integer bumps/compares (high-water marks,
  coalescing hit counts), measured well under the 10% pipeline budget.

Layers covered, per the instrumentation map:

====================  =================================================
``sim.engine``        events scheduled/dispatched, queue depth +
                      peak, virtual seconds, wall seconds and
                      virtual:wall ratio (volatile)
``sim.power``         wakeups, interrupts, busy time, active/idle
                      residency, energy, tick-device ticks/skips
``linuxkern.wheel``   cascades, cascaded timers, pending, per-tv
                      occupancy (labelled ``cpu``/``level``)
``vistakern``         ring pending, lookaside free, clock period,
                      coalescing merge hits/misses and added delay
``tracing.relay/etw`` records emitted/retained/dropped/drained,
                      buffer high-water, capacity
``core.streaming``    events folded, live + peak aggregation state,
                      groups and episodes routed, late waits
``tracing.formats``   trace loads/saves and bytes per registered
                      format (labelled ``format``)
``core.shard``        sharded analyses, shard-extraction runs, shard
                      count, worker-pool fallbacks
====================  =================================================
"""

from __future__ import annotations

from typing import Iterable, Optional

from .metrics import MetricsRegistry, MetricsSnapshot

__all__ = ["collect_run", "collect_kernel", "collect_sec51",
           "collect_sink", "collect_streaming", "collect_trace_io"]

_NS = 1e-9


def _merge(base: dict, extra: dict) -> dict:
    merged = dict(base)
    merged.update(extra)
    return merged


def collect_run(run, *, registry: Optional[MetricsRegistry] = None,
                sinks: Iterable = (),
                labels: Optional[dict] = None) -> MetricsSnapshot:
    """Collect every layer of one :class:`~repro.kern.machine
    .WorkloadRun` into ``registry`` (a fresh one by default) and
    return the frozen snapshot.

    ``sinks`` adds live sinks that were attached via ``sinks=`` on the
    runner (streaming suites attached through ``kernel.attach_sink``
    are discovered automatically).  Pass a shared ``registry`` plus
    per-run ``labels`` to aggregate several runs into one exposition
    (the ``timerstudy study --metrics`` path).
    """
    registry = registry if registry is not None else MetricsRegistry()
    if labels is None:
        labels = {"os": run.trace.os_name,
                  "workload": run.trace.workload}
    duration_ns = run.trace.duration_ns
    collect_kernel(run.kernel, duration_ns, registry, labels)
    seen = set()
    for sink in _walk_sinks(run.kernel.sink):
        seen.add(id(sink))
        collect_sink(sink, registry, labels)
    for sink in sinks:
        if id(sink) not in seen:
            collect_sink(sink, registry, labels)
    return registry.snapshot()


def collect_kernel(kernel, duration_ns: int,
                   registry: MetricsRegistry, labels: dict) -> None:
    """Engine, power and OS-model metrics for one backend instance."""
    _collect_engine(kernel.engine, duration_ns, registry, labels)
    _collect_power(kernel.power, duration_ns, registry, labels)
    _collect_ticks(kernel, registry, labels)
    if hasattr(kernel, "bases"):          # Linux timer-wheel forest
        _collect_wheels(kernel, registry, labels)
    if hasattr(kernel, "_ring"):          # Vista KTIMER ring
        _collect_ring(kernel, registry, labels)


# -- sim.engine -----------------------------------------------------------

def _collect_engine(engine, duration_ns: int,
                    registry: MetricsRegistry, labels: dict) -> None:
    names = tuple(labels)
    registry.counter(
        "repro_engine_events_scheduled_total",
        "Events ever pushed onto the simulation heap.",
        names).set_total(engine._seq, **labels)
    registry.counter(
        "repro_engine_events_dispatched_total",
        "Callbacks actually dispatched by the engine.",
        names).set_total(engine.dispatched, **labels)
    registry.gauge(
        "repro_engine_queue_depth",
        "Live events still pending at collection time.",
        names).set(engine.pending_count(), **labels)
    registry.gauge(
        "repro_engine_queue_depth_peak",
        "High-water mark of live pending events.",
        names).set(engine.peak_pending, **labels)
    registry.gauge(
        "repro_engine_virtual_seconds",
        "Virtual time simulated by this run.",
        names).set(duration_ns * _NS, **labels)
    wall = registry.gauge(
        "repro_engine_wall_seconds",
        "Wall-clock time spent inside the engine run loop.",
        names, volatile=True)
    wall.set(engine.wall_ns * _NS, **labels)
    ratio = registry.gauge(
        "repro_engine_virtual_wall_ratio",
        "Virtual seconds simulated per wall second (higher = faster).",
        names, volatile=True)
    ratio.set(duration_ns / engine.wall_ns if engine.wall_ns else 0.0,
              **labels)
    _collect_sched(engine.scheduler, registry, labels)


# -- sim.sched ------------------------------------------------------------

def _collect_sched(sched, registry: MetricsRegistry,
                   labels: dict) -> None:
    """Engine-scheduler internals: wheel turning, lazy-cancel garbage
    and its reclamation (heap runs report the same series; the wheel-
    only counters simply stay zero)."""
    labels = _merge(labels, {"scheduler": sched.kind})
    names = tuple(labels)
    registry.counter(
        "repro_engine_sched_bucket_drains_total",
        "Expired buckets drained in batch by the engine scheduler.",
        names).set_total(sched.bucket_drains, **labels)
    registry.counter(
        "repro_engine_sched_cascades_total",
        "Higher-level bucket cascades performed by the engine's own "
        "timing wheel.", names).set_total(sched.cascades, **labels)
    registry.counter(
        "repro_engine_sched_cascaded_timers_total",
        "Events refiled down a level by engine-wheel cascades.",
        names).set_total(sched.cascaded_timers, **labels)
    registry.counter(
        "repro_engine_sched_compactions_total",
        "Garbage-compaction sweeps over the scheduler's containers.",
        names).set_total(sched.compactions, **labels)
    registry.counter(
        "repro_engine_sched_reclaimed_total",
        "Cancelled entries reclaimed early by compaction sweeps.",
        names).set_total(sched.reclaimed, **labels)
    registry.gauge(
        "repro_engine_sched_garbage",
        "Cancelled entries still pinned in the scheduler at "
        "collection time.", names).set(sched.garbage, **labels)
    occupancy = registry.gauge(
        "repro_engine_sched_occupancy",
        "Entries per scheduler region (due queue, wheel levels, "
        "far-future overflow).", names + ("level",))
    for level, count in sched.occupancy().items():
        occupancy.set(count, level=level, **labels)


# -- sim.power ------------------------------------------------------------

def _collect_power(power, duration_ns: int,
                   registry: MetricsRegistry, labels: dict) -> None:
    names = tuple(labels)
    registry.counter(
        "repro_power_wakeups_total",
        "Idle wakeups (interrupts that found the CPU sleeping).",
        names).set_total(power.wakeups, **labels)
    registry.counter(
        "repro_power_interrupts_total",
        "Hardware timer interrupts serviced.",
        names).set_total(power.interrupts, **labels)
    busy_ns = min(power.busy_ns, duration_ns)
    state_names = names + ("state",)
    residency = registry.gauge(
        "repro_power_residency_seconds",
        "Virtual time spent per CPU power state.",
        state_names)
    residency.set(busy_ns * _NS, state="active", **labels)
    residency.set((duration_ns - busy_ns) * _NS, state="idle", **labels)
    registry.gauge(
        "repro_power_energy_joules",
        "Modelled energy over the run (Section 5.3 constants).",
        names).set(power.energy_joules(duration_ns), **labels)
    registry.gauge(
        "repro_power_average_watts",
        "Modelled average power draw.",
        names).set(power.average_watts(duration_ns), **labels)


def _collect_ticks(kernel, registry: MetricsRegistry,
                   labels: dict) -> None:
    devices = []
    if hasattr(kernel, "ticks"):       # Linux per-CPU ticks
        devices = [(f"tick{cpu}", tick)
                   for cpu, tick in enumerate(kernel.ticks)]
    elif hasattr(kernel, "clock"):     # Vista clock interrupt
        devices = [("clock", kernel.clock)]
    if not devices:
        return
    names = tuple(labels) + ("device",)
    ticks = registry.counter(
        "repro_tick_interrupts_total",
        "Periodic device ticks elapsed (fired or skipped).", names)
    skipped = registry.counter(
        "repro_tick_skipped_total",
        "Ticks elided by the idle predicate (NOHZ / tick skipping) — "
        "each one is an avoided power-state transition.", names)
    for device_name, device in devices:
        ticks.set_total(device.ticks, device=device_name, **labels)
        skipped.set_total(device.skipped, device=device_name, **labels)


# -- linuxkern.wheel ------------------------------------------------------

def _collect_wheels(kernel, registry: MetricsRegistry,
                    labels: dict) -> None:
    cpu_names = tuple(labels) + ("cpu",)
    cascades = registry.counter(
        "repro_wheel_cascades_total",
        "Higher-level bucket cascades processed (Varghese-Lauck "
        "redistribution work).", cpu_names)
    cascaded = registry.counter(
        "repro_wheel_cascaded_timers_total",
        "Timers moved down a level by cascades.", cpu_names)
    pending = registry.gauge(
        "repro_wheel_pending",
        "Timers pending in the wheel at collection time.", cpu_names)
    occupancy = registry.gauge(
        "repro_wheel_occupancy",
        "Pending timers per wheel level (tv1..tv5).",
        tuple(labels) + ("cpu", "level"))
    for base in kernel.bases:
        cpu = str(base.cpu)
        wheel = base.wheel
        cascades.set_total(wheel.cascades, cpu=cpu, **labels)
        cascaded.set_total(wheel.cascaded_timers, cpu=cpu, **labels)
        pending.set(wheel.pending_count, cpu=cpu, **labels)
        for level, count in enumerate(wheel.occupancy()):
            occupancy.set(count, cpu=cpu, level=f"tv{level + 1}",
                          **labels)


# -- vistakern ------------------------------------------------------------

def _collect_ring(kernel, registry: MetricsRegistry,
                  labels: dict) -> None:
    names = tuple(labels)
    live = sum(1 for deadline, seq, timer in kernel._ring
               if timer._seq == seq and timer.inserted)
    registry.gauge(
        "repro_ring_pending",
        "KTIMERs inserted in the expiration ring at collection time.",
        names).set(live, **labels)
    registry.gauge(
        "repro_ring_lookaside_free",
        "KTIMER addresses parked on the lookaside list (the Section "
        "3.3 reuse pool).",
        names).set(len(kernel._lookaside), **labels)
    registry.gauge(
        "repro_clock_period_ns",
        "Effective clock-interrupt period (timeBeginPeriod result).",
        names).set(kernel.clock_period_ns, **labels)
    registry.counter(
        "repro_coalescing_hits_total",
        "Coalescable arms whose deadline was shifted onto a shared "
        "alignment boundary.",
        names).set_total(kernel.coalescing_hits, **labels)
    registry.counter(
        "repro_coalescing_misses_total",
        "Coalescable arms left at their requested deadline (tolerance "
        "too small for any alignment period).",
        names).set_total(kernel.coalescing_misses, **labels)
    registry.counter(
        "repro_coalescing_shift_ns_total",
        "Total expiry delay added by coalescing alignment.",
        names).set_total(kernel.coalescing_shift_ns, **labels)


# -- tracing sinks --------------------------------------------------------

def _walk_sinks(sink) -> Iterable:
    """Flatten a sink chain (TeeSink fans out to children; stamping
    wrappers like HostStampSink forward to one wrapped sink)."""
    children = getattr(sink, "sinks", None)
    if children is None:
        inner = getattr(sink, "sink", None)
        if inner is not None:
            yield from _walk_sinks(inner)
        else:
            yield sink
        return
    for child in children:
        yield from _walk_sinks(child)


def _sink_kind(sink) -> Optional[str]:
    from ..tracing.etw import EtwSession
    from ..tracing.relay import RelayBuffer
    if isinstance(sink, RelayBuffer):
        return "relay"
    if isinstance(sink, EtwSession):
        return "etw"
    return None


def collect_sink(sink, registry: MetricsRegistry, labels: dict) -> None:
    """Metrics for one sink: trace buffers and streaming reducers are
    recognised; anything else (progress printers, counting sinks) is
    skipped."""
    from ..core.streaming import StreamingSuite
    if isinstance(sink, StreamingSuite):
        collect_streaming(sink, registry, labels)
        return
    kind = _sink_kind(sink)
    if kind is None:
        return
    names = tuple(labels) + ("sink",)
    registry.counter(
        "repro_sink_records_total",
        "Records offered to the trace buffer (retained + dropped).",
        names).set_total(sink.emitted, sink=kind, **labels)
    registry.counter(
        "repro_sink_dropped_total",
        "Records lost to the capacity bound (the paper sized buffers "
        "so this stayed zero).",
        names).set_total(sink.dropped, sink=kind, **labels)
    registry.counter(
        "repro_sink_drained_total",
        "Records read out by the user-space reader.",
        names).set_total(sink.drained, sink=kind, **labels)
    registry.gauge(
        "repro_sink_retained",
        "Records currently held in the buffer.",
        names).set(len(sink), sink=kind, **labels)
    registry.gauge(
        "repro_sink_high_water",
        "Maximum records ever held at once.",
        names).set(sink.high_water, sink=kind, **labels)
    registry.gauge(
        "repro_sink_capacity",
        "Buffer capacity in records.",
        names).set(sink.capacity_events, sink=kind, **labels)


# -- tracing.formats / core.shard -----------------------------------------

def collect_trace_io(registry: MetricsRegistry,
                     labels: Optional[dict] = None) -> None:
    """Mirror the trace-I/O and sharding tallies into ``registry``.

    The sources are the plain process-wide counters kept by
    :mod:`repro.tracing.formats` (per-format loads/saves/bytes) and
    :mod:`repro.core.shard` (analyses, shard runs, pool fallbacks) —
    reading them never touches the I/O or extraction paths.
    """
    from ..core.shard import SHARD_COUNTERS
    from ..tracing.formats import IO_COUNTERS
    labels = labels if labels is not None else {}
    fmt_names = tuple(labels) + ("format",)
    loads = registry.counter(
        "repro_trace_loads_total",
        "Traces loaded through the format registry "
        "(open_trace / trace_from_bytes).", fmt_names)
    saves = registry.counter(
        "repro_trace_saves_total",
        "Traces written through the format registry "
        "(write_trace / trace_to_bytes).", fmt_names)
    bytes_read = registry.counter(
        "repro_trace_bytes_read_total",
        "Serialised trace bytes read, per format.", fmt_names)
    bytes_written = registry.counter(
        "repro_trace_bytes_written_total",
        "Serialised trace bytes written, per format.", fmt_names)
    for fmt, tallies in IO_COUNTERS.items():
        loads.set_total(tallies["loads"], format=fmt, **labels)
        saves.set_total(tallies["saves"], format=fmt, **labels)
        bytes_read.set_total(tallies["bytes_read"], format=fmt, **labels)
        bytes_written.set_total(tallies["bytes_written"], format=fmt,
                                **labels)
    names = tuple(labels)
    registry.counter(
        "repro_shard_analyses_total",
        "Sharded analysis batteries rendered (analyze --jobs N).",
        names).set_total(SHARD_COUNTERS["analyses"], **labels)
    registry.counter(
        "repro_shard_runs_total",
        "Shard-wise episode extractions performed.",
        names).set_total(SHARD_COUNTERS["shard_runs"], **labels)
    registry.counter(
        "repro_shard_shards_total",
        "Shards planned across all extractions.",
        names).set_total(SHARD_COUNTERS["shards"], **labels)
    registry.counter(
        "repro_shard_pool_fallbacks_total",
        "Extractions that fell back to in-process execution after the "
        "worker pool failed.",
        names).set_total(SHARD_COUNTERS["pool_fallbacks"], **labels)


# -- study.sec51 ----------------------------------------------------------

def collect_sec51(result, *, registry: Optional[MetricsRegistry] = None,
                  labels: Optional[dict] = None) -> MetricsSnapshot:
    """Mirror a Section 5.1 grid into ``registry`` and snapshot it.

    ``result`` is a :class:`repro.study.sec51.Sec51Result`; every cell
    becomes one series per instrument, labelled
    ``backend``/``condition``/``policy`` (plus any caller ``labels``).
    Like the rest of this module, collection only reads the finished
    result — ``timerstudy sec51 --metrics`` output is byte-identical
    to a metrics-off run.
    """
    registry = registry if registry is not None else MetricsRegistry()
    labels = labels if labels is not None else {}
    names = tuple(labels) + ("backend", "condition", "policy")
    waits = registry.counter(
        "repro_sec51_waits_total",
        "Request waits replayed through the cell (post-warm-up).",
        names)
    failures = registry.counter(
        "repro_sec51_failures_total",
        "Genuine failures (the reply never arriving).", names)
    spurious_total = registry.counter(
        "repro_sec51_false_timeouts_total",
        "Spurious timeouts: the policy fired although the reply was "
        "on its way.", names)
    wakeups = registry.counter(
        "repro_sec51_wakeups_total",
        "Timer expirations (failure detections + spurious wakeups).",
        names)
    relearns = registry.counter(
        "repro_sec51_relearns_total",
        "Level-shift relearns performed by the adaptive estimator.",
        names)
    spurious_rate = registry.gauge(
        "repro_sec51_spurious_rate",
        "Spurious timeouts per successful wait.", names)
    detection = registry.gauge(
        "repro_sec51_detection_seconds",
        "Failure-detection latency at the labelled quantile.",
        names + ("quantile",))
    per_conn = registry.gauge(
        "repro_sec51_wakeups_per_connection",
        "Timer wakeups amortised over the population's connections.",
        names)
    connections = registry.gauge(
        "repro_sec51_connections",
        "Connections in the replayed request population.", names)
    timeout = registry.gauge(
        "repro_sec51_timeout_seconds",
        "The timeout the policy was handing out at stream end.", names)
    for cell in result.grid():
        series = {"backend": cell.backend, "condition": cell.condition,
                  "policy": cell.policy}
        series.update(labels)
        waits.set_total(cell.waits, **series)
        failures.set_total(cell.failures, **series)
        spurious_total.set_total(cell.false_timeouts, **series)
        wakeups.set_total(cell.wakeups, **series)
        relearns.set_total(cell.relearned, **series)
        spurious_rate.set(cell.spurious_rate, **series)
        detection.set(cell.detection_p50, quantile="p50", **series)
        detection.set(cell.detection_p99, quantile="p99", **series)
        detection.set(cell.detection_max, quantile="max", **series)
        per_conn.set(cell.wakeups_per_connection, **series)
        connections.set(cell.connections, **series)
        timeout.set(cell.timeout_last, **series)
    return registry.snapshot()


# -- core.streaming -------------------------------------------------------

def collect_streaming(suite, registry: MetricsRegistry,
                      labels: dict) -> None:
    names = tuple(labels)
    registry.counter(
        "repro_streaming_events_total",
        "Events folded through the streaming reducers.",
        names).set_total(suite.n_events, **labels)
    registry.gauge(
        "repro_streaming_state_entries",
        "Live aggregation state (pending timers + buffered sweep "
        "endpoints + open episodes) at collection time.",
        names).set(0 if suite.finished else suite.state_size(), **labels)
    registry.gauge(
        "repro_streaming_state_peak",
        "Peak aggregation state — the O(active timers) bound.",
        names).set(suite.peak_state, **labels)
    registry.counter(
        "repro_streaming_groups_total",
        "Timer groups (addresses or (site, pid) clusters) created.",
        names).set_total(suite.groups_routed, **labels)
    registry.counter(
        "repro_streaming_episodes_total",
        "Completed episodes routed to subscribers.",
        names).set_total(suite.episodes_routed, **labels)
    registry.counter(
        "repro_streaming_late_waits_total",
        "Interval endpoints behind the committed watermark (must stay "
        "0 for the streamed concurrency to be exact).",
        names).set_total(suite.late_waits, **labels)
