"""Pull-collection over real runs: every instrumented layer shows up,
and collecting never perturbs the simulation."""

import pytest

from repro.obs import MetricsRegistry, collect_run
from repro.sim.clock import SECOND
from repro.tracing import trace_to_bytes
from repro.workloads.portable import run_portable


@pytest.fixture(scope="module")
def linux_run():
    return run_portable("portable", "linux", 3 * SECOND, seed=7)


@pytest.fixture(scope="module")
def vista_run():
    return run_portable("webserver", "vista", 3 * SECOND, seed=7)


class TestEngineMetrics:
    def test_counts_match_engine(self, linux_run):
        snap = linux_run.metrics()
        labels = {"os": "linux", "workload": "portable"}
        engine = linux_run.kernel.engine
        assert snap.get("repro_engine_events_dispatched_total",
                        **labels) == engine.dispatched
        assert snap.get("repro_engine_queue_depth", **labels) \
            == engine.pending_count()
        assert snap.get("repro_engine_queue_depth_peak", **labels) \
            == engine.peak_pending
        assert engine.peak_pending >= engine.pending_count()

    def test_wall_metrics_are_volatile(self, linux_run):
        snap = linux_run.metrics()
        stable_names = snap.stable().names()
        assert "repro_engine_wall_seconds" not in stable_names
        assert "repro_engine_virtual_wall_ratio" not in stable_names
        assert snap.get("repro_engine_wall_seconds", os="linux",
                        workload="portable") > 0


class TestPowerMetrics:
    def test_residency_sums_to_duration(self, linux_run):
        snap = linux_run.metrics()
        labels = {"os": "linux", "workload": "portable"}
        active = snap.get("repro_power_residency_seconds",
                          state="active", **labels)
        idle = snap.get("repro_power_residency_seconds",
                        state="idle", **labels)
        assert active + idle == pytest.approx(3.0)
        assert snap.get("repro_power_wakeups_total", **labels) \
            == linux_run.power.wakeups


class TestLinuxLayers:
    def test_wheel_occupancy_and_cascades(self, linux_run):
        snap = linux_run.metrics()
        labels = {"os": "linux", "workload": "portable", "cpu": "0"}
        wheel = linux_run.kernel.bases[0].wheel
        assert snap.get("repro_wheel_cascades_total", **labels) \
            == wheel.cascades
        occupancy = [snap.get("repro_wheel_occupancy",
                              level=f"tv{n}", **labels)
                     for n in range(1, 6)]
        assert occupancy == list(wheel.occupancy())
        assert sum(occupancy) == wheel.pending_count

    def test_relay_sink_accounting(self, linux_run):
        snap = linux_run.metrics()
        labels = {"os": "linux", "workload": "portable",
                  "sink": "relay"}
        emitted = snap.get("repro_sink_records_total", **labels)
        retained = snap.get("repro_sink_retained", **labels)
        dropped = snap.get("repro_sink_dropped_total", **labels)
        drained = snap.get("repro_sink_drained_total", **labels)
        assert emitted == retained + dropped + drained
        assert emitted == len(linux_run.trace)
        assert snap.get("repro_sink_high_water", **labels) >= retained

    def test_tick_device_counters(self, linux_run):
        snap = linux_run.metrics()
        labels = {"os": "linux", "workload": "portable",
                  "device": "tick0"}
        assert snap.get("repro_tick_interrupts_total", **labels) \
            == linux_run.kernel.ticks[0].ticks


class TestVistaLayers:
    def test_ring_and_clock_metrics(self, vista_run):
        snap = vista_run.metrics()
        labels = {"os": "vista", "workload": "webserver"}
        assert snap.get("repro_clock_period_ns", **labels) \
            == vista_run.kernel.clock_period_ns
        assert snap.get("repro_ring_lookaside_free", **labels) \
            == len(vista_run.kernel._lookaside)
        assert snap.get("repro_ring_pending", **labels) >= 0

    def test_coalescing_counters_present(self, vista_run):
        snap = vista_run.metrics()
        labels = {"os": "vista", "workload": "webserver"}
        hits = snap.get("repro_coalescing_hits_total", **labels)
        misses = snap.get("repro_coalescing_misses_total", **labels)
        assert hits == vista_run.kernel.coalescing_hits
        assert misses == vista_run.kernel.coalescing_misses

    def test_coalescing_counts_move(self):
        from repro.sim.clock import MILLISECOND
        from repro.vistakern.coalescing import set_coalescable_timer
        from repro.vistakern.ktimer import VistaKernel
        kernel = VistaKernel()
        task = kernel.tasks.spawn(comm="t")
        timer = kernel.alloc_ktimer(site=("a",), owner=task)
        set_coalescable_timer(kernel, timer, 107 * MILLISECOND,
                              100 * MILLISECOND)
        assert kernel.coalescing_hits == 1
        assert kernel.coalescing_shift_ns > 0
        timer2 = kernel.alloc_ktimer(site=("b",), owner=task)
        set_coalescable_timer(kernel, timer2, 5 * MILLISECOND, 0)
        assert kernel.coalescing_misses == 1


class TestStreamingMetrics:
    def test_suite_counters_collected(self):
        from repro.core.streaming import StreamingSuite
        suite = StreamingSuite("linux", "idle")
        run = run_portable("idle", "linux", 2 * SECOND, seed=1,
                           sinks=[suite], retain_events=False)
        suite.finish(run.trace.duration_ns)
        snap = run.metrics()
        labels = {"os": "linux", "workload": "idle"}
        assert snap.get("repro_streaming_events_total", **labels) \
            == suite.n_events
        assert snap.get("repro_streaming_episodes_total", **labels) \
            == suite.episodes_routed
        assert suite.episodes_routed > 0
        assert snap.get("repro_streaming_groups_total", **labels) \
            == suite.groups_routed
        assert snap.get("repro_streaming_late_waits_total",
                        **labels) == 0
        assert snap.get("repro_streaming_state_peak", **labels) \
            == suite.peak_state


class TestCollectionMechanics:
    def test_collection_does_not_perturb(self, linux_run):
        before = trace_to_bytes(linux_run.trace, format="binfmt")
        engine_dispatched = linux_run.kernel.engine.dispatched
        snap_a = linux_run.metrics()
        snap_b = linux_run.metrics()
        assert snap_a.identical(snap_b)       # repeatable, incl. wall
        assert trace_to_bytes(linux_run.trace, format="binfmt") == before
        assert linux_run.kernel.engine.dispatched == engine_dispatched

    def test_shared_registry_aggregates_runs(self, linux_run,
                                             vista_run):
        registry = MetricsRegistry()
        collect_run(linux_run, registry=registry)
        snap = collect_run(vista_run, registry=registry)
        oses = {dict(s.labels).get("os") for s in
                snap.filter("repro_engine_events_dispatched_total")}
        assert oses == {"linux", "vista"}

    def test_custom_labels(self, linux_run):
        snap = collect_run(linux_run, labels={"run": "a"})
        assert snap.get("repro_engine_events_dispatched_total",
                        run="a") > 0


class TestSchedulerMetrics:
    def test_wheel_sched_metrics_present(self, linux_run):
        snap = linux_run.metrics()
        sched = linux_run.kernel.engine.scheduler
        labels = {"os": "linux", "workload": "portable",
                  "scheduler": sched.kind}
        assert snap.get("repro_engine_sched_bucket_drains_total",
                        **labels) == sched.bucket_drains
        assert snap.get("repro_engine_sched_cascades_total",
                        **labels) == sched.cascades
        assert snap.get("repro_engine_sched_garbage",
                        **labels) == sched.garbage
        occupancy = sched.occupancy()
        for level, count in occupancy.items():
            assert snap.get("repro_engine_sched_occupancy",
                            level=level, **labels) == count

    def test_heap_scheduler_labelled(self):
        from repro.sim import use_scheduler

        with use_scheduler("heap"):
            run = run_portable("portable", "linux", SECOND, seed=3)
        sched = run.kernel.engine.scheduler
        assert sched.kind == "heap"
        snap = run.metrics()
        labels = {"os": "linux", "workload": "portable",
                  "scheduler": "heap"}
        assert snap.get("repro_engine_sched_occupancy", level="due",
                        **labels) == sched.queued()
