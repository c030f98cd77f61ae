"""Virtual-time profiler: attribution, ambient adoption, zero-cost."""

import functools

from repro.obs.profiler import (VirtualTimeProfiler, current_profiler,
                                profile, subsystem_of)
from repro.sim.clock import SECOND
from repro.sim.engine import Engine


class TestSubsystemOf:
    def test_plain_function(self):
        def callback():
            pass
        assert subsystem_of(callback) == __name__

    def test_strips_repro_prefix(self):
        from repro.sim.devices import TickDevice
        engine = Engine()
        device = TickDevice(engine, 1000, lambda n: None)
        assert subsystem_of(device._fire) == "sim.devices"

    def test_partial_unwrapped(self):
        from repro.sim.devices import TickDevice
        engine = Engine()
        device = TickDevice(engine, 1000, lambda n: None)
        bound = functools.partial(device._fire)
        assert subsystem_of(bound) == "sim.devices"


class FakeClock:
    """Deterministic perf counter: each call advances by ``step``."""

    def __init__(self, step: int = 10):
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


class TestAttribution:
    def test_virtual_time_charged_to_gap_ender(self):
        engine = Engine()
        profiler = VirtualTimeProfiler(time_fn=FakeClock())
        engine.profiler = profiler
        engine.call_at(100, lambda: None)
        engine.call_at(400, lambda: None)
        engine.run()
        stats = profiler.stats[__name__]
        assert stats.events == 2
        # First event ends no gap (no prior dispatch); second is
        # charged the 300 ns of virtual time it ended.
        assert stats.virtual_ns == 300
        assert profiler.total_events == 2

    def test_wall_time_accumulates(self):
        engine = Engine()
        profiler = VirtualTimeProfiler(time_fn=FakeClock(step=7))
        engine.profiler = profiler
        engine.call_at(1, lambda: None)
        engine.run()
        # One dispatch = two clock reads 7 ns apart.
        assert profiler.total_wall_ns == 7

    def test_wall_charged_even_when_callback_raises(self):
        engine = Engine()
        profiler = VirtualTimeProfiler(time_fn=FakeClock(step=3))
        engine.profiler = profiler

        def boom():
            raise RuntimeError("x")

        engine.call_at(1, boom)
        try:
            engine.run()
        except RuntimeError:
            pass
        assert profiler.total_wall_ns == 3
        assert profiler.total_events == 1

    def test_render_lists_subsystems(self):
        engine = Engine()
        profiler = VirtualTimeProfiler(time_fn=FakeClock())
        engine.profiler = profiler
        engine.call_at(5, lambda: None)
        engine.run()
        table = profiler.render()
        assert __name__ in table
        assert "total" in table


class TestProfileContext:
    def test_ambient_adoption_by_new_engines(self):
        assert current_profiler() is None
        with profile() as prof:
            assert current_profiler() is prof
            engine = Engine()
            assert engine.profiler is prof
            engine.call_at(1, lambda: None)
            engine.run()
        assert current_profiler() is None
        assert prof.total_events == 1
        # Engines built outside the block stay unprofiled.
        assert Engine().profiler is None

    def test_engine_specific_restores_previous(self):
        engine = Engine()
        with profile(engine) as prof:
            assert engine.profiler is prof
            assert current_profiler() is None    # not ambient
            engine.call_at(1, lambda: None)
            engine.run()
        assert engine.profiler is None
        assert prof.total_events == 1

    def test_profiled_run_is_deterministic_in_virtual_terms(self):
        from repro.workloads.portable import run_portable

        def run_once():
            with profile() as prof:
                run = run_portable("idle", "linux", SECOND, seed=3)
            return run, prof

        run_a, prof_a = run_once()
        run_b, prof_b = run_once()
        from repro.tracing import trace_to_bytes
        assert (trace_to_bytes(run_a.trace, format="binfmt")
                == trace_to_bytes(run_b.trace, format="binfmt"))
        assert {k: (s.events, s.virtual_ns)
                for k, s in prof_a.stats.items()} \
            == {k: (s.events, s.virtual_ns)
                for k, s in prof_b.stats.items()}

    def test_unprofiled_run_matches_profiled_trace(self):
        from repro.tracing import trace_to_bytes
        from repro.workloads.portable import run_portable
        plain = run_portable("webserver", "vista", SECOND, seed=5)
        with profile():
            profiled = run_portable("webserver", "vista", SECOND, seed=5)
        assert (trace_to_bytes(plain.trace, format="binfmt")
                == trace_to_bytes(profiled.trace, format="binfmt"))
