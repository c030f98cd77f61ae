"""Discrete-event simulation engine.

The engine owns the virtual clock and a queue of pending events.
Everything else in the reproduction — hardware tick devices, kernel
timer wheels, application behaviour — is driven by callbacks scheduled
here.

How pending events are stored is pluggable (:mod:`repro.sim.sched`):
the default is a hierarchical timing wheel with packed event storage
(`scheduler="wheel"`), with the original binary heap of ``Event``
objects available as ``scheduler="heap"`` for differential testing.

Determinism: event order is a total order on ``(time, sequence)`` where
the sequence number is assigned at scheduling time, so two runs of the
same workload with the same seeds produce byte-identical traces — on
either scheduler.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Optional, Union

from ..gcpolicy import young_gc_only
from ..obs.profiler import current_profiler
from .clock import fmt_time
from .sched import (Event, SchedulerLike, SimulationError,
                    default_scheduler, make_scheduler, use_scheduler)

__all__ = ["Engine", "Event", "SimulationError", "default_scheduler",
           "use_scheduler"]


class Engine:
    """The simulation event loop.

    Typical use::

        engine = Engine()
        engine.call_at(clock.seconds(1), tick)
        engine.run_until(clock.seconds(30))
    """

    def __init__(self,
                 scheduler: Union[str, SchedulerLike, None] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._running = False
        #: Pluggable event queue (see :mod:`repro.sim.sched`).  ``None``
        #: adopts the process default ("wheel"); pass "heap"/"wheel" or
        #: a scheduler instance to choose explicitly.
        self.scheduler: SchedulerLike = make_scheduler(scheduler)
        #: Number of callbacks actually dispatched (for engine stats).
        self.dispatched: int = 0
        #: High-water mark of live pending events.
        self.peak_pending: int = 0
        #: Wall nanoseconds spent inside run()/run_until() loops.
        #: Observability only — never feeds back into simulated state.
        self.wall_ns: int = 0
        #: Optional :class:`~repro.obs.profiler.VirtualTimeProfiler`.
        #: Adopted from the ambient ``profile()`` block at construction;
        #: ``None`` (the common case) keeps dispatch on the direct path.
        self.profiler = current_profiler()

    # -- scheduling ----------------------------------------------------

    def call_at(self, when: int, callback: Callable[..., Any],
                *args: Any):
        """Schedule ``callback(*args)`` at absolute time ``when``.

        ``when`` may equal ``now`` (the event runs before time advances)
        but may not be in the past.  Returns a cancellable handle.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {fmt_time(when)}; "
                f"now is {fmt_time(self.now)}")
        self._seq += 1
        handle = self.scheduler.push(when, self._seq, callback, args)
        live = self.scheduler.live
        if live > self.peak_pending:
            self.peak_pending = live
        return handle

    def call_after(self, delay: int, callback: Callable[..., Any],
                   *args: Any):
        """Schedule ``callback(*args)`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, callback, *args)

    # -- execution -----------------------------------------------------

    def run_until(self, deadline: int) -> None:
        """Dispatch events up to and including ``deadline``.

        On return ``now == deadline`` even if the queue drained early,
        so a subsequent workload phase starts from a well-defined
        instant.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        wall_start = perf_counter_ns()
        try:
            with young_gc_only():
                self.scheduler.run(self, deadline)
            self.now = deadline
        finally:
            self.wall_ns += perf_counter_ns() - wall_start
            self._running = False

    def run(self) -> None:
        """Dispatch events until the queue is empty."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        wall_start = perf_counter_ns()
        try:
            with young_gc_only():
                self.scheduler.run(self, None)
        finally:
            self.wall_ns += perf_counter_ns() - wall_start
            self._running = False

    def peek_next(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        return self.scheduler.peek_next()

    def pending_count(self) -> int:
        """Number of live events still queued (cancelled ones excluded).

        O(1): the scheduler maintains a live-event counter on
        push/dispatch/cancel instead of scanning its queue.
        """
        return self.scheduler.live
