"""High-resolution timers (hrtimers, Linux >= 2.6.16).

A separate nanosecond-precision facility layered over a one-shot timer
source, kept in expiry order (the kernel uses a red-black tree; a binary
heap with lazy deletion gives the same interface and complexity here).

The paper's traces instrument only the *standard* jiffy-resolution
interface — which is why no sub-jiffy values appear in its Linux data —
so the main workloads do not route through this module; it exists
because the paper's Section 2.1/6 discussion treats it as part of the
timer landscape, and the clean-slate experiments in
:mod:`repro.core.timespec` use it as their precise substrate.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Tuple

from ..sim.tasks import Task
from ..tracing.events import EventKind, TimerEvent, new_record
from ..tracing.relay import SinkSlot


class Hrtimer:
    """One hrtimer: ns-resolution expiry with a callback."""

    __slots__ = ("timer_id", "function", "site", "owner", "expires_ns",
                 "_armed_seq")

    def __init__(self, timer_id: int, function: Optional[Callable],
                 site: Tuple[str, ...], owner: Task):
        self.timer_id = timer_id
        self.function = function
        self.site = site
        self.owner = owner
        self.expires_ns: int = 0
        #: Sequence of the heap entry that currently represents this
        #: timer; stale entries are skipped at pop time (lazy deletion).
        self._armed_seq: Optional[int] = None

    @property
    def pending(self) -> bool:
        return self._armed_seq is not None


class HrtimerBase:
    """All hrtimers of the machine, driven directly by the event engine."""

    sink = SinkSlot()

    def __init__(self, engine, sink, sites):
        self.engine = engine
        self.sink = sink
        self.sites = sites
        self._heap: list[tuple[int, int, Hrtimer]] = []
        self._seq = 0
        self._next_id = 0x8000_0000
        self._pending_event = None

    def _emit(self, kind: EventKind, timer: Hrtimer,
              timeout_ns: Optional[int] = None,
              expires_ns: Optional[int] = None) -> None:
        """Log one record; callers test ``self.recording`` first."""
        owner = timer.owner
        self._sink.emit(new_record(TimerEvent, (
            kind, self.engine.now, timer.timer_id, owner.pid, owner.comm,
            owner.domain, timer.site, timeout_ns, expires_ns, 0, 0, 0)))

    def hrtimer_init(self, function: Optional[Callable] = None, *,
                     site: Tuple[str, ...], owner: Task) -> Hrtimer:
        self._next_id += 0x40
        timer = Hrtimer(self._next_id, function, self.sites.intern(site),
                        owner)
        if self.recording:
            self._emit(EventKind.INIT, timer)
        return timer

    def hrtimer_start(self, timer: Hrtimer, expires_ns: int) -> None:
        """Arm for an absolute ns expiry (re-arms if already pending)."""
        self._seq += 1
        timer.expires_ns = expires_ns
        timer._armed_seq = self._seq
        heapq.heappush(self._heap, (expires_ns, self._seq, timer))
        if self.recording:
            self._emit(EventKind.SET, timer, expires_ns - self.engine.now,
                       expires_ns)
        self._reprogram()

    def hrtimer_cancel(self, timer: Hrtimer) -> bool:
        was_pending = timer._armed_seq is not None
        timer._armed_seq = None
        if self.recording:
            self._emit(EventKind.CANCEL, timer, None,
                       timer.expires_ns if was_pending else None)
        return was_pending

    # -- expiry ---------------------------------------------------------

    def _reprogram(self) -> None:
        """Schedule the engine callback for the earliest live expiry."""
        heap = self._heap
        while heap and heap[0][2]._armed_seq != heap[0][1]:
            heapq.heappop(heap)
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if heap:
            self._pending_event = self.engine.call_at(heap[0][0],
                                                      self._expire)

    def _expire(self) -> None:
        self._pending_event = None
        now = self.engine.now
        heap = self._heap
        while heap and (heap[0][2]._armed_seq != heap[0][1]
                        or heap[0][0] <= now):
            expires, seq, timer = heapq.heappop(heap)
            if timer._armed_seq != seq:
                continue
            timer._armed_seq = None
            if self.recording:
                self._emit(EventKind.EXPIRE, timer, None, expires)
            if timer.function is not None:
                timer.function(timer)
        self._reprogram()

    def next_expiry(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0][2]._armed_seq != heap[0][1]:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
