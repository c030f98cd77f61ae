"""A user-level timer multiplexer: the select-loop reactor.

"Linux systems typically have two multiplexing layers, one in the
kernel and one implemented as a select loop in the application, often
in a library such as libasync or Python's Twisted" (Section 2.1).
:class:`UserEventLoop` is that second layer: applications register any
number of user-level timers and event handlers; the loop keeps them in
its own priority queue and blocks in ``select`` with a timeout equal to
the time until the earliest user timer.

This reproduces the paper's central *instrumentation problem*
(Section 3): at the kernel boundary all of an application's timers
collapse onto one ``select`` timer whose value varies call to call —
"a low-level instrumentation point masks the distinction between a
single timer whose value varies and multiple timers that are being
coalesced".  The loop therefore supports its own *user-level*
instrumentation sink emitting the same record schema, so analyses can
be compared across the two layers (see
``examples/userspace_reactor.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Optional, Tuple

from ..linuxkern.syscalls import SyscallInterface, WakeReason
from ..sim.tasks import Task
from ..tracing.events import EventKind, TimerEvent, new_record
from ..tracing.relay import SinkSlot


class UserTimer:
    """One user-level timer entry (a Twisted ``DelayedCall``)."""

    __slots__ = ("timer_id", "callback", "site", "due_ns", "interval_ns",
                 "armed", "_seq", "fired_count")

    def __init__(self, timer_id: int, callback: Callable[[], None],
                 site: Tuple[str, ...]):
        self.timer_id = timer_id
        self.callback = callback
        self.site = site
        self.due_ns = 0
        #: >0 for periodic timers: re-armed after each fire.
        self.interval_ns = 0
        self.armed = False
        self._seq = 0
        self.fired_count = 0


class UserEventLoop:
    """A reactor multiplexing user timers over one blocking select."""

    #: Optional sink receiving user-layer TimerEvents (the
    #: instrumentation the paper wishes it had had); ``recording`` is
    #: False while it is None or keeps nothing.
    user_sink = SinkSlot()

    def __init__(self, machine, comm: str = "reactor", *,
                 task: Optional[Task] = None, user_sink=None):
        self.machine = machine
        self.syscalls: SyscallInterface = machine.syscalls
        self.task = task if task is not None \
            else machine.kernel.tasks.spawn(comm)
        self.user_sink = user_sink
        self._queue: list[tuple[int, int, UserTimer]] = []
        self._seq = 0
        self._next_id = 0xA000_0000
        self._ready: deque[Callable[[], None]] = deque()
        self._call = None
        self.running = False
        #: Statistics.
        self.kernel_selects = 0
        self.user_fires = 0

    # -- user-level instrumentation ---------------------------------------

    def _emit(self, kind: EventKind, timer: UserTimer,
              timeout_ns: Optional[int] = None,
              expires_ns: Optional[int] = None) -> None:
        """Log one record; callers test ``self.recording`` first."""
        self._user_sink.emit(new_record(TimerEvent, (
            kind, self.machine.kernel.engine.now, timer.timer_id,
            self.task.pid, self.task.comm, "user", timer.site,
            timeout_ns, expires_ns, 0, 0, 0)))

    # -- timer API ----------------------------------------------------------

    def call_later(self, delay_ns: int, callback: Callable[[], None], *,
                   site: Tuple[str, ...] = ("reactor.call_later",)
                   ) -> UserTimer:
        """One-shot user timer after ``delay_ns``."""
        self._next_id += 0x10
        timer = UserTimer(self._next_id, callback, site)
        if self.recording:
            self._emit(EventKind.INIT, timer)
        self._arm(timer, delay_ns)
        return timer

    def call_periodic(self, interval_ns: int,
                      callback: Callable[[], None], *,
                      site: Tuple[str, ...] = ("reactor.looping_call",)
                      ) -> UserTimer:
        """Periodic user timer (Twisted's ``LoopingCall``)."""
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        timer = self.call_later(interval_ns, callback, site=site)
        timer.interval_ns = interval_ns
        return timer

    def reset(self, timer: UserTimer, delay_ns: int) -> None:
        """Re-arm an existing timer (``DelayedCall.reset``)."""
        self._arm(timer, delay_ns)

    def cancel(self, timer: UserTimer) -> bool:
        if not timer.armed:
            return False
        timer.armed = False
        if self.recording:
            self._emit(EventKind.CANCEL, timer, None, timer.due_ns)
        self._interrupt_select()
        return True

    def _arm(self, timer: UserTimer, delay_ns: int) -> None:
        now = self.machine.kernel.engine.now
        self._seq += 1
        timer.due_ns = now + delay_ns
        timer.armed = True
        timer._seq = self._seq
        heapq.heappush(self._queue, (timer.due_ns, self._seq, timer))
        if self.recording:
            self._emit(EventKind.SET, timer, delay_ns, timer.due_ns)
        self._interrupt_select()

    # -- event delivery -------------------------------------------------------

    def deliver(self, callback: Callable[[], None]) -> None:
        """An external event (fd readiness) for the loop to process."""
        self._ready.append(callback)
        if self._call is not None and not self._call.done:
            self._call.fd_ready()

    # -- the loop ---------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._iterate()

    def stop(self) -> None:
        self.running = False
        if self._call is not None and not self._call.done:
            self._call.signal()

    def _peek(self) -> Optional[UserTimer]:
        queue = self._queue
        while queue:
            due, seq, timer = queue[0]
            if timer.armed and timer._seq == seq:
                return timer
            heapq.heappop(queue)
        return None

    def _iterate(self) -> None:
        if not self.running:
            return
        # Drain external events first.
        while self._ready:
            self._ready.popleft()()
        # Run every due user timer.
        now = self.machine.kernel.engine.now
        while True:
            timer = self._peek()
            if timer is None or timer.due_ns > now:
                break
            heapq.heappop(self._queue)
            timer.armed = False
            timer.fired_count += 1
            self.user_fires += 1
            if self.recording:
                self._emit(EventKind.EXPIRE, timer, None, timer.due_ns)
            if timer.interval_ns > 0:
                self._arm(timer, timer.interval_ns)
            timer.callback()
        # Block in select until the earliest user timer (or forever).
        timer = self._peek()
        timeout = None if timer is None \
            else max(0, timer.due_ns - self.machine.kernel.engine.now)
        self.kernel_selects += 1
        self._call = self.syscalls.select(self.task, timeout,
                                          self._select_returned)

    def _select_returned(self, reason: WakeReason,
                         _remaining: int) -> None:
        if reason == WakeReason.SIGNAL:
            return                     # stop() tore the loop down
        self._iterate()

    def _interrupt_select(self) -> None:
        """A timer change while blocked: wake the loop so it can
        recompute its select timeout (reactors use a wakeup pipe)."""
        if self.running and self._call is not None \
                and not self._call.done:
            self._call.fd_ready()
