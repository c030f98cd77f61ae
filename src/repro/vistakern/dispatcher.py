"""NT dispatcher waits: ``WaitForSingleObject`` and friends.

Thread waits with a timeout use a *dedicated* KTIMER embedded in the
thread structure with a fast-path insertion into the timer ring
(Section 2.2) — so they do not go through ``KeSetTimer`` and the
paper's Ke instrumentation missed them.  The authors added one custom
ETW event on thread unblock, logging the block/unblock timestamps, the
user-supplied timeout, and whether the wait was satisfied or timed out
(Section 3.3).  :meth:`DispatcherWaits.wait` reproduces exactly that
record.

``Thread.sleep`` is the same mechanism with no object to wait on.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..sim.tasks import Task
from .ktimer import KTimer, VistaKernel

SITE_WAIT = ("ntdll!NtWaitForSingleObject", "nt!KeWaitForSingleObject",
             "nt!KiInsertTimerTable")
SITE_SLEEP = ("kernel32!Sleep", "ntdll!NtDelayExecution",
              "nt!KeDelayExecutionThread")

WAIT_TIMEOUT = 0x102
WAIT_OBJECT_0 = 0x0


class WaitHandle:
    """An in-flight thread wait; ``signal()`` satisfies it early."""

    def __init__(self, waits: "DispatcherWaits", task: Task,
                 timer: Optional[KTimer], timeout_ns: Optional[int],
                 site: Tuple[str, ...],
                 on_return: Callable[[int], None]):
        self.waits = waits
        self.task = task
        self.timer = timer
        self.timeout_ns = timeout_ns
        self.site = site
        self.on_return = on_return
        self.blocked_at = waits.kernel.engine.now
        self.done = False

    def signal(self) -> bool:
        """Complete the wait because the object was signalled."""
        return self._complete(satisfied=True, status=WAIT_OBJECT_0)

    def _timer_fired(self, _timer: KTimer) -> None:
        self._complete(satisfied=False, status=WAIT_TIMEOUT)

    def _complete(self, *, satisfied: bool, status: int) -> bool:
        if self.done:
            return False
        self.done = True
        kernel = self.waits.kernel
        if self.timer is not None and self.timer.inserted:
            kernel._remove(self.timer)
        if kernel.recording:
            kernel.sink.emit_wait_unblock(
                self.blocked_at, kernel.engine.now,
                self.timer.timer_id if self.timer is not None else 0,
                self.task.pid, self.task.comm,
                kernel.sites.intern(self.site), self.timeout_ns, satisfied)
        self.on_return(status)
        return True


class DispatcherWaits:
    """The wait primitives of one Vista machine."""

    def __init__(self, kernel: VistaKernel):
        self.kernel = kernel
        # The per-thread timer lives in the thread structure: one stable
        # address per thread for its whole life.
        self._thread_timers: dict[tuple[int, int], KTimer] = {}

    def _thread_timer(self, task: Task, thread: int) -> KTimer:
        timer = self._thread_timers.get((task.pid, thread))
        if timer is None:
            timer = self.kernel.alloc_ktimer(site=SITE_WAIT, owner=task,
                                             domain="user")
            timer.traced = False
            self._thread_timers[(task.pid, thread)] = timer
        return timer

    def wait_for_single_object(self, task: Task,
                               timeout_ns: Optional[int],
                               on_return: Callable[[int], None], *,
                               site: Tuple[str, ...] = SITE_WAIT,
                               thread: int = 0) -> WaitHandle:
        """Block a thread of ``task`` until signalled or until
        ``timeout_ns`` passes.

        ``timeout_ns=None`` is INFINITE.  The returned handle's
        ``signal()`` models the awaited object being signalled.
        ``thread`` selects which of the process's threads blocks (each
        has its own embedded KTIMER).
        """
        if timeout_ns is None:
            return WaitHandle(self, task, None, None, site, on_return)
        timer = self._thread_timer(task, thread)
        handle = WaitHandle(self, task, timer, timeout_ns, site, on_return)
        timer.on_signal = None
        timer.dpc = handle._timer_fired
        if timeout_ns <= 0:
            # Zero timeout: poll the object state and return at once.
            self.kernel.engine.call_at(self.kernel.engine.now,
                                       handle._timer_fired, timer)
        else:
            # Fast-path ring insertion: no KeSetTimer event is logged.
            self.kernel._insert(timer, self.kernel.engine.now + timeout_ns)
        return handle

    def sleep(self, task: Task, duration_ns: int,
              on_return: Callable[[int], None]) -> WaitHandle:
        """``Sleep``/``NtDelayExecution``: a wait that only times out."""
        return self.wait_for_single_object(task, duration_ns, on_return,
                                           site=SITE_SLEEP)
