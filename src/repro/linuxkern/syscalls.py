"""User-space timer entry points (the Linux syscall layer).

The paper observes that from user space only ``timer_settime`` and
``alarm`` set a timer without blocking; every other syscall sets a
timeout as the latest return time of a long-running call
(``select``/``poll``/``epoll_wait``/``nanosleep``).  This module models
those entry points over the standard timer wheel via the
``schedule_timeout`` path.

Two behaviours matter for reproducing the paper's figures:

* Timeout values are recorded *exactly as passed by user space* (no
  jitter), because the instrumentation sits at the system call
  (Section 3.1).
* ``select`` returns the *remaining* timeout when woken by file
  descriptor activity; applications like X.org and icewm pass that
  value straight back in, producing the countdown sawtooth of
  Figure 4.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..sim.clock import to_jiffies
from ..sim.tasks import Task
from ..tracing.events import EventKind
from .kernel import LinuxKernel
from .timer import KernelTimer

SITE_SELECT = ("sys_select", "do_select", "schedule_timeout", "__mod_timer")
SITE_POLL = ("sys_poll", "do_sys_poll", "schedule_timeout", "__mod_timer")
SITE_EPOLL = ("sys_epoll_wait", "ep_poll", "schedule_timeout", "__mod_timer")
SITE_NANOSLEEP = ("sys_nanosleep", "do_nanosleep", "schedule_timeout",
                  "__mod_timer")
SITE_ALARM = ("sys_alarm", "it_real_fn", "__mod_timer")
SITE_TIMER_SETTIME = ("sys_timer_settime", "common_timer_set", "__mod_timer")


class WakeReason(enum.Enum):
    """Why a blocking call returned."""

    TIMEOUT = "timeout"
    FD_READY = "fd_ready"
    SIGNAL = "signal"


class BlockedCall:
    """An in-flight blocking syscall with a timeout armed.

    External models (network delivery, user input) call
    :meth:`fd_ready` to complete the call early; the timer expiry path
    completes it with :data:`WakeReason.TIMEOUT`.
    """

    def __init__(self, syscalls: "SyscallInterface", task: Task,
                 timer: Optional[KernelTimer],
                 on_return: Callable[[WakeReason, int], None]):
        self.syscalls = syscalls
        self.task = task
        self.timer = timer
        self.hr_timer = None       # set on the CONFIG_HIGH_RES path
        self.on_return = on_return
        self.done = False

    @property
    def remaining_ns(self) -> int:
        """Time left before the timeout fires (select's updated arg)."""
        now = self.syscalls.kernel.engine.now
        if self.hr_timer is not None and self.hr_timer.pending:
            return max(0, self.hr_timer.expires_ns - now)
        if self.timer is None or not self.timer.pending:
            return 0
        return max(0, self.timer.expires_ns - now)

    def fd_ready(self) -> bool:
        """Complete the call due to file-descriptor activity."""
        return self._complete(WakeReason.FD_READY)

    def signal(self) -> bool:
        """Complete the call due to signal delivery (-EINTR)."""
        return self._complete(WakeReason.SIGNAL)

    def _complete(self, reason: WakeReason) -> bool:
        if self.done:
            return False
        self.done = True
        remaining = self.remaining_ns
        if self.hr_timer is not None and self.hr_timer.pending:
            self.syscalls.kernel.hrtimers.hrtimer_cancel(self.hr_timer)
        elif self.timer is not None and self.timer.pending:
            self.syscalls.kernel.del_timer(self.timer)
        self.on_return(reason, remaining)
        return True

    def _timed_out(self, _timer) -> None:
        if self.done:
            return
        self.done = True
        if self.hr_timer is None:
            # schedule_timeout calls del_timer on every return path;
            # after an expiry the timer is already inactive, so this is
            # one of the "repeated deletions of an already-deleted
            # timer" the paper's traces show (Section 2.1).
            self.syscalls.kernel.del_timer(self.timer)
        self.on_return(WakeReason.TIMEOUT, 0)


class SyscallInterface:
    """Timer-related syscalls of one Linux machine.

    ``highres=True`` routes blocking waits through the hrtimer base
    instead of ``schedule_timeout`` — the CONFIG_HIGH_RES_TIMERS path
    that post-dates the paper's instrumented configuration.  Wakeups
    then land at nanosecond precision with no jiffy rounding and no
    +1-jiffy margin; ``benchmarks/bench_highres.py`` measures what that
    would have done to the paper's Figures 8–11.
    """

    def __init__(self, kernel: LinuxKernel, *, highres: bool = False):
        self.kernel = kernel
        self.highres = highres
        # One statically-placed timer struct per (task, syscall): Linux
        # blocks in schedule_timeout with a timer on the kernel stack at
        # a stable depth, so repeated calls reuse the same address —
        # which is what let the paper correlate select countdowns.
        self._task_timers: dict[tuple[int, str], KernelTimer] = {}
        self._hr_timers: dict[tuple[int, str, int], object] = {}

    def _timer_for(self, task: Task, name: str, site,
                   thread: int = 0) -> KernelTimer:
        key = (task.pid, name, thread)
        timer = self._task_timers.get(key)
        if timer is None:
            timer = self.kernel.init_timer(site=site, owner=task,
                                           domain="user")
            self._task_timers[key] = timer
        return timer

    # -- blocking multiplexers -------------------------------------------

    def _blocking_wait(self, task: Task, timeout_ns: Optional[int],
                       on_return, name: str, site,
                       thread: int = 0) -> BlockedCall:
        if timeout_ns is None:
            # Infinite wait: no timer is installed at all.
            return BlockedCall(self, task, None, on_return)
        timer = self._timer_for(task, name, site, thread)
        call = BlockedCall(self, task, timer, on_return)
        timer.function = call._timed_out
        if timeout_ns == 0:
            # A zero timeout "expires immediately"; Linux never sleeps
            # and the wheel is never touched, but the set/expire pair
            # still appears in the trace (the instrumentation sits at
            # the syscall), which is why zero is a common value in the
            # paper's Figure 6.
            base = self.kernel.timers
            if base.recording:
                now = self.kernel.engine.now
                base._emit(EventKind.SET, timer, 0, now)
                base._emit(EventKind.EXPIRE, timer, None, now)
            call.done = True
            on_return(WakeReason.TIMEOUT, 0)
            return call
        if self.highres:
            return self._blocking_wait_hr(task, timeout_ns, on_return,
                                          name, thread, call)
        # Linux guarantees a *minimum* sleep: the timeout is rounded up
        # to jiffies plus one more jiffy of margin, so wakeups land up
        # to two jiffies after the requested time — the source of the
        # >100% deliveries in the paper's Figures 8–11.
        expires = self.kernel.jiffies + to_jiffies(timeout_ns) + 1
        self.kernel.mod_timer(timer, expires, timeout_ns=timeout_ns)
        return call

    def _blocking_wait_hr(self, task: Task, timeout_ns: int, on_return,
                          name: str, thread: int,
                          call: "BlockedCall") -> "BlockedCall":
        """hrtimer-backed sleep: exact ns expiry, no margin."""
        key = (task.pid, name, thread)
        hr_timer = self._hr_timers.get(key)
        hrt = self.kernel.hrtimers
        if hr_timer is None:
            hr_timer = hrt.hrtimer_init(
                site=(f"sys_{name}", "schedule_hrtimeout",
                      "hrtimer_start"), owner=task)
            self._hr_timers[key] = hr_timer
        call.hr_timer = hr_timer
        hr_timer.function = lambda _t: call._timed_out(None)
        hrt.hrtimer_start(hr_timer, self.kernel.engine.now + timeout_ns)
        return call

    def select(self, task: Task, timeout_ns: Optional[int],
               on_return: Callable[[WakeReason, int], None], *,
               thread: int = 0) -> BlockedCall:
        """``select(2)``.  ``on_return(reason, remaining_ns)``.

        ``remaining_ns`` models Linux writing the unslept time back to
        the timeout argument.  ``thread`` distinguishes threads of one
        process, each of which blocks with a timer on its own kernel
        stack.
        """
        return self._blocking_wait(task, timeout_ns, on_return,
                                   "select", SITE_SELECT, thread)

    def poll(self, task: Task, timeout_ns: Optional[int],
             on_return, *, thread: int = 0) -> BlockedCall:
        """``poll(2)``.  Does not report remaining time (reason only)."""
        return self._blocking_wait(task, timeout_ns, on_return,
                                   "poll", SITE_POLL, thread)

    def epoll_wait(self, task: Task, timeout_ns: Optional[int],
                   on_return, *, thread: int = 0) -> BlockedCall:
        return self._blocking_wait(task, timeout_ns, on_return,
                                   "epoll", SITE_EPOLL, thread)

    def nanosleep(self, task: Task, duration_ns: int,
                  on_return, *, thread: int = 0) -> BlockedCall:
        """``nanosleep(2)`` — always runs to expiry unless signalled."""
        return self._blocking_wait(task, duration_ns, on_return,
                                   "nanosleep", SITE_NANOSLEEP, thread)

    # -- non-blocking timer syscalls ---------------------------------------

    def alarm(self, task: Task, seconds_value: float,
              on_signal: Callable[[], None]) -> None:
        """``alarm(2)``: deliver SIGALRM after ``seconds_value``; 0 cancels."""
        timer = self._timer_for(task, "alarm", SITE_ALARM)
        if seconds_value == 0:
            if timer.pending:
                self.kernel.del_timer(timer)
            return
        timeout_ns = round(seconds_value * 1_000_000_000)
        timer.function = lambda _t: on_signal()
        expires = self.kernel.jiffies + to_jiffies(timeout_ns)
        self.kernel.mod_timer(timer, expires, timeout_ns=timeout_ns)

    def setitimer(self, task: Task, value_ns: int, interval_ns: int,
                  on_signal: Callable[[], None]) -> None:
        """``setitimer(ITIMER_REAL)``: SIGALRM after ``value_ns``,
        repeating every ``interval_ns``; 0 disarms.  The profiling
        API that predates POSIX timers."""
        timer = self._timer_for(task, "itimer", SITE_ALARM)
        if value_ns == 0:
            if timer.pending:
                self.kernel.del_timer(timer)
            return

        def fire(_t: KernelTimer) -> None:
            on_signal()
            if interval_ns > 0:
                expires = self.kernel.jiffies + to_jiffies(interval_ns)
                self.kernel.mod_timer(timer, expires,
                                      timeout_ns=interval_ns)

        timer.function = fire
        expires = self.kernel.jiffies + to_jiffies(value_ns)
        self.kernel.mod_timer(timer, expires, timeout_ns=value_ns)

    def timer_settime(self, task: Task, value_ns: int,
                      interval_ns: int, on_expire: Callable[[], None],
                      *, name: str = "posix0") -> KernelTimer:
        """POSIX ``timer_settime``: one-shot or periodic; 0 disarms."""
        timer = self._timer_for(task, f"settime:{name}", SITE_TIMER_SETTIME)
        if value_ns == 0:
            if timer.pending:
                self.kernel.del_timer(timer)
            return timer

        def fire(_t: KernelTimer) -> None:
            on_expire()
            if interval_ns > 0:
                expires = self.kernel.jiffies + to_jiffies(interval_ns)
                self.kernel.mod_timer(timer, expires,
                                      timeout_ns=interval_ns)

        timer.function = fire
        expires = self.kernel.jiffies + to_jiffies(value_ns)
        self.kernel.mod_timer(timer, expires, timeout_ns=value_ns)
        return timer
