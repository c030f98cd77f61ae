"""Linux kernel timer API model (``kernel/timer.c`` interface).

Implements the exact call surface the paper instruments:

* ``init_timer`` — initialise a (usually statically allocated) struct.
* ``__mod_timer`` — arm, or re-arm while pending (no cancel is logged,
  which is what makes watchdogs look the way they do in traces).
* ``del_timer`` — cancel; legal on a non-pending timer (the paper notes
  repeated deletions of already-deleted timers in its traces).
* ``__run_timers`` — fire expired callbacks from the jiffy tick.

Every call emits a :class:`~repro.tracing.events.TimerEvent` into the
kernel's relay sink, with the arming call stack, owning task and the
relative timeout — mirroring the paper's Section 3.1 instrumentation.
Timers armed mid-jiffy expire on the next jiffy boundary, so observed
relative timeouts exhibit the sub-jiffy jitter the paper's classifier
must tolerate.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..sim.clock import JIFFY
from ..sim.tasks import Task
from ..tracing.events import (FLAG_DEFERRABLE, FLAG_ROUNDED, EventKind,
                              TimerEvent, new_record)
from ..tracing.relay import SinkSlot
from .wheel import TimerWheel, WheelTimer


class KernelTimer(WheelTimer):
    """A ``struct timer_list``.

    ``site`` is the call stack that initialised/armed the timer;
    ``owner`` the task charged in the trace.  Linux convention is to
    reuse one statically-allocated struct for repeated timeouts, so a
    KernelTimer keeps its ``timer_id`` for life.
    """

    __slots__ = ("timer_id", "function", "site", "owner", "deferrable",
                 "domain", "kernel")

    def __init__(self, timer_id: int, kernel: "TimerBase",
                 function: Optional[Callable[["KernelTimer"], None]],
                 site: Tuple[str, ...], owner: Task,
                 deferrable: bool = False, domain: Optional[str] = None):
        super().__init__()
        self.timer_id = timer_id
        self.kernel = kernel
        self.function = function
        self.site = site
        self.owner = owner
        self.deferrable = deferrable
        # Trace attribution: syscall-armed timers are "user" accesses,
        # subsystem timers "kernel", regardless of the owning task.
        self.domain = domain if domain is not None else owner.domain

    @property
    def expires_ns(self) -> int:
        return self.expires * JIFFY

    def __repr__(self) -> str:
        return (f"<KernelTimer {self.timer_id:#x} {'/'.join(self.site[-1:])}"
                f" owner={self.owner.comm}>")


class TimerBase:
    """One ``tvec_base``: the timer wheel plus tracing, per CPU.

    On a multiprocessor each CPU owns one of these, and the machine's
    timers form the paper's "forest" of per-CPU facilities.  With a
    sink that keeps nothing, ``recording`` is False and no call site
    builds a record (see :class:`~repro.tracing.relay.SinkSlot`).
    """

    sink = SinkSlot()

    def __init__(self, engine, sink, sites, *, cpu: int = 0,
                 id_counter=None) -> None:
        self.engine = engine
        self.sink = sink
        self.sites = sites
        self.cpu = cpu
        self.wheel = TimerWheel(now_jiffies=0)
        # Shared across one machine's bases so ids are machine-unique,
        # but fresh per machine so runs stay deterministic.
        self._id_counter = id_counter if id_counter is not None \
            else [0x1000]
        #: The timer whose callback is currently executing, if any —
        #: what ``del_timer_sync`` must wait for (or deadlock on).
        self.running_timer = None

    # -- helpers ---------------------------------------------------------

    @property
    def jiffies(self) -> int:
        """Current jiffy counter (derived from virtual time; boot at 0)."""
        return self.engine.now // JIFFY

    def _alloc_id(self) -> int:
        self._id_counter[0] += 0x40    # spaced like slab addresses
        return self._id_counter[0]

    def _emit(self, kind: EventKind, timer: KernelTimer,
              timeout_ns: Optional[int] = None,
              expires_ns: Optional[int] = None, flags: int = 0) -> None:
        """Log one record; callers test ``self.recording`` first."""
        if timer.deferrable:
            flags |= FLAG_DEFERRABLE
        owner = timer.owner
        self._sink.emit(new_record(TimerEvent, (
            kind, self.engine.now, timer.timer_id, owner.pid, owner.comm,
            timer.domain, timer.site, timeout_ns, expires_ns, flags, 0, 0)))

    # -- the instrumented API --------------------------------------------

    def init_timer(self, function: Optional[Callable] = None, *,
                   site: Tuple[str, ...], owner: Task,
                   deferrable: bool = False,
                   domain: Optional[str] = None) -> KernelTimer:
        """``init_timer``/``setup_timer``: allocate and initialise."""
        timer = KernelTimer(self._alloc_id(), self, function,
                            self.sites.intern(site), owner,
                            deferrable=deferrable, domain=domain)
        if self.recording:
            self._emit(EventKind.INIT, timer)
        return timer

    def mod_timer(self, timer: KernelTimer, expires: int, *,
                  site: Optional[Tuple[str, ...]] = None,
                  timeout_ns: Optional[int] = None,
                  rounded: bool = False) -> bool:
        """``__mod_timer``: (re-)arm for absolute jiffy ``expires``.

        Returns True if the timer was pending (re-armed).  ``timeout_ns``
        lets syscall callers record the exact user-requested relative
        value; kernel callers leave it None and the observed relative
        time (with sub-jiffy jitter) is recorded, as in the paper.
        """
        was_pending = self.wheel.remove(timer)
        if site is not None:
            timer.site = self.sites.intern(site)
        self.wheel.add(timer, expires)
        if self.recording:
            observed = timeout_ns if timeout_ns is not None \
                else expires * JIFFY - self.engine.now
            self._emit(EventKind.SET, timer, observed, expires * JIFFY,
                       FLAG_ROUNDED if rounded else 0)
        return was_pending

    def mod_timer_rel(self, timer: KernelTimer, delta_jiffies: int,
                      **kwargs) -> bool:
        """Arm relative to now: ``mod_timer(t, jiffies + delta)``."""
        return self.mod_timer(timer, self.jiffies + delta_jiffies, **kwargs)

    def add_timer(self, timer: KernelTimer) -> None:
        """``add_timer``: arm at the pre-set ``timer.expires``."""
        if timer.pending:
            raise ValueError("add_timer on pending timer (BUG_ON in Linux)")
        self.mod_timer(timer, timer.expires)

    def del_timer(self, timer: KernelTimer) -> bool:
        """``del_timer``: cancel.  Safe (and traced) when not pending."""
        was_pending = self.wheel.remove(timer)
        if self.recording:
            self._emit(EventKind.CANCEL, timer, None,
                       timer.expires * JIFFY if was_pending else None)
        return was_pending

    def try_to_del_timer_sync(self, timer: KernelTimer):
        """SMP variant: fails (returns -1) if the timer's callback is
        currently running on this base."""
        if self.running_timer is timer:
            return -1
        return 1 if self.del_timer(timer) else 0

    def del_timer_sync(self, timer: KernelTimer) -> bool:
        """SMP variant: deactivate and guarantee the handler is not
        running.  Calling it from the timer's own handler deadlocks on
        real hardware; here it raises instead.
        """
        if self.running_timer is timer:
            raise RuntimeError(
                "del_timer_sync from the timer's own handler deadlocks")
        return self.del_timer(timer)

    # -- expiry (called from the tick handler) ----------------------------

    def run_timers(self, *, only_due_check: bool = False) -> int:
        """``__run_timers``: fire callbacks for all expired timers."""
        return self.wheel.run_timers(self.jiffies, self._fire)

    def _fire(self, timer: KernelTimer) -> None:
        if self.recording:
            self._emit(EventKind.EXPIRE, timer, None, timer.expires * JIFFY)
        if timer.function is not None:
            self.running_timer = timer
            try:
                timer.function(timer)
            finally:
                self.running_timer = None

    # -- dynticks support --------------------------------------------------

    def has_work_at(self, jiffy: int, *, include_deferrable: bool) -> bool:
        """Any timer due at or before ``jiffy``?

        With ``include_deferrable=False`` this is the NOHZ question:
        may the CPU stay asleep through this tick?
        """
        for timer in self.wheel.all_pending():
            if timer.expires <= jiffy and (include_deferrable
                                           or not timer.deferrable):
                return True
        return False
