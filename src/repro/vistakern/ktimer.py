"""The NT kernel KTIMER facility and the Vista machine model.

All Vista timer interfaces bottom out in ``KeSetTimer``/``KeCancelTimer``
on KTIMER objects held in a timer ring that the clock-interrupt
expiration DPC processes (Section 2.2).  Two properties of this layer
drive the paper's Vista findings and are modelled faithfully:

* **Dynamic allocation with lookaside reuse.**  Codepaths like
  ``afd.sys``'s select allocate a fresh KTIMER per call from a lookaside
  list, so the same few addresses are reused by unrelated callers — the
  correlation problem of Section 3.3.  (It is also why Table 2 counts
  only ~150–230 distinct timers against millions of operations.)
* **Clock-interrupt granularity.**  Timers fire when the periodic clock
  interrupt (default 15.625 ms) processes the ring, so sub-tick
  timeouts are delivered a large fraction of their value late — the
  >100% bands of Figures 8–11(b).  Multimedia applications raise the
  interrupt frequency via ``timeBeginPeriod``, which the model exposes
  as :meth:`VistaKernel.request_clock_resolution`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Tuple

from ..kern.base import BackendBase
from ..sim.clock import MILLISECOND
from ..sim.devices import TickDevice
from ..sim.engine import Engine
from ..sim.power import PowerMeter
from ..sim.rng import RngRegistry
from ..sim.tasks import Task, TaskTable
from ..tracing.etw import EtwSession
from ..tracing.events import FLAG_ABSOLUTE, CallSiteRegistry, EventKind, \
    TimerEvent, new_record
from ..tracing.relay import SinkSlot

#: Vista's default clock interrupt period (64 Hz).
DEFAULT_CLOCK_PERIOD_NS = 15_625_000
#: Finest resolution timeBeginPeriod can request.
MIN_CLOCK_PERIOD_NS = 1 * MILLISECOND


class KTimer:
    """An NT kernel timer object (also a dispatcher object).

    ``dpc`` is the deferred procedure called on expiry; waiters blocked
    on the timer-as-synchronisation-object are handled by the dispatcher
    layer setting ``on_signal``.
    """

    __slots__ = ("timer_id", "site", "owner", "domain", "dpc", "on_signal",
                 "due_ns", "period_ns", "inserted", "_seq", "kernel",
                 "traced")

    def __init__(self, timer_id: int, kernel: "VistaKernel",
                 site: Tuple[str, ...], owner: Task, domain: str):
        self.timer_id = timer_id
        self.kernel = kernel
        self.site = site
        self.owner = owner
        self.domain = domain
        self.dpc: Optional[Callable[["KTimer"], None]] = None
        self.on_signal: Optional[Callable[["KTimer"], None]] = None
        self.due_ns = 0
        self.period_ns = 0
        self.inserted = False
        self._seq = 0      # heap entry validity tag (lazy deletion)
        #: Wait fast-path timers bypass KeSetTimer and are logged only
        #: via the thread-unblock event, so their ring expiry is silent.
        self.traced = True


class VistaKernel(BackendBase):
    """One simulated single-CPU Vista machine.

    With a sink that keeps nothing, ``recording`` is False and no call
    site builds a record (see :class:`~repro.tracing.relay.SinkSlot`).
    """

    os_name = "vista"
    sink = SinkSlot()

    def __init__(self, engine: Optional[Engine] = None, *, seed: int = 0,
                 sink: Optional[EtwSession] = None,
                 power: Optional[PowerMeter] = None):
        self.engine = engine if engine is not None else Engine()
        self.tasks = TaskTable()
        self.rng = RngRegistry(seed)
        self.sites = CallSiteRegistry()
        self.sink = sink if sink is not None else EtwSession()
        self.power = power if power is not None else PowerMeter()
        self._ring: list[tuple[int, int, KTimer]] = []
        self._seq = 0
        self._next_id = 0x8120_0000
        self._lookaside: list[int] = []
        self.clock_period_ns = DEFAULT_CLOCK_PERIOD_NS
        self._resolution_requests: dict[int, int] = {}
        #: Coalescing outcome counters (see vistakern.coalescing): a
        #: hit shifted the deadline onto a shared alignment boundary, a
        #: miss left it where the caller asked.
        self.coalescing_hits = 0
        self.coalescing_misses = 0
        self.coalescing_shift_ns = 0
        self.clock = self._make_clock(self.clock_period_ns)
        self.clock.start()

    # -- clock construction (subclasses change the idle policy) -------------

    def _make_clock(self, period_ns: int) -> TickDevice:
        """Build the periodic clock-interrupt device; both initial
        construction and ``timeBeginPeriod`` retuning come through
        here, so a subclass overriding :meth:`_tick_predicate` changes
        every clock this kernel ever runs."""
        return TickDevice(self.engine, period_ns, self._clock_interrupt,
                          power=self.power,
                          idle_predicate=self._tick_predicate())

    def _tick_predicate(self) -> Optional[Callable[[], bool]]:
        """Idle predicate for the clock device; ``None`` means the
        stock always-firing Vista clock interrupt."""
        return None

    # -- allocation --------------------------------------------------------

    def alloc_ktimer(self, *, site: Tuple[str, ...], owner: Task,
                     domain: str = "kernel",
                     trace_init: bool = False) -> KTimer:
        """Allocate a KTIMER, reusing lookaside addresses when possible."""
        if self._lookaside:
            timer_id = self._lookaside.pop()
        else:
            self._next_id += 0x40
            timer_id = self._next_id
        timer = KTimer(timer_id, self, self.sites.intern(site), owner,
                       domain)
        if trace_init and self.recording:
            self._emit(EventKind.INIT, timer)
        return timer

    def free_ktimer(self, timer: KTimer) -> None:
        """Return the object's address to the lookaside list."""
        if timer.inserted:
            self.cancel_timer(timer)
        self._lookaside.append(timer.timer_id)

    # -- the instrumented Ke API (the paper's custom ETW events) -----------

    def _emit(self, kind: EventKind, timer: KTimer,
              timeout_ns: Optional[int] = None,
              expires_ns: Optional[int] = None, flags: int = 0) -> None:
        """Log one record; callers test ``self.recording`` first."""
        owner = timer.owner
        self._sink.emit(new_record(TimerEvent, (
            kind, self.engine.now, timer.timer_id, owner.pid, owner.comm,
            timer.domain, timer.site, timeout_ns, expires_ns, flags, 0, 0)))

    def set_timer(self, timer: KTimer, due_ns: int, *,
                  absolute: bool = False, period_ns: int = 0,
                  dpc: Optional[Callable[[KTimer], None]] = None) -> bool:
        """``KeSetTimer(Ex)``: arm for a relative delay or absolute time.

        Returns True if the timer was already in the ring (NT's return
        convention).  A due time in the past fires on the spot, before
        the call returns — NT completes already-expired timers without
        waiting for a clock interrupt.
        """
        was_inserted = timer.inserted
        if was_inserted:
            self._remove(timer)
        if dpc is not None:
            timer.dpc = dpc
        deadline = due_ns if absolute else self.engine.now + due_ns
        timer.period_ns = period_ns
        if self.recording:
            self._emit(EventKind.SET, timer,
                       max(deadline - self.engine.now, 0), deadline,
                       FLAG_ABSOLUTE if absolute else 0)
        if deadline <= self.engine.now:
            self._fire(timer, deadline)
        else:
            self._insert(timer, deadline)
        return was_inserted

    def cancel_timer(self, timer: KTimer) -> bool:
        """``KeCancelTimer``: returns True if the timer was in the ring."""
        was_inserted = timer.inserted
        if was_inserted:
            self._remove(timer)
        if self.recording:
            self._emit(EventKind.CANCEL, timer, None,
                       timer.due_ns if was_inserted else None)
        return was_inserted

    # -- ring maintenance ----------------------------------------------------

    def _insert(self, timer: KTimer, deadline: int) -> None:
        self._seq += 1
        timer.due_ns = deadline
        timer._seq = self._seq
        timer.inserted = True
        heapq.heappush(self._ring, (deadline, self._seq, timer))

    def _remove(self, timer: KTimer) -> None:
        timer.inserted = False   # heap entry goes stale; skipped on pop

    def _clock_interrupt(self, _ticks: int) -> None:
        """The clock ISR queues the expiration DPC; process due timers."""
        now = self.engine.now
        ring = self._ring
        while ring:
            deadline, seq, timer = ring[0]
            if timer._seq != seq or not timer.inserted:
                heapq.heappop(ring)
                continue
            if deadline > now:
                break
            heapq.heappop(ring)
            timer.inserted = False
            self._fire(timer, deadline)

    def _fire(self, timer: KTimer, deadline: int) -> None:
        if timer.traced and self.recording:
            self._emit(EventKind.EXPIRE, timer, None, deadline)
        if timer.period_ns > 0:
            # Periodic timers are re-inserted by the expiry DPC itself;
            # no KeSetTimer call (and hence no SET event) occurs.
            self._insert(timer, self.engine.now + timer.period_ns)
        if timer.on_signal is not None:
            timer.on_signal(timer)
        if timer.dpc is not None:
            timer.dpc(timer)

    # -- clock resolution (timeBeginPeriod) ----------------------------------

    def request_clock_resolution(self, task: Task, period_ns: int) -> None:
        """``timeBeginPeriod``: raise the clock interrupt frequency."""
        period_ns = max(period_ns, MIN_CLOCK_PERIOD_NS)
        self._resolution_requests[task.pid] = period_ns
        self._apply_resolution()

    def release_clock_resolution(self, task: Task) -> None:
        """``timeEndPeriod``."""
        self._resolution_requests.pop(task.pid, None)
        self._apply_resolution()

    def _apply_resolution(self) -> None:
        period = min(self._resolution_requests.values(),
                     default=DEFAULT_CLOCK_PERIOD_NS)
        if period != self.clock_period_ns:
            self.clock_period_ns = period
            self.clock.stop()
            self.clock = self._make_clock(period)
            self.clock.start()

    # -- portable surface (repro.kern) ---------------------------------------

    def portable_timer(self, owner: Task, *, name: str,
                       domain: str = "user") -> "VistaPortableTimer":
        """An OS-neutral handle lowering to ``KeSetTimer``."""
        return VistaPortableTimer(self, owner, name, domain)


class VistaPortableTimer:
    """The portable arm/cancel verbs over one KTIMER.

    Each verb is an explicit ``KeSetTimer`` (the way application-level
    Vista timers behave), so portable episodes carry SET records on
    every arming rather than the silent periodic re-insertion path.
    """

    __slots__ = ("_kernel", "_timer", "_callback")

    def __init__(self, kernel: VistaKernel, owner: Task, name: str,
                 domain: str):
        self._kernel = kernel
        self._callback = None
        self._timer = kernel.alloc_ktimer(
            site=(f"app!{name}", "portable_arm", "nt!KeSetTimer"),
            owner=owner, domain=domain)

    def _expired(self, _timer) -> None:
        callback = self._callback
        if callback is not None:
            callback()

    def arm_after(self, delay_ns: int, callback) -> None:
        self._callback = callback
        self._kernel.set_timer(self._timer, delay_ns, dpc=self._expired)

    def arm_periodic(self, period_ns: int, callback) -> None:
        def tick() -> None:
            callback()
            self._kernel.set_timer(self._timer, period_ns,
                                   dpc=self._expired)
        self._callback = tick
        self._kernel.set_timer(self._timer, period_ns, dpc=self._expired)

    def arm_watchdog(self, timeout_ns: int, callback) -> None:
        # KeSetTimer on an inserted timer implicitly cancels and
        # re-arms; the trace shows a fresh SET (episode re-armed).
        self._callback = callback
        self._kernel.set_timer(self._timer, timeout_ns, dpc=self._expired)

    def cancel(self) -> bool:
        return self._kernel.cancel_timer(self._timer)

    @property
    def pending(self) -> bool:
        return self._timer.inserted
