"""Application behaviour models (Vista side).

* :class:`VistaKernelBackground` — the drivers and kernel subsystems
  that keep a Vista box setting timers while "idle": one-shot re-armed
  KTIMERs at round periods.
* :class:`VistaBackgroundProcess` — csrss/svchost/tray-app behaviour:
  waits with round timeouts that mostly expire ("more than two timers
  per second" each, Section 4.3).
* :class:`OutlookApp` — the Figure 1 star: ~70 timers/s when idle, with
  bursts up to 7000/s caused by a coding idiom that wraps every UI
  upcall in a 5-second timeout assertion (set + immediate cancel).
* :class:`BrowserApp` — GUI ``SetTimer`` ticks plus winsock selects;
  with ``flash=True`` it adds the sub-10 ms timer flood of the Vista
  Firefox trace (2881 sets/s, many under 10 ms).
* :class:`SkypeVistaApp` — raises the clock resolution via
  ``timeBeginPeriod`` and mixes sub-millisecond waits with 0.5/1/2 s
  constants (Figure 7).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

from ..sim.clock import MICROSECOND, MILLISECOND, SECOND, millis, seconds
from .base import Machine

SITE_SVCHOST_WAIT = ("svchost!ServiceMainLoop",
                     "kernel32!WaitForSingleObject",
                     "nt!KeWaitForSingleObject")
SITE_OUTLOOK_GUARD = ("outlook!HrWrapUiUpcall", "outlook!SetUpcallGuard",
                      "kernel32!SetWaitableTimer", "nt!KeSetTimer")


class VistaKernelBackground:
    """Kernel/driver timers of an idle Vista machine.

    Each entry is a one-shot KTIMER re-armed from its own DPC (so every
    cycle is a SET + EXPIRE pair, matching Table 2's set ≈ expired).
    """

    DEFAULT_PERIODS = (
        ("nt!PopPolicyTimer", seconds(1)),
        ("nt!CcLazyWriteScan", seconds(1)),
        ("nt!MmWorkingSetManager", seconds(1)),
        ("ndis!NdisMTimerDpc", millis(100)),
        ("usbport!UsbRootHubTimer", millis(250)),
        ("tcpip!TcpPeriodicTimeoutHandler", millis(100)),
        ("nt!KiBalanceSetManagerDeferred", seconds(2)),
        ("nt!ExpTimeRefreshWork", seconds(60)),
        ("hdaudio!HdaPowerTimer", millis(500)),
        ("nt!IopTimerDispatch", seconds(1)),
        # Driver maintenance timers that keep an idle Vista kernel
        # setting timers at the Table 2 rate.
        ("ndis!NdisReceivePoll", millis(50)),
        ("tcpip!TcpDelAckScan", millis(100)),
        ("tcpip!IppTimeout", millis(100)),
        ("afd!AfdTimeoutPoll", millis(100)),
        ("usbport!UsbIsoAdvance", millis(250)),
        ("storport!RaidUnitPendingTimer", millis(250)),
        ("HDAudBus!HdaSyncTimer", millis(250)),
        ("nt!CmpLazyFlushDpc", millis(500)),
        ("nt!KeBalanceSetManager", millis(500)),
        ("i8042prt!I8042WatchdogTimer", millis(500)),
    )

    def __init__(self, machine: Machine, *,
                 periods: Optional[Sequence] = None, copies: int = 1):
        self.machine = machine
        self.entries = []
        chosen = list(periods if periods is not None
                      else self.DEFAULT_PERIODS)
        for copy in range(copies):
            for name, period in chosen:
                self.entries.append((name, period))

    def start(self) -> None:
        kernel = self.machine.kernel
        for name, period in self.entries:
            timer = kernel.alloc_ktimer(
                site=(name, "nt!KeSetTimer"),
                owner=kernel.tasks.kernel, trace_init=True)

            def rearm(kt, period=period, timer=timer):
                kernel.set_timer(timer, period)

            timer.dpc = rearm
            kernel.set_timer(timer, period)


class VistaBackgroundProcess:
    """One background service process: waits that mostly expire."""

    def __init__(self, machine: Machine, comm: str, *,
                 wait_timeouts: Sequence[int] = (seconds(1),),
                 satisfied_probability: float = 0.05,
                 work_ns: int = MILLISECOND, threads: int = 2):
        self.machine = machine
        self.task = machine.kernel.tasks.spawn(comm)
        self.wait_timeouts = list(wait_timeouts)
        self.satisfied_probability = satisfied_probability
        self.work_ns = work_ns
        self.threads = threads
        self.rng = machine.rng.stream(f"vista.{comm}.{self.task.pid}")
        self._index = 0

    def start(self) -> None:
        for thread in range(self.threads):
            # Worker threads idle on service events with staggered,
            # longer timeouts; thread 0 is the main loop.
            if thread == 0:
                self._wait(thread)
            else:
                self.machine.kernel.engine.call_after(
                    1 + self.rng.randrange(thread * 1000),
                    self._wait_worker, thread)
        # Housekeeping via the NTDLL thread pool: its own user-level
        # ring backed by one kernel timer per pool.
        from ..vistakern.threadpool import Threadpool
        pool = Threadpool(self.machine.kernel, self.task)
        period = [seconds(5), seconds(10), seconds(30)][
            self.task.pid % 3]
        maintenance = pool.create_timer(lambda _t: None)
        pool.set_timer(maintenance, period, period_ns=period)

    def _wait(self, thread: int) -> None:
        timeout = self.wait_timeouts[self._index % len(self.wait_timeouts)]
        self._index += 1
        handle = self.machine.waits.wait_for_single_object(
            self.task, timeout, lambda status: self._returned(thread),
            site=SITE_SVCHOST_WAIT, thread=thread)
        if self.rng.random() < self.satisfied_probability:
            at = max(1, int(timeout * self.rng.random()))
            self.machine.kernel.engine.call_after(
                at, lambda h=handle: h.signal())

    def _wait_worker(self, thread: int) -> None:
        def again(_status: int) -> None:
            self.machine.kernel.engine.call_after(
                max(1, int(self.rng.exponential(self.work_ns))),
                self._wait_worker, thread)

        if self.rng.random() < 0.5:
            # Worker parks on its event with no timeout at all; its
            # thread timer exists but is not pending — which is why the
            # paper's Table 2 counts far more timers than its maximum
            # concurrency.
            handle = self.machine.waits.wait_for_single_object(
                self.task, None, again, site=SITE_SVCHOST_WAIT,
                thread=thread)
            delay = max(1, int(self.rng.exponential(seconds(15))))
            self.machine.kernel.engine.call_after(
                delay, lambda h=handle: h.signal())
        else:
            timeout = seconds(10) * (1 + (thread % 3))
            self.machine.waits.wait_for_single_object(
                self.task, timeout, again, site=SITE_SVCHOST_WAIT,
                thread=thread)

    def _returned(self, thread: int) -> None:
        work = max(1, int(self.rng.exponential(self.work_ns)))
        self.machine.kernel.engine.call_after(
            work, self._wait, thread)


class OutlookApp:
    """Outlook: UI ticks plus the upcall-guard burst idiom."""

    GUARD_TIMEOUT_NS = 5 * SECOND

    def __init__(self, machine: Machine, *,
                 baseline_rate_hz: float = 70.0,
                 burst_mean_gap_ns: int = 30 * SECOND,
                 burst_upcalls: int = 2500):
        self.machine = machine
        self.task = machine.kernel.tasks.spawn("outlook.exe")
        self.rng = machine.rng.stream("vista.outlook")
        self.baseline_gap_ns = int(SECOND / baseline_rate_hz)
        self.burst_mean_gap_ns = burst_mean_gap_ns
        self.burst_upcalls = burst_upcalls
        self.bursts = 0

    def start(self) -> None:
        self._baseline()
        self._schedule_burst()

    # Baseline: steady trickle of short waits and UI guards.

    def _baseline(self) -> None:
        # UI thread work arrives at the baseline rate regardless of
        # what the previous iteration did.
        if self.rng.random() < 0.4:
            self._one_guard()
        else:
            self.machine.waits.wait_for_single_object(
                self.task, millis(15.6) * (1 + self.rng.randrange(3)),
                lambda _s: None)
        self.machine.kernel.engine.call_after(
            max(1, int(self.rng.exponential(self.baseline_gap_ns))),
            self._baseline)

    def _one_guard(self) -> None:
        """Wrap one UI upcall in a 5 s timeout assertion.

        A fresh timer object is allocated per guard, as Vista code
        does on the fly; the lookaside list recycles the addresses.
        """
        nt = self.machine.ntapi
        handle = nt.nt_create_timer(self.task, site=SITE_OUTLOOK_GUARD)
        nt.nt_set_timer(handle, self.GUARD_TIMEOUT_NS)
        # The upcall completes quickly; the guard is cancelled.
        upcall = max(10_000, int(self.rng.lognormal_latency(
            300_000, sigma=1.0)))

        def finished() -> None:
            nt.nt_cancel_timer(handle)
            nt.nt_close(handle)

        self.machine.kernel.engine.call_after(upcall, finished)

    # Bursts: thousands of guarded upcalls during mail sync.

    def _schedule_burst(self) -> None:
        gap = max(SECOND, int(self.rng.exponential(self.burst_mean_gap_ns)))
        self.machine.kernel.engine.call_after(gap, self._burst)

    def _burst(self) -> None:
        self.bursts += 1
        count = int(self.burst_upcalls * (0.5 + self.rng.random()))
        spread = SECOND
        for _ in range(count):
            at = int(self.rng.random() * spread)
            self.machine.kernel.engine.call_after(at, self._one_guard)
        self._schedule_burst()


#: Per-call timeout draws of the browser and Skype models: populations
#: and cumulative weights built once, not on every call (``vista/
#: firefox`` draws ~226k of them in two virtual minutes).
NETWORK_SELECT_TIMEOUTS = (millis(1), millis(10), millis(50), millis(250),
                           millis(500))
NETWORK_SELECT_CUM = tuple(accumulate((0.25, 0.3, 0.2, 0.15, 0.1)))
FLASH_FRAME_TIMEOUTS = (300 * MICROSECOND, millis(1), millis(2), millis(5),
                        millis(8))
FLASH_FRAME_CUM = tuple(accumulate((0.25, 0.3, 0.2, 0.15, 0.1)))
AUDIO_WAIT_TIMEOUTS = (500 * MICROSECOND, millis(1), millis(2), millis(3),
                       millis(10), millis(20))
AUDIO_WAIT_CUM = tuple(accumulate((0.2, 0.25, 0.2, 0.15, 0.1, 0.1)))
SIGNALING_SELECT_TIMEOUTS = (0, millis(100), millis(500), SECOND,
                             2 * SECOND)
SIGNALING_SELECT_CUM = tuple(accumulate((0.15, 0.2, 0.35, 0.2, 0.1)))


class BrowserApp:
    """A web browser: GUI timers + winsock selects (+ Flash flood)."""

    def __init__(self, machine: Machine, comm: str = "iexplore.exe",
                 *, flash: bool = False, flash_threads: int = 6,
                 select_rate_hz: float = 20.0):
        self.machine = machine
        self.task = machine.kernel.tasks.spawn(comm)
        self.rng = machine.rng.stream(f"vista.{comm}")
        self.flash = flash
        self.flash_threads = flash_threads
        self.select_gap_ns = int(SECOND / select_rate_hz)
        from ..vistakern.win32 import MessageQueue
        self.queue = MessageQueue(machine.kernel, self.task)

    def start(self) -> None:
        # GUI ticks: caret blink (530 ms), progress animation (100 ms).
        self.queue.set_timer(1, millis(530), lambda _tid: None)
        self.queue.set_timer(2, millis(100), lambda _tid: None)
        self._network_select()
        if self.flash:
            self.machine.kernel.request_clock_resolution(
                self.task, MILLISECOND)
            for thread in range(self.flash_threads):
                self._flash_frame(thread)

    def _network_select(self) -> None:
        timeout = self.rng.choice_weighted(
            NETWORK_SELECT_TIMEOUTS, cum_weights=NETWORK_SELECT_CUM)
        call = self.machine.winsock.select(
            self.task, timeout, lambda _to: None)
        if not call.done and self.rng.random() < 0.6:
            at = max(1, int(timeout * self.rng.random()))
            self.machine.kernel.engine.call_after(
                at, lambda c=call: c.fd_ready())
        self.machine.kernel.engine.call_after(
            max(1, int(self.rng.exponential(self.select_gap_ns))),
            self._network_select)

    def _flash_frame(self, thread: int) -> None:
        """The sub-10 ms timer flood: frame pacing via tiny waits."""
        timeout = self.rng.choice_weighted(
            FLASH_FRAME_TIMEOUTS, cum_weights=FLASH_FRAME_CUM)
        self.machine.waits.wait_for_single_object(
            self.task, timeout,
            lambda _s: self.machine.kernel.engine.call_after(
                max(1, int(self.rng.exponential(100_000))),
                self._flash_frame, thread),
            thread=thread)


#: Kernel timer load while a call is up: NDIS receive pacing, UDP/RTP
#: delivery DPCs, audio DMA — what triples Table 2's kernel column for
#: the Vista Skype trace.
SKYPE_CALL_KERNEL_PERIODS = tuple(
    [(f"ndis!NdisRtpReceiveDpc#{i}", millis(30)) for i in range(6)]
    + [(f"hdaudio!HdaDmaPace#{i}", millis(20)) for i in range(3)]
    + [("tcpip!UdpDeliveryTimer", millis(50)),
       ("tcpip!IppFragmentTimeout", millis(100))])


class SkypeVistaApp:
    """Skype on Vista: high-resolution clock plus mixed wait values."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.task = machine.kernel.tasks.spawn("Skype.exe")
        self.rng = machine.rng.stream("vista.skype")
        self.call_kernel = VistaKernelBackground(
            machine, periods=SKYPE_CALL_KERNEL_PERIODS)

    AUDIO_THREADS = 3

    def start(self) -> None:
        self.machine.kernel.request_clock_resolution(self.task,
                                                     MILLISECOND)
        self.call_kernel.start()
        for thread in range(self.AUDIO_THREADS):
            self._audio_wait(thread)
        self._signaling_select()

    def _audio_wait(self, thread: int) -> None:
        timeout = self.rng.choice_weighted(
            AUDIO_WAIT_TIMEOUTS, cum_weights=AUDIO_WAIT_CUM)
        self.machine.waits.wait_for_single_object(
            self.task, timeout,
            lambda _s: self.machine.kernel.engine.call_after(
                max(1, int(self.rng.exponential(200_000))),
                self._audio_wait, thread),
            thread=thread)

    def _signaling_select(self) -> None:
        timeout = self.rng.choice_weighted(
            SIGNALING_SELECT_TIMEOUTS, cum_weights=SIGNALING_SELECT_CUM)
        call = self.machine.winsock.select(self.task, timeout,
                                           lambda _to: None)
        if timeout > 0 and not call.done and self.rng.random() < 0.5:
            at = max(1, int(timeout * self.rng.random()))
            self.machine.kernel.engine.call_after(
                at, lambda c=call: c.fd_ready())
        self.machine.kernel.engine.call_after(
            max(1, int(self.rng.exponential(millis(15)))),
            self._signaling_select)
