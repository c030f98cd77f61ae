"""Cheap records: a discarding kernel builds none, the rest are C-built.

* A kernel whose sink keeps nothing (a bare ``NullSink``) has
  ``recording`` False and skips every emit site; attaching a live sink
  re-resolves the flag, so the attached sink sees the full stream.
* Every emit site builds its record with ``tuple.__new__``; each must
  equal, field for field and in type, what ``TimerEvent(...)`` builds.
* ``RelayBuffer`` and ``EtwSession`` share one ``RecordLog``, whose
  accounting holds at the capacity bound.
"""

import pytest

from repro.kern import Machine
from repro.linuxkern import LinuxKernel, SyscallInterface
from repro.sim import JIFFY, millis, seconds
from repro.tracing import (FLAG_ABSOLUTE, FLAG_ROUNDED, FLAG_WAIT_SATISFIED,
                           EtwSession, EventKind, NullSink, RelayBuffer,
                           TeeSink, TimerEvent, wait_unblock_event)
from repro.tracing.relay import APPROX_RECORD_BYTES, HostStampSink, RecordLog
from repro.userspace import UserEventLoop
from repro.vistakern import DispatcherWaits, VistaKernel


class ListSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def assert_same_record(built, expected):
    assert type(built) is TimerEvent
    assert built == expected
    assert [type(f) for f in built] == [type(f) for f in expected]


# -- the discard flag --------------------------------------------------------


@pytest.mark.parametrize("os_name,workload", [("linux", "idle"),
                                              ("vista", "idle"),
                                              ("linux", "webserver")])
def test_sink_attached_to_discarding_machine_sees_every_record(
        os_name, workload):
    retained = Machine(os_name, seed=5)
    retained.scene(workload)
    kept = retained.finish(workload, seconds(20)).trace.events

    machine = Machine(os_name, seed=5, retain_events=False)
    kernel = machine.kernel
    emitter = kernel.timers if os_name == "linux" else kernel
    assert not emitter.recording
    counter = ListSink()
    kernel.attach_sink(counter)
    assert emitter.recording
    machine.scene(workload)
    run = machine.finish(workload, seconds(20))
    assert run.trace.events == []
    assert kept and counter.events == kept


def test_attach_reresolves_every_linux_component():
    kernel = LinuxKernel(seed=1, cpus=2, sink=NullSink())
    components = kernel.bases + [kernel.hrtimers]
    assert not any(c.recording for c in components)
    kernel.attach_sink(ListSink())
    assert all(c.recording for c in components)
    assert all(isinstance(c.sink, TeeSink) for c in components)


def test_rebinding_a_sink_reresolves_the_flag():
    kernel = VistaKernel(seed=1, sink=NullSink())
    assert not kernel.recording
    kernel.sink = EtwSession()
    assert kernel.recording
    kernel.sink = NullSink()
    assert not kernel.recording


def test_discarding_kernel_builds_no_record(monkeypatch):
    built = []
    monkeypatch.setattr("repro.linuxkern.timer.new_record",
                        lambda cls, fields: built.append(fields))
    machine = Machine("linux", seed=2, retain_events=False)
    machine.scene("webserver")
    machine.finish("webserver", seconds(5))
    assert built == []


def test_cluster_member_without_retention_leaves_null_sink_bare():
    machine = Machine("linux", seed=0, host_id=2, cpus=2,
                      retain_events=False)
    assert type(machine.kernel.sink) is NullSink
    assert not machine.kernel.timers.recording


def test_event_loop_records_only_with_a_sink():
    machine = Machine("linux", seed=3)
    loop = UserEventLoop(machine, "reactor")
    assert not loop.recording
    sink = ListSink()
    loop.user_sink = sink
    assert loop.recording and loop.user_sink is sink
    loop.user_sink = NullSink()
    assert not loop.recording


# -- C-built records match the NamedTuple constructor, per emit site ---------


def test_linux_timer_sites():
    sink = ListSink()
    kernel = LinuxKernel(seed=0, sink=sink)
    task = kernel.tasks.spawn("app")
    base = kernel.timers
    kernel.run_for(JIFFY // 3)
    timer = base.init_timer(site=("a", "b"), owner=task, deferrable=True)
    site = timer.site
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.INIT, kernel.now, timer.timer_id, task.pid, task.comm,
        "user", site, None, None, 1))
    base.mod_timer(timer, 10, rounded=True)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.SET, kernel.now, timer.timer_id, task.pid, task.comm,
        "user", site, 10 * JIFFY - kernel.now, 10 * JIFFY,
        FLAG_ROUNDED | 1))
    base.del_timer(timer)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.CANCEL, kernel.now, timer.timer_id, task.pid, task.comm,
        "user", site, expires_ns=10 * JIFFY, flags=1))
    base.mod_timer(timer, 4, timeout_ns=millis(3))
    kernel.run_for(seconds(1))
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.EXPIRE, 4 * JIFFY, timer.timer_id, task.pid, task.comm,
        "user", site, expires_ns=4 * JIFFY, flags=1))


def test_linux_zero_timeout_syscall_site():
    sink = ListSink()
    kernel = LinuxKernel(seed=0, sink=sink)
    syscalls = SyscallInterface(kernel)
    task = kernel.tasks.spawn("poller")
    kernel.run_for(millis(7))
    syscalls.select(task, 0, lambda _r, _rem: None)
    set_rec, expire_rec = sink.events[-2:]
    now = kernel.now
    assert_same_record(set_rec, TimerEvent(
        EventKind.SET, now, set_rec.timer_id, task.pid, task.comm, "user",
        set_rec.site, 0, now))
    assert_same_record(expire_rec, TimerEvent(
        EventKind.EXPIRE, now, set_rec.timer_id, task.pid, task.comm,
        "user", set_rec.site, expires_ns=now))


def test_hrtimer_sites():
    sink = ListSink()
    kernel = LinuxKernel(seed=0, sink=sink)
    task = kernel.tasks.spawn("hr")
    hrt = kernel.hrtimers
    timer = hrt.hrtimer_init(site=("hr",), owner=task)
    expected = dict(timer_id=timer.timer_id, pid=task.pid, comm=task.comm,
                    domain=task.domain, site=timer.site)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.INIT, 0, **expected))
    hrt.hrtimer_start(timer, 5000)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.SET, 0, **expected, timeout_ns=5000, expires_ns=5000))
    hrt.hrtimer_cancel(timer)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.CANCEL, 0, **expected, expires_ns=5000))
    hrt.hrtimer_start(timer, 7000)
    kernel.run_for(10_000)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.EXPIRE, 7000, **expected, expires_ns=7000))


def test_vista_ktimer_and_wait_sites():
    sink = ListSink()
    kernel = VistaKernel(seed=0, sink=TeeSink([sink]))
    task = kernel.tasks.spawn("app.exe")
    timer = kernel.alloc_ktimer(site=("k",), owner=task, domain="user",
                                trace_init=True)
    expected = dict(timer_id=timer.timer_id, pid=task.pid, comm=task.comm,
                    domain="user", site=timer.site)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.INIT, 0, **expected))
    kernel.set_timer(timer, millis(40), absolute=True)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.SET, 0, **expected, timeout_ns=millis(40),
        expires_ns=millis(40), flags=FLAG_ABSOLUTE))
    kernel.cancel_timer(timer)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.CANCEL, 0, **expected, expires_ns=millis(40)))
    kernel.set_timer(timer, millis(20))
    kernel.run_for(millis(100))
    expire = sink.events[-1]
    assert_same_record(expire, TimerEvent(
        EventKind.EXPIRE, expire.ts, **expected, expires_ns=millis(20)))

    waits = DispatcherWaits(kernel)
    handle = waits.wait_for_single_object(task, millis(30),
                                          lambda _s: None)
    blocked = kernel.now
    kernel.run_for(millis(5))
    handle.signal()
    wait_timer = waits._thread_timer(task, 0)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.WAIT_UNBLOCK, kernel.now, wait_timer.timer_id, task.pid,
        task.comm, "user", kernel.sites.intern(handle.site), millis(30),
        blocked, FLAG_WAIT_SATISFIED))


def test_event_loop_sites():
    machine = Machine("linux", seed=4)
    sink = ListSink()
    loop = UserEventLoop(machine, "reactor", user_sink=sink)
    loop.start()
    now = machine.kernel.now
    timer = loop.call_later(millis(10), lambda: None, site=("cb",))
    task = loop.task
    expected = dict(timer_id=timer.timer_id, pid=task.pid, comm=task.comm,
                    domain="user", site=("cb",))
    init, set_rec = sink.events[-2:]
    assert_same_record(init, TimerEvent(EventKind.INIT, now, **expected))
    assert_same_record(set_rec, TimerEvent(
        EventKind.SET, now, **expected, timeout_ns=millis(10),
        expires_ns=now + millis(10)))
    loop.cancel(timer)
    assert_same_record(sink.events[-1], TimerEvent(
        EventKind.CANCEL, now, **expected, expires_ns=now + millis(10)))
    loop.reset(timer, millis(5))
    machine.kernel.run_for(seconds(1))
    expire = [e for e in sink.events if e.kind == EventKind.EXPIRE][-1]
    assert_same_record(expire, TimerEvent(
        EventKind.EXPIRE, expire.ts, **expected, expires_ns=now + millis(5)))


def test_wait_unblock_event_positional_and_keyword_agree():
    fields = (100, 500, 7, 3, "svchost.exe", ("wait",), 400, False)
    named = wait_unblock_event(ts_block=100, ts_unblock=500, timer_id=7,
                               pid=3, comm="svchost.exe", site=("wait",),
                               timeout_ns=400, satisfied=False)
    assert_same_record(wait_unblock_event(*fields), named)
    assert_same_record(named, TimerEvent(
        EventKind.WAIT_UNBLOCK, 500, 7, 3, "svchost.exe", "user",
        ("wait",), 400, 100, 0))


def test_host_stamp_matches_replace():
    inner = ListSink()
    stamp = HostStampSink(inner, host=3, cpus=4)
    event = TimerEvent(EventKind.SET, 9, 0x10C0, 1, "a", "kernel", ("s",),
                       5, 14, FLAG_ROUNDED)
    stamp.emit(event)
    assert_same_record(inner.events[-1],
                       event._replace(host=3, cpu=(0x10C0 >> 6) % 4))
    stamp.emit_wait_unblock(1, 2, 0x40, 5, "w", ("x",), None, True)
    assert_same_record(inner.events[-1], wait_unblock_event(
        1, 2, 0x40, 5, "w", ("x",), None, True)._replace(host=3, cpu=1))


# -- one RecordLog -----------------------------------------------------------


def make_event(n):
    return TimerEvent(EventKind.SET, n, 0x100, 1, "t", "kernel", ("a",),
                      10, n + 10)


@pytest.mark.parametrize("make_log", [
    lambda: RelayBuffer(capacity_bytes=4 * APPROX_RECORD_BYTES),
    lambda: EtwSession(capacity_events=4),
], ids=["relay", "etw"])
def test_record_log_conservation_at_the_bound(make_log):
    log = make_log()
    assert isinstance(log, RecordLog) and log.capacity_events == 4
    waits = hasattr(log, "emit_wait_unblock")

    def conserved():
        return log.emitted == len(log) + log.dropped + log.drained

    for n in range(7):
        if waits and n % 2:
            log.emit_wait_unblock(n, n + 1, 0x40, 2, "w", ("x",), 5, True)
        else:
            log.emit(make_event(n))
        assert conserved()
        assert len(log) == min(n + 1, 4)
        assert log.dropped == max(0, n + 1 - 4)
    assert log.high_water == 4
    assert len(log.drain()) == 4
    assert conserved() and log.drained == 4 and log.high_water == 4
    for n in range(5):
        log.emit(make_event(n))
        assert conserved()
    assert (log.emitted, len(log), log.dropped, log.drained,
            log.high_water) == (12, 4, 4, 4, 4)
    log.drain()
    log.emit(make_event(0))
    assert conserved() and log.high_water == 4


def test_wait_unblock_only_on_the_etw_session():
    assert not hasattr(RelayBuffer(), "emit_wait_unblock")
    session = EtwSession(capacity_events=2)
    session.emit_wait_unblock(1, 2, 3, 4, "c", ("s",), None, False)
    (record,) = session
    assert_same_record(record, wait_unblock_event(
        1, 2, 3, 4, "c", ("s",), None, False))
