"""Tests for trace records, sinks, and the Trace container."""

import pytest

from repro.tracing import (CallSiteRegistry, CountingSink, EtwSession,
                           EventKind, RelayBuffer, TeeSink, TimerEvent,
                           Trace, materialize, open_trace, write_trace)
from repro.tracing.events import FLAG_WAIT_SATISFIED
from repro.tracing.relay import APPROX_RECORD_BYTES


def make_event(kind=EventKind.SET, ts=0, timer_id=0x1000, pid=1,
               comm="app", domain="user", site=("sys_select",),
               timeout_ns=1000, expires_ns=2000, flags=0):
    return TimerEvent(kind, ts, timer_id, pid, comm, domain, site,
                      timeout_ns, expires_ns, flags)


class TestTimerEvent:
    def test_roundtrip_through_dict(self):
        event = make_event(flags=FLAG_WAIT_SATISFIED)
        clone = TimerEvent.from_dict(event.to_dict())
        for attr in ("kind", "ts", "timer_id", "pid", "comm", "domain",
                     "site", "timeout_ns", "expires_ns", "flags"):
            assert getattr(clone, attr) == getattr(event, attr)

    def test_is_user(self):
        assert make_event(domain="user").is_user
        assert not make_event(domain="kernel").is_user

    def test_repr_mentions_kind_and_comm(self):
        text = repr(make_event())
        assert "SET" in text and "app" in text


class TestCallSiteRegistry:
    def test_interning_returns_same_object(self):
        reg = CallSiteRegistry()
        a = reg.intern(("f", "g"))
        b = reg.intern(("f", "g"))
        assert a is b
        assert len(reg) == 1

    def test_distinct_sites_kept(self):
        reg = CallSiteRegistry()
        reg.intern(("f",))
        reg.intern(("g",))
        assert len(reg.all_sites()) == 2


class TestRelayBuffer:
    def test_ordering_preserved(self):
        buffer = RelayBuffer()
        for i in range(10):
            buffer.emit(make_event(ts=i))
        assert [e.ts for e in buffer] == list(range(10))

    def test_no_overwrite_when_full(self):
        buffer = RelayBuffer(capacity_bytes=3 * APPROX_RECORD_BYTES)
        for i in range(5):
            buffer.emit(make_event(ts=i))
        assert len(buffer) == 3
        assert buffer.dropped == 2
        # Old events kept, new dropped — relayfs no-overwrite semantics.
        assert [e.ts for e in buffer] == [0, 1, 2]

    def test_drain_empties(self):
        buffer = RelayBuffer()
        buffer.emit(make_event())
        assert len(buffer.drain()) == 1
        assert len(buffer) == 0

    def test_estimated_cycles_tracks_paper_cost(self):
        buffer = RelayBuffer()
        for _ in range(100):
            buffer.emit(make_event())
        assert buffer.estimated_cycles() == 100 * 236


class TestSinks:
    def test_tee_fans_out(self):
        a, b = RelayBuffer(), CountingSink()
        tee = TeeSink([a, b])
        tee.emit(make_event())
        assert len(a) == 1 and b.total == 1

    def test_counting_sink_by_kind(self):
        sink = CountingSink()
        sink.emit(make_event(kind=EventKind.SET))
        sink.emit(make_event(kind=EventKind.SET))
        sink.emit(make_event(kind=EventKind.CANCEL))
        assert sink.count(EventKind.SET) == 2
        assert sink.count(EventKind.CANCEL) == 1
        assert sink.count(EventKind.EXPIRE) == 0


class TestEtwSession:
    def test_wait_unblock_schema(self):
        session = EtwSession()
        session.emit_wait_unblock(ts_block=100, ts_unblock=500,
                                  timer_id=7, pid=3, comm="svchost.exe",
                                  site=("wait",), timeout_ns=400,
                                  satisfied=True)
        event = list(session)[0]
        assert event.kind == EventKind.WAIT_UNBLOCK
        assert event.ts == 500
        assert event.expires_ns == 100        # block timestamp
        assert event.timeout_ns == 400
        assert event.flags & FLAG_WAIT_SATISFIED

    def test_capacity(self):
        session = EtwSession(capacity_events=2)
        for i in range(4):
            session.emit(make_event(ts=i))
        assert len(session) == 2 and session.dropped == 2


class TestTrace:
    def _trace(self):
        events = [
            make_event(ts=0, comm="Xorg", timer_id=1),
            make_event(ts=1, comm="icewm", timer_id=2, domain="user"),
            make_event(ts=2, comm="kernel", timer_id=3, domain="kernel",
                       kind=EventKind.EXPIRE),
        ]
        return Trace(os_name="linux", workload="test", duration_ns=10,
                     events=events)

    def test_without_comms_filters(self):
        trace = self._trace().without_comms(["Xorg", "icewm"])
        assert len(trace) == 1
        assert trace.events[0].comm == "kernel"

    def test_domain_filters(self):
        trace = self._trace()
        assert len(trace.user_events()) == 2
        assert len(trace.kernel_events()) == 1

    def test_instances_groups_by_address(self):
        assert len(self._trace().instances()) == 3

    def test_logical_timers_cluster_by_site_and_pid(self):
        # Two different timer ids from the same site+pid cluster as one
        # logical timer — the Vista afd.sys case.
        events = [
            make_event(ts=0, timer_id=10, pid=5, site=("afd",)),
            make_event(ts=1, timer_id=10, pid=5, site=("afd",),
                       kind=EventKind.CANCEL),
            make_event(ts=2, timer_id=11, pid=5, site=("afd",)),
            make_event(ts=3, timer_id=11, pid=5, site=("afd",),
                       kind=EventKind.EXPIRE),
        ]
        trace = Trace(os_name="vista", workload="t", duration_ns=10,
                      events=events)
        logical = trace.logical_timers()
        assert len(logical) == 1
        assert len(logical[0].events) == 4

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "trace.jsonl.gz")
        write_trace(trace, path)
        loaded = materialize(open_trace(path))
        assert loaded.os_name == "linux"
        assert loaded.workload == "test"
        assert len(loaded) == len(trace)
        assert loaded.events[0].comm == "Xorg"

    def test_invalid_os_rejected(self):
        with pytest.raises(ValueError):
            Trace(os_name="beos", workload="x", duration_ns=1)
