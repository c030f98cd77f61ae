"""Columnar hydration and the columnar rewrite.

``ColumnarTrace`` builds its records in C (``new_record`` over ``map``
and ``zip`` of the columns); every record must equal the one the
NamedTuple constructor builds from the same columns, field for field
and in type.  ``write_trace`` of a view to a columnar format copies the
column blocks, and must write the bytes the event writer writes.
"""

import gc
from array import array

import pytest

from repro.gcpolicy import NO_FULL_GC, young_gc_only
from repro.sim.clock import MINUTE, SECOND
from repro.tracing import (ColumnarTrace, EventKind, TimerEvent, Trace,
                           materialize, open_trace, trace_from_bytes,
                           trace_to_bytes, write_trace)
from repro.tracing.binfmt2 import dumps_v2, dumps_v3
from repro.workloads import run_workload


def edge_events():
    """None timeouts and expiries, both domains, nonzero flags, a
    repeated site, every event kind."""
    select = ("sys_select", "__mod_timer")
    return [
        TimerEvent(EventKind.INIT, 0, 0x1040, 1, "Xorg", "user", select,
                   None, None),
        TimerEvent(EventKind.SET, 10, 0x1040, 1, "Xorg", "user", select,
                   600 * SECOND, 600 * SECOND + 10, 3),
        TimerEvent(EventKind.CANCEL, 999, 0x1040, 1, "Xorg", "user",
                   select, None, 600 * SECOND),
        TimerEvent(EventKind.EXPIRE, 2000, 0x2000, 0, "kworker",
                   "kernel", ("wb_timer_fn",), None, 2000, 1),
        TimerEvent(EventKind.WAIT_BLOCK, 4000, 0x3000, 42, "svchost",
                   "user", ("NtWaitForSingleObject",), 15 * SECOND,
                   None, 4),
        TimerEvent(EventKind.WAIT_UNBLOCK, 5000, 0x3000, 42, "svchost",
                   "user", ("NtWaitForSingleObject",), 0, 4000, 8),
        TimerEvent(EventKind.SET, 2**62, 2**64 - 1, 2**32 - 1, "Xorg",
                   "kernel", select, 0, 0, 255),
    ]


def edge_trace(identity=None):
    events = edge_events()
    if identity is not None:
        events = [event._replace(host=host, cpu=cpu)
                  for event, (host, cpu) in zip(events, identity)]
    return Trace(os_name="linux", workload="edge", duration_ns=MINUTE,
                 events=events)


def reference_events(view):
    """The records ``TimerEvent(...)`` builds from ``view``'s columns."""
    events = []
    for i in range(len(view)):
        timeout, expires = view.timeout_ns[i], view.expires_ns[i]
        events.append(TimerEvent(
            EventKind(view.kind[i]), view.ts[i], view.timer_id[i],
            view.pid[i], view.comms[view.comm_idx[i]],
            ("kernel", "user")[view.domain[i]],
            view.sites[view.site_idx[i]],
            None if timeout == -1 else timeout,
            None if expires == -1 else expires, view.flags[i],
            view.host[i], view.cpu[i]))
    return events


def assert_same_records(got, want):
    got, want = list(got), list(want)
    assert got == want
    for a, b in zip(got, want):
        assert type(a) is TimerEvent
        assert [type(x) for x in a] == [type(y) for y in b]


def views():
    """(name, fresh ColumnarTrace) per case; v2 and v3, empty, and a
    real workload trace."""
    run = run_workload("vista", "skype", 10 * SECOND, seed=3)
    identity = [(1, 0), (1, 1), (2, 0), (2, 1), (255, 65535), (3, 2),
                (1, 0)]
    return {
        "v2-edge": lambda: trace_from_bytes(dumps_v2(edge_trace())),
        "v3-multihost": lambda: trace_from_bytes(
            dumps_v2(edge_trace(identity))),
        "v3-forced": lambda: trace_from_bytes(dumps_v3(edge_trace())),
        "empty": lambda: trace_from_bytes(dumps_v2(Trace(
            os_name="linux", workload="empty", duration_ns=MINUTE))),
        "workload": lambda: trace_from_bytes(trace_to_bytes(run.trace)),
    }


VIEWS = views()


@pytest.fixture(params=sorted(VIEWS))
def view(request):
    return VIEWS[request.param]()


class TestHydrationDifferential:
    def test_iter_events(self, view):
        assert isinstance(view, ColumnarTrace)
        assert_same_records(view.iter_events(), reference_events(view))

    def test_events(self, view):
        assert_same_records(view.events, reference_events(view))

    def test_event_by_index(self, view):
        want = reference_events(view)
        assert_same_records([view.event(i) for i in range(len(view))],
                            want)
        if want:
            assert_same_records([view.event(-1)], want[-1:])
        with pytest.raises(IndexError):
            view.event(len(view))

    def test_edge_fields_survive(self):
        view = VIEWS["v3-multihost"]()
        assert_same_records(view.events, edge_trace(
            [(1, 0), (1, 1), (2, 0), (2, 1), (255, 65535), (3, 2),
             (1, 0)]).events)
        assert view.events[0].timeout_ns is None
        assert view.events[4].expires_ns is None
        assert view.events[1].domain == "user"
        assert view.events[-1].flags == 255

    def test_iter_events_is_lazy(self):
        view = VIEWS["workload"]()
        it = view.iter_events()
        first = next(it)
        assert first == view.event(0)
        assert repr(view).endswith("cold>")


def corrupt_view():
    """A v2 view whose second event has an unknown kind code."""
    view = trace_from_bytes(dumps_v2(edge_trace()))
    kind = bytearray(view.kind)
    kind[1] = 200
    columns = [view.ts, view.timer_id, view.timeout_ns, view.expires_ns,
               view.pid, view.comm_idx, view.site_idx,
               memoryview(bytes(kind)), view.flags, view.domain,
               view.host, view.cpu]
    return ColumnarTrace(os_name=view.os_name, workload=view.workload,
                         duration_ns=view.duration_ns,
                         n_events=view.n_events, comms=view.comms,
                         sites=view.sites, columns=columns)


class TestBulkHydrationGc:
    def test_no_full_collection_while_building(self, monkeypatch):
        seen = []
        real = ColumnarTrace.iter_events

        def spy(self):
            seen.append(gc.get_threshold())
            return real(self)

        monkeypatch.setattr(ColumnarTrace, "iter_events", spy)
        before = gc.get_threshold()
        VIEWS["v2-edge"]().events
        assert seen == [(before[0], before[1], NO_FULL_GC)]
        assert gc.get_threshold() == before

    def test_thresholds_restored_when_hydration_raises(self):
        before = gc.get_threshold()
        view = corrupt_view()
        with pytest.raises(IndexError):
            view.events
        assert gc.get_threshold() == before

    def test_caller_thresholds_kept(self):
        saved = gc.get_threshold()
        try:
            gc.set_threshold(321, 7, 3)
            with young_gc_only():
                assert gc.get_threshold() == (321, 7, NO_FULL_GC)
            assert gc.get_threshold() == (321, 7, 3)
        finally:
            gc.set_threshold(*saved)


class TestColumnarRewrite:
    @pytest.mark.parametrize("name", sorted(VIEWS))
    @pytest.mark.parametrize("suffix", [".bin", ".bin3"])
    def test_copy_matches_event_writer(self, tmp_path, name, suffix):
        view = VIEWS[name]()
        path = tmp_path / f"copy{suffix}"
        write_trace(view, path)
        assert repr(view).endswith("cold>")
        reference = tmp_path / f"events{suffix}"
        write_trace(VIEWS[name]().as_trace(), reference)
        assert path.read_bytes() == reference.read_bytes()

    def test_hydrated_view_copies_too(self, tmp_path):
        view = VIEWS["workload"]()
        view.as_trace()
        write_trace(view, tmp_path / "a.bin")
        write_trace(view.as_trace(), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == \
            (tmp_path / "b.bin").read_bytes()

    def test_grown_hydrated_trace_is_written_in_full(self, tmp_path):
        view = VIEWS["v2-edge"]()
        view.as_trace().extend(edge_events()[:2])
        write_trace(view, tmp_path / "grown.bin")
        assert len(open_trace(tmp_path / "grown.bin")) == \
            len(edge_events()) + 2

    def test_tables_out_of_order_fall_back(self, tmp_path):
        """A table the event writer would order differently (here
        reversed, with an unused entry) goes through hydration, and
        the file matches the event writer byte for byte."""
        source = VIEWS["v2-edge"]()
        n = len(source)
        remap = {i: len(source.comms) - i for i in range(len(source.comms))}
        comms = ["unused"] + list(reversed(source.comms))
        comm_idx = array("I", (remap[c] for c in source.comm_idx))
        columns = [source.ts, source.timer_id, source.timeout_ns,
                   source.expires_ns, source.pid,
                   memoryview(comm_idx), source.site_idx, source.kind,
                   source.flags, source.domain, source.host, source.cpu]
        view = ColumnarTrace(os_name="linux", workload="edge",
                             duration_ns=MINUTE, n_events=n, comms=comms,
                             sites=source.sites, columns=columns)
        assert_same_records(view.events, edge_events())
        write_trace(view, tmp_path / "fallback.bin")
        assert (tmp_path / "fallback.bin").read_bytes() == \
            dumps_v2(edge_trace())

    def test_corrupt_view_still_fails(self, tmp_path):
        with pytest.raises(IndexError):
            write_trace(corrupt_view(), tmp_path / "corrupt.bin")

    def test_closed_view_writes_empty(self, tmp_path):
        view = VIEWS["v2-edge"]()
        view.close()
        write_trace(view, tmp_path / "closed.bin")
        assert len(materialize(open_trace(tmp_path / "closed.bin"))) == 0
