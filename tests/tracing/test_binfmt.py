"""Tests for the binary trace codec, including a hypothesis roundtrip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import MINUTE, SECOND
from repro.tracing import (EventKind, TimerEvent, Trace, materialize,
                           open_trace, trace_from_bytes, trace_to_bytes,
                           write_trace)
from repro.workloads import run_workload


def to_v1(trace):
    return trace_to_bytes(trace, format="binfmt")


def from_v1(data):
    return trace_from_bytes(data, format="binfmt")


def load(path):
    return materialize(open_trace(path))


def sample_trace():
    events = [
        TimerEvent(EventKind.INIT, 0, 0x1040, 1, "Xorg", "user",
                   ("sys_select", "__mod_timer"), None, None),
        TimerEvent(EventKind.SET, 10, 0x1040, 1, "Xorg", "user",
                   ("sys_select", "__mod_timer"), 600 * SECOND,
                   600 * SECOND + 10),
        TimerEvent(EventKind.CANCEL, 999, 0x1040, 1, "Xorg", "user",
                   ("sys_select", "__mod_timer"), None, 600 * SECOND),
        TimerEvent(EventKind.EXPIRE, 2000, 0x2000, 0, "kernel",
                   "kernel", ("wb_timer_fn",), None, 2000, 3),
    ]
    return Trace(os_name="linux", workload="unit", duration_ns=MINUTE,
                 events=events)


class TestRoundtrip:
    def test_bytes_roundtrip(self):
        trace = sample_trace()
        clone = from_v1(to_v1(trace))
        assert clone.os_name == trace.os_name
        assert clone.workload == trace.workload
        assert clone.duration_ns == trace.duration_ns
        assert len(clone.events) == len(trace.events)
        for a, b in zip(trace.events, clone.events):
            for attr in ("kind", "ts", "timer_id", "pid", "comm",
                         "domain", "site", "timeout_ns", "expires_ns",
                         "flags"):
                assert getattr(a, attr) == getattr(b, attr)

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = str(tmp_path / "trace.bin")
        write_trace(trace, path, format="binfmt")
        clone = load(path)
        assert len(clone.events) == len(trace.events)

    def test_sites_are_interned_on_load(self):
        clone = from_v1(to_v1(sample_trace()))
        assert clone.events[0].site is clone.events[1].site

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_v1(b"NOTATRACE" + b"\x00" * 64)

    def test_binary_is_smaller_than_json(self, tmp_path):
        run = run_workload("linux", "idle", 30 * SECOND, seed=1)
        binary = to_v1(run.trace)
        json_path = tmp_path / "t.jsonl.gz"
        write_trace(run.trace, str(json_path))
        import gzip
        with gzip.open(json_path, "rb") as fh:
            json_size = len(fh.read())
        assert len(binary) < json_size

    def test_workload_trace_roundtrip(self):
        run = run_workload("vista", "idle", 20 * SECOND, seed=3)
        clone = from_v1(to_v1(run.trace))
        assert len(clone.events) == len(run.trace.events)
        from repro.core import summarize
        assert summarize(clone) == summarize(run.trace)


event_strategy = st.builds(
    TimerEvent,
    kind=st.sampled_from(list(EventKind)),
    ts=st.integers(0, 2**60),
    timer_id=st.integers(0, 2**63),
    pid=st.integers(0, 2**31 - 1),
    comm=st.text(min_size=0, max_size=16),
    domain=st.sampled_from(["user", "kernel"]),
    site=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                  max_size=4).map(tuple),
    timeout_ns=st.one_of(st.none(), st.integers(0, 2**60)),
    expires_ns=st.one_of(st.none(), st.integers(0, 2**60)),
    flags=st.integers(0, 255),
    # The legacy v1 records predate cluster traces and carry no
    # host/cpu columns; multi-host traces go through binfmt2 v3.
    host=st.just(0),
    cpu=st.just(0),
)


class TestProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(event_strategy, max_size=40),
           st.sampled_from(["linux", "vista"]))
    def test_arbitrary_events_roundtrip(self, events, os_name):
        events.sort(key=lambda e: e.ts)
        trace = Trace(os_name=os_name, workload="prop",
                      duration_ns=2**50, events=events)
        clone = from_v1(to_v1(trace))
        assert len(clone.events) == len(events)
        for a, b in zip(events, clone.events):
            assert a.to_dict() == b.to_dict()


EVENT_FIELDS = ("kind", "ts", "timer_id", "pid", "comm", "domain",
                "site", "timeout_ns", "expires_ns", "flags")


def events_equal(a, b):
    return all(getattr(x, f) == getattr(y, f)
               for x, y in zip(a.events, b.events)
               for f in EVENT_FIELDS) and len(a.events) == len(b.events)


class TestFormatDispatch:
    """write_trace picks the codec from the extension and open_trace
    sniffs it back; both formats
    preserve every event field, so jsonl <-> binary round-trips are
    lossless in either direction."""

    def test_save_load_dispatches_on_extension(self, tmp_path):
        trace = sample_trace()
        bin_path = str(tmp_path / "t.bin")
        jsonl_path = str(tmp_path / "t.jsonl.gz")
        write_trace(trace, bin_path)
        write_trace(trace, jsonl_path)
        with open(bin_path, "rb") as fh:
            assert fh.read(8) == b"TMRTRACE"
        for path in (bin_path, jsonl_path):
            clone = load(path)
            assert clone.os_name == trace.os_name
            assert clone.workload == trace.workload
            assert clone.duration_ns == trace.duration_ns
            assert events_equal(clone, trace)

    def test_jsonl_binfmt_cross_roundtrip(self, tmp_path):
        """jsonl -> binary -> jsonl keeps every field of every event."""
        run = run_workload("vista", "skype", 15 * SECOND, seed=9)
        jsonl_path = str(tmp_path / "a.jsonl.gz")
        write_trace(run.trace, jsonl_path)
        via_jsonl = load(jsonl_path)
        bin_path = str(tmp_path / "b.bin")
        write_trace(via_jsonl, bin_path)
        via_bin = load(bin_path)
        assert events_equal(via_bin, run.trace)
        jsonl_again = str(tmp_path / "c.jsonl.gz")
        write_trace(via_bin, jsonl_again)
        assert events_equal(load(jsonl_again), run.trace)
