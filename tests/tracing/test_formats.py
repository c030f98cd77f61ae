"""Tests for the unified trace I/O surface (:mod:`repro.tracing.formats`)
and the v2 zero-copy columnar codec (:mod:`repro.tracing.binfmt2`)."""

import gzip
import os

import pytest

from repro.sim.clock import MINUTE, SECOND
from repro.tracing import (ColumnarTrace, EventKind, TimerEvent, Trace,
                           TraceFormatError, detect_format, materialize,
                           open_trace, sniff_format, trace_formats,
                           trace_from_bytes, trace_to_bytes, write_trace)
from repro.workloads import run_workload

EVENT_FIELDS = ("kind", "ts", "timer_id", "pid", "comm", "domain",
                "site", "timeout_ns", "expires_ns", "flags")

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data")


def golden_events():
    """The canonical cross-version fixture trace — these exact events
    are stored in ``tests/data/cross_v1.bin1`` / ``cross_v2.bin2``
    (written by ``tests/data/make_fixtures.py``).  Every field type the
    codecs must preserve is covered: None timeout/expires, flags,
    multi-frame sites, both domains, a non-ASCII comm."""
    return [
        TimerEvent(EventKind.INIT, 0, 0x1040, 1, "Xorg", "user",
                   ("sys_select", "__mod_timer"), None, None),
        TimerEvent(EventKind.SET, 10, 0x1040, 1, "Xorg", "user",
                   ("sys_select", "__mod_timer"), 600 * SECOND,
                   600 * SECOND + 10),
        TimerEvent(EventKind.CANCEL, 999, 0x1040, 1, "Xorg", "user",
                   ("sys_select", "__mod_timer"), None, 600 * SECOND),
        TimerEvent(EventKind.EXPIRE, 2000, 0x2000, 0, "kworkeré",
                   "kernel", ("wb_timer_fn",), None, 2000, 3),
        TimerEvent(EventKind.WAIT_UNBLOCK, 5000, 0x3000, 42, "svchost",
                   "user", ("NtWaitForSingleObject",), 15 * SECOND,
                   4000, 1),
    ]


def golden_trace():
    return Trace(os_name="linux", workload="fixture",
                 duration_ns=MINUTE, events=golden_events())


def golden_cluster_events():
    """``golden_events`` with cluster identity stamped on — two hosts,
    two CPUs; these exact events are stored in
    ``tests/data/cross_v3.bin3``."""
    identity = [(1, 0), (1, 1), (1, 0), (2, 1), (2, 0)]
    return [event._replace(host=host, cpu=cpu)
            for event, (host, cpu) in zip(golden_events(), identity)]


def golden_cluster_trace():
    return Trace(os_name="linux", workload="fixture",
                 duration_ns=MINUTE, events=golden_cluster_events())


def assert_events_equal(a, b):
    a, b = list(a), list(b)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for field in EVENT_FIELDS:
            assert getattr(x, field) == getattr(y, field)


class TestRegistry:
    def test_registered_formats(self):
        assert trace_formats() == ["jsonl", "binfmt", "binfmt2",
                                   "binfmt3"]

    def test_explicit_format_roundtrips(self, tmp_path):
        trace = golden_trace()
        for name in ("jsonl", "binfmt", "binfmt2"):
            path = str(tmp_path / f"t_{name}.dat")
            write_trace(trace, path, format=name)
            assert detect_format(path) == name
            clone = open_trace(path, format=name)
            assert_events_equal(trace.events, clone.events)

    def test_extension_dispatch(self, tmp_path):
        trace = golden_trace()
        for ext, expected in ((".bin", "binfmt2"), (".bin2", "binfmt2"),
                              (".bin1", "binfmt"),
                              (".jsonl.gz", "jsonl"),
                              (".weird", "jsonl")):
            path = str(tmp_path / f"t{ext}")
            assert write_trace(trace, path) == expected
            assert detect_format(path) == expected

    def test_sniffing_ignores_extension(self, tmp_path):
        """open_trace trusts the magic, not the file name."""
        trace = golden_trace()
        path = str(tmp_path / "lies.jsonl.gz")
        write_trace(trace, path, format="binfmt2")
        assert sniff_format(open(path, "rb").read(16)) == "binfmt2"
        clone = open_trace(path)
        assert isinstance(clone, ColumnarTrace)
        assert_events_equal(trace.events, clone)

    def test_bytes_roundtrip_all_formats(self):
        trace = golden_trace()
        for name in ("jsonl", "binfmt", "binfmt2"):
            blob = trace_to_bytes(trace, format=name)
            clone = materialize(trace_from_bytes(blob))
            assert_events_equal(trace.events, clone.events)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(golden_trace(), str(tmp_path / "t.bin"),
                        format="binfmt9")


class TestColumnarV2:
    def test_open_trace_returns_zero_copy_view(self, tmp_path):
        trace = golden_trace()
        path = str(tmp_path / "t.bin")
        write_trace(trace, path)
        view = open_trace(path)
        assert isinstance(view, ColumnarTrace)
        assert view.n_events == len(trace.events)
        assert view.os_name == trace.os_name
        assert view.workload == trace.workload
        assert view.duration_ns == trace.duration_ns

    def test_mmap_vs_eager_equivalence(self, tmp_path):
        """Lazy hydration (event(i) / iteration) must agree with the
        eagerly hydrated Trace, field for field."""
        run = run_workload("vista", "idle", 20 * SECOND, seed=3)
        path = str(tmp_path / "t.bin")
        write_trace(run.trace, path)
        view = open_trace(path)
        eager = view.as_trace()
        assert_events_equal(run.trace.events, eager.events)
        assert_events_equal(eager.events,
                            [view.event(i) for i in range(view.n_events)])
        assert_events_equal(eager.events, view)

    def test_columns_are_directly_readable(self, tmp_path):
        trace = golden_trace()
        path = str(tmp_path / "t.bin")
        write_trace(trace, path)
        view = open_trace(path)
        assert list(view.ts) == [e.ts for e in trace.events]
        assert list(view.timer_id) == [e.timer_id for e in trace.events]
        assert [view.comms[i] for i in view.comm_idx] == \
            [e.comm for e in trace.events]

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = Trace(os_name="linux", workload="empty",
                      duration_ns=0, events=[])
        path = str(tmp_path / "t.bin")
        write_trace(trace, path)
        view = open_trace(path)
        assert view.n_events == 0
        assert list(view) == []

    def test_analysis_identical_across_formats(self, tmp_path):
        from repro.core.report import render_analysis
        run = run_workload("linux", "idle", 20 * SECOND, seed=5)
        expected = render_analysis(run.trace)
        for name, ext in (("binfmt", ".bin1"), ("binfmt2", ".bin"),
                          ("jsonl", ".jsonl.gz")):
            path = str(tmp_path / f"t{ext}")
            write_trace(run.trace, path, format=name)
            assert render_analysis(open_trace(path)) == expected


class TestCrossVersionGolden:
    """Golden fixture files pin the on-disk layouts: today's readers
    must keep decoding yesterday's bytes (and v1 bytes must negotiate
    up to the v2 reader transparently)."""

    def test_v1_fixture_decodes(self):
        clone = open_trace(os.path.join(DATA_DIR, "cross_v1.bin1"))
        assert clone.os_name == "linux"
        assert clone.workload == "fixture"
        assert clone.duration_ns == MINUTE
        assert_events_equal(golden_events(), clone.events)

    def test_v2_fixture_decodes(self):
        view = open_trace(os.path.join(DATA_DIR, "cross_v2.bin2"))
        assert isinstance(view, ColumnarTrace)
        assert_events_equal(golden_events(), view)

    def test_v1_to_v2_roundtrip(self, tmp_path):
        v1 = open_trace(os.path.join(DATA_DIR, "cross_v1.bin1"))
        path = str(tmp_path / "up.bin")
        write_trace(v1, path)
        assert_events_equal(v1.events, open_trace(path))

    def test_v1_reader_negotiates_v2_stream(self):
        """The legacy entry point (binfmt.load_trace) reads v2 bytes."""
        import io
        from repro.tracing import load_trace
        blob = trace_to_bytes(golden_trace(), format="binfmt2")
        clone = load_trace(io.BytesIO(blob))
        assert_events_equal(golden_events(), clone.events)


class TestClusterV3:
    """The version-3 cluster columns: auto-negotiation with v2, the
    multi-host golden fixture, and analysis equivalence of single-host
    v3 with v2."""

    def assert_identity_equal(self, a, b):
        assert_events_equal(a, b)
        for x, y in zip(list(a), list(b)):
            assert (x.host, x.cpu) == (y.host, y.cpu)

    def test_v3_fixture_decodes(self):
        view = open_trace(os.path.join(DATA_DIR, "cross_v3.bin3"))
        assert isinstance(view, ColumnarTrace)
        assert view.os_name == "linux"
        assert view.duration_ns == MINUTE
        self.assert_identity_equal(golden_cluster_events(), view)

    def test_single_host_stays_v2(self, tmp_path):
        """The auto writer must keep all-zero-identity traces byte-
        identical to the pre-cluster format."""
        trace = golden_trace()
        assert trace_to_bytes(trace) == \
            trace_to_bytes(trace, format="binfmt2")
        path = str(tmp_path / "t.bin")
        assert write_trace(trace, path) == "binfmt2"
        assert detect_format(path) == "binfmt2"

    def test_multihost_auto_upgrades_to_v3(self, tmp_path):
        trace = golden_cluster_trace()
        path = str(tmp_path / "t.bin")
        write_trace(trace, path)
        assert detect_format(path) == "binfmt3"
        self.assert_identity_equal(trace.events, open_trace(path))

    def test_v3_bytes_roundtrip(self):
        trace = golden_cluster_trace()
        blob = trace_to_bytes(trace)
        assert sniff_format(blob[:16]) == "binfmt3"
        clone = materialize(trace_from_bytes(blob))
        self.assert_identity_equal(trace.events, clone.events)

    @pytest.mark.parametrize("host,cpu", [(256, 0), (1, 65536),
                                          (-1, 0), (1, -1)])
    def test_identity_out_of_range_refused(self, host, cpu):
        events = golden_cluster_events()
        events[3] = events[3]._replace(host=host, cpu=cpu)
        trace = Trace(os_name="linux", workload="fixture",
                      duration_ns=MINUTE, events=events)
        with pytest.raises(TraceFormatError, match="host/cpu out of range"):
            trace_to_bytes(trace, format="binfmt3")

    def test_v2_loader_synthesizes_zero_identity(self):
        view = open_trace(os.path.join(DATA_DIR, "cross_v2.bin2"))
        assert all(event.host == 0 and event.cpu == 0 for event in view)

    def test_single_host_v3_analysis_identical_to_v2(self, tmp_path):
        """Forcing v3 on single-host data (explicit format="binfmt3")
        must not change a byte of the analysis output."""
        from repro.core.report import render_analysis
        run = run_workload("linux", "idle", 20 * SECOND, seed=5)
        v2 = str(tmp_path / "t.bin2")
        v3 = str(tmp_path / "t.bin3")
        write_trace(run.trace, v2, format="binfmt2")
        write_trace(run.trace, v3, format="binfmt3")
        assert detect_format(v3) == "binfmt3"
        assert render_analysis(open_trace(v3)) == \
            render_analysis(open_trace(v2))


class TestErrorPaths:
    def test_bad_magic_raises_typed_error(self):
        with pytest.raises(TraceFormatError):
            trace_from_bytes(b"NOTATRACE" + b"\x00" * 64)

    def test_truncated_v2_raises(self, tmp_path):
        path = str(tmp_path / "t.bin")
        write_trace(golden_trace(), path)
        blob = open(path, "rb").read()
        for cut in (4, 12, 40, len(blob) - 3):
            with pytest.raises(TraceFormatError):
                trace_from_bytes(blob[:cut])

    def test_truncated_v2_file_raises(self, tmp_path):
        path = str(tmp_path / "t.bin")
        write_trace(golden_trace(), path)
        blob = open(path, "rb").read()
        short = str(tmp_path / "short.bin")
        with open(short, "wb") as fh:
            fh.write(blob[:-5])
        with pytest.raises(TraceFormatError):
            open_trace(short)

    def test_truncated_v1_raises(self):
        blob = trace_to_bytes(golden_trace(), format="binfmt")
        with pytest.raises(TraceFormatError):
            trace_from_bytes(blob[:-7])

    def test_corrupt_jsonl_raises(self, tmp_path):
        path = str(tmp_path / "t.jsonl.gz")
        with gzip.open(path, "wt") as fh:
            fh.write('{"os_name": "linux"\nnot json at all\n')
        with pytest.raises(TraceFormatError):
            open_trace(path)

    def test_oversized_string_raises_typed_error(self):
        """The old silent struct overflow (satellite 2): a >64 KiB
        string must raise TraceFormatError from both codec versions."""
        trace = golden_trace()
        trace.events[0] = TimerEvent(
            EventKind.SET, 0, 1, 1, "x" * 70_000, "user", ("f",), 1, 2)
        for name in ("binfmt", "binfmt2"):
            with pytest.raises(TraceFormatError):
                trace_to_bytes(trace, format=name)

    def test_cli_exit_2_on_corrupt_trace(self, tmp_path, capsys):
        from repro.cli import main
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as fh:
            fh.write(b"TMRTRACE\x07\x00garbage")
        assert main(["analyze", bad]) == 2
        assert "bad.bin" in capsys.readouterr().err

    def test_cli_exit_2_on_missing_trace(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["analyze", str(tmp_path / "nope.bin")]) == 2
