"""Columnar binary trace encoding (format version 2).

Version 1 (:mod:`repro.tracing.binfmt`) stores one packed 44-byte
struct per event, so loading a trace decodes and allocates one
:class:`~repro.tracing.events.TimerEvent` per record up front.  For the
multi-million-event traces the paper's 30-minute runs produce, that
allocation dominates load time and doubles peak memory.

Version 2 stores the same information as fixed-stride little-endian
*columns*: one contiguous block per field, 8-byte aligned, so a loader
can ``mmap`` the file and expose every column as a zero-copy
``memoryview`` cast — no per-event decoding, no object allocation.
:class:`ColumnarTrace` is that view; events are hydrated lazily only
where an analysis genuinely needs :class:`TimerEvent` objects (episode
extraction, the trace index).

Layout (little-endian)::

    magic  b"TMRTRACE" | version u16 (=2) | reserved u16
    os: u16 length + utf-8        (names the backend; no code table)
    workload: u16 length + utf-8
    duration_ns u64 | n_events u64
    comm table:  u32 count, each u16 length + utf-8
    site table:  u32 count, each u8 frame-count x (u16 length + utf-8)
    zero padding to the next 8-byte boundary
    columns, each n_events entries, in this order:
        ts i64 | timer_id u64 | timeout_ns i64 | expires_ns i64
        pid u32 | comm_idx u32 | site_idx u32
        kind u8 | flags u8 | domain u8 (0 kernel, 1 user)
        [version 3 only] host u8 | cpu u16

``timeout_ns`` / ``expires_ns`` use -1 to encode ``None`` (these fields
are always non-negative when present), exactly as version 1 does.

Version 3 extends version 2 with two trailing columns carrying the
cluster identity of every event: ``host`` (machine id, u8) and ``cpu``
(per-host CPU affinity, u16).  The writer picks the version from the
data — a trace in which every event has ``host == cpu == 0`` (every
single-machine trace) serialises as byte-identical version 2, so
cluster support costs existing traces nothing; any nonzero identity
upgrades the stream to version 3.  The loader accepts both versions
and synthesises all-zero host/cpu columns for version-2 files, so v2
and single-host v3 hydrate to identical events.

On big-endian hosts the zero-copy casts are replaced by ``array``
copies with a byteswap — same values, same API, just not zero-copy.
"""

from __future__ import annotations

import io
import mmap
import struct
import sys
from array import array
from itertools import repeat
from operator import itemgetter
from typing import BinaryIO, Iterator, Optional

from ..gcpolicy import young_gc_only
from .errors import TraceFormatError
from .events import EventKind, TimerEvent, new_record
from .trace import Trace

MAGIC = b"TMRTRACE"
VERSION2 = 2
VERSION3 = 3
_NONE = -1
_LITTLE = sys.byteorder == "little"

_HEAD = struct.Struct("<HH")          # version, reserved
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: (struct code, itemsize) per column, in file order.
_COLUMN_LAYOUT = (
    ("ts", "q", 8), ("timer_id", "Q", 8),
    ("timeout_ns", "q", 8), ("expires_ns", "q", 8),
    ("pid", "I", 4), ("comm_idx", "I", 4), ("site_idx", "I", 4),
    ("kind", "B", 1), ("flags", "B", 1), ("domain", "B", 1),
)

#: The two cluster-identity columns appended by version 3.
_V3_EXTRA = (("host", "B", 1), ("cpu", "H", 2))
_COLUMN_LAYOUT_V3 = _COLUMN_LAYOUT + _V3_EXTRA

_KIND_BY_CODE = [None] * (max(int(k) for k in EventKind) + 1)
for _k in EventKind:
    _KIND_BY_CODE[int(_k)] = _k
_DOMAINS = (sys.intern("kernel"), sys.intern("user"))


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise TraceFormatError(
            f"string too long for trace format ({len(data)} bytes, "
            f"limit 65535)")
    out.write(_U16.pack(len(data)))
    out.write(data)


def trace_is_multihost(trace: Trace) -> bool:
    """True if any event carries a nonzero host/cpu identity."""
    return any(event[10] or event[11] for event in trace.events)


def _write_header(out: BinaryIO, version: int, source, n_events: int,
                  comms, sites) -> None:
    """Everything before the columns, padding included; ``comms`` and
    ``sites`` are the tables in index order."""
    out.write(MAGIC)
    out.write(_HEAD.pack(version, 0))
    _write_str(out, source.os_name)
    _write_str(out, source.workload)
    out.write(_U64.pack(source.duration_ns))
    out.write(_U64.pack(n_events))
    out.write(_U32.pack(len(comms)))
    for comm in comms:
        _write_str(out, comm)
    out.write(_U32.pack(len(sites)))
    for site in sites:
        if len(site) > 0xFF:
            raise TraceFormatError(
                f"call site too deep for trace format ({len(site)} "
                f"frames, limit 255)")
        out.write(struct.pack("<B", len(site)))
        for frame in site:
            _write_str(out, frame)

    # Columns start at the next 8-byte boundary.
    written = out.tell() if out.seekable() else None
    if written is None:
        raise TraceFormatError("v2 writer needs a seekable stream")
    out.write(b"\x00" * (-written % 8))


def _check_version(version: Optional[int], multihost) -> int:
    if version is None:
        return VERSION3 if multihost() else VERSION2
    if version not in (VERSION2, VERSION3):
        raise TraceFormatError(
            f"columnar writer cannot produce version {version}")
    return version


def dump_trace_v2(trace: "Trace | ColumnarTrace", out: BinaryIO, *,
                  version: Optional[int] = None) -> None:
    """Serialise ``trace`` to a v2/v3 columnar stream.

    The version is picked from the data unless forced: single-host
    traces (every ``host``/``cpu`` zero) write byte-identical v2;
    cluster traces write v3 with the two extra identity columns.

    A :class:`ColumnarTrace` is written by copying its column blocks
    after a fresh header, with no hydration, whenever that gives the
    same bytes as writing its hydrated events; otherwise (tables not in
    first-appearance order, say) it is hydrated and written like any
    other trace.
    """
    if isinstance(trace, ColumnarTrace):
        if _columns_copyable(trace):
            _dump_columns(trace, out, version)
            return
        trace = trace.as_trace()
    version = _check_version(version, lambda: trace_is_multihost(trace))
    with_identity = version == VERSION3
    events = trace.events
    # Column by column: each column is built from one C-level pass over
    # its field, with no per-event Python loop and no transposed copy.

    def field(i):
        return map(itemgetter(i), events)

    # Insertion order == index order (first appearance).
    comms = {comm: i for i, comm in enumerate(dict.fromkeys(field(4)))}
    sites = {site: i for i, site in enumerate(dict.fromkeys(field(6)))}
    _write_header(out, version, trace, len(events), comms, sites)

    ts_col = array("q", field(1))
    id_col = array("Q", field(2))
    to_col = array("q", [_NONE if t is None else t for t in field(7)])
    ex_col = array("q", [_NONE if e is None else e for e in field(8)])
    pid_col = array("I", field(3))
    comm_col = array("I", map(comms.__getitem__, field(4)))
    site_col = array("I", map(sites.__getitem__, field(6)))
    kind_col = bytes(field(0))
    flag_col = bytes([f & 0xFF for f in field(9)])
    dom_col = bytes([d == "user" for d in field(5)])
    if with_identity:
        for host, cpu in zip(field(10), field(11)):
            if not 0 <= host <= 0xFF or not 0 <= cpu <= 0xFFFF:
                raise TraceFormatError(
                    f"host/cpu out of range for trace format "
                    f"(host={host}, cpu={cpu}; limits 255/65535)")
        host_col = bytes(field(10))
        cpu_col = array("H", field(11))
    for col in (ts_col, id_col, to_col, ex_col,
                pid_col, comm_col, site_col):
        if not _LITTLE:
            col.byteswap()
        out.write(col.tobytes())
    out.write(kind_col)
    out.write(flag_col)
    out.write(dom_col)
    if with_identity:
        out.write(host_col)
        if not _LITTLE:
            cpu_col.byteswap()
        out.write(cpu_col.tobytes())


class ColumnarTrace:
    """Zero-copy columnar view of a v2 trace file.

    Columns are ``memoryview`` casts straight into the mapped file (or
    the given buffer): ``ts``, ``timer_id``, ``timeout_ns``,
    ``expires_ns`` as signed/unsigned 64-bit, ``pid`` / ``comm_idx`` /
    ``site_idx`` as unsigned 32-bit, ``kind`` / ``flags`` / ``domain``
    as bytes.  ``comms`` and ``sites`` resolve the index columns.

    Nothing is hydrated on load.  ``event(i)`` builds one
    :class:`TimerEvent`; iterating the view (or reading the cached
    :attr:`events` property) hydrates lazily; :meth:`as_trace` wraps
    the hydrated events in a full :class:`Trace` — the only places
    real event objects come into existence.
    """

    __slots__ = ("os_name", "workload", "duration_ns", "n_events",
                 "comms", "sites", "ts", "timer_id", "timeout_ns",
                 "expires_ns", "pid", "comm_idx", "site_idx", "kind",
                 "flags", "domain", "host", "cpu", "_mmap", "_events",
                 "_trace")

    def __init__(self, *, os_name, workload, duration_ns, n_events,
                 comms, sites, columns, mapped=None):
        self.os_name = os_name
        self.workload = workload
        self.duration_ns = duration_ns
        self.n_events = n_events
        self.comms = comms
        self.sites = sites
        (self.ts, self.timer_id, self.timeout_ns, self.expires_ns,
         self.pid, self.comm_idx, self.site_idx, self.kind,
         self.flags, self.domain, self.host, self.cpu) = columns
        self._mmap = mapped
        self._events: Optional[list[TimerEvent]] = None
        self._trace: Optional[Trace] = None

    def __len__(self) -> int:
        return self.n_events

    def __repr__(self) -> str:
        state = "hydrated" if self._events is not None else "cold"
        return (f"<ColumnarTrace {self.os_name}/{self.workload} "
                f"{self.n_events} events, {state}>")

    # -- lazy hydration --------------------------------------------------

    def event(self, i: int) -> TimerEvent:
        """Hydrate the single event at index ``i``."""
        if i < 0:
            i += self.n_events
        if not 0 <= i < self.n_events:
            raise IndexError(i)
        timeout = self.timeout_ns[i]
        expires = self.expires_ns[i]
        return new_record(TimerEvent, (
            _KIND_BY_CODE[self.kind[i]], self.ts[i], self.timer_id[i],
            self.pid[i], self.comms[self.comm_idx[i]],
            _DOMAINS[self.domain[i]], self.sites[self.site_idx[i]],
            None if timeout == _NONE else timeout,
            None if expires == _NONE else expires, self.flags[i],
            self.host[i], self.cpu[i]))

    def iter_events(self) -> Iterator[TimerEvent]:
        """Hydrate events one at a time, without caching the list.

        Built in C end to end: table lookups are ``map`` over the index
        columns, ``-1`` becomes ``None`` through ``dict.get`` (the
        column doubles as the default), and each record is
        ``new_record(TimerEvent, row)`` over a ``zip`` of the columns.
        It stays a lazy iterator holding no O(n) temporary, so a
        streaming consumer never has the whole event list in memory.
        """
        if self._events is not None:
            return iter(self._events)
        none_for_unset = {_NONE: None}.get
        rows = zip(
            map(_KIND_BY_CODE.__getitem__, self.kind), self.ts,
            self.timer_id, self.pid, map(self.comms.__getitem__,
                                         self.comm_idx),
            map(_DOMAINS.__getitem__, self.domain),
            map(self.sites.__getitem__, self.site_idx),
            map(none_for_unset, self.timeout_ns, self.timeout_ns),
            map(none_for_unset, self.expires_ns, self.expires_ns),
            self.flags, self.host, self.cpu)
        return map(new_record, repeat(TimerEvent), rows)

    __iter__ = iter_events

    @property
    def events(self) -> list[TimerEvent]:
        """The fully hydrated event list (built once, then cached).

        Built with no full garbage collection (:func:`repro.gcpolicy
        .young_gc_only`): every record outlives the build, so a
        generation-2 pass during it would walk them and free nothing.
        """
        if self._events is None:
            with young_gc_only():
                self._events = list(self.iter_events())
        return self._events

    def as_trace(self) -> Trace:
        """A full :class:`Trace` over the (cached) hydrated events."""
        if self._trace is None:
            self._trace = Trace(os_name=self.os_name,
                                workload=self.workload,
                                duration_ns=self.duration_ns,
                                events=self.events)
        return self._trace

    # -- resource management --------------------------------------------

    def close(self) -> None:
        """Release the underlying mapping (hydrated events survive)."""
        mapped = self._mmap
        self._mmap = None
        empty = (memoryview(b""),) * 12
        (self.ts, self.timer_id, self.timeout_ns, self.expires_ns,
         self.pid, self.comm_idx, self.site_idx, self.kind,
         self.flags, self.domain, self.host, self.cpu) = empty
        self.n_events = 0 if self._events is None else self.n_events
        if mapped is not None:
            mapped.close()

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _first_appearance_order(table: list, col) -> bool:
    """True if ``col`` first uses the entries of ``table`` in table
    order, uses all of them, and the entries are distinct: exactly the
    table the event writer would build."""
    return (len(set(table)) == len(table)
            and list(dict.fromkeys(col.tolist())) == list(range(len(table))))


def _columns_copyable(view: ColumnarTrace) -> bool:
    """True if copying ``view``'s column blocks writes the bytes its
    hydrated events would: the columns still hold all the events in
    file byte order (not closed after hydration, not byte-swapped
    copies), the hydrated list, if any, has not grown, every code
    hydrates (so a corrupt view still fails the way hydration does),
    and the tables are in first-appearance order."""
    n = view.n_events
    if not _LITTLE or len(view.ts) != n or (
            view._events is not None and len(view._events) != n):
        return False
    return (max(view.kind, default=0) < len(_KIND_BY_CODE)
            and max(view.domain, default=0) < len(_DOMAINS)
            and _first_appearance_order(view.comms, view.comm_idx)
            and _first_appearance_order(view.sites, view.site_idx))


def _dump_columns(view: ColumnarTrace, out: BinaryIO,
                  version: Optional[int]) -> None:
    """Write ``view`` as a header plus its column blocks, copied."""
    version = _check_version(
        version, lambda: any(view.host) or any(view.cpu))
    _write_header(out, version, view, view.n_events, view.comms,
                  view.sites)
    columns = (view.ts, view.timer_id, view.timeout_ns, view.expires_ns,
               view.pid, view.comm_idx, view.site_idx, view.kind,
               view.flags, view.domain)
    if version == VERSION3:
        columns += (view.host, view.cpu)
    for col in columns:
        out.write(col)


def _read_str(view: memoryview, off: int, limit: int) -> tuple[str, int]:
    if off + 2 > limit:
        raise TraceFormatError("truncated trace header")
    (length,) = _U16.unpack_from(view, off)
    off += 2
    if off + length > limit:
        raise TraceFormatError("truncated trace header")
    return str(view[off:off + length], "utf-8"), off + length


def _cast_column(view: memoryview, off: int, code: str, itemsize: int,
                 n: int):
    end = off + itemsize * n
    block = view[off:end]
    if code == "B":
        return block
    if _LITTLE:
        return block.cast(code)
    col = array(code)
    col.frombytes(block)
    col.byteswap()
    return col


def load_columnar(view: memoryview, mapped=None) -> ColumnarTrace:
    """Build a :class:`ColumnarTrace` over an in-memory v2/v3 buffer.

    Version-2 files get synthesised all-zero host/cpu columns, so both
    versions expose the same twelve-column view.
    """
    limit = len(view)
    if limit < 12 or bytes(view[:8]) != MAGIC:
        raise TraceFormatError("not a timer trace file")
    version, _reserved = _HEAD.unpack_from(view, 8)
    if version not in (VERSION2, VERSION3):
        raise TraceFormatError(f"unsupported trace version {version} "
                               f"(this reader handles versions 2-3)")
    off = 12
    os_name, off = _read_str(view, off, limit)
    workload, off = _read_str(view, off, limit)
    if off + 16 > limit:
        raise TraceFormatError("truncated trace header")
    (duration_ns,) = _U64.unpack_from(view, off)
    (n_events,) = _U64.unpack_from(view, off + 8)
    off += 16

    if off + 4 > limit:
        raise TraceFormatError("truncated trace header")
    (n_comms,) = _U32.unpack_from(view, off)
    off += 4
    comms = []
    for _ in range(n_comms):
        comm, off = _read_str(view, off, limit)
        comms.append(sys.intern(comm))
    if off + 4 > limit:
        raise TraceFormatError("truncated trace header")
    (n_sites,) = _U32.unpack_from(view, off)
    off += 4
    sites = []
    for _ in range(n_sites):
        if off + 1 > limit:
            raise TraceFormatError("truncated trace header")
        frames = view[off]
        off += 1
        parts = []
        for _ in range(frames):
            frame, off = _read_str(view, off, limit)
            parts.append(sys.intern(frame))
        sites.append(tuple(parts))

    off += -off % 8
    layout = _COLUMN_LAYOUT_V3 if version == VERSION3 else _COLUMN_LAYOUT
    body = sum(size * n_events for _, _, size in layout)
    if off + body > limit:
        raise TraceFormatError(
            f"truncated trace: column section needs {body} bytes, "
            f"{limit - off} available")
    columns = []
    for _name, code, itemsize in layout:
        columns.append(_cast_column(view, off, code, itemsize, n_events))
        off += itemsize * n_events
    if version == VERSION2:
        # Pre-cluster file: every event is host 0 / cpu 0.
        columns.append(memoryview(bytes(n_events)))
        columns.append(memoryview(bytes(2 * n_events)).cast("H"))
    return ColumnarTrace(os_name=os_name, workload=workload,
                         duration_ns=duration_ns, n_events=n_events,
                         comms=comms, sites=sites, columns=columns,
                         mapped=mapped)


class _Mapping:
    """Keeps the mmap (and its file) alive as long as the view needs it."""

    __slots__ = ("_fh", "_mm", "view")

    def __init__(self, path: str):
        self._fh = open(path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Empty or unmappable file: fall back to a plain read.
            self._mm = None
            self.view = memoryview(self._fh.read())
            self._fh.close()
            self._fh = None
            return
        self.view = memoryview(self._mm)

    def close(self) -> None:
        self.view.release()
        if self._mm is not None:
            self._mm.close()
        if self._fh is not None:
            self._fh.close()


def load_v2(path: str) -> ColumnarTrace:
    """``mmap`` a v2 trace file into a zero-copy :class:`ColumnarTrace`."""
    mapped = _Mapping(path)
    try:
        return load_columnar(mapped.view, mapped)
    except Exception:
        mapped.close()
        raise


def save_v2(trace: "Trace | ColumnarTrace", path: str) -> None:
    """Write ``trace`` to ``path`` in the columnar format, picking v2
    for single-host data and v3 when cluster identity is present."""
    with open(path, "wb") as fh:
        dump_trace_v2(trace, fh)


def dumps_v2(trace: Trace) -> bytes:
    out = io.BytesIO()
    dump_trace_v2(trace, out)
    return out.getvalue()


def loads_v2(data: bytes) -> ColumnarTrace:
    return load_columnar(memoryview(data))


def save_v3(trace: "Trace | ColumnarTrace", path: str) -> None:
    """Write ``trace`` to ``path`` forcing columnar version 3 (the
    host/cpu columns are emitted even when all zero)."""
    with open(path, "wb") as fh:
        dump_trace_v2(trace, fh, version=VERSION3)


def dumps_v3(trace: Trace) -> bytes:
    out = io.BytesIO()
    dump_trace_v2(trace, out, version=VERSION3)
    return out.getvalue()
