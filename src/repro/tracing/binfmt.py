"""Compact binary trace encoding.

The paper's relayfs instrumentation wrote fixed-size binary records
into the kernel buffer and converted them to text offline
(Section 3.2).  This codec provides the same style of storage for our
traces: a string table for comms and interned call sites, followed by
fixed-layout little-endian records — about 5x smaller and much faster
to load than the JSON-lines format, which matters for 30-minute
Firefox traces with millions of events.

Format (little-endian)::

    magic  b"TMRTRACE" | version u16 | os u8 | reserved u8
    workload: u16 length + utf-8
    duration_ns: u64
    comm table:  u32 count, each u16 length + utf-8
    site table:  u32 count, each u8 frame-count x (u16 length + utf-8)
    events: u64 count, each:
        kind u8 | flags u8 | domain u8 (0 kernel, 1 user) | pad u8
        comm_idx u32 | site_idx u32 | pid u32
        ts i64 | timer_id u64
        timeout_ns i64  (-1 encodes None)
        expires_ns i64  (-1 encodes None)
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from .errors import TraceFormatError
from .events import EventKind, TimerEvent
from .trace import Trace

MAGIC = b"TMRTRACE"
VERSION = 1
_OS_CODES = {"linux": 0, "vista": 1}
_OS_NAMES = {code: name for name, code in _OS_CODES.items()}

_EVENT = struct.Struct("<BBBBIIIqQqq")
_NONE = -1


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise TraceFormatError(
            f"string too long for trace format ({len(data)} bytes, "
            f"limit 65535)")
    out.write(struct.pack("<H", len(data)))
    out.write(data)


def _read_exact(buf: BinaryIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise TraceFormatError("truncated trace header")
    return data


def _read_str(buf: BinaryIO) -> str:
    head = buf.read(2)
    if len(head) != 2:
        raise TraceFormatError("truncated trace header")
    (length,) = struct.unpack("<H", head)
    data = buf.read(length)
    if len(data) != length:
        raise TraceFormatError("truncated trace header")
    return data.decode("utf-8")


def dump_trace(trace: Trace, out: BinaryIO) -> None:
    """Serialise ``trace`` to a binary stream."""
    out.write(MAGIC)
    out.write(struct.pack("<HBB", VERSION, _OS_CODES[trace.os_name], 0))
    _write_str(out, trace.workload)
    out.write(struct.pack("<Q", trace.duration_ns))

    comms: dict[str, int] = {}
    sites: dict[tuple, int] = {}
    for event in trace.events:
        comms.setdefault(event.comm, len(comms))
        sites.setdefault(event.site, len(sites))

    out.write(struct.pack("<I", len(comms)))
    for comm in comms:                  # insertion order == index order
        _write_str(out, comm)
    out.write(struct.pack("<I", len(sites)))
    for site in sites:
        out.write(struct.pack("<B", len(site)))
        for frame in site:
            _write_str(out, frame)

    out.write(struct.pack("<Q", len(trace.events)))
    pack = _EVENT.pack
    write = out.write
    for event in trace.events:
        write(pack(
            int(event.kind), event.flags & 0xFF,
            1 if event.domain == "user" else 0, 0,
            comms[event.comm], sites[event.site], event.pid,
            event.ts, event.timer_id,
            _NONE if event.timeout_ns is None else event.timeout_ns,
            _NONE if event.expires_ns is None else event.expires_ns))


def load_trace(buf: BinaryIO) -> Trace:
    """Deserialise a trace written by :func:`dump_trace`.

    Negotiates the version: v1 streams are decoded here; a v2
    (columnar) stream is handed to :mod:`repro.tracing.binfmt2` and
    materialised, so old call sites keep reading new files.
    """
    if buf.read(8) != MAGIC:
        raise TraceFormatError("not a timer trace file")
    head = buf.read(4)
    if len(head) != 4:
        raise TraceFormatError("truncated trace header")
    version, os_code, _pad = struct.unpack("<HBB", head)
    if version != VERSION:
        if version == 2:
            from .binfmt2 import MAGIC as magic2, load_columnar
            data = magic2 + head + buf.read()
            return load_columnar(memoryview(data)).as_trace()
        raise TraceFormatError(
            f"unsupported trace version {version}; readable "
            f"versions: 1, 2")
    workload = _read_str(buf)
    (duration_ns,) = struct.unpack("<Q", _read_exact(buf, 8))

    (n_comms,) = struct.unpack("<I", _read_exact(buf, 4))
    comms = [_read_str(buf) for _ in range(n_comms)]
    (n_sites,) = struct.unpack("<I", _read_exact(buf, 4))
    sites = []
    for _ in range(n_sites):
        (frames,) = struct.unpack("<B", _read_exact(buf, 1))
        sites.append(tuple(_read_str(buf) for _ in range(frames)))

    (n_events,) = struct.unpack("<Q", _read_exact(buf, 8))
    size = _EVENT.size
    unpack = _EVENT.unpack
    events = []
    append = events.append
    data = buf.read(n_events * size)
    if len(data) != n_events * size:
        raise TraceFormatError(
            f"truncated trace: {n_events} records need "
            f"{n_events * size} bytes, got {len(data)}")
    for offset in range(0, n_events * size, size):
        (kind, flags, domain_code, _pad, comm_idx, site_idx, pid, ts,
         timer_id, timeout_ns, expires_ns) = unpack(
            data[offset:offset + size])
        append(TimerEvent(
            EventKind(kind), ts, timer_id, pid, comms[comm_idx],
            "user" if domain_code else "kernel", sites[site_idx],
            None if timeout_ns == _NONE else timeout_ns,
            None if expires_ns == _NONE else expires_ns, flags))
    return Trace(os_name=_OS_NAMES[os_code], workload=workload,
                 duration_ns=duration_ns, events=events)
