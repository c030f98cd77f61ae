"""One trace I/O surface: a format registry behind two functions.

Every trace read or write goes through::

    from repro.tracing import open_trace, write_trace

    trace = open_trace("run.bin")            # sniffs the format
    write_trace(trace, "run.bin")            # extension picks v2
    write_trace(trace, "run.bin", format="binfmt")   # force v1

Formats are registry entries (:class:`TraceFormat`), each with a magic
sniffer, path and bytes codecs, and the extensions it claims on write:

* ``jsonl`` — gzipped JSON lines, the portable interchange format;
* ``binfmt`` — the version-1 packed-record binary codec (readable
  forever, no longer the default);
* ``binfmt2`` — the version-2 columnar codec; loading returns a
  zero-copy :class:`~repro.tracing.binfmt2.ColumnarTrace`.  Saving a
  cluster trace (any nonzero ``host``/``cpu``) auto-upgrades the
  stream to version 3; single-host traces stay byte-identical v2;
* ``binfmt3`` — the version-3 columnar codec forced explicitly: v2
  plus trailing ``host`` (u8) and ``cpu`` (u16) identity columns.

``open_trace`` returns whatever the format's loader produces — a
:class:`~repro.tracing.trace.Trace` or a ``ColumnarTrace``; every
analysis entry point (``analyze()``, ``as_index()``, the renderers)
accepts both.  Use :func:`materialize` when a plain ``Trace`` is
required.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Union

from .binfmt2 import (ColumnarTrace, dumps_v2, dumps_v3, load_v2,
                      loads_v2, save_v2, save_v3)
from .errors import TraceFormatError
from .events import TimerEvent
from .trace import Trace

TraceLike = Union[Trace, ColumnarTrace]

#: Bytes of header a sniffer may inspect.
SNIFF_LEN = 16


@dataclass(frozen=True)
class TraceFormat:
    """One registered on-disk trace format."""

    name: str
    description: str
    #: ``sniff(header)`` -> True if the first bytes identify this format.
    sniff: Callable[[bytes], bool]
    load_path: Callable[[str], TraceLike]
    save_path: Callable[[Trace, str], None]
    from_bytes: Callable[[bytes], TraceLike]
    to_bytes: Callable[[Trace], bytes]
    #: Path suffixes this format claims when writing with format="auto".
    extensions: tuple = field(default=())
    #: ``save_path``/``to_bytes`` take a ``ColumnarTrace`` as it is
    #: (the columnar codecs copy its columns); other formats get it
    #: materialised first.
    columnar: bool = False


_REGISTRY: dict[str, TraceFormat] = {}

#: Plain per-format I/O tallies (loads/saves/bytes), bumped by the
#: public surface below and mirrored into a metrics registry by
#: :func:`repro.obs.collect.collect_trace_io` — the same pull-based,
#: zero-perturbation pattern as the rest of the instrumentation map.
IO_COUNTERS: dict[str, dict[str, int]] = {}


def _io_tally(name: str, op: str, nbytes: int) -> None:
    fmt = IO_COUNTERS.get(name)
    if fmt is None:
        fmt = IO_COUNTERS[name] = {
            "loads": 0, "saves": 0, "bytes_read": 0, "bytes_written": 0}
    fmt[op] += 1
    fmt["bytes_read" if op == "loads" else "bytes_written"] += nbytes


def register_format(fmt: TraceFormat) -> None:
    """Add (or replace) a format in the registry."""
    _REGISTRY[fmt.name] = fmt


def trace_formats() -> list[str]:
    """Registered format names, in registration order."""
    return list(_REGISTRY)


def _get(name: str) -> TraceFormat:
    fmt = _REGISTRY.get(name)
    if fmt is None:
        raise TraceFormatError(
            f"unknown trace format {name!r}; registered: "
            f"{', '.join(_REGISTRY)}")
    return fmt


# -- the three built-in formats ---------------------------------------------

def _jsonl_dump(trace: Trace, fh) -> None:
    header = {"os": trace.os_name, "workload": trace.workload,
              "duration_ns": trace.duration_ns}
    fh.write(json.dumps(header) + "\n")
    for event in trace.events:
        fh.write(json.dumps(event.to_dict()) + "\n")


def _jsonl_parse(fh) -> Trace:
    try:
        line = fh.readline()
        header = json.loads(line)
        events = [TimerEvent.from_dict(json.loads(line))
                  for line in fh if line.strip()]
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError,
            gzip.BadGzipFile, EOFError) as err:
        raise TraceFormatError(f"corrupt JSON-lines trace: {err}") \
            from err
    try:
        return Trace(os_name=header["os"], workload=header["workload"],
                     duration_ns=header["duration_ns"], events=events)
    except (KeyError, TypeError) as err:
        raise TraceFormatError(
            f"JSON-lines trace header missing field: {err}") from err


def _jsonl_save(trace: Trace, path: str) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        _jsonl_dump(trace, fh)


def _jsonl_load(path: str) -> Trace:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return _jsonl_parse(fh)


def _jsonl_to_bytes(trace: Trace) -> bytes:
    raw = io.BytesIO()
    # mtime=0 keeps the bytes deterministic for identical traces.
    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        with io.TextIOWrapper(gz, encoding="utf-8") as fh:
            _jsonl_dump(trace, fh)
    return raw.getvalue()


def _jsonl_from_bytes(data: bytes) -> Trace:
    with gzip.open(io.BytesIO(data), "rt", encoding="utf-8") as fh:
        return _jsonl_parse(fh)


def _v1_save(trace: Trace, path: str) -> None:
    from . import binfmt
    with open(path, "wb") as fh:
        binfmt.dump_trace(trace, fh)


def _v1_load(path: str) -> Trace:
    from . import binfmt
    with open(path, "rb") as fh:
        return binfmt.load_trace(fh)


def _v1_to_bytes(trace: Trace) -> bytes:
    from . import binfmt
    out = io.BytesIO()
    binfmt.dump_trace(trace, out)
    return out.getvalue()


def _v1_from_bytes(data: bytes) -> Trace:
    from . import binfmt
    return binfmt.load_trace(io.BytesIO(data))


def _magic_version(header: bytes) -> int:
    from .binfmt import MAGIC
    if len(header) >= 10 and header[:8] == MAGIC:
        return int.from_bytes(header[8:10], "little")
    return -1


register_format(TraceFormat(
    name="jsonl",
    description="gzipped JSON lines (portable interchange)",
    sniff=lambda header: header[:2] == b"\x1f\x8b",
    load_path=_jsonl_load, save_path=_jsonl_save,
    from_bytes=_jsonl_from_bytes, to_bytes=_jsonl_to_bytes,
    extensions=(".jsonl.gz", ".json.gz", ".jsonl", ".gz"),
))

register_format(TraceFormat(
    name="binfmt",
    description="v1 packed-record binary (legacy, still readable)",
    sniff=lambda header: _magic_version(header) == 1,
    load_path=_v1_load, save_path=_v1_save,
    from_bytes=_v1_from_bytes, to_bytes=_v1_to_bytes,
    extensions=(".bin1",),
))

register_format(TraceFormat(
    name="binfmt2",
    description="v2 columnar binary (zero-copy mmap load; cluster "
                "traces auto-upgrade to the v3 columns)",
    sniff=lambda header: _magic_version(header) == 2,
    load_path=load_v2, save_path=save_v2,
    from_bytes=loads_v2, to_bytes=dumps_v2,
    extensions=(".bin", ".bin2"), columnar=True,
))

register_format(TraceFormat(
    name="binfmt3",
    description="v3 columnar binary (v2 plus host/cpu cluster "
                "identity columns)",
    sniff=lambda header: _magic_version(header) == 3,
    load_path=load_v2, save_path=save_v3,
    from_bytes=loads_v2, to_bytes=dumps_v3,
    extensions=(".bin3",), columnar=True,
))


# -- the public surface -----------------------------------------------------

def sniff_format(header: bytes) -> str:
    """Name the format whose magic matches ``header`` (first
    :data:`SNIFF_LEN` bytes of a file), or raise
    :class:`TraceFormatError`."""
    for fmt in _REGISTRY.values():
        if fmt.sniff(header):
            return fmt.name
    version = _magic_version(header)
    if version >= 0:
        raise TraceFormatError(
            f"unsupported trace version {version}; readable versions: "
            f"1 (binfmt), 2 (binfmt2), 3 (binfmt3)")
    raise TraceFormatError("not a recognised timer trace "
                           "(unknown magic bytes)")


def detect_format(path: Union[str, "os.PathLike"]) -> str:
    """Sniff the format of a trace file on disk."""
    with open(path, "rb") as fh:
        return sniff_format(fh.read(SNIFF_LEN))


def open_trace(path: Union[str, "os.PathLike"], *,
               format: str = "auto") -> TraceLike:
    """Load a trace file in any registered format.

    ``format="auto"`` (the default) sniffs the file's magic bytes.
    Returns whatever the format's loader produces: a :class:`Trace`
    for ``jsonl``/``binfmt``, a zero-copy
    :class:`~repro.tracing.binfmt2.ColumnarTrace` for ``binfmt2``.
    """
    path = os.fspath(path)
    try:
        name = detect_format(path) if format == "auto" else format
        loaded = _get(name).load_path(path)
        _io_tally(name, "loads", os.path.getsize(path))
        return loaded
    except TraceFormatError as exc:
        message = str(exc)
        if path not in message:
            raise TraceFormatError(f"{path}: {message}") from exc
        raise


def _format_for_path(path: str) -> str:
    best = ""
    best_name = "jsonl"
    for fmt in _REGISTRY.values():
        for ext in fmt.extensions:
            if path.endswith(ext) and len(ext) > len(best):
                best = ext
                best_name = fmt.name
    return best_name


def write_trace(trace: TraceLike, path: Union[str, "os.PathLike"], *,
                format: str = "auto") -> str:
    """Write ``trace`` to ``path``; returns the format name used.

    ``format="auto"`` picks by extension: ``*.bin``/``*.bin2`` get the
    v2 columnar codec, ``*.bin1`` the legacy v1 codec, anything else
    gzipped JSON lines.  A ``ColumnarTrace`` written to a columnar
    format is copied column by column, without hydrating it.
    """
    path = os.fspath(path)
    name = _format_for_path(path) if format == "auto" else format
    fmt = _get(name)
    fmt.save_path(trace if fmt.columnar else materialize(trace), path)
    _io_tally(name, "saves", os.path.getsize(path))
    return name


def trace_to_bytes(trace: TraceLike, *, format: str = "binfmt2") -> bytes:
    """Serialise a trace to bytes in the named format."""
    fmt = _get(format)
    data = fmt.to_bytes(trace if fmt.columnar else materialize(trace))
    _io_tally(format, "saves", len(data))
    return data


def trace_from_bytes(data: bytes, *, format: str = "auto") -> TraceLike:
    """Deserialise trace bytes, sniffing the format by default."""
    name = sniff_format(data[:SNIFF_LEN]) if format == "auto" else format
    loaded = _get(name).from_bytes(data)
    _io_tally(name, "loads", len(data))
    return loaded


def materialize(source: TraceLike) -> Trace:
    """Coerce any trace-like object to a plain in-memory
    :class:`Trace` (hydrating a columnar view if needed)."""
    if isinstance(source, Trace):
        return source
    if isinstance(source, ColumnarTrace):
        return source.as_trace()
    raise TypeError(f"expected Trace or ColumnarTrace, got "
                    f"{type(source).__name__}")
