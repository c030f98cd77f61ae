"""Instrumentation substrate: event records, sinks, and trace containers.

Mirrors the paper's Section 3 tooling: a relayfs-style bounded binary
log for the Linux model, an ETW-style session (with thread-wait events)
for the Vista model, and a :class:`Trace` container providing the
per-timer correlation the analyses need.

Trace I/O goes through one surface (:mod:`repro.tracing.formats`)::

    trace = open_trace("run.bin")       # sniffs jsonl / v1 / v2
    write_trace(trace, "run.bin")       # extension picks the format
"""

from .events import (FLAG_ABSOLUTE, FLAG_DEFERRABLE, FLAG_ROUNDED,
                     FLAG_WAIT_SATISFIED, CallSiteRegistry, EventKind,
                     TimerEvent, wait_unblock_event)
from .errors import TraceFormatError
from .binfmt import dump_trace, load_trace
from .binfmt2 import ColumnarTrace, dump_trace_v2
from .formats import (TraceFormat, detect_format, materialize,
                      open_trace, register_format, sniff_format,
                      trace_formats, trace_from_bytes, trace_to_bytes,
                      write_trace)
from .etw import EtwSession
from .relay import (CountingSink, NullSink, RelayBuffer, TeeSink)
from .requests import RequestRecord, RequestTracker, TimeoutNode
from .trace import TimerHistory, Trace

__all__ = [
    "FLAG_ABSOLUTE", "FLAG_DEFERRABLE", "FLAG_ROUNDED",
    "FLAG_WAIT_SATISFIED", "CallSiteRegistry", "EventKind", "TimerEvent",
    "EtwSession", "CountingSink", "NullSink", "RelayBuffer", "TeeSink",
    "TraceFormatError", "TraceFormat", "ColumnarTrace",
    "dump_trace", "dump_trace_v2", "load_trace",
    "open_trace", "write_trace", "detect_format", "sniff_format",
    "materialize", "register_format", "trace_formats",
    "trace_from_bytes", "trace_to_bytes",
    "TimerHistory", "Trace", "RequestRecord", "RequestTracker",
    "TimeoutNode", "wait_unblock_event",
]
