"""Trace sinks: the bounded record log and the stream plumbing.

The paper logged binary records into a 512 MiB in-kernel relayfs buffer
sized so no trace overflowed, with guaranteed event ordering and no
overwrite of old data (Section 3.2); the Vista model logs into an ETW
session with the same semantics (:mod:`repro.tracing.etw`).  Both are a
:class:`RecordLog`: a capacity bound, append ordering, and an explicit
dropped counter if the bound is ever hit (the analyses assert it is
zero, as the paper did by construction).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .events import TimerEvent, new_record, wait_unblock_event


#: Rough size of one encoded record; the paper's binary records carried a
#: timestamp, addresses and a truncated stack.  Used only to express the
#: capacity in bytes the way the paper does.
APPROX_RECORD_BYTES = 64

#: The paper's buffer size.
DEFAULT_CAPACITY_BYTES = 512 * 1024 * 1024


class RecordLog:
    """Bounded, ordered, no-overwrite event log.

    Lifetime accounting: ``emitted == len(self) + dropped + drained``
    always holds.  The boundary is exact: record ``capacity_events`` is
    retained and record ``capacity_events + 1`` is the first drop.
    """

    def __init__(self, capacity_events: int):
        self.capacity_events = capacity_events
        self._events: list[TimerEvent] = []
        #: Records offered over the log's lifetime.
        self.emitted = 0
        self.dropped = 0
        #: Records handed to :meth:`drain` (the user-space reader).
        self.drained = 0
        self._peak = 0

    def emit(self, event: TimerEvent) -> None:
        """Append one record, or count it as dropped when full."""
        self.emitted += 1
        events = self._events
        if len(events) < self.capacity_events:
            events.append(event)
        else:
            self.dropped += 1

    @property
    def high_water(self) -> int:
        """Most records ever held at once.  Only :meth:`drain` shrinks
        the log, so the peak is taken there, not on every append."""
        return max(self._peak, len(self._events))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TimerEvent]:
        return iter(self._events)

    def drain(self) -> list[TimerEvent]:
        """Read out the log, emptying it (the user-space reader)."""
        self._peak = self.high_water
        events, self._events = self._events, []
        self.drained += len(events)
        return events


class RelayBuffer(RecordLog):
    """The relayfs buffer: a :class:`RecordLog` sized in bytes."""

    #: Emulated per-record instrumentation cost; the paper measured
    #: 236 cycles to gather and log one record.
    record_cost_cycles = 236

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        super().__init__(max(1, capacity_bytes // APPROX_RECORD_BYTES))

    def estimated_cycles(self) -> int:
        """Total instrumentation cycles charged for this buffer.

        Every offered record is charged — the 236 cycles gather the
        record before the capacity check, and records already drained
        were still paid for.
        """
        return self.emitted * self.record_cost_cycles


class NullSink:
    """Keeps nothing: the 'unmodified kernel' of Section 3.2.

    A kernel whose sink is a bare NullSink builds no record at all (see
    :class:`SinkSlot`), like one with its tracepoints compiled out, as
    on ``Machine(retain_events=False)``; in a :class:`TeeSink` it is
    only a no-op member.
    """

    dropped = 0

    def emit(self, event: TimerEvent) -> None:  # pragma: no cover - trivial
        pass

    def emit_wait_unblock(self, *fields, **named) -> None:  # pragma: no cover
        pass


class SinkSlot:
    """Descriptor for a component's sink and its ``recording`` flag.

    Every bind (construction, ``_sink_rebound`` after ``attach_sink``
    swaps in a tee, plain assignment) sets ``recording`` False exactly
    when the sink keeps nothing: None or a bare :class:`NullSink`.
    Emit sites test the flag before the call; hot paths read the sink
    from the underscored attribute (``_sink`` for ``sink``).
    """

    def __set_name__(self, owner, name: str) -> None:
        self.attr = "_" + name

    def __get__(self, obj, objtype=None):
        return self if obj is None else getattr(obj, self.attr)

    def __set__(self, obj, sink) -> None:
        setattr(obj, self.attr, sink)
        obj.recording = sink is not None and type(sink) is not NullSink


class TeeSink:
    """Fan an event stream out to several sinks (e.g. buffer + online
    streaming reducers).  Implements the full sink protocol, including
    the ETW thread-unblock record, so it can stand in for either the
    relayfs buffer or an ETW session in front of a kernel."""

    def __init__(self, sinks: Iterable) -> None:
        self.sinks = list(sinks)

    def add(self, sink) -> None:
        """Live attachment: start copying the stream to ``sink``."""
        self.sinks.append(sink)

    def emit(self, event: TimerEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def emit_wait_unblock(self, *fields, **named) -> None:
        """Build the unblock record once, fan it out to every sink."""
        self.emit(wait_unblock_event(*fields, **named))


class HostStampSink:
    """Stamps every record with one machine's cluster identity.

    Sits between a kernel and its trace buffer on cluster runs: each
    event is rewritten with the machine's ``host`` id and the CPU its
    timer is affined to before being forwarded.  The affinity is the
    per-CPU wheels' modulo hash applied above the allocator's
    alignment bits — timer ids are spaced like slab addresses
    (0x40-aligned), so a plain ``timer_id % cpus`` would pin every
    timer to CPU 0 for any power-of-two CPU count.  Single-machine
    runs never build one, so their event streams are untouched.
    """

    def __init__(self, sink, host: int, cpus: int = 1) -> None:
        if host < 1:
            raise ValueError(f"host must be >= 1 on a cluster, got {host}")
        self.sink = sink
        self.host = host
        self.cpus = cpus

    def emit(self, event: TimerEvent) -> None:
        self.sink.emit(new_record(TimerEvent, event[:10] + (
            self.host, (event.timer_id >> 6) % self.cpus)))

    def emit_wait_unblock(self, *fields, **named) -> None:
        self.emit(wait_unblock_event(*fields, **named))


class CountingSink:
    """Online per-kind counter, for streaming analyses that don't need
    the full event list (mirrors the paper's call-count comparison)."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0

    def emit(self, event: TimerEvent) -> None:
        self.total += 1
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def count(self, kind) -> int:
        return self.counts.get(int(kind), 0)
