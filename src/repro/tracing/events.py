"""Timer trace event records.

One :class:`TimerEvent` is emitted for every operation on a kernel
timer: initialisation, (re)arming, cancellation, and expiry, plus the
thread-wait events the Vista instrumentation needed (Section 3.3).

Records are deliberately compact (``__slots__``, interned call sites)
because a 30-minute Firefox trace contains millions of them — the paper
hit the same constraint and used a 512 MiB relayfs buffer.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Optional, Tuple


class EventKind(IntEnum):
    """What happened to the timer."""

    INIT = 0      #: init_timer / timer object allocation
    SET = 1       #: __mod_timer / KeSetTimer — timer armed or re-armed
    CANCEL = 2    #: del_timer / KeCancelTimer
    EXPIRE = 3    #: callback fired from __run_timers / the expiry DPC
    WAIT_BLOCK = 4    #: thread blocked with a timeout (Vista fast path)
    WAIT_UNBLOCK = 5  #: thread unblocked; payload says satisfied/timed out


#: Flag bits carried on SET events (mirrors Linux timer flags).
FLAG_DEFERRABLE = 1 << 0
FLAG_ROUNDED = 1 << 1      #: value passed through round_jiffies
FLAG_ABSOLUTE = 1 << 2     #: caller passed an absolute expiry (Vista)
FLAG_WAIT_SATISFIED = 1 << 3   #: WAIT_UNBLOCK: wait satisfied, not timed out


class TimerEvent(NamedTuple):
    """A single instrumentation record.

    A NamedTuple: a two-minute desktop trace already holds hundreds of
    thousands of records and every analysis walks them, so records get
    tuple-cheap construction and let hot loops unpack all twelve fields
    in one C-level step instead of attribute lookups.

    Attributes
    ----------
    kind:
        The :class:`EventKind`.
    ts:
        Virtual timestamp in nanoseconds.
    timer_id:
        The timer structure's "address".  Linux reuses statically
        allocated structures so the id is stable across uses; the Vista
        model allocates fresh ids, exactly the correlation problem the
        paper describes.
    pid / comm / domain:
        The task charged with the operation.
    site:
        Interned call-stack tuple, innermost frame last.
    timeout_ns:
        SET: the *relative* timeout requested.  WAIT_*: the wait
        timeout.  Otherwise ``None``.
    expires_ns:
        SET: absolute expiry after any quantisation (jiffy rounding,
        round_jiffies).  Otherwise ``None``.
    flags:
        FLAG_* bits.
    host / cpu:
        Machine identity in a cluster scene.  ``host`` is the
        machine's id (0 on a standalone single-host run, 1..N in a
        :class:`~repro.kern.cluster.Cluster`); ``cpu`` is the CPU the
        operation is affined to when the host shards its timing wheel
        per CPU (the Vista TCP re-architecture of Section 1).  Both
        default to 0 so single-machine traces are unchanged.
    """

    kind: EventKind
    ts: int
    timer_id: int
    pid: int
    comm: str
    domain: str
    site: Tuple[str, ...]
    timeout_ns: Optional[int] = None
    expires_ns: Optional[int] = None
    flags: int = 0
    host: int = 0
    cpu: int = 0

    @property
    def is_user(self) -> bool:
        """True if the access originated in user space (via a syscall)."""
        return self.domain == "user"

    @property
    def deferrable(self) -> bool:
        return bool(self.flags & FLAG_DEFERRABLE)

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the ``jsonl`` trace format).

        ``host``/``cpu`` are only emitted when set so single-host
        traces serialise byte-identically to pre-cluster records.
        """
        data = {
            "kind": int(self.kind), "ts": self.ts,
            "timer_id": self.timer_id, "pid": self.pid, "comm": self.comm,
            "domain": self.domain, "site": list(self.site),
            "timeout_ns": self.timeout_ns, "expires_ns": self.expires_ns,
            "flags": self.flags,
        }
        if self.host or self.cpu:
            data["host"] = self.host
            data["cpu"] = self.cpu
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TimerEvent":
        return cls(EventKind(data["kind"]), data["ts"], data["timer_id"],
                   data["pid"], data["comm"], data["domain"],
                   tuple(data["site"]), data["timeout_ns"],
                   data["expires_ns"], data["flags"],
                   data.get("host", 0), data.get("cpu", 0))

    def __repr__(self) -> str:
        where = f" host={self.host} cpu={self.cpu}" \
            if self.host or self.cpu else ""
        return (f"<TimerEvent {self.kind.name} ts={self.ts} "
                f"timer={self.timer_id:#x} {self.comm}({self.pid}) "
                f"site={'/'.join(self.site[-2:])}{where}>")


#: ``tuple.__new__``, prebound: ``new_record(TimerEvent, (...))`` with
#: all twelve fields written out (``host``/``cpu`` too) builds the same
#: record as ``TimerEvent(...)`` in C, skipping the NamedTuple's
#: Python-level ``__new__`` — about half the cost on the emit paths.
new_record = tuple.__new__


def wait_unblock_event(ts_block: int, ts_unblock: int, timer_id: int,
                       pid: int, comm: str, site: Tuple[str, ...],
                       timeout_ns: Optional[int],
                       satisfied: bool) -> TimerEvent:
    """Build the paper's single thread-unblock record (Section 3.3).

    ``timeout_ns`` is the user-supplied timeout; ``expires_ns`` carries
    the block timestamp so the blocked duration is recoverable.  Shared
    by every sink that offers ``emit_wait_unblock``, which takes the
    same fields in the same order.
    """
    return new_record(TimerEvent, (
        EventKind.WAIT_UNBLOCK, ts_unblock, timer_id, pid, comm, "user",
        site, timeout_ns, ts_block,
        FLAG_WAIT_SATISFIED if satisfied else 0, 0, 0))


class CallSiteRegistry:
    """Interns call-stack tuples so records share one object per site.

    The paper's instrumentation logs a stack trace per event; in the
    simulation each timer client declares its stack once, and the
    registry guarantees identical stacks share identity, which both
    saves memory and makes grouping by site a dict lookup.
    """

    def __init__(self) -> None:
        self._sites: dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def intern(self, frames: Tuple[str, ...]) -> Tuple[str, ...]:
        found = self._sites.get(frames)
        if found is None:
            self._sites[frames] = frames
            found = frames
        return found

    def __len__(self) -> int:
        return len(self._sites)

    def all_sites(self) -> list[Tuple[str, ...]]:
        return list(self._sites.values())
