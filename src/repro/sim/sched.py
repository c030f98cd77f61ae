"""Pluggable event schedulers for the simulation engine.

The engine owns the virtual clock; *how* pending events are ordered is
delegated to a scheduler object.  Two implementations share one
contract:

``HeapScheduler``
    The original design: one binary heap of per-event ``Event`` objects
    ordered by ``(time, seq)``.  Every push/pop at depth *n* runs
    O(log n) Python-level ``__lt__`` calls, which is what caps large
    traces (see ``benchmarks/bench_scale.py``).

``WheelScheduler``
    A hierarchical timing wheel in the style of Varghese & Lauck —
    the same ``tvec_base`` geometry the reproduction models for the
    Linux kernel in :mod:`repro.linuxkern.wheel`, here dogfooded as
    the engine's own scheduler.  Events live in *packed columns*
    (parallel ``array``/list storage for time, seq, flags, callback)
    addressed by slot index; buckets hold plain ``int`` slot numbers
    and far-future events overflow into a small heap of int tuples.
    Expiring a bucket drains it in one batch: cancelled slots are
    reclaimed, the survivors are sorted by ``(time, seq)`` in C and
    appended to the working queue.  No per-event Python object, no
    Python comparison calls on the hot path.

Every engine runs the wheel; the heap stays as the reference the
differential tests and ``benchmarks/bench_scale.py`` compare it with.
The paper's per-CPU timer structures are modelled in the kernels, not
here: Linux's per-CPU ``tvec_base`` forest in
:mod:`repro.linuxkern.kernel` and Vista's per-CPU TCP wheels in
:mod:`repro.vistakern.tcpwheel`.

Determinism: both schedulers dispatch in the identical total order on
``(time, seq)`` — seq is assigned by the engine at scheduling time —
so heap and wheel produce byte-identical traces (proved by the
differential tests in ``tests/sim/test_sched.py`` and
``tests/test_sched_differential.py``).

Why the wheel preserves the heap's exact order: the wheel keeps a
working heap ``_due`` of ``(time, seq, slot)`` int tuples.  Every entry
in ``_due`` has ``time < _cur << GRAN_BITS`` (it came from an
already-expired bucket, or was scheduled into one), while every entry
still in a bucket or the overflow heap has ``time >= _cur <<
GRAN_BITS``.  The head of ``_due`` is therefore always the global
minimum, and draining bucket ``_cur`` appends a sorted block of
strictly larger keys — which keeps ``_due`` a valid heap without a
single sift.

Cancellation is lazy but *bounded*: cancelling marks the slot (or
``Event``) and drops callback references immediately; the entry itself
is reclaimed when its bucket drains, or earlier by a compaction sweep
that triggers once cancelled garbage outnumbers live events.  The
TIME_WAIT pattern — arm tens of thousands of far-future timers, cancel
nearly all of them — therefore cannot grow memory linearly (regression
test in ``tests/sim/test_sched.py``).
"""

from __future__ import annotations

import heapq
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Union

from .clock import fmt_time

__all__ = [
    "Event", "HeapScheduler", "WheelHandle", "WheelScheduler",
    "default_scheduler", "make_scheduler", "use_scheduler",
]

# -- wheel geometry --------------------------------------------------------

#: log2 of the level-0 bucket width in nanoseconds (~1.05 ms).  Finer
#: than any modelled timer period, so same-bucket collisions stay small.
GRAN_BITS = 20
#: Level 0: 256 buckets of 2^20 ns — ~268 ms of near future.
L0_BITS = 8
L0_SIZE = 1 << L0_BITS
L0_MASK = L0_SIZE - 1
#: Levels 1-4: 64 buckets each (tvec geometry), spans ~17 s / ~18 min /
#: ~19.5 h / ~52 days.
LN_BITS = 6
LN_SIZE = 1 << LN_BITS
LN_MASK = LN_SIZE - 1
#: Buckets covered by the whole wheel; beyond this, events overflow
#: into a far-future heap and are re-fed as the wheel turns.
WHEEL_SPAN = 1 << (L0_BITS + 4 * LN_BITS)

#: Shift from absolute bucket index to each level's slot index.
_L1_SHIFT = L0_BITS
_L2_SHIFT = L0_BITS + LN_BITS
_L3_SHIFT = L0_BITS + 2 * LN_BITS
_L4_SHIFT = L0_BITS + 3 * LN_BITS

# Packed-slot states.
_FREE = 0
_PENDING = 1
_CANCELLED = 2

#: Stand-in deadline for run-to-empty; far beyond any representable
#: simulation (2^62 ns ~ 146 years).
_FOREVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised for invalid use of the engine (e.g. scheduling in the past)."""


def _cancelled_callback(*_args: Any) -> None:
    raise SimulationError("cancelled event was dispatched")


class Event:
    """Heap-scheduler handle: one Python object per scheduled callback.

    Cancellation marks the handle; the dispatcher skips it when it
    surfaces, and the owning scheduler's compaction sweep reclaims it
    early if cancelled garbage starts to dominate the heap.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "sched")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sched: "Optional[HeapScheduler]" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning scheduler while the event is live in its heap; cleared
        #: on dispatch so the live-event counter stays exact.
        self.sched = sched

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self.sched is not None:
                self.sched.note_cancel()
                self.sched = None
        # Drop references so cancelled events pinned in the heap do not
        # keep workload objects alive for the rest of the run.
        self.callback = _cancelled_callback
        self.args = ()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={fmt_time(self.time)} seq={self.seq} {state}>"


class WheelHandle:
    """Wheel-scheduler handle: slot index plus the seq that guards it.

    The packed slot may be reclaimed and reused after dispatch; the
    unique sequence number doubles as a generation tag, so a stale
    handle's :meth:`cancel` is a safe no-op.
    """

    __slots__ = ("_sched", "slot", "seq")

    def __init__(self, sched: "WheelScheduler", slot: int, seq: int):
        self._sched = sched
        self.slot = slot
        self.seq = seq

    @property
    def cancelled(self) -> bool:
        return self._sched is None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        sched = self._sched
        if sched is None:
            return
        self._sched = None
        slot = self.slot
        if sched._flags[slot] == _PENDING and sched._seqs[slot] == self.seq:
            sched._cancel_slot(slot)

    def __repr__(self) -> str:
        state = "cancelled" if self._sched is None else "pending"
        return f"<WheelHandle slot={self.slot} seq={self.seq} {state}>"


class HeapScheduler:
    """The original binary-heap scheduler (kept for differential tests).

    One ``Event`` object per scheduled callback, ordered by Python-level
    ``(time, seq)`` comparisons.  Cancelled events are skipped lazily on
    pop; a compaction sweep rebuilds the heap without them once they
    outnumber live events (see :meth:`note_cancel`).
    """

    kind = "heap"

    def __init__(self) -> None:
        self._heap: list[Event] = []
        #: Live (non-cancelled, undispatched) events.
        self.live: int = 0
        #: Cancelled events still pinned in the heap.
        self._garbage: int = 0
        #: Minimum garbage before a compaction sweep is considered.
        self.compact_threshold: int = 512
        self.compactions: int = 0
        self.reclaimed: int = 0
        # Wheel-only counters, present so observability code can treat
        # schedulers uniformly.
        self.bucket_drains: int = 0
        self.cascades: int = 0
        self.cascaded_timers: int = 0

    # -- scheduling ----------------------------------------------------

    def push(self, when: int, seq: int, callback: Callable[..., Any],
             args: tuple) -> Event:
        event = Event(when, seq, callback, args, self)
        heapq.heappush(self._heap, event)
        self.live += 1
        return event

    def note_cancel(self) -> None:
        """Account one cancellation; compact if garbage dominates."""
        self.live -= 1
        self._garbage += 1
        if (self._garbage > self.compact_threshold
                and self._garbage > self.live):
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        ``(time, seq)`` is a unique total order, so sorting the
        survivors yields a valid heap with the exact dispatch order
        preserved.  In-place (``heap[:] = ...``) so a run loop holding
        a reference to the list keeps working if a callback's cancel
        triggers compaction mid-dispatch.
        """
        heap = self._heap
        kept = [event for event in heap if not event.cancelled]
        self.reclaimed += len(heap) - len(kept)
        kept.sort()
        heap[:] = kept
        self._garbage = 0
        self.compactions += 1

    # -- execution -----------------------------------------------------

    def run(self, engine, deadline: Optional[int]) -> None:
        heap = self._heap
        profiler = engine.profiler
        bounded = deadline is not None
        while heap:
            event = heap[0]
            if bounded and event.time > deadline:
                break
            heapq.heappop(heap)
            if event.cancelled:
                self._garbage -= 1
                continue
            self.live -= 1
            event.sched = None
            engine.now = event.time
            engine.dispatched += 1
            if profiler is None:
                event.callback(*event.args)
            else:
                profiler.dispatch(event)

    # -- introspection -------------------------------------------------

    def peek_next(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._garbage -= 1
        return heap[0].time if heap else None

    @property
    def garbage(self) -> int:
        return self._garbage

    def queued(self) -> int:
        """Entries physically held (live + cancelled garbage)."""
        return len(self._heap)

    def occupancy(self) -> dict[str, int]:
        return {"due": len(self._heap)}


class WheelScheduler:
    """Hierarchical timing wheel with packed event storage.

    Data layout — events are columns, not objects:

    * ``_times`` / ``_seqs`` — ``array('q')`` columns,
    * ``_flags`` — ``bytearray`` slot states (free/pending/cancelled),
    * ``_cbs`` / ``_argss`` — callback and argument columns,
    * ``_free`` — recycled slot indices.

    Buckets are lists of slot ints keyed by absolute bucket index
    ``time >> GRAN_BITS``; ``_cur`` is the next bucket to expire.
    ``_due`` is the working heap of ``(time, seq, slot)`` tuples whose
    head is always the global minimum (see module docstring), and
    ``_overflow`` holds events beyond the ~52-day wheel span.
    """

    kind = "wheel"

    def __init__(self) -> None:
        self._times = array("q")
        self._seqs = array("q")
        self._flags = bytearray()
        self._cbs: list = []
        self._argss: list = []
        self._free: list[int] = []
        self._due: list[tuple] = []
        self._overflow: list[tuple] = []
        self._levels: list[list[list[int]]] = [
            [[] for _ in range(L0_SIZE)],
            [[] for _ in range(LN_SIZE)],
            [[] for _ in range(LN_SIZE)],
            [[] for _ in range(LN_SIZE)],
            [[] for _ in range(LN_SIZE)],
        ]
        #: Entries (live or cancelled) per wheel level.
        self._counts = [0, 0, 0, 0, 0]
        #: Next bucket index to expire.
        self._cur = 0
        self.live: int = 0
        self._garbage: int = 0
        self.compact_threshold: int = 512
        self.compactions: int = 0
        self.reclaimed: int = 0
        self.bucket_drains: int = 0
        self.cascades: int = 0
        self.cascaded_timers: int = 0

    # -- scheduling ----------------------------------------------------

    def push(self, when: int, seq: int, callback: Callable[..., Any],
             args: tuple) -> WheelHandle:
        free = self._free
        if free:
            slot = free.pop()
            self._times[slot] = when
            self._seqs[slot] = seq
            self._flags[slot] = _PENDING
            self._cbs[slot] = callback
            self._argss[slot] = args
        else:
            slot = len(self._times)
            self._times.append(when)
            self._seqs.append(seq)
            self._flags.append(_PENDING)
            self._cbs.append(callback)
            self._argss.append(args)
        self.live += 1
        # Placement is inlined (= _place) — push is the hottest call in
        # the simulator and the extra frame is measurable at 1M+ events.
        idx = when >> GRAN_BITS
        delta = idx - self._cur
        counts = self._counts
        if delta < 0:
            heapq.heappush(self._due, (when, seq, slot))
        elif delta < L0_SIZE:
            self._levels[0][idx & L0_MASK].append(slot)
            counts[0] += 1
        elif delta < 1 << _L2_SHIFT:
            self._levels[1][(idx >> _L1_SHIFT) & LN_MASK].append(slot)
            counts[1] += 1
        elif delta < 1 << _L3_SHIFT:
            self._levels[2][(idx >> _L2_SHIFT) & LN_MASK].append(slot)
            counts[2] += 1
        elif delta < 1 << _L4_SHIFT:
            self._levels[3][(idx >> _L3_SHIFT) & LN_MASK].append(slot)
            counts[3] += 1
        elif delta < WHEEL_SPAN:
            self._levels[4][(idx >> _L4_SHIFT) & LN_MASK].append(slot)
            counts[4] += 1
        else:
            heapq.heappush(self._overflow, (when, seq, slot))
        return WheelHandle(self, slot, seq)

    def _place(self, slot: int, when: int, seq: int) -> None:
        """File a pending slot by its expiry bucket, tvec-style.

        Used by cascades and overflow refeed; :meth:`push` carries an
        inlined copy of this chain — keep the two in sync.
        """
        idx = when >> GRAN_BITS
        delta = idx - self._cur
        if delta < 0:
            # Bucket already expired (e.g. scheduled for "now" during
            # dispatch): straight onto the working heap.
            heapq.heappush(self._due, (when, seq, slot))
        elif delta < L0_SIZE:
            self._levels[0][idx & L0_MASK].append(slot)
            self._counts[0] += 1
        elif delta < 1 << _L2_SHIFT:
            self._levels[1][(idx >> _L1_SHIFT) & LN_MASK].append(slot)
            self._counts[1] += 1
        elif delta < 1 << _L3_SHIFT:
            self._levels[2][(idx >> _L2_SHIFT) & LN_MASK].append(slot)
            self._counts[2] += 1
        elif delta < 1 << _L4_SHIFT:
            self._levels[3][(idx >> _L3_SHIFT) & LN_MASK].append(slot)
            self._counts[3] += 1
        elif delta < WHEEL_SPAN:
            self._levels[4][(idx >> _L4_SHIFT) & LN_MASK].append(slot)
            self._counts[4] += 1
        else:
            heapq.heappush(self._overflow, (when, seq, slot))

    # -- cancellation and reclamation ----------------------------------

    def _cancel_slot(self, slot: int) -> None:
        self._flags[slot] = _CANCELLED
        # Drop references immediately; the slot itself is reclaimed
        # when its bucket drains or a compaction sweep visits it.
        self._cbs[slot] = None
        self._argss[slot] = None
        self.live -= 1
        self._garbage += 1
        if (self._garbage > self.compact_threshold
                and self._garbage > self.live):
            self.compact()

    def _free_slot(self, slot: int) -> None:
        self._flags[slot] = _FREE
        self._cbs[slot] = None
        self._argss[slot] = None
        self._free.append(slot)

    def compact(self) -> None:
        """Sweep cancelled entries out of every container.

        All list surgery is in place so the engine's run loop (which
        holds a reference to ``_due``) survives a compaction triggered
        by a cancel inside a dispatched callback.
        """
        flags = self._flags
        reclaimed = 0
        for heap in (self._due, self._overflow):
            kept = [entry for entry in heap if flags[entry[2]] == _PENDING]
            if len(kept) != len(heap):
                for entry in heap:
                    if flags[entry[2]] != _PENDING:
                        self._free_slot(entry[2])
                        reclaimed += 1
                kept.sort()
                heap[:] = kept
        counts = self._counts
        for level, wheel in enumerate(self._levels):
            for bucket in wheel:
                if not bucket:
                    continue
                kept = [slot for slot in bucket if flags[slot] == _PENDING]
                removed = len(bucket) - len(kept)
                if removed:
                    for slot in bucket:
                        if flags[slot] != _PENDING:
                            self._free_slot(slot)
                    bucket[:] = kept
                    counts[level] -= removed
                    reclaimed += removed
        self._garbage -= reclaimed
        self.reclaimed += reclaimed
        self.compactions += 1

    # -- wheel turning -------------------------------------------------

    def _collect(self, bucket: list[int]) -> None:
        """Drain one expired bucket in a single batch.

        Cancelled slots are reclaimed; survivors become ``(time, seq,
        slot)`` tuples sorted in C.  The sorted block is strictly
        larger than everything already in ``_due`` (see module
        docstring), so a plain ``extend`` keeps it a valid heap.
        """
        times = self._times
        seqs = self._seqs
        flags = self._flags
        entries = []
        append = entries.append
        for slot in bucket:
            if flags[slot] == _PENDING:
                append((times[slot], seqs[slot], slot))
            else:
                self._free_slot(slot)
                self._garbage -= 1
        self._counts[0] -= len(bucket)
        del bucket[:]
        if entries:
            entries.sort()
            self._due.extend(entries)
        self.bucket_drains += 1

    def _cascade_one(self, level: int, index: int) -> None:
        wheel = self._levels[level]
        bucket = wheel[index]
        if not bucket:
            return
        times = self._times
        seqs = self._seqs
        flags = self._flags
        moved = 0
        for slot in bucket:
            if flags[slot] == _PENDING:
                self._place(slot, times[slot], seqs[slot])
                moved += 1
            else:
                self._free_slot(slot)
                self._garbage -= 1
        self._counts[level] -= len(bucket)
        wheel[index] = []
        self.cascades += 1
        self.cascaded_timers += moved

    def _cascade(self, cur: int) -> None:
        """Refile the higher-level buckets covering ``cur`` onward.

        Mirrors the kernel's ``cascade(tv2..tv5)`` chain: each level is
        drained when the level below wraps (its slot index hits 0).
        """
        i1 = (cur >> _L1_SHIFT) & LN_MASK
        self._cascade_one(1, i1)
        if i1 == 0:
            i2 = (cur >> _L2_SHIFT) & LN_MASK
            self._cascade_one(2, i2)
            if i2 == 0:
                i3 = (cur >> _L3_SHIFT) & LN_MASK
                self._cascade_one(3, i3)
                if i3 == 0:
                    self._cascade_one(4, (cur >> _L4_SHIFT) & LN_MASK)

    def _advance(self, limit: int) -> bool:
        """Turn the wheel until an event at or before ``limit`` reaches
        ``_due``.  Returns whether the engine has anything to dispatch.

        Empty regions are skipped level-by-level: with level 0 empty the
        wheel jumps straight to the next cascade boundary of the lowest
        populated level, so idle spans cost O(levels), not O(buckets).
        """
        due = self._due
        if due:
            # _due's head is the global minimum; nothing in the wheel
            # can be earlier.
            return due[0][0] <= limit
        heappop = heapq.heappop
        target = limit >> GRAN_BITS
        counts = self._counts
        l0 = self._levels[0]
        overflow = self._overflow
        cur = self._cur
        while True:
            # Far-future events re-enter the wheel as it comes within
            # span of them.
            while overflow and (overflow[0][0] >> GRAN_BITS) < cur + WHEEL_SPAN:
                when, seq, slot = heappop(overflow)
                self._cur = cur
                if self._flags[slot] == _PENDING:
                    self._place(slot, when, seq)
                else:
                    self._free_slot(slot)
                    self._garbage -= 1
            if cur > target:
                self._cur = cur
                return False
            if not cur & L0_MASK:
                self._cur = cur
                self._cascade(cur)
            if counts[0]:
                bucket = l0[cur & L0_MASK]
                cur += 1
                self._cur = cur
                if bucket:
                    self._collect(bucket)
                    if due:
                        return due[0][0] <= limit
            else:
                # Level 0 empty: jump to the next boundary that can
                # repopulate it from the lowest populated level.
                if counts[1]:
                    cur = ((cur >> _L1_SHIFT) + 1) << _L1_SHIFT
                elif counts[2]:
                    cur = ((cur >> _L2_SHIFT) + 1) << _L2_SHIFT
                elif counts[3]:
                    cur = ((cur >> _L3_SHIFT) + 1) << _L3_SHIFT
                elif counts[4]:
                    cur = ((cur >> _L4_SHIFT) + 1) << _L4_SHIFT
                elif overflow:
                    cur = max(cur + 1,
                              (overflow[0][0] >> GRAN_BITS) - WHEEL_SPAN + 1)
                else:
                    self._cur = max(cur, target + 1)
                    return False

    # -- execution -----------------------------------------------------

    def run(self, engine, deadline: Optional[int]) -> None:
        due = self._due
        flags = self._flags
        cbs = self._cbs
        argss = self._argss
        free = self._free
        profiler = engine.profiler
        heappop = heapq.heappop
        advance = self._advance
        limit = _FOREVER if deadline is None else deadline
        while True:
            if due and due[0][0] <= limit:
                when, _seq, slot = heappop(due)
                state = flags[slot]
                flags[slot] = _FREE
                callback = cbs[slot]
                args = argss[slot]
                cbs[slot] = None
                argss[slot] = None
                free.append(slot)
                if state != _PENDING:
                    self._garbage -= 1
                    continue
                self.live -= 1
                engine.now = when
                engine.dispatched += 1
                if profiler is None:
                    callback(*args)
                else:
                    profiler.dispatch_call(when, callback, args)
            elif not advance(limit):
                return

    # -- introspection -------------------------------------------------

    def peek_next(self) -> Optional[int]:
        """Earliest pending expiry, or ``None``.

        A non-mutating column scan — O(capacity), intended for tests
        and introspection, not the dispatch path.
        """
        if self.live == 0:
            return None
        times = self._times
        best = None
        for slot, flag in enumerate(self._flags):
            if flag == _PENDING:
                when = times[slot]
                if best is None or when < best:
                    best = when
        return best

    @property
    def garbage(self) -> int:
        return self._garbage

    def queued(self) -> int:
        """Entries physically held (live + cancelled garbage)."""
        return self.live + self._garbage

    def capacity(self) -> int:
        """Allocated packed slots (high-water mark of concurrent events)."""
        return len(self._times)

    def occupancy(self) -> dict[str, int]:
        counts = self._counts
        return {
            "due": len(self._due),
            "l0": counts[0], "l1": counts[1], "l2": counts[2],
            "l3": counts[3], "l4": counts[4],
            "overflow": len(self._overflow),
        }


SchedulerLike = Union[HeapScheduler, WheelScheduler]

#: Process-wide default scheduler kind adopted by ``Engine()``.
_default = "wheel"

_KINDS: dict[str, Callable[[], SchedulerLike]] = {
    "heap": HeapScheduler,
    "wheel": WheelScheduler,
}


def default_scheduler() -> str:
    """The scheduler kind ``Engine()`` builds when none is passed."""
    return _default


def _kind_factory(spec: str) -> Callable[[], SchedulerLike]:
    factory = _KINDS.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown scheduler {spec!r}; choose from {sorted(_KINDS)}")
    return factory


def make_scheduler(
        spec: Union[str, SchedulerLike, None] = None) -> SchedulerLike:
    """Resolve ``spec`` (kind name, instance, or ``None`` for the
    process default) to a scheduler object."""
    if spec is None:
        spec = _default
    if isinstance(spec, str):
        return _kind_factory(spec)()
    return spec


@contextmanager
def use_scheduler(kind: str) -> Iterator[None]:
    """Temporarily change the default scheduler kind.

    Kernels build their engines internally, so differential tests use
    this to run a whole workload on the heap scheduler::

        with use_scheduler("heap"):
            run = run_workload("linux", "idle", seconds(30))
    """
    _kind_factory(kind)    # validate eagerly
    global _default
    previous = _default
    _default = kind
    try:
        yield
    finally:
        _default = previous
