"""Scheduler-layer tests: wheel edge cases, heap/wheel equivalence, and
bounded garbage under the TIME_WAIT mass-arm/cancel pattern."""

import random

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.clock import MILLISECOND, SECOND, HOUR
from repro.sim.sched import (GRAN_BITS, WHEEL_SPAN, WheelScheduler,
                             default_scheduler, make_scheduler,
                             use_scheduler)

BOTH = pytest.mark.parametrize("kind", ["heap", "wheel"])

#: Spans that land in every wheel level plus the overflow heap.
LEVEL_SPANS = [
    50 * MILLISECOND,            # level 0
    2 * SECOND,                  # level 1
    5 * 60 * SECOND,             # level 2
    4 * HOUR,                    # level 3
    40 * 24 * HOUR,              # level 4
    80 * 24 * HOUR,              # overflow (beyond the ~52-day span)
]


# -- selection and defaults ------------------------------------------------

def test_default_is_wheel():
    assert default_scheduler() == "wheel"
    assert Engine().scheduler.kind == "wheel"


def test_explicit_selection():
    assert Engine(scheduler="heap").scheduler.kind == "heap"
    assert Engine(scheduler="wheel").scheduler.kind == "wheel"
    sched = WheelScheduler()
    assert Engine(scheduler=sched).scheduler is sched


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        Engine(scheduler="splay-tree")
    with pytest.raises(ValueError):
        make_scheduler("calendar")
    with pytest.raises(ValueError):
        make_scheduler("sharded:2")


def test_use_scheduler_scopes_the_default():
    with use_scheduler("heap"):
        assert Engine().scheduler.kind == "heap"
        with use_scheduler("wheel"):
            assert Engine().scheduler.kind == "wheel"
        assert Engine().scheduler.kind == "heap"
    assert Engine().scheduler.kind == "wheel"
    with pytest.raises(ValueError):
        with use_scheduler("nope"):
            pass


# -- edge cases under both schedulers --------------------------------------

@BOTH
def test_schedule_at_now_runs_before_time_advances(kind):
    engine = Engine(scheduler=kind)
    engine.run_until(SECOND)
    order = []
    engine.call_at(engine.now, lambda: order.append(engine.now))
    engine.call_after(0, lambda: order.append(engine.now))
    engine.run_until(SECOND + 1)
    assert order == [SECOND, SECOND]


@BOTH
def test_schedule_at_now_during_dispatch(kind):
    """A callback scheduling for the current instant runs this turn —
    on the wheel this exercises the already-expired-bucket path."""
    engine = Engine(scheduler=kind)
    order = []

    def first():
        order.append("first")
        engine.call_at(engine.now, lambda: order.append("nested"))

    engine.call_at(5 * MILLISECOND, first)
    engine.call_at(5 * MILLISECOND, lambda: order.append("second"))
    engine.run()
    assert order == ["first", "second", "nested"]


@BOTH
def test_schedule_in_past_raises(kind):
    engine = Engine(scheduler=kind)
    engine.call_at(100, lambda: None)
    engine.run_until(200)
    with pytest.raises(SimulationError):
        engine.call_at(150, lambda: None)


@BOTH
def test_same_tick_preserves_seq_order(kind):
    engine = Engine(scheduler=kind)
    order = []
    when = 7 * MILLISECOND
    for i in range(20):
        engine.call_at(when, order.append, i)
    engine.run()
    assert order == list(range(20))


@BOTH
def test_cancel_during_dispatch(kind):
    """An event cancelled by an earlier same-tick callback must not
    fire, even though it is already sitting in the due queue."""
    engine = Engine(scheduler=kind)
    fired = []
    victim = engine.call_at(100, lambda: fired.append("victim"))
    # Scheduled earlier (lower seq would be dispatched first at the
    # same instant) — rearrange: the canceller needs seq < victim.
    engine.run()
    assert fired == ["victim"]

    engine = Engine(scheduler=kind)
    fired = []
    holder = {}
    engine.call_at(100, lambda: holder["victim"].cancel())
    holder["victim"] = engine.call_at(100, lambda: fired.append("no"))
    engine.call_at(100, lambda: fired.append("after"))
    engine.run()
    assert fired == ["after"]
    assert engine.pending_count() == 0


@BOTH
def test_cancel_after_dispatch_is_noop(kind):
    engine = Engine(scheduler=kind)
    handle = engine.call_at(100, lambda: None)
    # Reuse pressure: the wheel recycles the slot for the next event.
    engine.run()
    fired = []
    engine.call_at(200, lambda: fired.append("keep"))
    handle.cancel()                    # stale handle, slot may be reused
    handle.cancel()                    # idempotent
    engine.run()
    assert fired == ["keep"]


@BOTH
def test_peek_next_across_cascade_boundaries(kind):
    """peek_next must see the earliest pending event wherever it lives:
    due queue, any wheel level, or the far-future overflow heap."""
    engine = Engine(scheduler=kind)
    spans = sorted(LEVEL_SPANS, reverse=True)
    for span in spans:
        engine.call_at(span, lambda: None)
        assert engine.peek_next() == span
    # Dispatch level by level; peek tracks the new minimum each time.
    for i, span in enumerate(sorted(LEVEL_SPANS)):
        assert engine.peek_next() == span
        engine.run_until(span)
        remaining = sorted(LEVEL_SPANS)[i + 1:]
        assert engine.peek_next() == (remaining[0] if remaining else None)


@BOTH
def test_events_in_every_level_dispatch_in_order(kind):
    engine = Engine(scheduler=kind)
    fired = []
    for span in random.Random(1).sample(LEVEL_SPANS, len(LEVEL_SPANS)):
        engine.call_at(span, fired.append, span)
    engine.run()
    assert fired == sorted(LEVEL_SPANS)
    assert engine.now == max(LEVEL_SPANS)


@BOTH
def test_run_until_deadline_inside_empty_span(kind):
    engine = Engine(scheduler=kind)
    fired = []
    engine.call_at(10 * MILLISECOND, fired.append, "early")
    engine.call_at(2 * HOUR, fired.append, "late")
    engine.run_until(HOUR)
    assert fired == ["early"]
    assert engine.now == HOUR
    engine.run_until(3 * HOUR)
    assert fired == ["early", "late"]


def test_wheel_cascades_and_drains_are_counted():
    engine = Engine(scheduler="wheel")
    sched = engine.scheduler
    for span in LEVEL_SPANS[:-1]:
        engine.call_at(span, lambda: None)
    engine.run()
    assert sched.cascades > 0
    assert sched.cascaded_timers >= 3   # levels 1-3 refile downwards
    assert sched.bucket_drains > 0
    assert sched.live == 0


def test_wheel_occupancy_levels():
    engine = Engine(scheduler="wheel")
    for span in LEVEL_SPANS:
        engine.call_at(span, lambda: None)
    occ = engine.scheduler.occupancy()
    assert occ["l0"] == 1 and occ["l1"] == 1 and occ["l2"] == 1
    assert occ["l3"] == 1 and occ["l4"] == 1 and occ["overflow"] == 1
    engine.run()
    occ = engine.scheduler.occupancy()
    assert sum(occ.values()) == 0


def test_overflow_beyond_wheel_span():
    engine = Engine(scheduler="wheel")
    fired = []
    far = (WHEEL_SPAN + 17) << GRAN_BITS
    engine.call_at(far, fired.append, "far")
    engine.call_at(100, fired.append, "near")
    assert engine.scheduler.occupancy()["overflow"] == 1
    engine.run()
    assert fired == ["near", "far"]
    assert engine.now == far


# -- heap/wheel differential -----------------------------------------------

def _random_workout(kind, seed, ops=4000):
    """Random schedule/cancel/run churn; returns the dispatch log."""
    rng = random.Random(seed)
    engine = Engine(scheduler=kind)
    log = []
    live = []
    ident = [0]

    def fire(tag):
        log.append((engine.now, tag))
        # Callbacks reschedule and cancel, exercising dispatch-time
        # mutation on both schedulers.
        if rng.random() < 0.4:
            schedule()
        if live and rng.random() < 0.3:
            live.pop(rng.randrange(len(live))).cancel()

    def schedule():
        ident[0] += 1
        delay = rng.choice((
            0,
            rng.randrange(1, MILLISECOND),
            rng.randrange(1, 100 * MILLISECOND),
            rng.randrange(1, 10 * SECOND),
            rng.randrange(1, 24 * HOUR),
            rng.randrange(1, 100 * 24 * HOUR),
        ))
        live.append(engine.call_after(delay, fire, ident[0]))

    for _ in range(ops):
        action = rng.random()
        if action < 0.70:
            schedule()
        elif action < 0.85 and live:
            live.pop(rng.randrange(len(live))).cancel()
        else:
            engine.run_until(engine.now + rng.randrange(1, 10 * SECOND))
    engine.run()
    log.append(("pending", engine.pending_count()))
    log.append(("dispatched", engine.dispatched))
    log.append(("peak", engine.peak_pending))
    return log


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heap_and_wheel_dispatch_identically(seed):
    # Identical rng seeds drive identical op sequences; the dispatch
    # logs (time, id, order) must match event for event.
    assert (_random_workout("heap", seed)
            == _random_workout("wheel", seed))


# -- wheel edge cases: slot reuse, overflow refeed ---------------------------

def test_cancel_all_compaction_then_rearm_reuses_slots():
    """Cancel a whole batch, force a compaction sweep, then re-arm into
    the same buckets: the recycled slots must serve the new events, and
    the stale handles' generation tags must not cancel them."""
    engine = Engine(scheduler="wheel")
    sched = engine.scheduler
    sched.compact_threshold = 64
    batch = 1_000
    when = 10 * MILLISECOND
    stale = [engine.call_at(when + i, lambda: None) for i in range(batch)]
    for handle in stale:
        handle.cancel()
    assert sched.compactions > 0
    assert sched.live == 0
    fired = []
    for i in range(batch):
        engine.call_at(when + i, fired.append, i)
    # Storage is recycled: the second batch fits in the first one's
    # slots instead of doubling the packed columns.
    assert sched.capacity() <= batch + sched.compact_threshold * 2
    for handle in stale:
        handle.cancel()          # stale generation: must be a no-op
    engine.run()
    assert fired == list(range(batch))
    assert sched.live == 0
    assert engine.pending_count() == 0


def test_overflow_refeed_at_top_level_wrap():
    """Events beyond the ~52-day span wait in the overflow heap; as the
    cursor turns they re-enter the wheel at the top level and cascade
    down through every level to fire in exact global order."""
    engine = Engine(scheduler="wheel")
    sched = engine.scheduler
    fired = []
    far = [(WHEEL_SPAN + off) << GRAN_BITS for off in (17, 3, 900)]
    for when in far:
        engine.call_at(when, fired.append, when)
    engine.call_at(5 * MILLISECOND, fired.append, 5 * MILLISECOND)
    assert sched.occupancy()["overflow"] == len(far)
    # Advance past the near event: the wheel jumps towards the overflow
    # head and re-feeds everything that is now within span.
    engine.run_until(1000 << GRAN_BITS)
    assert fired == [5 * MILLISECOND]
    occ = sched.occupancy()
    assert occ["overflow"] == 0
    assert sum(occ.values()) == len(far)
    engine.run()
    assert fired == sorted(far + [5 * MILLISECOND])
    assert engine.now == max(far)
    # Reaching the far events required cascading down from the top.
    assert sched.cascades > 0
    assert sched.cascaded_timers >= len(far)
    assert sum(sched.occupancy().values()) == 0


# -- bounded garbage (TIME_WAIT pattern) -----------------------------------

@BOTH
def test_mass_arm_cancel_does_not_grow_memory(kind):
    """Arm tens of thousands of far-future timers, cancel nearly all
    (the TIME_WAIT reaper pattern), repeatedly: storage must stay
    bounded by the live population, not the cumulative arm count."""
    engine = Engine(scheduler=kind)
    sched = engine.scheduler
    batch, rounds = 5_000, 12
    for r in range(rounds):
        handles = [engine.call_at(HOUR + r * SECOND + i, lambda: None)
                   for i in range(batch)]
        for handle in handles:
            handle.cancel()
    assert engine.pending_count() == 0
    # Compaction must have reclaimed cancelled entries: far fewer
    # queued than the 60k cumulatively armed.
    assert sched.compactions > 0
    assert sched.reclaimed > (rounds - 2) * batch
    slack = sched.compact_threshold * 2
    assert sched.queued() <= slack + batch
    if kind == "heap":
        assert len(sched._heap) <= slack + batch
    else:
        # Packed columns are recycled through the free list, so the
        # high-water mark is one batch, not rounds * batch.
        assert sched.capacity() <= batch + slack


@BOTH
def test_cancelled_backlog_does_not_block_run(kind):
    """run() with only cancelled garbage left terminates quickly."""
    engine = Engine(scheduler=kind)
    handles = [engine.call_at(40 * 24 * HOUR + i, lambda: None)
               for i in range(100)]
    fired = []
    engine.call_at(100, fired.append, "real")
    for handle in handles:
        handle.cancel()
    engine.run()
    assert fired == ["real"]
    assert engine.pending_count() == 0
