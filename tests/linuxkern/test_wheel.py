"""Tests for the cascading timer wheel, including hypothesis properties."""

import heapq
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linuxkern import wheel as wheel_module
from repro.linuxkern.wheel import MAX_TVAL, TimerWheel, WheelTimer

from . import list_wheel


def collect_firings(wheel, upto):
    fired = []
    wheel.run_timers(upto, lambda t: fired.append((wheel.timer_jiffies,
                                                   t.expires)))
    return fired


class TestBasics:
    def test_add_and_fire_at_expiry(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        wheel.add(timer, 10)
        fired = collect_firings(wheel, 20)
        assert fired == [(10, 10)]
        assert not timer.pending

    def test_fire_order_across_slots(self):
        wheel = TimerWheel()
        timers = [WheelTimer() for _ in range(5)]
        for i, timer in enumerate(timers):
            wheel.add(timer, 5 * (i + 1))
        fired = collect_firings(wheel, 100)
        assert [f[1] for f in fired] == [5, 10, 15, 20, 25]

    def test_remove_pending(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        wheel.add(timer, 10)
        assert wheel.remove(timer) is True
        assert wheel.remove(timer) is False
        assert collect_firings(wheel, 50) == []

    def test_double_add_rejected(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        wheel.add(timer, 10)
        with pytest.raises(ValueError):
            wheel.add(timer, 20)

    def test_past_expiry_fires_next_processed_jiffy(self):
        wheel = TimerWheel()
        wheel.run_timers(100, lambda t: None)
        timer = WheelTimer()
        wheel.add(timer, 50)       # already in the past
        fired = collect_firings(wheel, 101)
        assert len(fired) == 1

    def test_callback_may_rearm(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        count = []

        def periodic(t):
            count.append(wheel.timer_jiffies)
            if len(count) < 3:
                wheel.add(t, t.expires + 10)

        wheel.add(timer, 10)
        wheel.run_timers(100, periodic)
        assert count == [10, 20, 30]

    def test_pending_count_tracks(self):
        wheel = TimerWheel()
        timers = [WheelTimer() for _ in range(10)]
        for i, timer in enumerate(timers):
            wheel.add(timer, 1000 + i * 300)
        assert wheel.pending_count == 10
        wheel.remove(timers[0])
        assert wheel.pending_count == 9


class TestCascading:
    def test_long_timeout_lands_in_higher_level_and_fires(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        wheel.add(timer, 300)      # beyond tv1 (256)
        assert any(timer in bucket for bucket in wheel.tvn[0])
        fired = collect_firings(wheel, 400)
        assert fired == [(300, 300)]
        assert wheel.cascades > 0

    def test_very_long_timeout_fires_exactly(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        expires = 256 * 64 + 12345   # tv3 territory
        wheel.add(timer, expires)
        fired = collect_firings(wheel, expires + 1)
        assert fired == [(expires, expires)]

    def test_clamping_of_huge_timeout(self):
        wheel = TimerWheel()
        timer = WheelTimer()
        wheel.add(timer, MAX_TVAL * 3)
        assert timer.pending   # parked at the wheel horizon


class TestAgainstReferenceHeap:
    """The wheel must fire the same timers at the same jiffies as a
    straightforward priority queue (the correctness oracle)."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000),     # arm at jiffy
                              st.integers(1, 20000)),   # relative delay
                    min_size=1, max_size=60))
    def test_same_firing_schedule(self, arms):
        arms = sorted(arms)
        wheel = TimerWheel()
        fired = []

        horizon = max(at + delay for at, delay in arms) + 2
        by_arm_time: dict[int, list] = {}
        for index, (at, delay) in enumerate(arms):
            by_arm_time.setdefault(at, []).append((index, at + delay))

        timers = {}
        for jiffy in range(horizon + 1):
            for index, expires in by_arm_time.get(jiffy, []):
                timer = WheelTimer()
                timers[id(timer)] = index
                wheel.add(timer, expires)
            wheel.run_timers(jiffy, lambda t: fired.append(
                (wheel.timer_jiffies, timers[id(t)])))

        # Every timer fires exactly once...
        assert sorted(idx for _, idx in fired) == list(range(len(arms)))
        # ...at exactly its expiry jiffy (never early, never late).
        for jiffy, idx in fired:
            at, delay = arms[idx]
            assert jiffy == at + delay


class Boom(Exception):
    """Raised by a timer callback in the differential below."""


class OrderHarness:
    """One wheel, its timers and the firing log, driven by op lists.

    ``actions`` gives some timers a callback behaviour: re-arm itself
    ``delta`` jiffies after the jiffy being processed, remove another
    timer, move another timer to ``delta`` jiffies after the jiffy
    being processed, or raise.  A timer re-arms or moves at most twice,
    so a re-arm to the current jiffy cannot loop.
    """

    def __init__(self, module, n_timers, actions):
        self.wheel = module.TimerWheel()
        timer_cls = type("IndexedTimer", (module.WheelTimer,), {})
        self.timers = [timer_cls() for _ in range(n_timers)]
        for index, timer in enumerate(self.timers):
            timer.index = index
        self.actions = actions
        self.rearms_left = {index: 2 for index in actions}
        self.log = []

    def fire(self, timer):
        wheel = self.wheel
        self.log.append((wheel.timer_jiffies, timer.index))
        kind, arg = self.actions.get(timer.index, ("none", None))
        if kind == "rearm" and self.rearms_left[timer.index] > 0:
            self.rearms_left[timer.index] -= 1
            wheel.add(timer, wheel.timer_jiffies + arg)
        elif kind == "remove":
            wheel.remove(self.timers[arg])
        elif kind == "mod" and self.rearms_left[timer.index] > 0:
            # mod_timer on another timer: dequeue it, re-add it.
            self.rearms_left[timer.index] -= 1
            other, delta = arg
            wheel.remove(self.timers[other])
            wheel.add(self.timers[other], wheel.timer_jiffies + delta)
        elif kind == "raise":
            raise Boom(timer.index)

    def apply(self, op):
        kind, index, amount = op
        wheel = self.wheel
        if kind in ("add", "burst"):
            chosen = self.timers if kind == "burst" else [self.timers[index]]
            for timer in chosen:
                if not timer.pending:
                    wheel.add(timer, wheel.timer_jiffies + amount)
        elif kind == "remove":
            self.log.append(("removed", index,
                             wheel.remove(self.timers[index])))
        else:
            try:
                wheel.run_timers(wheel.timer_jiffies - 1 + amount, self.fire)
            except Boom as exc:
                self.log.append(("raised", exc.args[0]))

    def state(self):
        wheel = self.wheel
        return (wheel.timer_jiffies, wheel.pending_count, wheel.occupancy(),
                [timer.index for timer in wheel.all_pending()],
                [timer.pending for timer in self.timers], len(self.log))


N_ORDER_TIMERS = 5
# Delays cluster on a few values so that timers share jiffies and
# buckets, including across the tv1/tv2 (256) and tv2/tv3 (16384) level
# boundaries; negative ones are already expired; the last is beyond
# MAX_TVAL and gets clamped.  A "burst" adds every idle timer with one
# delay, in index order.
_shared_delays = st.sampled_from([0, 3, 3, 300, 300, 16400])
_delays = st.one_of(_shared_delays, _shared_delays, _shared_delays,
                    st.integers(-5, 20000), st.just(MAX_TVAL + 7))
_index = st.integers(0, N_ORDER_TIMERS - 1)
_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _index, _delays),
    st.tuples(st.just("burst"), st.just(0), _delays),
    st.tuples(st.just("remove"), _index, st.just(0)),
    st.tuples(st.just("run"), st.just(0),
              st.one_of(st.sampled_from([1, 4, 301, 16401]),
                        st.integers(0, 300)))),
    min_size=1, max_size=40)
_rearm_deltas = st.sampled_from([-2, 0, 1, 300])
_actions = st.lists(st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("rearm"), _rearm_deltas),
    st.tuples(st.just("remove"), _index),
    st.tuples(st.just("mod"), st.tuples(_index, _rearm_deltas)),
    st.tuples(st.just("raise"), st.none())),
    min_size=N_ORDER_TIMERS, max_size=N_ORDER_TIMERS).map(
        lambda kinds: dict(enumerate(kinds)))


class TestAgainstListWheel:
    """Exact-order differential against the list-bucket wheel.

    ``tests/linuxkern/list_wheel.py`` is the wheel as it was with list
    buckets, whose FIFO order within a jiffy is what the kernel's
    ``list_head`` buckets give.  The dict-bucket wheel must fire the
    same timers in the same order at the same jiffies, and agree on
    every count, after every op: adds (past, near, cascading, clamped),
    removes, and callbacks that re-arm, remove a later timer of the
    same jiffy, or raise.
    """

    @settings(max_examples=400, deadline=None)
    @given(_ops, _actions)
    def test_same_firing_sequence(self, ops, actions):
        dict_run = OrderHarness(wheel_module, N_ORDER_TIMERS, actions)
        list_run = OrderHarness(list_wheel, N_ORDER_TIMERS, actions)
        for op in ops:
            dict_run.apply(op)
            list_run.apply(op)
            assert dict_run.log == list_run.log
            assert dict_run.state() == list_run.state()

    def test_callback_removes_later_timer_of_same_jiffy(self):
        actions = {0: ("remove", 2), 1: ("rearm", 0)}
        ops = [("add", i, 4) for i in range(4)] + [("run", 0, 10)]
        runs = [OrderHarness(module, 4, actions)
                for module in (wheel_module, list_wheel)]
        for run in runs:
            for op in ops:
                run.apply(op)
        assert runs[0].log == runs[1].log == [
            (4, 0), (4, 1), (4, 3), (4, 1), (4, 1)]


def counting_timer_class(module, counter):
    """A timer class whose equality tests add to ``counter[0]``; a list
    bucket's ``remove`` makes one against every timer ahead of the one
    it removes."""

    def __eq__(self, other):
        counter[0] += 1
        return self is other

    return type("CountingTimer", (module.WheelTimer,),
                {"__eq__": __eq__, "__hash__": object.__hash__})


class TestDrain:
    def test_raising_callback_leaves_rest_of_jiffy_pending(self):
        wheel = TimerWheel()
        timers = [WheelTimer() for _ in range(4)]
        late = WheelTimer()
        names = {id(t): name for t, name in zip(timers + [late], "abcde")}
        fired = []

        def fire(timer):
            fired.append(names[id(timer)])
            if timer is timers[0]:
                wheel.add(late, wheel.timer_jiffies)   # same jiffy
            if timer is timers[1]:
                raise Boom("b")

        for timer in timers:
            wheel.add(timer, 10)
        with pytest.raises(Boom):
            wheel.run_timers(10, fire)
        assert fired == ["a", "b"]
        assert [t.pending for t in timers] == [False, False, True, True]
        assert late.pending and wheel.pending_count == 3
        assert wheel.occupancy()[0] == 3
        assert wheel.run_timers(10, fire) == 3
        assert fired == ["a", "b", "c", "d", "e"]
        assert wheel.pending_count == 0

    def test_large_single_jiffy_bucket_drains_once_each(self):
        wheel = TimerWheel()
        timers = [WheelTimer() for _ in range(50_000)]
        for timer in timers:
            wheel.add(timer, 7)
        fired = []
        start = time.perf_counter()
        assert wheel.run_timers(7, fired.append) == len(timers)
        elapsed = time.perf_counter() - start
        assert fired == timers
        assert wheel.pending_count == 0
        # The drain takes ~0.01 s on a 2-vCPU VM; popping the first key
        # of a dict per timer, which rescans the deleted ones, takes ~1 s.
        assert elapsed < 0.25

    def test_remove_from_huge_tv4_bucket_compares_no_timers(self):
        # 100k expiries in [2**21, 2**21 + 100k) share one tv4 slot, as
        # the serverfarm's 7200 s keepalives do.
        n = 100_000
        for module, expected in ((wheel_module, 0), (list_wheel, n - 1)):
            compares = [0]
            timer_cls = counting_timer_class(module, compares)
            wheel = module.TimerWheel()
            timers = [timer_cls() for _ in range(n)]
            for i, timer in enumerate(timers):
                wheel.add(timer, 2**21 + i)
            assert wheel.occupancy()[3] == n
            compares[0] = 0
            wheel.remove(timers[-1])      # the newest: a list scans all
            assert compares[0] == expected, module.__name__
