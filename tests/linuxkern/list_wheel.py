"""Reference oracle: the Linux timer wheel with list buckets.

This is ``repro.linuxkern.wheel`` as it was before its buckets became
insertion-ordered dicts, kept verbatim (less the unused
``next_expiry``) so that the order tests can compare the two.  Each
bucket is a plain list: ``remove`` scans it and ``run_timers`` drains
it with ``pop(0)``, so its firing order within a jiffy is FIFO by
construction, at O(n) per removal.  Not for use outside tests.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

TVN_BITS = 6
TVR_BITS = 8
TVN_SIZE = 1 << TVN_BITS      # 64
TVR_SIZE = 1 << TVR_BITS      # 256
TVN_MASK = TVN_SIZE - 1
TVR_MASK = TVR_SIZE - 1

#: Longest relative timeout representable without clamping (jiffies).
MAX_TVAL = (1 << (TVR_BITS + 4 * TVN_BITS)) - 1


class WheelTimer:
    """State a timer needs for wheel membership (``struct timer_list``)."""

    __slots__ = ("expires", "_bucket")

    def __init__(self) -> None:
        self.expires: int = 0                 # absolute jiffy
        self._bucket: Optional[list] = None   # bucket list while pending

    @property
    def pending(self) -> bool:
        """Equivalent of ``timer_pending()``: enqueued in some bucket."""
        return self._bucket is not None


class TimerWheel:
    """One ``tvec_base``: the five-level cascading wheel."""

    def __init__(self, now_jiffies: int = 0):
        #: Next jiffy to be processed by :meth:`run_timers`.
        self.timer_jiffies = now_jiffies
        self.tv1: list[list[WheelTimer]] = [[] for _ in range(TVR_SIZE)]
        self.tvn: list[list[list[WheelTimer]]] = [
            [[] for _ in range(TVN_SIZE)] for _ in range(4)]
        self.pending_count = 0
        #: Cascade statistics for the wheel-vs-heap benchmark.
        self.cascades = 0
        self.cascaded_timers = 0

    # -- internal placement (internal_add_timer) -------------------------

    def _bucket_for(self, expires: int) -> list[WheelTimer]:
        idx = expires - self.timer_jiffies
        if idx < 0:
            # Timer already expired: fire on the next processed jiffy.
            return self.tv1[self.timer_jiffies & TVR_MASK]
        if idx < TVR_SIZE:
            return self.tv1[expires & TVR_MASK]
        for level in range(4):
            shift = TVR_BITS + (level + 1) * TVN_BITS
            if idx < (1 << shift):
                slot = (expires >> (shift - TVN_BITS)) & TVN_MASK
                return self.tvn[level][slot]
        # Clamp very long timeouts, as the kernel does.
        expires = self.timer_jiffies + MAX_TVAL
        slot = (expires >> (TVR_BITS + 3 * TVN_BITS)) & TVN_MASK
        return self.tvn[3][slot]

    # -- public API -------------------------------------------------------

    def add(self, timer: WheelTimer, expires: int) -> None:
        """Enqueue ``timer`` to fire at absolute jiffy ``expires``."""
        if timer._bucket is not None:
            raise ValueError("timer is already pending")
        timer.expires = expires
        bucket = self._bucket_for(expires)
        bucket.append(timer)
        timer._bucket = bucket
        self.pending_count += 1

    def remove(self, timer: WheelTimer) -> bool:
        """Dequeue ``timer`` if pending; returns whether it was pending."""
        bucket = timer._bucket
        if bucket is None:
            return False
        bucket.remove(timer)
        timer._bucket = None
        self.pending_count -= 1
        return True

    def _cascade(self, level: int, slot: int) -> None:
        """Move one higher-level bucket's timers down (``cascade()``)."""
        bucket = self.tvn[level][slot]
        if not bucket:
            return
        self.cascades += 1
        moved = bucket[:]
        bucket.clear()
        for timer in moved:
            timer._bucket = None
            self.pending_count -= 1
            self.add(timer, timer.expires)
            self.cascaded_timers += 1

    def run_timers(self, now_jiffies: int,
                   fire: Callable[[WheelTimer], None]) -> int:
        """Process all jiffies up to and including ``now_jiffies``.

        ``fire`` is invoked for each expired timer *after* it has been
        dequeued, matching ``__run_timers`` (the callback may re-add the
        timer).  Returns the number of timers fired.
        """
        fired = 0
        while self.timer_jiffies <= now_jiffies:
            index = self.timer_jiffies & TVR_MASK
            if index == 0:
                # tv1 wrapped: cascade tv2, and higher levels as their
                # own indices wrap in turn.
                for level in range(4):
                    shift = TVR_BITS + level * TVN_BITS
                    slot = (self.timer_jiffies >> shift) & TVN_MASK
                    self._cascade(level, slot)
                    if slot != 0:
                        break
            bucket = self.tv1[index]
            while bucket:
                timer = bucket.pop(0)
                timer._bucket = None
                self.pending_count -= 1
                fired += 1
                fire(timer)
            self.timer_jiffies += 1
        return fired

    def occupancy(self) -> tuple[int, ...]:
        """Pending timers per wheel level, ``(tv1, tv2, .., tv5)``.

        The per-tv occupancy figure from the paper's wheel discussion:
        how much of the pending population sits in the fine-grained
        front wheel versus the coarse cascade levels.
        """
        counts = [sum(len(bucket) for bucket in self.tv1)]
        counts.extend(sum(len(bucket) for bucket in level)
                      for level in self.tvn)
        return tuple(counts)

    def all_pending(self) -> Iterator[WheelTimer]:
        for bucket in self.tv1:
            yield from bucket
        for level in self.tvn:
            for bucket in level:
                yield from bucket
