"""Garbage-collector policy for bulk allocation of long-lived objects.

The engine loop (:mod:`repro.sim.engine`) and bulk trace hydration
(:mod:`repro.tracing.binfmt2`) both allocate objects that live for the
rest of the run: timers and bound callbacks in one, event records in
the other.  CPython starts a full (generation-2) collection each time
the long-lived heap grows by a quarter, so such a phase walks a heap
that holds almost no garbage, again and again.  Both phases run under
:func:`young_gc_only` instead.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["NO_FULL_GC", "young_gc_only"]

#: Third ``gc`` threshold inside :func:`young_gc_only`: high enough that
#: no full collection starts (it is a C ``int``).
NO_FULL_GC = 2**31 - 1


@contextmanager
def young_gc_only() -> Iterator[None]:
    """Run the body with generations 0 and 1 collecting as usual but no
    full (generation-2) collection; restore the caller's thresholds,
    also when the body raises.

    Short-lived cycles still die in the young generations.  Nothing is
    frozen and nothing changes once the body is left: a collection the
    body skipped may run later, in the caller.
    """
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], NO_FULL_GC)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
