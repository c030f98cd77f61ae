"""Scheduler differential: every registered backend x portable
workload must produce byte-identical traces on both engine schedulers
— the reference heap and the timing wheel.

This is the proof obligation for the scheduler layer: the wheel
reorders nothing.  Kernels build their engines internally, so the
schedulers are forced through :func:`repro.sim.use_scheduler`.
"""

import pytest

from repro.kern import backend_names
from repro.sim import use_scheduler
from repro.sim.clock import SECOND
from repro.tracing.formats import trace_to_bytes
from repro.workloads.portable import PORTABLE_WORKLOADS, run_portable

DURATION_NS = 2 * SECOND
SEED = 20080430

MATRIX = [(os_name, workload) for os_name in backend_names()
          for workload in sorted(PORTABLE_WORKLOADS)]


def trace_bytes(kind, os_name, workload):
    with use_scheduler(kind):
        run = run_portable(workload, os_name, DURATION_NS, seed=SEED)
    return trace_to_bytes(run.trace)


@pytest.mark.parametrize("combo", MATRIX,
                         ids=lambda pair: f"{pair[0]}-{pair[1]}")
def test_wheel_matches_heap_trace_bytes(combo):
    os_name, workload = combo
    assert trace_bytes("wheel", os_name, workload) == \
        trace_bytes("heap", os_name, workload), \
        f"{os_name}/{workload}: wheel diverged from heap"
