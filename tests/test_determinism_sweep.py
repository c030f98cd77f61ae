"""Determinism sweep: every backend x portable workload, re-run at many
seeds, must reproduce byte-identical traces and equal metrics.

The simulator's whole methodology rests on runs being pure functions of
``(backend, workload, duration, seed)`` — the parallel study driver,
the streaming/batch equivalence and the metrics battery all assume it.
This sweep pins that property across the OS-neutral workload matrix,
including the observability layer itself: collection must not perturb
the simulation, and two runs of one seed must produce equal
``MetricsSnapshot``s (volatile wall-clock series are excluded from
snapshot equality by design).
"""

import random

import pytest

from repro.kern import backend_names
from repro.sim.clock import SECOND
from repro.tracing import trace_to_bytes
from repro.workloads.portable import PORTABLE_WORKLOADS, run_portable

#: 20 seeds drawn once, deterministically, from a wide range.
SEEDS = random.Random(0xD5).sample(range(1_000_000), 20)

DURATION_NS = 2 * SECOND

MATRIX = [(os_name, workload) for os_name in backend_names()
          for workload in sorted(PORTABLE_WORKLOADS)]


def _ids(pair):
    return f"{pair[0]}-{pair[1]}"


@pytest.mark.parametrize("combo", MATRIX, ids=_ids)
def test_trace_and_metrics_reproducible(combo):
    os_name, workload = combo
    for seed in SEEDS:
        first = run_portable(workload, os_name, DURATION_NS, seed=seed)
        second = run_portable(workload, os_name, DURATION_NS, seed=seed)
        blob_a = trace_to_bytes(first.trace, format="binfmt")
        blob_b = trace_to_bytes(second.trace, format="binfmt")
        assert blob_a == blob_b, \
            f"{os_name}/{workload} seed {seed}: trace bytes diverged"
        snap_a, snap_b = first.metrics(), second.metrics()
        assert snap_a == snap_b, \
            f"{os_name}/{workload} seed {seed}: metrics diverged"
        # Wall-clock series exist but are excluded from equality.
        assert snap_a.get("repro_engine_wall_seconds", os=os_name,
                          workload=workload) > 0


@pytest.mark.parametrize("combo", MATRIX, ids=_ids)
def test_seeds_actually_differ(combo):
    """Different seeds must change the trace — otherwise the sweep
    above would be vacuously comparing one canned run."""
    os_name, workload = combo
    blobs = {trace_to_bytes(run_portable(workload, os_name, DURATION_NS,
                                         seed=seed).trace,
                            format="binfmt")
             for seed in SEEDS[:4]}
    assert len(blobs) == 4


def test_collection_is_observation_only():
    """A run whose metrics were collected mid-flight stays on the same
    trajectory as an untouched one."""
    os_name, workload = MATRIX[0]
    plain = run_portable(workload, os_name, DURATION_NS, seed=SEEDS[0])
    observed = run_portable(workload, os_name, DURATION_NS,
                            seed=SEEDS[0])
    observed.metrics()
    observed.metrics()                 # twice, for good measure
    assert (trace_to_bytes(plain.trace, format="binfmt")
            == trace_to_bytes(observed.trace, format="binfmt"))
    assert plain.metrics() == observed.metrics()
