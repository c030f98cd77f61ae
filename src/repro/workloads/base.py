"""Workload harness: running machines, bundling traces, study driver.

The paper's four workloads (Idle, Skype, Firefox, Webserver) each ran
for exactly 30 minutes on both systems.  Runs here default to a shorter
window (the event streams scale linearly; see EXPERIMENTS.md) and can
be run at full paper length with ``duration_ns=PAPER_DURATION_NS``.

The machine harness itself lives in :mod:`repro.kern`: one generic
:class:`~repro.kern.machine.Machine` resolves any registered backend
(the old per-OS machine pair is gone).  This
module keeps the names importable from their historical home and adds
the parallel study driver.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Iterable, Optional, Sequence, Tuple

from ..kern.machine import (DEFAULT_DURATION_NS, PAPER_DURATION_NS,
                            Machine, WorkloadRun)

__all__ = [
    "DEFAULT_DURATION_NS", "PAPER_DURATION_NS", "Machine", "TraceJob",
    "WorkloadRun", "run_cluster_workload", "run_study_traces",
]


def run_cluster_workload(os_name, workload: str, duration_ns=None, *,
                         hosts: int, cpus: int = 1, seed: int = 0,
                         sinks=None, retain_events: bool = True):
    """Run a registered scene on an N-host cluster sharing one clock.

    The multi-host counterpart of :func:`repro.workloads.run_workload`:
    ``workload`` must be a *scene* (``idle``, ``webserver``,
    ``serverfarm`` — the baselines that build from a machine), because
    a cluster assembles the same scene on every host; scripted per-OS
    runners like ``skype``/``firefox`` drive one machine imperatively
    and have no cluster form.  ``os_name`` may also be a sequence of
    backend names, one per host, for a mixed fleet.

    Returns a :class:`repro.kern.cluster.ClusterRun` whose ``trace``
    is the merged multi-host timeline (every event stamped with
    ``host``/``cpu``).
    """
    from ..kern.cluster import Cluster
    from ..kern.registry import scene_names
    names = [os_name] * hosts if isinstance(os_name, str) else list(os_name)
    for name in names:
        scenes = scene_names(name)
        if workload not in scenes:
            raise KeyError(
                f"workload {workload!r} has no cluster form on "
                f"{name!r}; multi-host runs need a registered scene: "
                f"{sorted(scenes)}")
    cluster = Cluster(names, seed=seed, cpus=cpus, sinks=sinks,
                      retain_events=retain_events)
    cluster.scene(workload)
    if duration_ns is None:
        duration_ns = DEFAULT_DURATION_NS
    return cluster.finish(workload, duration_ns)


# -- parallel study driver ----------------------------------------------
#
# One study is eight-plus independent simulations; each is
# deterministic in (os, workload, duration, seed), so they parallelise
# perfectly.  Workers return the trace as compact columnar v2 bytes
# (the relayfs trick again: fixed-stride binary columns cross the
# process boundary, text rendering stays in the parent), which keeps
# results byte-identical to a serial run.

#: One simulation request: (os_name, workload, duration_ns, seed).
#: ``duration_ns=None`` uses the workload's own default length (the
#: Figure 1 desktop trace is always 90 s).  Two optional trailing
#: fields extend a job to a cluster request: (..., hosts, cpus) —
#: ``hosts > 1`` routes through :func:`run_cluster_workload` (the
#: workload must be a registered scene) and ``cpus`` sizes the v3
#: trace ``cpu`` column its members stamp.
TraceJob = Tuple[str, str, Optional[int], int]


def _finish_sinks(sinks, duration_ns: int) -> None:
    """Finalise any attached reducers (sinks with a ``finish`` method)
    in the process that ran the simulation, so what crosses the process
    boundary is plain result dataclasses, not live aggregation state."""
    for sink in sinks or ():
        finish = getattr(sink, "finish", None)
        if finish is not None:
            finish(duration_ns)


def _run_one(job: TraceJob, sink_factory, retain_events: bool,
             collect_metrics: bool):
    os_name, workload, duration_ns, seed = job[:4]
    hosts = job[4] if len(job) > 4 else 1
    cpus = job[5] if len(job) > 5 else 1
    if cpus > 1 and hosts <= 1:
        raise ValueError(f"job {job!r}: cpus > 1 needs hosts > 1")
    from . import run_workload          # registry lives in the package
    sinks = list(sink_factory(os_name, workload)) if sink_factory else None
    if hosts > 1:
        run = run_cluster_workload(os_name, workload, duration_ns,
                                   hosts=hosts, cpus=cpus, seed=seed,
                                   sinks=sinks,
                                   retain_events=retain_events)
    else:
        run = run_workload(os_name, workload, duration_ns, seed=seed,
                           sinks=sinks, retain_events=retain_events)
    _finish_sinks(sinks, run.trace.duration_ns)
    # The snapshot is taken in the process that owns the kernel (the
    # kernel itself never crosses the pool boundary) — collection is
    # pull-only, so the trace bytes are unaffected.
    snapshot = run.metrics(sinks=sinks or ()) if collect_metrics else None
    return run.trace, sinks, snapshot


def _run_trace_job(task: Tuple[int, TraceJob], sink_factory=None,
                   retain_events: bool = True,
                   collect_metrics: bool = False) -> Tuple[int, bytes,
                                                           object, object]:
    from ..tracing.formats import trace_to_bytes
    index, job = task
    trace, sinks, snapshot = _run_one(job, sink_factory, retain_events,
                                      collect_metrics)
    return index, trace_to_bytes(trace), sinks, snapshot


#: Expected serial seconds per study job, by (os, workload): seed 0, 2
#: virtual minutes, 2-vCPU VM.  Only the order matters: the pool takes
#: the longest job first, so the long firefox/skype runs do not end up
#: queued behind short ones on the same worker.
_EXPECTED_COST_S = {
    ("vista", "firefox"): 2.54, ("linux", "firefox"): 1.77,
    ("vista", "skype"): 1.38, ("vista", "desktop"): 0.62,
    ("linux", "skype"): 0.49, ("linux", "webserver"): 0.36,
    ("vista", "webserver"): 0.31, ("linux", "idle"): 0.23,
    ("vista", "idle"): 0.11,
}


def _longest_first(jobs: Sequence[TraceJob]) -> list:
    """Job indices, longest expected job first.  Jobs the cost table
    does not name may be long, so they go first, in job order."""
    def cost(index: int) -> float:
        return _EXPECTED_COST_S.get(tuple(jobs[index][:2]), float("inf"))
    return sorted(range(len(jobs)), key=cost, reverse=True)


def _assemble(results: list, sink_factory, collect_metrics: bool) -> list:
    if sink_factory is None and not collect_metrics:
        return [trace for trace, _, _ in results]
    if sink_factory is None:
        return [(trace, snapshot) for trace, _, snapshot in results]
    if not collect_metrics:
        return [(trace, sinks) for trace, sinks, _ in results]
    return results


def _run_serial(jobs: Sequence[TraceJob], sink_factory,
                retain_events: bool, collect_metrics: bool) -> list:
    results = [_run_one(job, sink_factory, retain_events, collect_metrics)
               for job in jobs]
    return _assemble(results, sink_factory, collect_metrics)


def run_study_traces(jobs: Iterable[TraceJob], *,
                     processes: Optional[int] = None,
                     sink_factory=None,
                     retain_events: bool = True,
                     collect_metrics: bool = False) -> list:
    """Run many workload simulations, in parallel where possible.

    Returns the traces in job order.  ``processes=None`` uses one
    worker per CPU (capped at the job count); ``processes=1`` runs
    serially in-process.  Determinism: every simulation is seeded, so
    the returned traces are byte-identical to a serial run regardless
    of worker count.

    The pool gets one job per task, longest expected job first (a
    fixed per-(os, workload) cost table; jobs it does not name go
    first, in job order), so the long simulations start at once and the
    short ones fill in behind them.  Each worker hands its trace back
    as columnar v2 bytes, and the parent hydrates every handback as it
    arrives, while the remaining simulations still run; results are
    put back in job order by index.  The order only schedules: it
    never changes a returned byte.

    The serial fallback covers the cases where the pool cannot carry
    the work, and only those: a pool that cannot start (no fork, no
    semaphores), a task that cannot be pickled (an unpicklable
    factory, probed before any worker forks), or a result that cannot
    be pickled back (an unpicklable sink).  An exception raised by a
    simulation itself propagates once, from the worker.

    ``sink_factory(os_name, workload)`` — when given — builds fresh
    live sinks per job (e.g. a :class:`repro.core.streaming
    .StreamingSuite`); they are attached to the machine, finalised with
    the trace duration inside the worker, and returned alongside the
    trace, so the result is ``list[(Trace, list[sink])]`` instead of
    ``list[Trace]``.  With ``retain_events=False`` the traces come back
    empty (events are seen only by the sinks), keeping worker memory
    bounded.  A picklable module-level factory is required for the
    parallel path.

    ``collect_metrics=True`` appends each run's
    :class:`~repro.obs.metrics.MetricsSnapshot` (collected inside the
    worker, since the kernel never crosses the process boundary) as the
    final element of every result tuple: ``(Trace, snapshot)`` or
    ``(Trace, sinks, snapshot)``.  Collection is pull-only, so the
    traces stay byte-identical to a metrics-off run.
    """
    jobs = list(jobs)
    if processes is None or processes <= 0:
        processes = os.cpu_count() or 1
    processes = min(processes, len(jobs))
    if processes <= 1:
        return _run_serial(jobs, sink_factory, retain_events,
                           collect_metrics)
    from functools import partial
    from multiprocessing.pool import MaybeEncodingError
    from ..tracing.formats import materialize, trace_from_bytes
    worker = partial(_run_trace_job, sink_factory=sink_factory,
                     retain_events=retain_events,
                     collect_metrics=collect_metrics)
    tasks = [(index, jobs[index]) for index in _longest_first(jobs)]
    try:
        pickle.dumps((worker, tasks))
    except (pickle.PicklingError, TypeError, AttributeError):
        # An unpicklable factory (a lambda, a closure) cannot reach a
        # worker; find out before forking any.
        return _run_serial(jobs, sink_factory, retain_events,
                           collect_metrics)
    try:
        pool = multiprocessing.get_context().Pool(processes)
    except (ImportError, OSError):
        # Sandboxed/embedded interpreters without fork or semaphores.
        return _run_serial(jobs, sink_factory, retain_events,
                           collect_metrics)
    results: list = [None] * len(jobs)
    try:
        with pool:
            for index, blob, sinks, snapshot in pool.imap_unordered(
                    worker, tasks, chunksize=1):
                # Hydrate while the other simulations are still running.
                results[index] = (materialize(trace_from_bytes(blob)),
                                  sinks, snapshot)
    except MaybeEncodingError:
        # A result (a sink, a snapshot) that cannot be pickled back.
        return _run_serial(jobs, sink_factory, retain_events,
                           collect_metrics)
    return _assemble(results, sink_factory, collect_metrics)
