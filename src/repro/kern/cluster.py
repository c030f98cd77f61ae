"""Multi-host cluster scenes: N machines on one engine and clock.

The paper's serverfarm measurements stop at one box; the datacenter
the north star describes is a *fleet* of them.  A :class:`Cluster`
instantiates N :class:`~repro.kern.machine.Machine` instances —
possibly mixed backends — on one shared
:class:`~repro.sim.engine.Engine`, so every host advances on the same
virtual clock and the merged trace is one coherent timeline.

Identity threading (the whole point of the layer):

* hosts are numbered **1..N** — id 0 is reserved for standalone
  single-machine runs, so "is this a cluster record?" is a single
  truthiness test on ``event.host`` everywhere downstream;
* each machine's kernel emits through a
  :class:`~repro.tracing.relay.HostStampSink`, which rewrites every
  record with the host id and a per-CPU affinity hash of its timer
  id, carried to disk by the binfmt2 v3 columns — ``cpus`` sizes
  that hash and nothing else (Linux's per-CPU timer bases are
  ``LinuxKernel(cpus=)``, a separate model);
* per-host seeds are derived as ``seed + host_id``, so a cluster run
  is exactly as reproducible as a single-machine one, and host 1 of a
  one-host cluster is *not* the same stream as a standalone run
  (standalone remains the byte-identical legacy path).

Determinism of the merge: each host's buffer holds its records in
emission order; the merged trace sorts stably by timestamp, so ties
resolve host-1-before-host-2 and, within a host, emission order —
independent of anything but the trace data.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..sim.engine import Engine
from ..tracing.trace import Trace
from .machine import Machine, WorkloadRun
from .registry import get_scene

__all__ = ["Cluster", "ClusterRun"]


class ClusterRun:
    """Everything produced by one cluster execution.

    ``trace`` is the merged multi-host timeline (every event carries
    ``host``/``cpu``); ``runs`` holds one per-host
    :class:`WorkloadRun` over that host's own slice, in host order.
    """

    def __init__(self, trace: Trace, runs: Sequence[WorkloadRun],
                 cluster: "Cluster"):
        self.trace = trace
        self.runs = list(runs)
        self.cluster = cluster
        #: The shared engine all hosts ran on.
        self.engine = cluster.engine
        #: Mirrors WorkloadRun.kernel: host 1's backend instance.
        self.kernel = self.runs[0].kernel if self.runs else None
        self.components: dict = {}
        for run in self.runs:
            self.components.update(run.components)

    @property
    def duration_ns(self) -> int:
        return self.trace.duration_ns

    @property
    def hosts(self) -> int:
        return len(self.runs)

    def host_run(self, host_id: int) -> WorkloadRun:
        """The per-host run for machine ``host_id`` (1-based)."""
        if not 1 <= host_id <= len(self.runs):
            raise IndexError(f"host_id must be in 1..{len(self.runs)}, "
                             f"got {host_id}")
        return self.runs[host_id - 1]

    def metrics(self, *, registry=None, sinks: Iterable = (),
                labels: Optional[dict] = None):
        """One snapshot over the whole fleet, every series labelled by
        ``host`` — the cluster analogue of ``WorkloadRun.metrics``."""
        from ..obs.collect import collect_run
        from ..obs.metrics import MetricsRegistry
        registry = registry if registry is not None else MetricsRegistry()
        snapshot = None
        for host_id, run in enumerate(self.runs, start=1):
            host_labels = {"os": run.trace.os_name,
                           "workload": run.trace.workload,
                           "host": str(host_id)}
            if labels:
                host_labels.update(labels)
            snapshot = collect_run(run, registry=registry,
                                   sinks=sinks, labels=host_labels)
        return snapshot


class Cluster:
    """A fleet of machines sharing one virtual clock.

    ``backends`` is either one backend name (every host runs it) or a
    sequence of names, one per host — a mixed-backend cluster is just
    ``Cluster(["linux", "vista"], ...)``.  ``hosts`` sizes a
    homogeneous cluster when ``backends`` is a single name.  ``cpus``
    sets the v3 trace ``cpu`` column every member stamps
    (``(timer_id >> 6) % cpus``); all hosts share one engine running
    the plain timing wheel.
    """

    def __init__(self, backends: Union[str, Sequence[str]], *,
                 hosts: Optional[int] = None, seed: int = 0,
                 cpus: int = 1, sinks: Optional[Iterable] = None,
                 retain_events: bool = True):
        if isinstance(backends, str):
            names = [backends] * (hosts if hosts is not None else 1)
        else:
            names = list(backends)
            if hosts is not None and hosts != len(names):
                raise ValueError(
                    f"hosts={hosts} disagrees with {len(names)} "
                    f"backend names")
        if not names:
            raise ValueError("a cluster needs at least one host")
        if len(names) > 0xFF:
            raise ValueError(
                f"at most 255 hosts per cluster, got {len(names)}")
        self.cpus = cpus
        self.seed = seed
        self.engine = Engine()
        #: Machines in host order; ids are 1-based.
        self.machines = [
            Machine(os_name, seed=seed + host_id, host_id=host_id,
                    cpus=cpus, engine=self.engine, sinks=sinks,
                    retain_events=retain_events)
            for host_id, os_name in enumerate(names, start=1)]

    @property
    def hosts(self) -> int:
        return len(self.machines)

    def scene(self, name: str, **kwargs) -> "Cluster":
        """Build the registered scene ``name`` on every host.

        Per-host keyword overrides are not needed for the built-in
        scenes — each host already gets its own RNG stream via its
        seed, so N serverfarm hosts churn independently.
        """
        for machine in self.machines:
            # Resolve per machine so mixed clusters pick each host's
            # own backend variant of the scene.
            get_scene(machine.os_name, name)
            machine.scene(name, **kwargs)
        return self

    def finish(self, workload: str, duration_ns: int) -> ClusterRun:
        """Advance the shared clock once, then merge the fleet's traces.

        Unlike ``Machine.finish`` this runs the engine exactly once for
        all hosts — they shared it the whole time — and builds both the
        per-host traces and the merged cluster timeline.
        """
        self.engine.run_until(self.engine.now + duration_ns)
        runs = []
        merged = []
        for machine in self.machines:
            events = list(machine.buffer) if machine.retain_events else []
            trace = Trace(os_name=machine.os_name, workload=workload,
                          duration_ns=duration_ns, events=events)
            runs.append(WorkloadRun(trace, machine.kernel,
                                    components=dict(machine.components)))
            merged.extend(events)
        # Stable by timestamp: equal-ts ties fall back to host order
        # (the extend order), then per-host emission order.
        merged.sort(key=lambda event: event[1])
        trace = Trace(os_name=self.machines[0].os_name,
                      workload=workload, duration_ns=duration_ns,
                      events=merged)
        return ClusterRun(trace, runs, self)
