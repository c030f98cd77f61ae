"""The generic machine harness.

One :class:`Machine` replaces the old ``LinuxMachine``/``VistaMachine``
pair: the sink chain, ``retain_events`` handling and trace
finalisation were already identical, and everything that differed
(kernel construction, trace buffer, OS API surfaces) comes from the
backend's :class:`~repro.kern.registry.BackendSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sim.clock import MINUTE
from ..tracing.trace import Trace
from .protocol import TimerBackend
from .registry import get_backend, get_scene

#: The paper's trace length.
PAPER_DURATION_NS = 30 * MINUTE
#: Default for benchmarks: long enough for 7 decades of timeout values
#: to show their behaviour, short enough to iterate on.
DEFAULT_DURATION_NS = 5 * MINUTE


@dataclass
class WorkloadRun:
    """Everything produced by one workload execution."""

    trace: Trace
    kernel: TimerBackend
    components: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.trace.duration_ns

    @property
    def power(self):
        """The kernel's :class:`~repro.sim.power.PowerMeter`."""
        return self.kernel.power

    def power_snapshot(self) -> dict:
        """Headline power numbers over this run's duration."""
        return self.kernel.power.snapshot(self.trace.duration_ns)

    def metrics(self, *, registry=None, sinks: Iterable = (),
                labels: Optional[dict] = None):
        """Collect every layer of this run into a
        :class:`~repro.obs.metrics.MetricsSnapshot`.

        Pure pull collection over already-maintained counters — calling
        it never changes simulation state, so it can be taken at any
        point (and repeatedly).  ``sinks`` adds reducers that were
        passed to the runner rather than attached to the kernel.
        """
        from ..obs.collect import collect_run
        return collect_run(self, registry=registry, sinks=sinks,
                           labels=labels)


class Machine:
    """A simulated box for any registered backend, ready for apps.

    ``sinks`` are extra live sinks (e.g. streaming reducers) attached
    in front of the trace buffer; with ``retain_events=False`` the
    buffer is replaced by a :class:`~repro.tracing.relay.NullSink` so
    only the attached reducers see the stream — O(active timers)
    memory instead of O(events).

    The backend's spec attaches the OS API surfaces: Linux machines
    grow ``machine.syscalls``, Vista machines ``machine.waits`` /
    ``machine.ntapi`` / ``machine.waitable`` / ``machine.winsock``.
    Component builders record what they assembled in
    ``machine.components``; :meth:`finish` hands the accumulated dict
    to the :class:`WorkloadRun`.

    Cluster identity: ``host_id`` names this machine inside a
    :class:`~repro.kern.cluster.Cluster` (0 — the default — means a
    standalone box and leaves the event stream untouched; cluster
    members are numbered from 1 and every record they keep is stamped
    through a :class:`~repro.tracing.relay.HostStampSink`).  ``cpus``
    sets the v3 trace ``cpu`` column that stamping writes on cluster
    members (``(timer_id >> 6) % cpus``), so ``cpus > 1`` needs a
    non-zero ``host_id``; it does not build Linux's per-CPU timer
    bases (that is ``LinuxKernel(cpus=)``, Section 2).  ``engine``
    lets a cluster put several machines on one shared clock.
    """

    def __init__(self, os_name: str, *, seed: int = 0,
                 sinks: Optional[Iterable] = None,
                 retain_events: bool = True, host_id: int = 0,
                 cpus: int = 1, engine=None):
        from ..tracing.relay import HostStampSink, NullSink
        if host_id < 0 or host_id > 0xFF:
            raise ValueError(f"host_id must be in 0..255, got {host_id}")
        if cpus < 1 or cpus > 0xFFFF:
            raise ValueError(f"cpus must be in 1..65535, got {cpus}")
        if cpus > 1 and not host_id:
            raise ValueError(
                f"cpus={cpus} stamps the trace cpu column of cluster "
                f"members; a standalone machine (host_id=0) has none")
        spec = get_backend(os_name)
        self.os_name = spec.name
        self.retain_events = retain_events
        self.host_id = host_id
        self.cpus = cpus
        self.buffer = spec.buffer_factory() if retain_events else NullSink()
        # A discarding buffer stays bare, even on a cluster member: the
        # kernel then builds no record at all (stamping one to drop it
        # would cost a record and a copy).
        kernel_sink = HostStampSink(self.buffer, host_id, cpus) \
            if host_id and retain_events else self.buffer
        kwargs = dict(seed=seed, sink=kernel_sink)
        if engine is not None:
            kwargs["engine"] = engine
        self.kernel: TimerBackend = spec.kernel_factory(**kwargs)
        self.rng = self.kernel.rng
        self.power = self.kernel.power
        self.components: dict = {}
        if spec.surfaces is not None:
            spec.surfaces(self)
        for sink in sinks or ():
            if host_id:
                # Live reducers see the same stamped records the trace
                # buffer stores.
                sink = HostStampSink(sink, host_id, cpus)
            self.kernel.attach_sink(sink)

    def scene(self, name: str, **kwargs) -> dict:
        """Build a registered scene (the OS-appropriate baseline) on
        this machine and merge its components.

        Returns ``self.components`` so callers can layer further apps
        into the same dict the :class:`WorkloadRun` will carry.
        """
        built = get_scene(self.os_name, name)(self, **kwargs)
        if built:
            self.components.update(built)
        return self.components

    def finish(self, workload: str, duration_ns: int) -> WorkloadRun:
        self.kernel.run_for(duration_ns)
        events = list(self.buffer) if self.retain_events else []
        trace = Trace(os_name=self.os_name, workload=workload,
                      duration_ns=duration_ns, events=events)
        return WorkloadRun(trace, self.kernel,
                           components=dict(self.components))
