"""Collector plugins: named, per-subsystem telemetry sources.

The daemon does not hard-code what it measures.  Each subsystem is
wrapped in a :class:`Collector` — a name, a collection interval, and a
``collect(registry, labels)`` callable that mirrors the subsystem's
live counters into the daemon's long-lived
:class:`~repro.obs.metrics.MetricsRegistry` (the same pull-collection
functions ``run --metrics`` uses post-hoc, now called repeatedly while
virtual time advances).  Collectors come from three places:

* the **backend-neutral set** (engine, power, trace sinks, streaming
  suite, the daemon's own heartbeat), built for every backend;
* the backend's :meth:`~repro.kern.registry.BackendTraits.collectors`
  trait — names resolved through the :data:`COLLECTOR_FACTORIES`
  registry, so a plugin backend ships its collector ("wheel" for the
  Linux tvec forest, "ktimer" for the Vista ring) alongside its
  kernel model;
* ETW-style sinks, keyed through the provider-manifest registry
  (:mod:`repro.serve.manifest`): the session's ``provider_guid``
  resolves to a provider name that labels the series, so a
  third-party backend's sessions are first-class once it registers a
  manifest.

Every collector runs under the scheduler's error isolation
(:mod:`repro.serve.scheduler`): one throwing collector is quarantined
with backoff and reported on ``/statusz``, never killing the daemon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..obs.collect import (_collect_engine, _collect_power,
                           _collect_ring, _collect_sched,
                           _collect_ticks, _collect_wheels,
                           _walk_sinks, _sink_kind, collect_sink,
                           collect_streaming)
from ..obs.metrics import MetricsRegistry
from .manifest import provider_label

__all__ = ["COLLECTOR_FACTORIES", "Collector", "build_collectors",
           "collector_factory", "register_collector_factory"]

_NS = 1e-9


@dataclass
class Collector:
    """One scheduled telemetry source."""

    name: str
    collect: Callable[[MetricsRegistry, dict], None]
    #: Seconds between collections; ``None`` adopts the daemon default.
    interval_s: Optional[float] = None


#: name -> ``factory(daemon) -> Collector | None`` (None = not
#: applicable to this daemon, silently skipped).
COLLECTOR_FACTORIES: dict[str, Callable] = {}


def register_collector_factory(name: str, factory: Callable, *,
                               replace: bool = False) -> None:
    """Install a collector factory under ``name`` — the name a
    backend's ``traits.collectors()`` (or ``build_collectors``'s
    ``extra_names``) resolves."""
    if name in COLLECTOR_FACTORIES and not replace:
        raise ValueError(f"collector factory {name!r} already "
                         "registered")
    COLLECTOR_FACTORIES[name] = factory


def collector_factory(name: str, *, replace: bool = False) -> Callable:
    """Decorator form of :func:`register_collector_factory`."""
    def install(factory: Callable) -> Callable:
        register_collector_factory(name, factory, replace=replace)
        return factory
    return install


# -- backend-neutral collectors -------------------------------------------

@collector_factory("engine")
def _engine_collector(daemon) -> Collector:
    kernel = daemon.kernel

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        _collect_engine(kernel.engine, daemon.virtual_ns, registry,
                        labels)
    return Collector("engine", collect)


@collector_factory("sched")
def _sched_collector(daemon) -> Collector:
    """Engine-scheduler internals (wheel occupancy, cascades, garbage)
    — the live view of the million-timer scheduling layer."""
    kernel = daemon.kernel

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        _collect_sched(kernel.engine.scheduler, registry, labels)
    return Collector("sched", collect)


@collector_factory("power")
def _power_collector(daemon) -> Collector:
    kernel = daemon.kernel

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        _collect_power(kernel.power, daemon.virtual_ns, registry,
                       labels)
        _collect_ticks(kernel, registry, labels)
    return Collector("power", collect)


@collector_factory("streaming")
def _streaming_collector(daemon) -> Optional[Collector]:
    suite = daemon.suite
    if suite is None:
        return None

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        collect_streaming(suite, registry, labels)
    return Collector("streaming", collect)


@collector_factory("cluster")
def _cluster_collector(daemon) -> Optional[Collector]:
    """Per-host telemetry for a cluster daemon: topology gauges plus a
    host-labelled rollup of each machine's trace buffer and power
    model.  The series live under their own ``repro_cluster_*`` names
    (not extra labels on the generic families — a metric's label set is
    fixed at first registration, and the ``power``/sink collectors
    already own the unlabelled view through host 1's shared engine).
    The engine and scheduler are shared across hosts and covered by the
    ``engine``/``sched`` collectors.  ``repro_cluster_cpus`` is the
    ``--cpus`` value: the modulus of the v3 trace ``cpu`` column the
    hosts stamp (it needs ``--hosts > 1`` and does not build Linux's
    per-CPU timer bases)."""
    cluster = getattr(daemon, "cluster", None)
    if cluster is None:
        return None

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        names = tuple(labels)
        registry.gauge(
            "repro_cluster_hosts",
            "Machines sharing this daemon's engine and clock.",
            names).set(cluster.hosts, **labels)
        registry.gauge(
            "repro_cluster_cpus",
            "CPUs in the trace cpu column each host stamps "
            "((timer_id >> 6) % cpus).",
            names).set(cluster.cpus, **labels)
        host_names = names + ("host", "backend")
        records = registry.counter(
            "repro_cluster_host_records_total",
            "Trace records offered by each host's kernel.", host_names)
        retained = registry.gauge(
            "repro_cluster_host_retained",
            "Records currently held in each host's buffer.", host_names)
        wakeups = registry.counter(
            "repro_cluster_host_wakeups_total",
            "Idle wakeups per host.", host_names)
        energy = registry.gauge(
            "repro_cluster_host_energy_joules",
            "Modelled energy per host over the served window.",
            host_names)
        for host_id, machine in enumerate(cluster.machines, start=1):
            host = {"host": str(host_id), "backend": machine.os_name}
            buffer = machine.buffer
            records.set_total(buffer.emitted, **host, **labels)
            retained.set(len(buffer), **host, **labels)
            power = machine.kernel.power
            wakeups.set_total(power.wakeups, **host, **labels)
            energy.set(power.energy_joules(daemon.virtual_ns),
                       **host, **labels)
    return Collector("cluster", collect)


@collector_factory("sec51")
def _sec51_collector(daemon) -> Collector:
    """A live Section 5.1 cell advanced alongside the workload.

    The daemon has no offline request population, so this runs a
    continuous miniature of the policy study
    (:class:`~repro.study.sec51.Sec51LiveTracker`): a fixed request
    rate per network condition, every policy fed the identical latency
    stream.  Deterministic in virtual time — two daemons at the same
    seed and speed export the same ``repro_sec51_live_*`` series.
    """
    from ..study.sec51 import Sec51LiveTracker
    tracker = Sec51LiveTracker(seed=daemon.config.seed)

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        tracker.advance(daemon.virtual_ns)
        tracker.collect(registry, labels)
    return Collector("sec51", collect)


@collector_factory("daemon")
def _daemon_collector(daemon) -> Collector:
    def collect(registry: MetricsRegistry, labels: dict) -> None:
        names = tuple(labels)
        registry.counter(
            "repro_daemon_ticks_total",
            "Real-time slices the daemon has advanced virtual time "
            "by.", names).set_total(daemon.ticks, **labels)
        registry.gauge(
            "repro_daemon_virtual_seconds",
            "Virtual time simulated since the daemon started.",
            names).set(daemon.virtual_ns * _NS, **labels)
        registry.gauge(
            "repro_daemon_uptime_seconds",
            "Wall-clock time since the daemon started.",
            names, volatile=True).set(daemon.uptime_s, **labels)
        registry.gauge(
            "repro_daemon_slip_seconds",
            "Virtual seconds behind the real-time target "
            "(wall x speed - simulated).",
            names, volatile=True).set(daemon.slip_s, **labels)
        registry.counter(
            "repro_daemon_drained_events_total",
            "Trace records drained from the backend buffer by the "
            "daemon's reader loop.",
            names).set_total(daemon.drained_events, **labels)
    return Collector("daemon", collect)


# -- backend-specific collectors (trait-resolved) -------------------------

@collector_factory("wheel")
def _wheel_collector(daemon) -> Optional[Collector]:
    kernel = daemon.kernel
    if not hasattr(kernel, "bases"):
        return None

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        _collect_wheels(kernel, registry, labels)
    return Collector("wheel", collect)


@collector_factory("ktimer")
def _ktimer_collector(daemon) -> Optional[Collector]:
    kernel = daemon.kernel
    if not hasattr(kernel, "_ring"):
        return None

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        _collect_ring(kernel, registry, labels)
    return Collector("ktimer", collect)


# -- sink collectors (manifest-resolved for ETW) --------------------------

def _sink_collector(sink) -> Optional[Collector]:
    kind = _sink_kind(sink)
    if kind is None:
        return None
    extra: dict = {}
    name = kind
    guid = getattr(sink, "provider_guid", None)
    if guid is not None:
        # ETW-style session: the GUID resolves to the manifest name,
        # which labels the series and names the collector.
        extra = {"provider": provider_label(guid)}
        name = f"etw:{provider_label(guid)}"

    def collect(registry: MetricsRegistry, labels: dict) -> None:
        merged = dict(labels)
        merged.update(extra)
        collect_sink(sink, registry, merged)
    return Collector(name, collect)


def build_collectors(daemon, *, extra_names=()) -> list:
    """Assemble the daemon's collector set.

    Backend-neutral collectors first, then the backend's trait-named
    ones (plus ``extra_names``), then one collector per recognised
    trace sink.  Unknown names raise (a registered backend promising a
    collector it did not install is a configuration bug, not a silent
    skip).
    """
    names = ["engine", "sched", "power", "streaming", "cluster",
             "sec51", "daemon"]
    names += [name for name in (*daemon.traits.collectors(),
                                *extra_names)
              if name not in names]
    collectors = []
    for name in names:
        factory = COLLECTOR_FACTORIES.get(name)
        if factory is None:
            raise KeyError(
                f"unknown collector {name!r}; registered: "
                f"{sorted(COLLECTOR_FACTORIES)}")
        collector = factory(daemon)
        if collector is not None:
            collectors.append(collector)
    for sink in _walk_sinks(daemon.kernel.sink):
        collector = _sink_collector(sink)
        if collector is not None:
            collectors.append(collector)
    return collectors
