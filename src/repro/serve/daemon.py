"""The ``timerstudy serve`` daemon loop.

Batch mode answers "what happened?" after a run; the daemon answers
"what is happening?" *while* one runs.  It builds a machine for any
registered backend, lays a portable workload on it, and then advances
virtual time in **real-time slices**: every tick it computes how much
virtual time the wall clock (times ``speed``) says should have
elapsed and pushes the engine forward by exactly that much via
``run_for`` — the paper's continuous-instrumentation methodology (§3)
applied to the simulator itself.  Around that loop:

* a :class:`~repro.core.streaming.StreamingSuite` rides the live sink
  (bounded O(active-timers) analysis state, PR 3's path),
* the backend's real trace buffer (relayfs / ETW session) is drained
  each tick — the daemon *is* the paper's user-space reader, so
  memory stays bounded and the drain counters become live telemetry,
* the collector scheduler fills one long-lived registry, so counters
  on ``/metrics`` are cumulative and increase monotonically between
  scrapes; consecutive cycles additionally derive per-second
  ``:rate`` gauges (:mod:`repro.obs.delta`),
* an optional :class:`~repro.serve.opentsdb.OpenTsdbWriter` streams
  every datapoint as ``put`` lines (stdout or a TSD socket).

Everything the HTTP surface reads — snapshots, health, status — is
published as immutable objects, so the server threads never touch
live simulation state.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..kern.machine import Machine
from ..kern.registry import backend_traits
from ..core.streaming import StreamingSuite
from ..obs.delta import derive_rates
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from .collectors import Collector, build_collectors
from .httpd import TelemetryServer
from .opentsdb import OpenTsdbWriter
from .scheduler import CollectorScheduler

__all__ = ["ServeConfig", "ServeDaemon"]

_NS = 1e-9


@dataclass
class ServeConfig:
    """Everything `timerstudy serve` can tune."""

    os_name: str = "linux"
    workload: str = "portable"
    seed: int = 0
    #: Serve an N-host cluster on one shared clock (1 = standalone).
    hosts: int = 1
    #: CPUs in the v3 trace ``cpu`` column cluster members stamp;
    #: needs ``hosts > 1`` (not Linux's per-CPU timer bases).
    cpus: int = 1
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, parallel daemons).
    port: int = 0
    #: Virtual seconds simulated per wall second.
    speed: float = 1.0
    #: Wall seconds between loop ticks (one `run_for` slice each).
    tick_s: float = 0.25
    #: Default collector interval (per-collector overrides win).
    interval_s: float = 1.0
    #: '-' for stdout, 'HOST:PORT' for a TSD socket, None = off.
    opentsdb: Optional[object] = None
    opentsdb_interval_s: float = 1.0
    #: Stop after this many wall seconds (None = run until stopped).
    duration_s: Optional[float] = None
    #: Extra collectors appended after the built-in set.
    extra_collectors: Sequence[Collector] = field(default_factory=tuple)


def _resolve_workload(os_name: str, workload: str):
    from ..workloads.portable import PORTABLE_WORKLOADS
    definition = PORTABLE_WORKLOADS.get(workload)
    if definition is None:
        raise KeyError(
            f"serve runs portable workload definitions; unknown "
            f"workload {workload!r}, choose from "
            f"{sorted(PORTABLE_WORKLOADS)}")
    backend_traits(os_name)     # raises nothing; validated by Machine
    return definition


class ServeDaemon:
    """One long-running telemetry daemon instance."""

    def __init__(self, config: ServeConfig, *,
                 clock: Callable[[], float] = time.monotonic,
                 wall_time: Callable[[], float] = time.time):
        self.config = config
        self.clock = clock
        self.wall_time = wall_time
        definition = _resolve_workload(config.os_name, config.workload)
        self.suite = StreamingSuite(config.os_name, config.workload)
        self.cluster = None
        if config.hosts > 1:
            from ..kern.cluster import Cluster
            self.cluster = Cluster(config.os_name, hosts=config.hosts,
                                   cpus=config.cpus, seed=config.seed,
                                   sinks=[self.suite])
            for machine in self.cluster.machines:
                definition.build(machine)
            # Host 1 fronts the fleet: its kernel carries the shared
            # engine every machine schedules on.
            self.machine = self.cluster.machines[0]
        else:
            self.machine = Machine(config.os_name, seed=config.seed,
                                   sinks=[self.suite], cpus=config.cpus)
            definition.build(self.machine)
        self.kernel = self.machine.kernel
        self.traits = backend_traits(config.os_name)
        self.labels = {"os": config.os_name,
                       "workload": config.workload}
        self.registry = MetricsRegistry()
        collectors = build_collectors(self)
        collectors.extend(config.extra_collectors)
        self.scheduler = CollectorScheduler(
            collectors, self.registry, self.labels,
            default_interval_s=config.interval_s, clock=clock)
        self.writer = (OpenTsdbWriter(config.opentsdb)
                       if config.opentsdb is not None else None)
        self.server = TelemetryServer(self, host=config.host,
                                      port=config.port)
        self._virtual_start = self.kernel.now
        self._latest: Optional[MetricsSnapshot] = None
        self._prev_cycle: Optional[tuple] = None   # (snapshot, mono)
        self._stop = threading.Event()
        self._t0: Optional[float] = None
        self._next_tsdb = 0.0
        self.ticks = 0
        self.cycles = 0
        self.drained_events = 0
        self.running = False

    # -- derived quantities ---------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def virtual_ns(self) -> int:
        """Virtual nanoseconds simulated since the daemon started."""
        return self.kernel.now - self._virtual_start

    @property
    def uptime_s(self) -> float:
        return 0.0 if self._t0 is None else self.clock() - self._t0

    @property
    def slip_s(self) -> float:
        """How far virtual time lags the real-time target.  Near zero
        when the host keeps up; growing when `speed` asks for more
        simulation than the hardware delivers."""
        return self.uptime_s * self.config.speed \
            - self.virtual_ns * _NS

    # -- published state (read by HTTP threads) -------------------------

    def latest_snapshot(self) -> Optional[MetricsSnapshot]:
        return self._latest

    def health(self) -> tuple:
        quarantined = sum(
            1 for state in self.scheduler.status().values()
            if state["quarantined"])
        healthy = self.cycles > 0
        return healthy, {
            "status": "ok" if healthy else "starting",
            "uptime_s": round(self.uptime_s, 3),
            "cycles": self.cycles,
            "collectors_quarantined": quarantined,
        }

    def status(self) -> dict:
        doc = {
            "backend": self.config.os_name,
            "workload": self.config.workload,
            "seed": self.config.seed,
            "hosts": self.config.hosts,
            "cpus": self.config.cpus,
            "speed": self.config.speed,
            "running": self.running,
            "uptime_s": round(self.uptime_s, 3),
            "virtual_seconds": self.virtual_ns * _NS,
            "slip_seconds": round(self.slip_s, 3),
            "ticks": self.ticks,
            "cycles": self.cycles,
            "drained_events": self.drained_events,
            "collector_errors": self.scheduler.total_errors,
            "collectors": self.scheduler.status(),
            "streaming": self.suite.live_state(),
        }
        if self.writer is not None:
            doc["opentsdb"] = {
                "target": str(self.config.opentsdb),
                "lines_written": self.writer.lines_written,
                "errors": self.writer.errors,
            }
        return doc

    # -- the loop --------------------------------------------------------

    def _advance(self, elapsed_s: float) -> None:
        target_ns = int(elapsed_s * self.config.speed * 1e9)
        delta = target_ns - self.virtual_ns
        if delta > 0:
            self.kernel.run_for(delta)
        # The daemon is the user-space reader of the paper's §3.2
        # design: drain the trace buffers every slice so retained
        # records stay bounded no matter how long we serve.
        machines = self.cluster.machines if self.cluster is not None \
            else (self.machine,)
        for machine in machines:
            self.drained_events += len(machine.buffer.drain())

    def _publish(self) -> None:
        base = self.registry.snapshot()
        now = self.clock()
        combined = base
        if self._prev_cycle is not None:
            prev, prev_at = self._prev_cycle
            dt = now - prev_at
            if dt > 0:
                rates = derive_rates(prev, base, dt)
                combined = MetricsSnapshot(base.samples + rates.samples)
        # Only roll the rate window forward about once per default
        # interval, so rates average over a scrape-sized window
        # instead of a single tick.
        if self._prev_cycle is None or \
                now - self._prev_cycle[1] >= self.config.interval_s:
            self._prev_cycle = (base, now)
        self._latest = combined
        self.cycles += 1

    def _maybe_opentsdb(self) -> None:
        if self.writer is None or self._latest is None:
            return
        now = self.clock()
        if now < self._next_tsdb:
            return
        self._next_tsdb = now + self.config.opentsdb_interval_s
        self.writer.write_snapshot(self._latest,
                                   int(self.wall_time()))

    def start(self) -> None:
        """Bind and start the HTTP surface (non-blocking)."""
        self.server.start()

    def run(self) -> None:
        """The blocking daemon loop; returns after :meth:`stop` (or
        once ``duration_s`` wall seconds have passed)."""
        self._t0 = self.clock()
        self.running = True
        try:
            while not self._stop.is_set():
                elapsed = self.clock() - self._t0
                if self.config.duration_s is not None \
                        and elapsed >= self.config.duration_s:
                    break
                self._advance(elapsed)
                if self.scheduler.run_due(self.clock()):
                    self._publish()
                self._maybe_opentsdb()
                self.ticks += 1
                self._stop.wait(self.config.tick_s)
        finally:
            self.running = False
            if not self.suite.finished:
                self.suite.finish(self.virtual_ns)

    def stop(self) -> None:
        """Ask the loop to exit (thread-safe, idempotent)."""
        self._stop.set()

    def close(self) -> None:
        """Tear down the HTTP server and the OpenTSDB sink."""
        self.stop()
        self.server.stop()
        if self.writer is not None:
            self.writer.close()

    def serve(self) -> None:
        """start() + run() + close() — the CLI entry point."""
        self.start()
        try:
            self.run()
        finally:
            self.close()
