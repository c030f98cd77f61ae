"""The Section 5.1 study at scale: adaptive vs fixed timeouts.

The paper's core proposal replaces arbitrary human round numbers
("30 seconds") with a request to "time out once the system is 99%
confident that a message will never be arriving".  The machinery
lives in :mod:`repro.core.adaptive`; this module drives it with heavy
traffic and reports the comparison the paper only sketches:

1. run the **serverfarm** workload (both backends; ``--hosts/--cpus``
   for cluster scenes) and harvest its *request population* — how
   many request/response waits each of the thousands of persistent
   connections performed;
2. replay that population under every **network condition**
   (:mod:`repro.sim.netmodel`: LAN, WAN, jitter, loss, scripted
   LAN→WAN level shifts) through every **timeout policy** — fixed
   5/15/30 s, TCP's Jacobson estimator, and the learned-distribution
   :class:`~repro.core.adaptive.AdaptiveTimeout` at 95%/99%
   confidence;
3. per policy × condition cell, report the **spurious-timeout rate**,
   the **failure-detection latency tail** (p50/p99/max) and
   **wakeups per connection**, rendered as a Table-style comparison
   (:func:`repro.core.report.render_sec51`) and mirrored into the
   metrics registry as ``repro_sec51_*`` series.

Every cell is a pure function of ``(seed, population, condition,
policy)``: the latency stream for a condition is drawn from one named
:class:`~repro.sim.rng.RngStream` shared by all policies (each policy
sees *exactly* the same network), so the study is byte-identical
across ``--jobs`` worker counts and repeated runs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.adaptive import (AdaptiveTimeout, JacobsonEstimator,
                             simulate_wait_policy)
from ..sim.netmodel import NetModel, get_condition
from ..sim.rng import RngStream

__all__ = [
    "POLICIES", "PolicySpec", "Sec51Cell", "Sec51LiveTracker",
    "Sec51Result", "WARMUP_WAITS", "get_policy", "harvest_population",
    "policy_names", "register_policy", "run_sec51_cells",
    "run_sec51_study",
]

#: Waits excluded from every cell's counters while the estimators
#: train (the fixed policies skip the same prefix, so the comparison
#: is steady-state for both sides).
WARMUP_WAITS = 32

#: Floor under every learned timeout: no real kernel would arm a
#: sub-50-ms failure detector from a handful of samples, and the floor
#: keeps early quantile noise from producing spurious wakeups on a
#: quiet LAN.
LEARNED_FLOOR_S = 0.05

#: Cold-start timeout for the learned policies — the arbitrary human
#: default the study is arguing against, deliberately.
INITIAL_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class PolicySpec:
    """One timeout policy the study sweeps."""

    name: str
    kind: str                       #: "fixed" or "adaptive"
    fixed_timeout: float = INITIAL_TIMEOUT_S
    #: Fresh-estimator factory for adaptive policies.
    make: Optional[Callable[[], object]] = None
    description: str = ""


#: Registered policies, in sweep/table order.
POLICIES: Dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec, *,
                    replace: bool = False) -> PolicySpec:
    if spec.name in POLICIES and not replace:
        raise ValueError(f"policy {spec.name!r} already registered")
    POLICIES[spec.name] = spec
    return spec


def get_policy(name: str) -> PolicySpec:
    found = POLICIES.get(name)
    if found is None:
        raise KeyError(f"unknown timeout policy {name!r}; "
                       f"registered: {sorted(POLICIES)}")
    return found


def policy_names() -> List[str]:
    return list(POLICIES)


def _make_jacobson() -> JacobsonEstimator:
    return JacobsonEstimator(min_timeout=LEARNED_FLOOR_S,
                             no_sample_timeout=INITIAL_TIMEOUT_S)


#: Safety multiplier over the learned quantile.  The tail beyond the
#: 99th percentile still has to clear the bar: for the study's
#: lognormal conditions the largest of N draws sits near
#: ``median * exp(sigma * z_N)`` (z_N ~ 4.3 at N=1e5), so 3x over the
#: learned q99 keeps steady-state spurious wakeups at zero through
#: ~1e5 waits on sigma <= 0.5 links while remaining ~25x tighter than
#: a fixed 5 s timeout on a WAN.
SAFETY = 3.0


def _make_p2(confidence: float) -> Callable[[], AdaptiveTimeout]:
    def make() -> AdaptiveTimeout:
        return AdaptiveTimeout(confidence=confidence, safety=SAFETY,
                               initial_timeout=INITIAL_TIMEOUT_S,
                               min_timeout=LEARNED_FLOOR_S)
    return make


for _seconds in (5, 15, 30):
    register_policy(PolicySpec(
        f"fixed-{_seconds}", "fixed", fixed_timeout=float(_seconds),
        description=f"constant {_seconds} s timeout"))
register_policy(PolicySpec(
    "jacobson", "adaptive", make=_make_jacobson,
    description="TCP's SRTT/RTTVAR control loop (RFC 6298)"))
register_policy(PolicySpec(
    "p2-95", "adaptive", make=_make_p2(0.95),
    description="95%-confidence learned distribution (P2 quantile)"))
register_policy(PolicySpec(
    "p2-99", "adaptive", make=_make_p2(0.99),
    description="99%-confidence learned distribution (P2 quantile)"))


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sec51Cell:
    """One policy × condition measurement over a request population."""

    backend: str
    condition: str
    policy: str
    connections: int
    waits: int
    failures: int
    false_timeouts: int
    wakeups: int
    spurious_rate: float
    detection_p50: float
    detection_p99: float
    detection_max: float
    #: Level-shift relearns performed by the estimator (0 for fixed).
    relearned: int
    #: The timeout in force at the end of the stream.
    timeout_last: float

    @property
    def wakeups_per_connection(self) -> float:
        if self.connections == 0:
            return 0.0
        return self.wakeups / self.connections


#: Pickled across the worker pool: one cell request.
_CellJob = Tuple[str, str, str, int, int, int]


def _simulate_cell(job: _CellJob) -> Sec51Cell:
    """Pure cell computation — deterministic in its arguments alone."""
    backend, cond_name, policy_name, connections, waits, seed = job
    condition = get_condition(cond_name)
    spec = get_policy(policy_name)
    # One stream per (backend, condition): every policy in the cell
    # column replays the identical network.
    rng = RngStream(seed, f"sec51.{backend}.{cond_name}")
    latencies = NetModel(condition, rng).stream(waits)
    if spec.kind == "fixed":
        estimator = None
        outcome = simulate_wait_policy(
            latencies, policy="fixed", fixed_timeout=spec.fixed_timeout,
            warmup=WARMUP_WAITS)
    else:
        estimator = spec.make()
        outcome = simulate_wait_policy(
            latencies, policy="adaptive", adaptive=estimator,
            warmup=WARMUP_WAITS)
    return Sec51Cell(
        backend=backend, condition=cond_name, policy=policy_name,
        connections=connections, waits=outcome.waits,
        failures=outcome.failures,
        false_timeouts=outcome.false_timeouts,
        wakeups=outcome.wakeups,
        spurious_rate=outcome.false_timeout_rate,
        detection_p50=outcome.detection_quantile(0.50),
        detection_p99=outcome.detection_quantile(0.99),
        detection_max=outcome.detection_max,
        relearned=getattr(estimator, "relearned", 0),
        timeout_last=outcome.timeline[-1] if outcome.timeline else 0.0)


# ---------------------------------------------------------------------------
# Study orchestration
# ---------------------------------------------------------------------------

@dataclass
class Sec51Result:
    """The full policy × condition × backend grid."""

    seed: int
    duration_ns: int
    hosts: int
    cpus: int
    backends: Tuple[str, ...]
    conditions: Tuple[str, ...]
    policies: Tuple[str, ...]
    #: backend -> (connections opened, total request waits).
    populations: Dict[str, Tuple[int, int]]
    cells: Dict[Tuple[str, str, str], Sec51Cell]

    def cell(self, backend: str, condition: str,
             policy: str) -> Sec51Cell:
        return self.cells[(backend, condition, policy)]

    def grid(self) -> Iterable[Sec51Cell]:
        """Cells in rendering order: backend, condition, policy."""
        for backend in self.backends:
            for condition in self.conditions:
                for policy in self.policies:
                    yield self.cells[(backend, condition, policy)]


def harvest_population(run) -> List[int]:
    """Per-connection request-wait counts from a serverfarm run.

    Accepts a :class:`~repro.kern.machine.WorkloadRun` or a
    :class:`~repro.kern.cluster.ClusterRun` (per-host farms are
    concatenated in host order).  Works identically on batch,
    streaming (``retain_events=False``) and cluster runs because the
    counts live on the farm component, not in the trace.
    """
    host_runs = getattr(run, "runs", None) or [run]
    population: List[int] = []
    for host in host_runs:
        farm = host.components.get("farm")
        if farm is None or not hasattr(farm, "request_counts"):
            raise ValueError(
                "sec51 needs a serverfarm run (no 'farm' component "
                f"with request counts on this {type(run).__name__})")
        population.extend(farm.request_counts)
    return population


def _normalize_population(population) -> Tuple[int, int]:
    """(connections, waits) from either a per-conn list or the pair."""
    if isinstance(population, tuple) and len(population) == 2:
        return int(population[0]), int(population[1])
    counts = list(population)
    return len(counts), sum(counts)


def run_sec51_cells(populations: Dict[str, Sequence[int]], *,
                    conditions: Sequence[str],
                    policies: Sequence[str],
                    seed: int = 0, jobs: Optional[int] = None,
                    duration_ns: int = 0, hosts: int = 1,
                    cpus: int = 1) -> Sec51Result:
    """Sweep the policy × condition grid over given populations.

    ``populations`` maps backend name to either the per-connection
    wait-count list :func:`harvest_population` returns or a
    ``(connections, waits)`` pair.  Cells are independent; ``jobs``
    spreads them over a process pool with results identical to a
    serial run (the pool silently falls back to serial where
    ``multiprocessing`` is unavailable).
    """
    conditions = tuple(conditions)
    policies = tuple(policies)
    for name in conditions:
        get_condition(name)
    for name in policies:
        get_policy(name)
    backends = tuple(populations)
    normalized = {backend: _normalize_population(pop)
                  for backend, pop in populations.items()}
    cell_jobs: List[_CellJob] = [
        (backend, condition, policy, *normalized[backend], seed)
        for backend in backends
        for condition in conditions
        for policy in policies]
    cells = _run_cells(cell_jobs, jobs)
    return Sec51Result(
        seed=seed, duration_ns=duration_ns, hosts=hosts, cpus=cpus,
        backends=backends, conditions=conditions, policies=policies,
        populations=normalized,
        cells={(cell.backend, cell.condition, cell.policy): cell
               for cell in cells})


def _run_cells(cell_jobs: Sequence[_CellJob],
               jobs: Optional[int]) -> List[Sec51Cell]:
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(cell_jobs))
    if jobs <= 1:
        return [_simulate_cell(job) for job in cell_jobs]
    try:
        with multiprocessing.get_context().Pool(jobs) as pool:
            return pool.map(_simulate_cell, cell_jobs)
    except (ImportError, OSError, PermissionError, AttributeError,
            TypeError, pickle.PicklingError):
        # Same serial fallback the study driver uses for sandboxed
        # interpreters without fork/semaphores.
        return [_simulate_cell(job) for job in cell_jobs]


def run_sec51_study(*, backends: Optional[Sequence[str]] = None,
                    conditions: Optional[Sequence[str]] = None,
                    policies: Optional[Sequence[str]] = None,
                    minutes: float = 0.5, seed: int = 0,
                    connections: int = 250, hosts: int = 1,
                    cpus: int = 1, jobs: Optional[int] = None,
                    stream: bool = False,
                    progress=None) -> Sec51Result:
    """The whole Section 5.1 study: serverfarm populations + grid.

    ``stream=True`` harvests the population through the bounded-memory
    path (``retain_events=False`` with a live streaming suite) — the
    result is byte-identical because the population lives on the farm
    components, which see the same deterministic dispatch either way.
    ``hosts > 1`` runs the population on a cluster scene whose
    members stamp a ``cpus``-wide trace ``cpu`` column, mirroring
    ``timerstudy run``; ``cpus > 1`` needs ``hosts > 1``.
    """
    from ..kern.registry import backend_names
    from ..sim.clock import MINUTE
    from ..workloads import WORKLOADS

    if cpus > 1 and hosts <= 1:
        raise ValueError(f"cpus={cpus} needs hosts > 1")
    if backends is None:
        backends = [name for name in backend_names()
                    if (name, "serverfarm") in WORKLOADS]
    backends = list(backends)
    for backend in backends:
        if (backend, "serverfarm") not in WORKLOADS:
            known = sorted(os_name for os_name, workload in WORKLOADS
                           if workload == "serverfarm")
            raise KeyError(f"no serverfarm workload for backend "
                           f"{backend!r}; registered: {known}")
    if conditions is None:
        conditions = ("lan", "datacenter", "wan", "jittery",
                      "lossy-wan", "lan-wan-shift")
    if policies is None:
        policies = tuple(policy_names())
    # Fail on bad names before paying for the population runs.
    for name in conditions:
        get_condition(name)
    for name in policies:
        get_policy(name)
    duration_ns = int(minutes * MINUTE)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    populations: Dict[str, List[int]] = {}
    for backend in backends:
        note(f"populating {backend}/serverfarm "
             f"({hosts} host(s) x {cpus} CPU(s), {minutes:g} min)")
        run = _run_population(backend, duration_ns, seed=seed,
                              connections=connections, hosts=hosts,
                              cpus=cpus, stream=stream)
        populations[backend] = harvest_population(run)
    note(f"simulating {len(backends) * len(conditions) * len(policies)}"
         f" cells ({len(conditions)} conditions x {len(policies)} "
         "policies per backend)")
    return run_sec51_cells(populations, conditions=conditions,
                           policies=policies, seed=seed, jobs=jobs,
                           duration_ns=duration_ns, hosts=hosts,
                           cpus=cpus)


def _run_population(backend: str, duration_ns: int, *, seed: int,
                    connections: int, hosts: int, cpus: int,
                    stream: bool):
    """One serverfarm run, mirroring the CLI's run-mode routing."""
    from ..workloads import WORKLOADS

    sinks = None
    retain = True
    if stream:
        from ..core.streaming import StreamingSuite
        sinks = [StreamingSuite(backend, "serverfarm")]
        retain = False
    if hosts > 1:
        from ..kern.cluster import Cluster
        cluster = Cluster([backend] * hosts, seed=seed, cpus=cpus,
                          sinks=sinks, retain_events=retain)
        cluster.scene("serverfarm", connections=connections)
        run = cluster.finish("serverfarm", duration_ns)
    else:
        runner = WORKLOADS[(backend, "serverfarm")]
        run = runner(duration_ns, seed=seed, sinks=sinks,
                     retain_events=retain, connections=connections)
    if sinks:
        for sink in sinks:
            finish = getattr(sink, "finish", None)
            if finish is not None:
                finish(duration_ns)
    return run


# ---------------------------------------------------------------------------
# Live tracking (the serve daemon's sec51 collector)
# ---------------------------------------------------------------------------

class Sec51LiveTracker:
    """A miniature Section 5.1 cell advanced in virtual time.

    The serve daemon has no offline request population, so its
    ``sec51`` collector runs a continuous one: a fixed request rate
    per network condition, one shared latency stream per condition,
    one estimator per policy.  ``advance(virtual_ns)`` catches the
    simulation up to the daemon's virtual clock (deterministic: the
    number of waits is a pure function of virtual time), and
    ``collect`` mirrors the tallies into the daemon's registry as
    ``repro_sec51_live_*`` series.
    """

    def __init__(self, *, seed: int = 0,
                 conditions: Sequence[str] = ("lan", "wan"),
                 policies: Sequence[str] = ("fixed-30", "jacobson",
                                            "p2-99"),
                 rate_hz: float = 25.0):
        self.conditions = tuple(conditions)
        self.policies = tuple(policies)
        self.rate_hz = rate_hz
        self._models = {
            name: NetModel(get_condition(name),
                           RngStream(seed, f"sec51.live.{name}"))
            for name in self.conditions}
        self._emitted = {name: 0 for name in self.conditions}
        self._cells = {}
        for condition in self.conditions:
            for policy in self.policies:
                spec = get_policy(policy)
                estimator = spec.make() if spec.kind == "adaptive" \
                    else None
                self._cells[(condition, policy)] = {
                    "spec": spec, "estimator": estimator, "waits": 0,
                    "failures": 0, "false_timeouts": 0, "wakeups": 0,
                    "timeout": (spec.fixed_timeout
                                if estimator is None
                                else estimator.timeout())}

    def advance(self, virtual_ns: int) -> None:
        """Feed every cell the waits that virtual time has accrued."""
        target = int(virtual_ns * 1e-9 * self.rate_hz)
        for condition in self.conditions:
            model = self._models[condition]
            while self._emitted[condition] < target:
                index = self._emitted[condition]
                self._emitted[condition] = index + 1
                latency = model.sample(index, 0)
                for policy in self.policies:
                    self._step(self._cells[(condition, policy)],
                               latency)

    def _step(self, cell: dict, latency: Optional[float]) -> None:
        estimator = cell["estimator"]
        timeout = cell["spec"].fixed_timeout if estimator is None \
            else estimator.timeout()
        cell["timeout"] = timeout
        cell["waits"] += 1
        if latency is None:
            cell["failures"] += 1
            cell["wakeups"] += 1
            return
        if latency > timeout:
            cell["false_timeouts"] += 1
            cell["wakeups"] += 1
        if estimator is not None:
            estimator.observe(latency)

    def collect(self, registry, labels: dict) -> None:
        """Mirror the live tallies into ``registry``."""
        names = tuple(labels) + ("condition", "policy")
        waits = registry.counter(
            "repro_sec51_live_waits_total",
            "Request waits simulated by the live Section 5.1 cell.",
            names)
        failures = registry.counter(
            "repro_sec51_live_failures_total",
            "Genuine failures (reply never arriving) in the live "
            "cell.", names)
        spurious = registry.counter(
            "repro_sec51_live_false_timeouts_total",
            "Spurious timeouts: the policy fired although the reply "
            "was coming.", names)
        wakeups = registry.counter(
            "repro_sec51_live_wakeups_total",
            "Timer expirations (failure detections + spurious "
            "wakeups).", names)
        timeout = registry.gauge(
            "repro_sec51_live_timeout_seconds",
            "The timeout each policy is currently handing out.",
            names)
        for (condition, policy), cell in self._cells.items():
            series = {"condition": condition, "policy": policy}
            series.update(labels)
            waits.set_total(cell["waits"], **series)
            failures.set_total(cell["failures"], **series)
            spurious.set_total(cell["false_timeouts"], **series)
            wakeups.set_total(cell["wakeups"], **series)
            timeout.set(cell["timeout"], **series)
