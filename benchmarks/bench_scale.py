#!/usr/bin/env python
"""Million-timer scale benchmark: heap vs wheel engine scheduling.

Two measurements back the engine's timing-wheel scheduler
(:mod:`repro.sim.sched`):

* **engine churn at datacenter scale** — a synthetic population
  modelled on the server-farm TCP taxonomy: >1M live far-future
  timers (keepalive/TIME_WAIT) held in the queue while short RTO and
  delayed-ACK timers are armed, mostly cancelled (the ACK arrives),
  and occasionally dispatched at full depth.  The identical operation
  sequence runs on both schedulers; an order-sensitive dispatch
  checksum proves they fire the same events in the same order, and
  the events/s ratio of the full-depth churn phase is the scheduling
  win (target: >= 2x while the >=1M population is live).
* **the serverfarm scene end to end** — the real workload
  (``PORTABLE_SERVERFARM`` scaled up) per backend on both schedulers,
  reporting engine-loop throughput and wheel statistics.
* **host scaling** — the flagship multi-host serverfarm: a fixed
  total connection population spread across 1, 2, and 4 cluster hosts
  on one shared engine (the plain wheel; ``cpus=2`` only sizes the
  trace ``cpu`` column), proving the cluster layer sustains a >=1M
  aggregate live-timer fleet.

Results go to ``BENCH_scale.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time

if __package__ in (None, ""):   # direct invocation without PYTHONPATH
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path and os.path.isdir(_src):
        sys.path.insert(0, _src)

from repro.kern import backend_names
from repro.sim import Engine, use_scheduler
from repro.sim.clock import MILLISECOND, SECOND, millis, seconds
from repro.workloads.serverfarm import (run_linux_serverfarm,
                                        run_vista_serverfarm)

#: The TCP constants the synthetic population mimics.
KEEPALIVE_NS = seconds(7200)
TIME_WAIT_NS = seconds(60)
RTO_NS = millis(204)
DELACK_NS = millis(40)

_HASH_MOD = 1 << 64

_FARM_RUNNERS = {"linux": run_linux_serverfarm,
                 "vista": run_vista_serverfarm}


def engine_churn(kind: str, *, population: int, rounds: int,
                 batch: int) -> dict:
    """Run the deterministic churn script on one scheduler kind."""
    engine = Engine(scheduler=kind)
    state = [0, 0]                    # dispatches, order-sensitive hash

    def fire() -> None:
        state[0] += 1
        state[1] = (state[1] * 1000003 + engine.now) % _HASH_MOD

    ops = 0
    t0 = time.perf_counter()

    # Phase A: the long-lived population.  Per-connection keepalives
    # and TIME_WAIT entries, spread over a few hundred seconds of far
    # future so they land across many wheel buckets.
    longlived = []
    for i in range(population):
        base = KEEPALIVE_NS if i % 3 else TIME_WAIT_NS
        when = base + (i * 7919) % (400 * SECOND)
        longlived.append(engine.call_at(when, fire))
    ops += population
    arm_s = time.perf_counter() - t0

    # Phase B: short-timer churn at full queue depth.  Each round arms
    # a batch of RTO + delayed-ACK pairs; the "ACK" cancels 90% of the
    # RTOs and 75% of the delacks before time advances past them.
    # This is the *at-scale* phase — every operation runs against the
    # full >=1M-timer population — so its events/s is the headline
    # scheduling comparison (arm/drain ramp the depth up and down).
    rng = random.Random(0xC0FFEE)
    churn_ops = 0
    dispatched_before = state[0]
    t1 = time.perf_counter()
    for _ in range(rounds):
        armed = []
        for b in range(batch):
            jitter = rng.randrange(20 * MILLISECOND)
            armed.append((engine.call_after(RTO_NS + jitter, fire), True))
            armed.append((engine.call_after(DELACK_NS + jitter, fire),
                          False))
        churn_ops += 2 * batch
        for index, (handle, is_rto) in enumerate(armed):
            threshold = 10 if is_rto else 4
            if index % threshold:
                handle.cancel()
                churn_ops += 1
        engine.run_until(engine.now + 50 * MILLISECOND)
    churn_s = time.perf_counter() - t1
    ops += churn_ops
    churn_ops += state[0] - dispatched_before

    peak_live = engine.peak_pending

    # Phase C: teardown — the mass-cancel TIME_WAIT pattern, then
    # drain the survivors.
    t2 = time.perf_counter()
    for index, handle in enumerate(longlived):
        if index % 20:                # a few connections stay up
            handle.cancel()
            ops += 1
    engine.run()
    drain_s = time.perf_counter() - t2

    total_s = time.perf_counter() - t0
    ops += state[0]
    sched = engine.scheduler
    return {
        "scheduler": kind,
        "arm_s": round(arm_s, 3),
        "churn_s": round(churn_s, 3),
        "drain_s": round(drain_s, 3),
        "total_s": round(total_s, 3),
        "ops": ops,
        "ops_per_s": round(ops / total_s) if total_s else None,
        "churn_ops": churn_ops,
        "churn_events_per_s": round(churn_ops / churn_s)
        if churn_s else None,
        "dispatched": state[0],
        "dispatch_checksum": state[1],
        "peak_live_timers": peak_live,
        "compactions": sched.compactions,
        "reclaimed": sched.reclaimed,
        "cascades": sched.cascades,
        "bucket_drains": sched.bucket_drains,
    }


def farm_run(os_name: str, kind: str, *, connections: int,
             duration_ns: int, seed: int) -> dict:
    """One serverfarm scene run on one scheduler kind."""
    runner = _FARM_RUNNERS[os_name]
    with use_scheduler(kind):
        t0 = time.perf_counter()
        run = runner(duration_ns, seed=seed, retain_events=False,
                     connections=connections)
        wall_s = time.perf_counter() - t0
    engine = run.kernel.engine
    sched = engine.scheduler
    loop_s = engine.wall_ns / 1e9
    return {
        "scheduler": kind,
        "wall_s": round(wall_s, 3),
        "engine_loop_s": round(loop_s, 3),
        "dispatched": engine.dispatched,
        "scheduled": engine._seq,
        "events_per_s": round(engine.dispatched / loop_s)
        if loop_s else None,
        "peak_live_timers": engine.peak_pending,
        "cascades": sched.cascades,
        "bucket_drains": sched.bucket_drains,
        "compactions": sched.compactions,
    }


def host_scaling_run(hosts: int, *, total_connections: int,
                     duration_ns: int, seed: int, cpus: int) -> dict:
    """One multi-host serverfarm run: the same total population split
    over ``hosts`` machines sharing one engine."""
    from repro.kern import Cluster
    per_host = total_connections // hosts
    # The previous run's cluster is cyclic garbage; collect it before
    # the clock starts, or its collection lands inside this timed run.
    gc.collect()
    t0 = time.perf_counter()
    cluster = Cluster("linux", hosts=hosts, cpus=cpus, seed=seed,
                      retain_events=False)
    cluster.scene("serverfarm", connections=per_host)
    cluster.finish("serverfarm", duration_ns)
    wall_s = time.perf_counter() - t0
    engine = cluster.engine
    sched = engine.scheduler
    loop_s = engine.wall_ns / 1e9
    return {
        "hosts": hosts,
        "cpus": cpus,
        "scheduler": sched.kind,
        "connections_per_host": per_host,
        "total_connections": per_host * hosts,
        "wall_s": round(wall_s, 3),
        "engine_loop_s": round(loop_s, 3),
        "dispatched": engine.dispatched,
        "scheduled": engine._seq,
        "events_per_s": round(engine.dispatched / loop_s)
        if loop_s else None,
        "peak_live_timers": engine.peak_pending,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: small population, short "
                             "scene, no speedup gate")
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)

    if args.smoke:
        population, rounds, batch = 30_000, 4, 2_000
        connections, duration_ns = 1_000, 2 * SECOND
        host_counts, total_connections = (1, 2), 2_000
        host_duration_ns = SECOND
    else:
        population, rounds, batch = 1_100_000, 20, 12_500
        connections, duration_ns = 30_000, 10 * SECOND
        host_counts, total_connections = (1, 2, 4), 1_048_576
        host_duration_ns = SECOND

    # -- engine churn ---------------------------------------------------
    engine_results = {}
    for kind in ("heap", "wheel"):
        print(f"engine churn: {kind} scheduler, population "
              f"{population}", file=sys.stderr)
        engine_results[kind] = engine_churn(
            kind, population=population, rounds=rounds, batch=batch)
    heap_r, wheel_r = engine_results["heap"], engine_results["wheel"]
    identical = (heap_r["dispatch_checksum"] == wheel_r["dispatch_checksum"]
                 and heap_r["dispatched"] == wheel_r["dispatched"])
    speedup_total = (heap_r["total_s"] / wheel_r["total_s"]
                     if wheel_r["total_s"] else None)
    # The at-scale number: events/s while the full population is live
    # (the churn phase).  Arm and drain ramp the depth up from zero and
    # back down, so the total includes sub-scale operation too.
    speedup = (heap_r["churn_s"] / wheel_r["churn_s"]
               if wheel_r["churn_s"] else None)
    peak = wheel_r["peak_live_timers"]
    engine_results["verdict"] = {
        "identical_dispatch": identical,
        "peak_live_timers": peak,
        "speedup_at_scale": round(speedup, 2) if speedup else None,
        "speedup_total": round(speedup_total, 2)
        if speedup_total else None,
        "target": ">=1M live timers, >=2x events/s at that depth, "
                  "identical dispatch",
        "target_met": bool(identical and peak >= 1_000_000
                           and speedup and speedup >= 2.0),
    }

    # -- serverfarm scene ----------------------------------------------
    farm = {}
    for os_name in backend_names():
        per_os = {"connections": connections,
                  "virtual_seconds": duration_ns / 1e9}
        for kind in ("heap", "wheel"):
            print(f"serverfarm: {os_name}/{kind}, {connections} "
                  "connections", file=sys.stderr)
            per_os[kind] = farm_run(os_name, kind,
                                    connections=connections,
                                    duration_ns=duration_ns,
                                    seed=args.seed)
        heap_loop = per_os["heap"]["engine_loop_s"]
        wheel_loop = per_os["wheel"]["engine_loop_s"]
        per_os["engine_loop_speedup"] = (
            round(heap_loop / wheel_loop, 2) if wheel_loop else None)
        farm[os_name] = per_os

    # -- host scaling ---------------------------------------------------
    host_runs = []
    for hosts in host_counts:
        print(f"host scaling: {hosts} host(s), "
              f"{total_connections} total connections", file=sys.stderr)
        host_runs.append(host_scaling_run(
            hosts, total_connections=total_connections,
            duration_ns=host_duration_ns, seed=args.seed, cpus=2))
    fleet_peak = max((r["peak_live_timers"] for r in host_runs
                      if r["hosts"] >= 2), default=0)
    cluster_target_met = args.smoke or fleet_peak >= 1_000_000
    host_scaling = {
        "total_connections": total_connections,
        "virtual_seconds": host_duration_ns / 1e9,
        "runs": host_runs,
        "verdict": {
            "aggregate_peak_live_at_2plus_hosts": fleet_peak,
            "target": ">=1M aggregate live timers at >=2 hosts",
            "target_met": bool(cluster_target_met),
        },
    }

    result = {
        "config": {"seed": args.seed, "smoke": args.smoke,
                   "population": population, "rounds": rounds,
                   "batch": batch, "connections": connections,
                   "host_counts": list(host_counts),
                   "total_connections": total_connections,
                   "cpus": os.cpu_count()},
        "engine": engine_results,
        "serverfarm": farm,
        "host_scaling": host_scaling,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    verdict = engine_results["verdict"]
    print(f"\npeak live timers {verdict['peak_live_timers']}, "
          f"wheel speedup {verdict['speedup_at_scale']}x at scale "
          f"({verdict['speedup_total']}x total), identical dispatch: "
          f"{verdict['identical_dispatch']}", file=sys.stderr)
    print(f"host scaling: {fleet_peak} aggregate live timers at "
          f">=2 hosts (target met: {cluster_target_met})",
          file=sys.stderr)
    print(f"results -> {args.out}", file=sys.stderr)
    if args.smoke:
        return 0 if identical else 1
    return 0 if (verdict["target_met"] and cluster_target_met) else 1


if __name__ == "__main__":
    raise SystemExit(main())
