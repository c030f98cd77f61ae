"""Cluster-layer tests: multi-host machines on one engine, host/CPU
stamping, deterministic merge, per-host analysis, and the single-host
byte-identity invariant."""

import pytest

from repro.kern import Cluster, Machine
from repro.sim.clock import SECOND
from repro.tracing import trace_to_bytes
from repro.tracing.relay import HostStampSink
from repro.workloads import run_cluster_workload, run_workload

DURATION_NS = 2 * SECOND
SEED = 20080430


def small_cluster(backends="linux", **kwargs):
    kwargs.setdefault("seed", SEED)
    cluster = Cluster(backends, **kwargs)
    cluster.scene("serverfarm", connections=40)
    return cluster.finish("serverfarm", DURATION_NS)


# -- construction ----------------------------------------------------------

def test_cluster_validates_hosts():
    with pytest.raises(ValueError):
        Cluster("linux", hosts=0)
    with pytest.raises(ValueError):
        Cluster("linux", hosts=256)
    with pytest.raises(ValueError):
        Cluster(["linux", "vista"], hosts=3)


def test_machines_share_engine_and_number_from_one():
    cluster = Cluster("linux", hosts=3)
    assert [m.host_id for m in cluster.machines] == [1, 2, 3]
    engines = {id(m.kernel.engine) for m in cluster.machines}
    assert engines == {id(cluster.engine)}


def test_machine_validates_identity():
    with pytest.raises(ValueError):
        Machine("linux", host_id=-1)
    with pytest.raises(ValueError):
        Machine("linux", host_id=256)
    with pytest.raises(ValueError):
        Machine("linux", cpus=0)
    with pytest.raises(ValueError):
        Machine("linux", cpus=2)


# -- host/cpu stamping -----------------------------------------------------

def test_events_carry_host_identity():
    run = small_cluster(hosts=2, cpus=2)
    hosts = {event.host for event in run.trace.events}
    assert hosts == {1, 2}
    cpus = {event.cpu for event in run.trace.events}
    assert cpus <= {0, 1} and len(cpus) > 1
    assert run.hosts == 2


def test_host_stamp_sink_rejects_standalone_host():
    with pytest.raises(ValueError):
        HostStampSink([], 0, 1)


def test_host_stamp_sink_spreads_slab_aligned_ids():
    """Timer ids stride by 0x40 (slab-like addresses); the cpu hash
    must shift those alignment bits out or everything lands on CPU 0."""
    events = []

    class Raw:
        def emit(self, event):
            events.append(event)

    sink = HostStampSink(Raw(), 7, 4)
    from repro.tracing import EventKind, TimerEvent
    for i in range(8):
        sink.emit(TimerEvent(EventKind.SET, i, 0x1000 + i * 0x40, 1,
                             "c", "user", ("f",), 1, 2))
    assert {event.host for event in events} == {7}
    assert sorted({event.cpu for event in events}) == [0, 1, 2, 3]


# -- merge determinism and per-host views ----------------------------------

def test_merge_is_deterministic_and_time_ordered():
    a = small_cluster(hosts=2, cpus=2)
    b = small_cluster(hosts=2, cpus=2)
    assert trace_to_bytes(a.trace) == trace_to_bytes(b.trace)
    ts = [event.ts for event in a.trace.events]
    assert ts == sorted(ts)


def test_host_runs_partition_the_merged_trace():
    run = small_cluster(hosts=2)
    assert len(run.runs) == 2
    per_host = {h: [e for e in run.trace.events if e.host == h]
                for h in (1, 2)}
    for host in (1, 2):
        sub = run.host_run(host)
        assert [tuple(e) for e in sub.trace.events] == \
            [tuple(e) for e in per_host[host]]
        assert sub.trace.duration_ns == DURATION_NS
    with pytest.raises(IndexError):
        run.host_run(3)
    with pytest.raises(IndexError):
        run.host_run(0)


def test_mixed_backends():
    run = small_cluster(["linux", "vista"])
    assert run.host_run(1).trace.os_name == "linux"
    assert run.host_run(2).trace.os_name == "vista"
    assert {event.host for event in run.trace.events} == {1, 2}


def test_cluster_metrics_labelled_per_host():
    run = small_cluster(hosts=2)
    text = run.metrics().render()
    assert 'host="1"' in text and 'host="2"' in text


# -- workload driver -------------------------------------------------------

def test_run_cluster_workload_is_deterministic():
    run = run_cluster_workload("linux", "serverfarm", DURATION_NS,
                               hosts=2, cpus=2, seed=SEED)
    again = run_cluster_workload("linux", "serverfarm", DURATION_NS,
                                 hosts=2, cpus=2, seed=SEED)
    assert trace_to_bytes(run.trace) == trace_to_bytes(again.trace)
    assert {event.host for event in run.trace.events} == {1, 2}


def test_run_cluster_workload_rejects_non_scene_workloads():
    with pytest.raises(KeyError, match="no cluster form"):
        run_cluster_workload("linux", "skype", DURATION_NS,
                             hosts=2, seed=SEED)


def test_trace_job_six_tuple_single_host_matches_plain_run():
    """The --hosts 1 --cpus 1 invariant at the driver level: a 6-tuple
    job degenerates to exactly the plain single-machine run."""
    from repro.workloads.base import _run_one
    plain = run_workload("linux", "webserver", DURATION_NS, seed=SEED)
    trace, _sinks, _snap = _run_one(("linux", "webserver", DURATION_NS,
                                     SEED, 1, 1), None, True, False)
    assert trace_to_bytes(trace) == trace_to_bytes(plain.trace)


def test_trace_job_six_tuple_multi_host_routes_to_cluster():
    from repro.workloads.base import _run_one
    trace, _sinks, _snap = _run_one(("linux", "serverfarm", DURATION_NS,
                                     SEED, 2, 2), None, True, False)
    assert {event.host for event in trace.events} == {1, 2}


# -- analysis integration --------------------------------------------------

def test_host_rollup_in_cluster_report():
    from repro.core.report import host_rollup, render_analysis
    run = small_cluster(hosts=2)
    report = render_analysis(run.trace)
    assert "Per-host rollup" in report
    rollup = host_rollup(run.trace)
    assert "host 1" in rollup and "host 2" in rollup


def test_no_rollup_for_single_host_traces():
    from repro.core.report import host_rollup, render_analysis
    run = run_workload("linux", "webserver", DURATION_NS, seed=SEED)
    assert host_rollup(run.trace) == ""
    assert "Per-host rollup" not in render_analysis(run.trace)


def test_sharded_analysis_matches_serial_on_cluster_trace():
    from repro.core.report import render_analysis
    from repro.core.shard import sharded_analysis
    run = small_cluster(hosts=2, cpus=2)
    serial = render_analysis(run.trace)
    assert sharded_analysis(run.trace, jobs=2) == serial
