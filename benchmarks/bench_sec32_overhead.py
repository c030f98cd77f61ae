"""Section 3.2: instrumentation overhead.

The paper measured (i) ~236 cycles per logged record in a
micro-benchmark of 1,000,000 consecutive runs, (ii) <0.1% total CPU
overhead under a timer-intensive workload, and (iii) <3% perturbation
of the call count versus an unmodified kernel.

Here (i) becomes a real micro-benchmark of our record-emission path,
and (ii)/(iii) compare a workload run against an identical run with a
null sink — the analogue of the unmodified kernel.
"""

from repro.sim.clock import MINUTE
from repro.tracing import CountingSink, EventKind, NullSink, RelayBuffer, \
    TeeSink, TimerEvent
from repro.tracing.events import new_record
from repro.workloads import run_workload
from repro.linuxkern import LinuxKernel
from repro.linuxkern.subsystems import standard_housekeeping

from conftest import BENCH_SEED, save_result


#: Records emitted per timed round of the micro-benchmark.
MICRO_BATCH = 1_000


def test_sec32_record_emission_microbench(benchmark, results_dir):
    """Cost of gathering and logging one record (the 236-cycles item).

    Each record is built the way the kernels' emit sites build it,
    ``new_record(TimerEvent, (...))`` with all twelve fields, and the
    buffer is drained (untimed) before every round, so no round pays
    for collections that walk an earlier round's records.
    """
    buffer = RelayBuffer()
    site = ("tcp_ack", "inet_csk_reset_xmit_timer", "__mod_timer")
    emit = buffer.emit

    def emit_batch():
        for _ in range(MICRO_BATCH):
            emit(new_record(TimerEvent, (
                EventKind.SET, 123456789, 0x1040, 42, "apache2", "kernel",
                site, 204_000_000, 327_000_000, 0, 0, 0)))

    def drain():
        buffer.drain()

    benchmark.pedantic(emit_batch, setup=drain, rounds=200,
                       warmup_rounds=5)
    assert len(buffer) == MICRO_BATCH
    mean_ns = benchmark.stats.stats.mean * 1e9 / MICRO_BATCH
    save_result(results_dir, "sec32_overhead_micro",
                f"per-record emission cost: {mean_ns:.0f} ns "
                f"(paper: 236 cycles ~ 89 ns at 2.66 GHz)")
    # Sub-10µs per record: instrumentation is not the bottleneck.
    assert mean_ns < 10_000


def test_sec32_call_count_perturbation(benchmark, results_dir):
    """The logged run performs the same timer work as the 'unmodified'
    run: behaviour perturbation is zero by construction here, matching
    the paper's <3% bound."""
    def run_with(sink_cls):
        # Count through a tee: a kernel whose sink is a bare NullSink
        # builds no records at all, so the counter must be a sink the
        # kernel sees, not a patch on the discarding one.
        counter = CountingSink()
        kernel = LinuxKernel(seed=BENCH_SEED,
                             sink=TeeSink([sink_cls(), counter]))
        for timer in standard_housekeeping(kernel):
            timer.start()
        kernel.run_for(MINUTE)
        return counter.total

    logged = benchmark.pedantic(lambda: run_with(RelayBuffer),
                                rounds=1, iterations=1)
    unlogged = run_with(NullSink)
    delta_pct = abs(logged - unlogged) / unlogged * 100
    save_result(results_dir, "sec32_overhead_counts",
                f"calls with logging: {logged}\n"
                f"calls without:      {unlogged}\n"
                f"perturbation:       {delta_pct:.2f}% (paper: <3%)")
    assert delta_pct < 3.0
