"""Cross-OS parity: the portable workload layer vs the legacy runners.

Satellite 4 of the portability refactor: the portable idle/webserver
definitions must reproduce the exact per-backend traces (and hence the
exact Table 1/2 rows) the legacy per-OS runners produce, pinning the
registry + Machine + scene plumbing end to end.
"""

import pytest

from repro.core import classify_trace, summarize
from repro.kern import backend_names
from repro.tracing import trace_to_bytes
from repro.workloads import run_workload
from repro.workloads.portable import (PORTABLE_IDLE, PORTABLE_MIX,
                                      PORTABLE_SERVERFARM,
                                      PORTABLE_WEBSERVER, PORTABLE_WORKLOADS,
                                      run_portable)

DURATION_NS = 30_000_000_000


def _class_counts(trace):
    counts = {}
    for c in classify_trace(trace):
        name = c.timer_class.name
        counts[name] = counts.get(name, 0) + 1
    return counts


@pytest.mark.parametrize("os_name", ["linux", "vista"])
@pytest.mark.parametrize("portable",
                         [PORTABLE_IDLE, PORTABLE_WEBSERVER,
                          PORTABLE_SERVERFARM],
                         ids=["idle", "webserver", "serverfarm"])
def test_portable_matches_legacy_trace_bytes(os_name, portable):
    legacy = run_workload(os_name, portable.name, DURATION_NS, seed=0)
    ported = portable.run(os_name, DURATION_NS, seed=0)
    assert (trace_to_bytes(ported.trace, format="binfmt")
            == trace_to_bytes(legacy.trace, format="binfmt"))


@pytest.mark.parametrize("os_name", ["linux", "vista"])
def test_portable_matches_legacy_taxonomy(os_name):
    legacy = run_workload(os_name, "idle", DURATION_NS, seed=0)
    ported = PORTABLE_IDLE.run(os_name, DURATION_NS, seed=0)
    assert _class_counts(ported.trace) == _class_counts(legacy.trace)
    assert summarize(ported.trace).as_row() == summarize(legacy.trace).as_row()


@pytest.mark.parametrize("os_name", ["linux", "vista"])
def test_portable_run_is_seed_stable(os_name):
    first = PORTABLE_IDLE.run(os_name, DURATION_NS, seed=7)
    second = PORTABLE_IDLE.run(os_name, DURATION_NS, seed=7)
    assert (trace_to_bytes(first.trace, format="binfmt")
            == trace_to_bytes(second.trace, format="binfmt"))


@pytest.mark.parametrize("os_name", ["linux", "vista"])
def test_portable_mix_reproduces_section_41_taxonomy(os_name):
    # One app per paper pattern; each must classify as its intended
    # class on *both* backends — the arm verbs lower to mod_timer or
    # KeSetTimer but the observable behaviour is the same.
    run = PORTABLE_MIX.run(os_name, 60_000_000_000, seed=0)
    by_site = {c.history.site[0]: c.timer_class.name
               for c in classify_trace(run.trace)}
    assert by_site == {
        "app!heartbeat": "PERIODIC",
        "app!io_guard": "WATCHDOG",
        "app!poll_delay": "DELAY",
        "app!rpc_timeout": "TIMEOUT",
    }


def test_portable_mix_sites_name_the_app_timer():
    run = PORTABLE_MIX.run("linux", 10_000_000_000, seed=0)
    lower = {c.history.site[2] for c in classify_trace(run.trace)}
    assert lower == {"__mod_timer"}
    run = PORTABLE_MIX.run("vista", 10_000_000_000, seed=0)
    lower = {c.history.site[2] for c in classify_trace(run.trace)}
    assert lower == {"nt!KeSetTimer"}


def test_portable_registry_entry_matches_direct_run():
    via_registry = run_workload("linux", "portable", DURATION_NS, seed=0)
    direct = PORTABLE_MIX.run("linux", DURATION_NS, seed=0)
    assert (trace_to_bytes(via_registry.trace, format="binfmt")
            == trace_to_bytes(direct.trace, format="binfmt"))


def test_run_portable_rejects_unknown_names():
    assert set(PORTABLE_WORKLOADS) == {"idle", "webserver", "serverfarm",
                                       "portable"}
    with pytest.raises(KeyError, match="idle"):
        run_portable("nope", "linux")
    for os_name in backend_names():
        run = run_portable("portable", os_name,
                           duration_ns=5_000_000_000)
        assert run.trace.os_name == os_name
