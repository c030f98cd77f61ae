"""The serverfarm workload: the paper's TCP timer taxonomy, held
concurrently by a whole population of persistent connections.

Pins the datacenter scene behind ``benchmarks/bench_scale.py``: every
TCP timer class the paper catalogues must appear in the trace, the
keepalive asymmetry between the OSes must match §4.3's observation,
and the connection churn must actually recycle slots.
"""

import pytest

from repro.linuxkern.subsystems.net import (SITE_DELACK, SITE_KEEPALIVE,
                                            SITE_RTO, SITE_TIMEWAIT)
from repro.sim.clock import SECOND
from repro.tracing import trace_to_bytes
from repro.workloads import run_workload
from repro.workloads.serverfarm import (SITE_VISTA_REXMIT,
                                        SITE_VISTA_TIMEWAIT,
                                        run_linux_serverfarm,
                                        run_vista_serverfarm)

DURATION = 40 * SECOND
CONNECTIONS = 60


@pytest.fixture(scope="module")
def linux_farm():
    return run_linux_serverfarm(DURATION, seed=11,
                                connections=CONNECTIONS)


@pytest.fixture(scope="module")
def vista_farm():
    return run_vista_serverfarm(DURATION, seed=11,
                                connections=CONNECTIONS)


class TestLinuxFarm:
    def test_full_tcp_taxonomy_present(self, linux_farm):
        sites = {event.site for event in linux_farm.trace.events}
        for site in (SITE_RTO, SITE_DELACK, SITE_KEEPALIVE,
                     SITE_TIMEWAIT):
            assert site in sites, f"missing {site[0]}"

    def test_connections_churn(self, linux_farm):
        farm = linux_farm.components["farm"]
        assert farm.opened >= CONNECTIONS
        assert farm.closed > 0                  # slots recycled
        assert farm.opened > farm.closed        # population persists
        assert farm.active == farm.opened - farm.closed

    def test_registry_name_matches_direct_run(self):
        direct = run_linux_serverfarm(5 * SECOND, seed=2,
                                      connections=20)
        via = run_workload("linux", "serverfarm", 5 * SECOND, seed=2)
        # The registry path runs the default population; same scene,
        # same seed, different size must still be the same model.
        assert via.trace.workload == direct.trace.workload == "serverfarm"


class TestVistaFarm:
    def test_taxonomy_sites_present(self, vista_farm):
        sites = {event.site for event in vista_farm.trace.events}
        assert SITE_VISTA_REXMIT in sites
        assert SITE_VISTA_TIMEWAIT in sites

    def test_no_keepalive_on_vista(self, vista_farm):
        # §4.3: the Vista webserver trace shows no keepalive timer.
        assert not any("keepalive" in frame.lower()
                       for event in vista_farm.trace.events
                       for frame in event.site)

    def test_requests_and_churn(self, vista_farm):
        farm = vista_farm.components["farm"]
        assert farm.requests > farm.opened      # persistent connections
        assert farm.closed > 0
        assert farm.active == farm.opened - farm.closed


class TestDeterminism:
    @pytest.mark.parametrize("os_name", ["linux", "vista"])
    def test_seed_stable_at_any_population(self, os_name):
        runner = (run_linux_serverfarm if os_name == "linux"
                  else run_vista_serverfarm)
        first = runner(5 * SECOND, seed=9, connections=35)
        second = runner(5 * SECOND, seed=9, connections=35)
        assert (trace_to_bytes(first.trace, format="binfmt")
                == trace_to_bytes(second.trace, format="binfmt"))
