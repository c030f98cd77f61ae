"""The engine loop's garbage-collector policy.

While ``run``/``run_until`` dispatch, generations 0 and 1 collect as
usual and no full collection starts; the caller's thresholds come back
afterwards, however the loop ends.
"""

import gc
import weakref

import pytest

from repro.sim import Engine, SimulationError


@pytest.fixture(params=["run", "run_until"])
def run(request):
    def run_engine(engine):
        if request.param == "run":
            engine.run()
        else:
            engine.run_until(1_000)
    return run_engine


@pytest.fixture
def restore_thresholds():
    saved = gc.get_threshold()
    yield
    gc.set_threshold(*saved)


def test_thresholds_restored_after_normal_return(run):
    before = gc.get_threshold()
    seen = []
    engine = Engine()
    engine.call_at(10, lambda: seen.append(gc.get_threshold()))
    run(engine)
    assert gc.get_threshold() == before
    young, middle, full = seen[0]
    assert (young, middle) == before[:2]
    assert full > before[2]


def test_thresholds_restored_when_callback_raises(run):
    before = gc.get_threshold()

    def fail():
        raise SimulationError("callback failed")

    engine = Engine()
    engine.call_at(10, fail)
    with pytest.raises(SimulationError, match="callback failed"):
        run(engine)
    assert gc.get_threshold() == before


def test_caller_custom_thresholds_kept(run, restore_thresholds):
    gc.set_threshold(321, 7, 3)
    seen = []
    engine = Engine()
    engine.call_at(10, lambda: seen.append(gc.get_threshold()))
    run(engine)
    assert gc.get_threshold() == (321, 7, 3)
    assert seen[0][:2] == (321, 7)


@pytest.mark.skipif(not gc.isenabled(), reason="gc is disabled")
def test_young_generations_still_collect_cycles(run):
    class Node:
        pass

    state = {}
    engine = Engine()

    def drop_cycle():
        node = Node()
        node.self = node
        state["ref"] = weakref.ref(node)

    def allocate():
        # Enough young container objects to trigger generation-0 and
        # generation-1 collections many times over.
        state["junk"] = [[] for _ in range(20_000)]

    def check():
        state["dead_before_end"] = state["ref"]() is None

    engine.call_at(10, drop_cycle)
    for when in range(20, 220, 10):
        engine.call_at(when, allocate)
    engine.call_at(500, check)
    run(engine)
    assert state["dead_before_end"]
