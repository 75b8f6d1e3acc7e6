"""A finished run is freed by refcount, and a run leaves the collector as it
found it.

:meth:`SimulationRuntime.run` pauses the cyclic garbage collector while
either deterministic engine runs.  A run that built reference cycles would
then park its whole node graph in the oldest generation until some later
full collection, so no run may build one: every run below must leave
nothing for ``gc.collect()`` to find once its result is dropped.
"""

import gc
from collections import Counter
from functools import partial

import pytest

from helpers import small_delphi_params
from repro.core.delphi import DelphiNode
from repro.errors import SimulationError
from repro.experiments.cells import build_inputs, run_spec
from repro.experiments.spec import ScenarioSpec
from repro.faults.campaign import run_cell_engine, smoke_campaign
from repro.oracle.service import build_service
from repro.sim.runtime import SimulationConfig, SimulationRuntime

ENGINES = ("fast", "reference")


def _smoke_run(protocol, engine):
    spec = next(
        spec for spec in smoke_campaign().cells()
        if spec.protocol == protocol and spec.n == 4
    )
    run_cell_engine(spec, engine)


def _sharded_run(engine):
    spec = ScenarioSpec(protocol="sharded-delphi", n=8, extras={"group_size": 4})
    run_spec(spec, build_inputs(spec), SimulationConfig(engine=engine))


def _live_epoch():
    build_service("sensors", 4, engine="asyncio", seed=1, parity=False).serve(1)


RUNS = {
    f"{protocol}-smoke-{engine}": partial(_smoke_run, protocol, engine)
    for protocol in ("delphi", "fin")
    for engine in ENGINES
}
RUNS.update({f"sharded-delphi-{engine}": partial(_sharded_run, engine) for engine in ENGINES})
RUNS["asyncio-inmemory-epoch"] = _live_epoch


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    gc.collect()
    RUNS[name]()  # the result is dropped on return
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == 0, (
        f"{name} left {found} objects in reference cycles: {kinds.most_common(10)}"
    )


def _runtime(engine, **config):
    params = small_delphi_params(n=4, delta_max=8.0, max_rounds=3)
    nodes = {
        i: DelphiNode(node_id=i, params=params, value=100.0 + i) for i in range(4)
    }
    return SimulationRuntime(
        nodes=nodes, config=SimulationConfig(engine=engine, **config)
    )


@pytest.fixture
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.parametrize("engine", ENGINES)
class TestCollectorState:
    def test_enabled_stays_enabled_after_a_run(self, engine, collector_enabled):
        assert _runtime(engine).run().all_honest_decided
        assert gc.isenabled()

    def test_enabled_stays_enabled_after_a_run_that_raises(
        self, engine, collector_enabled
    ):
        with pytest.raises(SimulationError, match="max_events"):
            _runtime(engine, max_events=5).run()
        assert gc.isenabled()

    def test_disabled_by_the_caller_stays_disabled(self, engine, collector_enabled):
        gc.disable()
        assert _runtime(engine).run().all_honest_decided
        assert not gc.isenabled()
