"""One way in: the tables that turn a name into behaviour, pinned.

* a spec runs, through its protocol-table row, the nodes the public
  ``run_delphi`` / ``run_sharded_delphi`` calls build, and for the five
  baselines the nodes their former ``runner`` helpers built — those
  bodies are kept here as the reference;
* the plain ``adversary`` / ``num_byzantine`` fields are the one-group
  ``FaultSpec`` they describe — the rule ``cells._make_strategy`` used to
  spell out is kept here as the reference;
* a workload name plus overrides gives the same ``DelphiParameters``
  whichever way the oracle stack is assembled;
* every float field of every spec class is valid or refused when the spec
  is built (``repro.domains``), on the API and on the ``run`` command line.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, get_type_hints

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import runner
from repro.adversary.strategies import (
    CrashStrategy,
    DelayedHonestStrategy,
    EquivocatingStrategy,
    RandomBitStrategy,
    SpamStrategy,
)
from repro.core.dora import DoraNode
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError, NetworkError
from repro.experiments.cells import build_adversary, build_inputs, build_network, run_spec
from repro.experiments.cli import main
from repro.experiments.spec import ScenarioSpec
from repro.faults.campaign import run_fault_cell
from repro.faults.spec import CorruptionSpec, scenario_corrupted_ids
from repro.net.bandwidth import BandwidthModel
from repro.net.chaos import CorruptSpec, ResetSpec
from repro.net.latency import ConstantLatency, GeoLatencyModel, UniformLatency
from repro.net.network import DelayWindow, DeliveryPolicy, LossWindow, PartitionWindow
from repro.oracle.chaos import KillSpec, PauseSpec
from repro.oracle.cluster import ClusterConfig
from repro.oracle.gateway import build_gateway
from repro.oracle.service import build_service
from repro.protocols.baselines.abraham_aaa import AbrahamAAANode
from repro.protocols.baselines.dolev_aaa import DolevAAANode
from repro.protocols.baselines.fin_acs import FinAcsNode
from repro.protocols.baselines.hbbft_acs import HoneyBadgerAcsNode
from repro.protocols.registry import PROTOCOLS, delphi_parameters
from repro.protocols.sharded_delphi import sharded_parameters_of
from repro.workloads import EPOCH_WORKLOADS
from repro.workloads.ticks import TickBufferWorkload


# ----------------------------------------------------------------------
# Spec -> protocol run.


def _public_call(spec: ScenarioSpec, inputs, **env):
    """The run a spec stands for, written out: the public runner call, or
    the node-building body of the baseline's former ``runner`` helper."""
    if spec.protocol == "delphi":
        return runner.run_delphi(delphi_parameters(spec), inputs, **env)
    if spec.protocol == "sharded-delphi":
        return runner.run_sharded_delphi(sharded_parameters_of(spec), inputs, **env)
    n = spec.n
    rounds = dict(epsilon=spec.epsilon, delta_max=spec.delta_max, rounds=spec.max_rounds)
    make_node = {
        "dora": lambda: partial(
            DoraNode, params=delphi_parameters(spec), scheme=SignatureScheme(num_nodes=n)
        ),
        "abraham": lambda: partial(AbrahamAAANode, n=n, t=(n - 1) // 3, **rounds),
        "dolev": lambda: partial(DolevAAANode, n=n, t=(n - 1) // 5, **rounds),
        "fin": lambda: partial(FinAcsNode, n=n, t=(n - 1) // 3),
        "hbbft": lambda: partial(HoneyBadgerAcsNode, n=n, t=(n - 1) // 3),
    }[spec.protocol]()
    nodes = {node: make_node(node_id=node, value=float(inputs[node])) for node in range(n)}
    return runner.run_protocol(spec.protocol, nodes, **env)


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_registry_run_is_the_public_runner_call(protocol):
    spec = ScenarioSpec(protocol=protocol, n=7, seed=3, adversary="crash", num_byzantine=1)
    if protocol == "sharded-delphi":
        spec = spec.replace(n=12, group_size=4)
    inputs = build_inputs(spec)
    through_table, _derived = run_spec(spec, inputs)
    network, compute = build_network(spec)
    direct = _public_call(
        spec, inputs, network=network, compute=compute, byzantine=build_adversary(spec)
    )
    assert through_table.protocol == direct.protocol == protocol
    assert through_table.outputs == direct.outputs
    assert through_table.runtime_seconds == direct.runtime_seconds
    assert through_table.message_count == direct.message_count
    assert through_table.events_processed == direct.events_processed
    assert through_table.byzantine_nodes == direct.byzantine_nodes == [spec.n - 1]


# ----------------------------------------------------------------------
# Plain adversary fields -> FaultSpec.


def _parent_rule(spec: ScenarioSpec):
    """``build_adversary`` for the plain fields as it read before the lift."""
    make = {
        "crash": lambda node: CrashStrategy(),
        "delay": lambda node: DelayedHonestStrategy(
            hold_back=int(spec.extras.get("hold_back", 3))
        ),
        "equivocate": lambda node: EquivocatingStrategy(),
        "random-bit": lambda node: RandomBitStrategy(seed=spec.seed + node),
        "spam": lambda node: SpamStrategy(copies=int(spec.extras.get("spam_copies", 2))),
    }[spec.adversary]
    return {node: make(node) for node in range(spec.n - spec.num_byzantine, spec.n)}


def _describe(strategy):
    state = dict(vars(strategy))
    if "_rng" in state:
        state["_rng"] = state["_rng"].getstate()
    return type(strategy), state


@pytest.mark.parametrize("extras", [{}, {"hold_back": 5, "spam_copies": 4}])
@pytest.mark.parametrize("num_byzantine", [1, 2, 4])  # t = 2 at n = 7: 4 is over budget
@pytest.mark.parametrize("adversary", ["crash", "delay", "equivocate", "random-bit", "spam"])
def test_plain_adversary_fields_lift_to_the_same_strategies(adversary, num_byzantine, extras):
    spec = ScenarioSpec(
        n=7, seed=11, adversary=adversary, num_byzantine=num_byzantine, extras=extras
    )
    built = build_adversary(spec)
    expected = _parent_rule(spec)
    assert sorted(built) == sorted(expected)
    for node, strategy in expected.items():
        assert _describe(built[node]) == _describe(strategy), node
    assert sorted(scenario_corrupted_ids(spec)) == sorted(expected)


def test_no_plain_adversary_means_no_strategies():
    assert build_adversary(ScenarioSpec(adversary="crash", num_byzantine=0)) is None
    assert build_adversary(ScenarioSpec(adversary="none", num_byzantine=2)) is None
    assert scenario_corrupted_ids(ScenarioSpec(adversary="none", num_byzantine=2)) == []


# ----------------------------------------------------------------------
# Workload -> oracle stack.


@pytest.mark.parametrize(
    "overrides",
    [{}, {"epsilon": 0.25}, {"delta_max": 40.0}, {"epsilon": 0.25, "delta_max": 40.0}],
    ids=["defaults", "epsilon", "delta_max", "both"],
)
@pytest.mark.parametrize("workload", sorted(EPOCH_WORKLOADS))
def test_every_assembly_derives_the_same_parameters(workload, overrides):
    service = build_service(workload, 7, engine="fast", **overrides)
    gateway = build_gateway(workload, 7, **overrides)
    config = ClusterConfig(n=7, workload=workload, **overrides)
    assert service.params == gateway.service.params == config.params()

    defaults = EPOCH_WORKLOADS[workload]
    params = service.params
    assert params.epsilon == overrides.get("epsilon", defaults["epsilon"])
    assert params.delta_max == overrides.get("delta_max", defaults["delta_max"])
    # The calibrated rho0 belongs to the calibrated epsilon.
    assert params.rho0 == (params.epsilon if "epsilon" in overrides else defaults["rho0"])

    ticks = gateway.service.workload
    assert isinstance(ticks, TickBufferWorkload)
    assert ticks.max_spread == params.delta_max
    assert gateway.ticks is ticks
    assert type(ticks.base) is type(service.workload)


# ----------------------------------------------------------------------
# A spec is valid or refused: every float field of every spec class.

#: One valid instance's arguments per spec class.
SPEC_BASES = {
    ScenarioSpec: dict(protocol="delphi", n=4, seed=1, max_rounds=3),
    CorruptionSpec: {},
    DelayWindow: dict(start=0.0, end=0.05, extra=0.01),
    LossWindow: dict(start=0.0, end=0.05, probability=0.1),
    PartitionWindow: dict(start=0.0, end=0.05, groups=((0,),)),
    ResetSpec: dict(at=0.0),
    CorruptSpec: dict(at=0.0),
    KillSpec: dict(node=1, at=0.0),
    PauseSpec: dict(node=1, at=0.0),
    ClusterConfig: dict(n=4, workload="sensors"),
    DeliveryPolicy: {},
    ConstantLatency: {},
    UniformLatency: {},
    GeoLatencyModel: dict(regions=("a",), one_way_ms={("a", "a"): 1.0}, num_nodes=4),
    BandwidthModel: {},
}

#: Every float field, read off the annotations (a new one is walked too).
FLOAT_FIELDS = [
    (cls, name)
    for cls in SPEC_BASES
    for name, hint in get_type_hints(cls).items()
    if hint in (float, Optional[float]) and not name.startswith("_")
]

#: The only pairings of a field with NaN, +inf, -inf or -1.0 a spec may
#: hold; each runs to a verdict below, every other one is refused.
LEGAL = {
    (DelayWindow, "end", math.inf),  # a window that never closes
    (LossWindow, "end", math.inf),
    (ScenarioSpec, "centre", -1.0),  # any finite centre
    (BandwidthModel, "bits_per_second", math.inf),  # unthrottled
}


def _verdict(spec):
    """Both engines under the invariant monitors, for a scenario or for
    the base scenario with one fault window or on one bandwidth model."""
    if isinstance(spec, BandwidthModel):
        base = ScenarioSpec(**SPEC_BASES[ScenarioSpec])
        network, _compute = build_network(base)
        assert network.accountant.model == spec  # the lan testbed's own model
        return run_fault_cell(base)
    if not isinstance(spec, ScenarioSpec):
        kind = {DelayWindow: "delays", LossWindow: "losses"}[type(spec)]
        faults = {kind: [spec.to_dict()]}
        spec = ScenarioSpec(**SPEC_BASES[ScenarioSpec], extras={"faults": faults})
    return run_fault_cell(spec)


def test_every_spec_class_has_float_fields():
    assert {cls for cls, _ in FLOAT_FIELDS} == set(SPEC_BASES)
    assert len(FLOAT_FIELDS) == 36


@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS]
)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=-1.0)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf, -1.0]))
def test_every_float_field_is_valid_or_refused(cls, name, value):
    arguments = {**SPEC_BASES[cls], name: value}
    if (cls, name, value) in LEGAL:
        verdict = _verdict(cls(**arguments))
        assert verdict.equivalent and verdict.status in ("ok", "stalled"), verdict.as_dict()
        return
    error = NetworkError if cls is DeliveryPolicy else ConfigurationError
    with pytest.raises(error, match=rf"^{cls.__name__}\.{name}: \S+ is not in [\[(]"):
        cls(**arguments)


@pytest.mark.parametrize("flag, value", [("--epsilon", "nan"), ("--delta-max", "inf")])
def test_run_refuses_a_float_outside_its_domain(capsys, flag, value):
    assert main(["run", flag, value]) == 2
    err = capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    assert err.startswith(f"error: ScenarioSpec.{field}: {value} is not in (0, inf)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, named",
    [
        (dict(delta_max=1e308, rho0=1e-308), r"delta_max=1e\+308"),  # l_max overflows
        (dict(epsilon=5e-324), r"epsilon=5e-324"),  # rho0 = epsilon: l_max overflows
        (dict(delta=1e308), r"^ScenarioSpec\.delta: 1e\+308 "),  # inputs overflow
    ],
    ids=["delta_max-over-rho0", "epsilon", "delta"],
)
def test_in_domain_extremes_are_refused_by_name(overrides, named):
    spec = ScenarioSpec(protocol="delphi", n=4, seed=1, **overrides)
    with pytest.raises(ConfigurationError, match=named):
        run_spec(spec, build_inputs(spec))


def test_a_fault_window_outside_its_domain_is_refused_with_the_spec():
    faults = {"delays": [{"start": -1.0, "end": 1.0, "extra": 0.0}]}
    with pytest.raises(ConfigurationError, match=r"^DelayWindow\.start: -1\.0 is not in"):
        ScenarioSpec(**SPEC_BASES[ScenarioSpec], extras={"faults": faults})
