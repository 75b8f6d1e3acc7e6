"""Property-based tests (hypothesis) for the core data structures and the
paper's invariants.

These cover the pure building blocks where the paper's lemmas are stated:
the cross-level weight differencing (Theorem IV.1's lower bound), level
aggregation (weighted averages stay in the convex hull of checkpoints),
trimmed means (validity of the baselines), the shift codec, the size
accounting and the BinAA engine run in a synchronous lockstep harness
(range halving and convex validity for arbitrary binary input vectors) —
plus the adversary strategies themselves: whatever garbage they are fed,
every strategy must emit *well-formed* outbound instructions (valid
recipients, serialisable payloads), because the simulation engines and the
traffic accounting rely on that shape.  The fault vocabulary is covered too:
every spec type survives ``from_dict(to_dict(x))`` through real JSON.
"""

import json
from typing import List

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.adversary.strategies import (
    CrashStrategy,
    DelayedHonestStrategy,
    EquivocatingStrategy,
    RandomBitStrategy,
    ScheduledStrategy,
    SpamStrategy,
)
from repro.core.aggregation import (
    aggregate_level,
    cross_level_output,
    cross_level_weights,
    round_to_epsilon,
    LevelAggregate,
)
from repro.errors import ConfigurationError
from repro.faults.spec import CorruptionSpec, FaultSpec
from repro.net.chaos import CorruptSpec, ResetSpec, WireFaults
from repro.net.message import Message, estimate_size_bits
from repro.net.network import DelayWindow, JsonSpec, LossWindow, PartitionWindow
from repro.oracle.chaos import ChaosSchedule, KillSpec, PauseSpec
from repro.protocols.base import BROADCAST, Outbound, ProtocolNode
from repro.protocols.baselines.abraham_aaa import trimmed_mean
from repro.protocols.binaa import BinAAEngine

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestCrossLevelWeightProperties:
    @given(st.lists(weights, min_size=1, max_size=12))
    def test_primed_weights_non_negative(self, level_weights):
        assert all(w >= 0.0 for w in cross_level_weights(level_weights))

    @given(st.lists(weights, min_size=1, max_size=12))
    def test_saturated_level_guarantees_half_total(self, level_weights):
        """Theorem IV.1: if any level weight is 1, the differenced sum >= 1/2."""
        if any(abs(w - 1.0) < 1e-12 for w in level_weights):
            assert sum(cross_level_weights(level_weights)) >= 0.5 - 1e-9

    @given(st.lists(weights, min_size=2, max_size=12), st.integers(min_value=0, max_value=10))
    def test_levels_above_first_saturation_contribute_zero(self, level_weights, position):
        position = min(position, len(level_weights) - 2)
        level_weights = list(level_weights)
        # Force saturation at `position` and at every later level.
        for index in range(position, len(level_weights)):
            level_weights[index] = 1.0
        primed = cross_level_weights(level_weights)
        assert all(abs(w) < 1e-12 for w in primed[position + 1:])


class TestAggregationProperties:
    @given(
        st.dictionaries(
            st.integers(min_value=-50, max_value=50),
            weights,
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.1, max_value=10.0),
        values,
    )
    def test_level_value_within_checkpoint_hull(self, weight_map, separator, own_input):
        checkpoint_values = {index: index * separator for index in weight_map}
        aggregate = aggregate_level(0, checkpoint_values, weight_map, own_input, 1e-3)
        if aggregate.fallback:
            assert aggregate.value == own_input
        else:
            positive = [checkpoint_values[i] for i, w in weight_map.items() if w > 0]
            assert min(positive) - 1e-9 <= aggregate.value <= max(positive) + 1e-9

    @given(
        st.lists(
            st.tuples(values, st.floats(min_value=1e-6, max_value=1.0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_cross_level_output_within_level_value_hull(self, pairs):
        aggregates = [
            LevelAggregate(level=i, value=v, weight=w, fallback=False)
            for i, (v, w) in enumerate(pairs)
        ]
        output = cross_level_output(aggregates)
        lows = min(v for v, _ in pairs)
        highs = max(v for v, _ in pairs)
        assert lows - 1e-6 <= output <= highs + 1e-6

    @given(values, st.floats(min_value=1e-3, max_value=100.0))
    def test_rounding_moves_value_at_most_half_epsilon(self, value, epsilon):
        rounded = round_to_epsilon(value, epsilon)
        assert abs(rounded - value) <= epsilon / 2 + 1e-6


class TestTrimmedMeanProperties:
    @given(
        st.lists(values, min_size=3, max_size=25),
        st.lists(values, min_size=0, max_size=4),
    )
    def test_trimmed_mean_stays_in_honest_hull(self, honest, byzantine):
        trim = len(byzantine)
        if len(honest) + len(byzantine) <= 2 * trim:
            return
        result = trimmed_mean(honest + byzantine, trim)
        # With at most `trim` adversarial values and `trim` removed from each
        # side, the result cannot leave the honest convex hull.
        assert min(honest) - 1e-9 <= result <= max(honest) + 1e-9


class TestSizeAccountingProperties:
    nested = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=10)),
        lambda children: st.lists(children, max_size=4),
        max_leaves=20,
    )

    @given(nested)
    def test_size_is_non_negative_and_deterministic(self, payload):
        assert estimate_size_bits(payload) >= 0
        assert estimate_size_bits(payload) == estimate_size_bits(payload)

    @given(nested, nested)
    def test_container_at_least_as_big_as_parts(self, a, b):
        assert estimate_size_bits([a, b]) >= estimate_size_bits(a) + estimate_size_bits(b)

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_message_round_field_monotone(self, round_number):
        smaller = Message("p", "T", round_number, None).size_bits()
        larger = Message("p", "T", round_number * 2, None).size_bits()
        assert larger >= smaller


class _ChattyNode(ProtocolNode):
    """Honest stand-in whose hooks emit one broadcast per delivery, so the
    wrapping/delaying strategies have real traffic to transform."""

    def __init__(self, node_id: int = 2, n: int = 4, t: int = 1) -> None:
        super().__init__(node_id, n, t)

    def on_start(self) -> List[Outbound]:
        return [self.broadcast(Message("chatty", "START", None, 1))]

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        return [self.broadcast(message), self.send(sender, message)]


#: One factory per strategy in ``repro.adversary.strategies`` (plus the
#: schedule wrapper in both phases).
STRATEGY_FACTORIES = [
    lambda: CrashStrategy(),
    lambda: DelayedHonestStrategy(hold_back=2),
    lambda: EquivocatingStrategy(),
    lambda: EquivocatingStrategy(flip_field="value"),
    lambda: RandomBitStrategy(seed=5),
    lambda: SpamStrategy(copies=2, protocols=("junk", "noise")),
    lambda: ScheduledStrategy(CrashStrategy(), activation_time=0.0),
    lambda: ScheduledStrategy(EquivocatingStrategy(), activation_time=1e9),
]

_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=-1000, max_value=1000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["value", "round", "x"]), children, max_size=3),
    ),
    max_leaves=8,
)

_messages = st.builds(
    Message,
    protocol=st.sampled_from(["delphi", "binaa", "rbc", "bba", "junk"]),
    mtype=st.sampled_from(["BUNDLE", "ECHO", "READY", "BVAL", "AUX", "SPAM"]),
    round=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    payload=_payloads,
)


class TestAdversaryStrategyWellFormedness:
    """Every strategy must emit well-formed ``Outbound`` pairs — recipients
    in ``{BROADCAST} ∪ [0, n)``, ``Message`` instances, payloads the size
    accounting and JSON artifacts can digest — for arbitrary inbound
    traffic."""

    @settings(max_examples=30, deadline=None)
    @given(
        factory_index=st.integers(min_value=0, max_value=len(STRATEGY_FACTORIES) - 1),
        inbound=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), _messages), max_size=8
        ),
    )
    def test_outbound_well_formed(self, factory_index, inbound):
        strategy = STRATEGY_FACTORIES[factory_index]()
        node = _ChattyNode()
        strategy.attach(node)
        outbound = list(strategy.on_start())
        for sender, message in inbound:
            outbound.extend(strategy.on_message(sender, message))
        for destination, message in outbound:
            assert destination == BROADCAST or 0 <= destination < node.n
            assert isinstance(message, Message)
            assert isinstance(message.protocol, str) and message.protocol
            assert isinstance(message.mtype, str) and message.mtype
            assert message.round is None or message.round >= 0
            # The wire-size estimate and the JSON artifact writers must both
            # accept whatever payload the strategy produced.
            assert message.size_bits() > 0
            assert estimate_size_bits(message.payload) >= 0
            json.dumps(message.payload, default=str)

    @settings(max_examples=15, deadline=None)
    @given(inbound=st.lists(st.tuples(st.integers(0, 3), _messages), max_size=6))
    def test_scheduled_strategy_is_honest_before_activation(self, inbound):
        """Before its activation time a ScheduledStrategy must forward the
        honest node's messages verbatim."""
        wrapped = ScheduledStrategy(CrashStrategy(), activation_time=1e9)
        wrapped.attach(_ChattyNode())
        honest = _ChattyNode()
        assert wrapped.on_start() == honest.on_start()
        for sender, message in inbound:
            assert wrapped.on_message(sender, message) == honest.on_message(
                sender, message
            )

    @settings(max_examples=15, deadline=None)
    @given(inbound=st.lists(st.tuples(st.integers(0, 3), _messages), max_size=6))
    def test_scheduled_strategy_defers_to_inner_after_activation(self, inbound):
        wrapped = ScheduledStrategy(CrashStrategy(), activation_time=0.5)
        wrapped.attach(_ChattyNode())
        wrapped.now = 1.0
        assert wrapped.on_start() == []
        for sender, message in inbound:
            assert wrapped.on_message(sender, message) == []


def _lockstep_binaa(inputs: List[int], t: int, rounds: int) -> List[float]:
    """Run BinAA engines in synchronous lockstep (no network), delivering every
    emitted sub-message to every engine between steps, until all finish."""
    n = len(inputs)
    engines = [BinAAEngine(n, t, rounds=rounds) for _ in range(n)]
    outbox = []
    for node_id, engine in enumerate(engines):
        for sub in engine.start(inputs[node_id]):
            outbox.append((node_id, sub))
    guard = 0
    while outbox and guard < 10_000:
        guard += 1
        sender, sub = outbox.pop(0)
        for engine in engines:
            for emitted in engine.handle(sender, sub):
                outbox.append((engines.index(engine), emitted))
    return [engine.output for engine in engines]


class TestBinAAEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=7))
    def test_convex_validity_and_range_halving(self, inputs):
        t = (len(inputs) - 1) // 3
        rounds = 3
        outputs = _lockstep_binaa(inputs, t, rounds)
        assert all(output is not None for output in outputs)
        low, high = min(inputs), max(inputs)
        for output in outputs:
            assert low - 1e-12 <= output <= high + 1e-12
        spread = max(outputs) - min(outputs)
        assert spread <= (high - low) / (2 ** rounds) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=4, max_value=8))
    def test_unanimous_inputs_fixed_point(self, bit, n):
        t = (n - 1) // 3
        outputs = _lockstep_binaa([bit] * n, t, rounds=2)
        assert all(output == float(bit) for output in outputs)


# ----------------------------------------------------------------------
# Fault vocabulary: one (de)serialisation for every spec type
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_node_ids = st.integers(min_value=0, max_value=15)
_id_filters = st.none() | st.lists(_node_ids, max_size=3).map(tuple)


@st.composite
def _window_spans(draw):
    start = draw(_times)
    return {"start": start, "end": start + draw(_times)}


_partitions = st.builds(
    lambda span, groups, heal: PartitionWindow(**span, groups=groups, heal_delay=heal),
    _window_spans(),
    st.lists(st.lists(_node_ids, max_size=3).map(tuple), max_size=3).map(tuple),
    _times,
)
_delays = st.builds(
    lambda span, extra, senders, receivers: DelayWindow(
        **span, extra=extra, senders=senders, receivers=receivers
    ),
    _window_spans(),
    _times,
    _id_filters,
    _id_filters,
)
_losses = st.builds(
    lambda span, probability, senders, receivers: LossWindow(
        **span, probability=probability, senders=senders, receivers=receivers
    ),
    _window_spans(),
    st.floats(min_value=0.0, max_value=1.0),
    _id_filters,
    _id_filters,
)
_resets = st.builds(ResetSpec, at=_times, senders=_id_filters, receivers=_id_filters)
_corrupts = st.builds(
    CorruptSpec,
    at=_times,
    count=st.integers(min_value=1, max_value=5),
    senders=_id_filters,
    receivers=_id_filters,
)
_corruptions = st.builds(
    CorruptionSpec,
    strategy=st.sampled_from(["crash", "delay", "spam"]),
    count=st.integers(min_value=-1, max_value=3),
    activation_time=_times,
    options=st.dictionaries(st.sampled_from(["copies", "value"]), st.integers(0, 9)),
    nodes=st.none() | st.lists(_node_ids, max_size=3, unique=True).map(tuple),
)
_kills = st.builds(KillSpec, node=_node_ids, at=_times, restart_delay=_times)
_pauses = st.builds(
    PauseSpec, node=_node_ids, at=_times, duration=st.floats(min_value=0.01, max_value=9.0)
)


def _tuples(strategy):
    return st.lists(strategy, max_size=2).map(tuple)


_wire_faults = st.builds(
    WireFaults,
    partitions=_tuples(_partitions),
    delays=_tuples(_delays),
    losses=_tuples(_losses),
    resets=_tuples(_resets),
    corruptions=_tuples(_corrupts),
)
_fault_specs = st.builds(
    FaultSpec,
    corruptions=_tuples(_corruptions),
    partitions=_tuples(_partitions),
    delays=_tuples(_delays),
    losses=_tuples(_losses),
    allow_over_budget=st.booleans(),
    expect_termination=st.none() | st.booleans(),
)
_schedules = st.builds(
    ChaosSchedule,
    seed=st.integers(min_value=0, max_value=2**31),
    kills=_tuples(_kills),
    pauses=_tuples(_pauses),
    wire=_wire_faults,
)


class TestFaultSpecRoundTrip:
    @given(
        spec=st.one_of(
            _partitions,
            _delays,
            _losses,
            _resets,
            _corrupts,
            _corruptions,
            _kills,
            _pauses,
            _wire_faults,
            _fault_specs,
            _schedules,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_from_dict_inverts_to_dict_through_json(self, spec):
        wire_form = json.loads(json.dumps(spec.to_dict()))
        assert type(spec).from_dict(wire_form) == spec
        assert type(spec).from_dict(wire_form).to_dict() == spec.to_dict()

    @given(
        spec=st.one_of(_wire_faults, _fault_specs, _schedules), data=st.data()
    )
    @settings(max_examples=100, deadline=None)
    def test_unknown_nested_key_names_the_inner_class(self, spec, data):
        """The nested decode is read off the annotations, so a misspelt key
        two levels down is still refused, by the class it was found in."""
        wire_form = json.loads(json.dumps(spec.to_dict()))
        nested = [
            (entry, type(inner).__name__)
            for name, value in wire_form.items()
            for entry, inner in (
                zip(value, getattr(spec, name))
                if isinstance(value, list)
                else [(value, getattr(spec, name))]
            )
            if isinstance(inner, JsonSpec)
        ]
        assume(nested)
        entry, inner_class = data.draw(st.sampled_from(nested))
        entry["bogus"] = 1
        message = f"{inner_class}: unknown key 'bogus'"
        with pytest.raises(ConfigurationError, match=message):
            type(spec).from_dict(wire_form)

    @given(spec=st.one_of(_wire_faults, _fault_specs, _schedules))
    @settings(max_examples=50, deadline=None)
    def test_null_or_missing_spec_fields_mean_the_default(self, spec):
        wire_form = json.loads(json.dumps(spec.to_dict()))
        empty = type(spec)()
        for name in wire_form:
            default = getattr(empty, name)
            if isinstance(default, (tuple, JsonSpec)):
                without = {key: value for key, value in wire_form.items() if key != name}
                for form in (without, {**without, name: None}):
                    assert getattr(type(spec).from_dict(form), name) == default
