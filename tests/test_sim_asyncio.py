"""Tests for the asyncio runtime: liveness regressions, task hygiene,
byzantine/observer/fault seams, and the transport abstraction."""

import asyncio
import math
import time

import pytest
from hypothesis import given, strategies as st

from helpers import small_network
from repro.adversary.strategies import CrashStrategy
from repro.errors import InvariantViolation, LivenessTimeout, SimulationError
from repro.faults.monitors import EpsilonAgreementMonitor
from repro.net.chaos import ChaosTransport, WireFaults
from repro.net.message import Envelope, Message, MessageTrace
from repro.net.network import DelayWindow, LossWindow
from repro.protocols.base import BROADCAST, ProtocolNode
from repro.protocols.binaa import BinAANode
from repro.protocols.bv_broadcast import BVBroadcastNode
from repro.sim.asyncio_runtime import AsyncioRuntime, InMemoryTransport
from repro.sim.observers import (
    ScheduleDigest,
    SimObserver,
    TraceRecorder,
    event_observers,
)
from repro.sim.runtime import SimulationConfig, SimulationRuntime


class InstantDecideNode(ProtocolNode):
    """Decides during on_start, sends nothing — the trivial protocol."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n, 0)

    def on_start(self):
        self._decide(self.node_id * 10)
        return []

    def on_message(self, sender, message):
        return []


class SilentNode(ProtocolNode):
    """Never decides, never answers — forces the wall-clock timeout."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n, 0)

    def on_message(self, sender, message):
        return []


class ExplodingNode(ProtocolNode):
    """Raises a non-Repro error on first delivery."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n, 0)

    def on_start(self):
        if self.node_id == 0:
            return [self.broadcast(Message("boom", "HI", None, 1))]
        return []

    def on_message(self, sender, message):
        raise ValueError("malformed payload reached the state machine")


def delayed(seconds):
    """An in-memory transport that delivers every cross-node message
    ``seconds`` late: the engine's one way to model latency."""
    window = DelayWindow(start=0.0, end=math.inf, extra=seconds)
    return ChaosTransport(InMemoryTransport(), WireFaults(delays=(window,)))


def run_and_audit_tasks(runtime):
    """Run on a fresh loop and return (result_or_error, leaked_tasks)."""
    async def main():
        try:
            result = await runtime.run_async()
            error = None
        except Exception as exc:  # noqa: BLE001 - audited by the caller
            result, error = None, exc
        leaked = [
            task for task in asyncio.all_tasks() if task is not asyncio.current_task()
        ]
        return result, error, leaked

    return asyncio.run(main())


class TestAsyncioRuntime:
    def test_bv_broadcast_completes_on_asyncio(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=i % 2) for i in range(4)}
        result = AsyncioRuntime(nodes, timeout=10.0).run()
        assert set(result.outputs) == {0, 1, 2, 3}
        for output in result.outputs.values():
            assert output.issubset({0, 1})
        assert result.all_honest_decided

    def test_binaa_completes_on_asyncio(self):
        nodes = {i: BinAANode(i, 4, 1, value=i % 2, rounds=3) for i in range(4)}
        result = AsyncioRuntime(nodes, timeout=20.0).run()
        assert len(result.outputs) == 4
        values = list(result.outputs.values())
        assert max(values) - min(values) <= 0.125 + 1e-9

    def test_latency_model_is_honoured(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=1) for i in range(4)}
        transport = delayed(0.001)
        result = AsyncioRuntime(nodes, timeout=10.0, transport=transport).run()
        assert len(result.outputs) == 4
        assert transport.frames_delayed > 0

    def test_traffic_is_traced(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=0) for i in range(4)}
        result = AsyncioRuntime(nodes, timeout=10.0).run()
        assert result.trace.message_count > 0
        assert result.runtime_seconds >= 0.0
        assert result.events_processed > 0
        assert result.decision_times.keys() == result.outputs.keys()


class TestOnStartDecisionLiveness:
    """Regression: a node deciding inside on_start() was never counted, so
    trivially-deciding runs hung until the wall-clock timeout."""

    def test_all_nodes_decide_on_start(self):
        nodes = {i: InstantDecideNode(i, 3) for i in range(3)}
        runtime = AsyncioRuntime(nodes, timeout=30.0)
        result = runtime.run()
        assert result.outputs == {0: 0, 1: 10, 2: 20}
        # The old runtime slept the full timeout here; well under a second
        # proves the pre-decided nodes were counted at start dispatch.
        assert result.runtime_seconds < 5.0

    def test_single_node_run_terminates(self):
        result = AsyncioRuntime({0: InstantDecideNode(0, 1)}, timeout=30.0).run()
        assert result.outputs == {0: 0}
        assert result.runtime_seconds < 5.0


class ChattyInstant(InstantDecideNode):
    """Decides in on_start *and* broadcasts, so deliveries follow the decision."""

    def on_start(self):
        self._decide(self.node_id)
        return [self.broadcast(Message("chat", "HI", None, self.node_id))]


class DecisionCounter(SimObserver):
    """No ``on_event`` of its own: only decisions and the end of the run."""

    def __init__(self):
        self.decided, self.ended = [], 0

    def on_decide(self, node_id, output, time):
        self.decided.append(node_id)

    def on_run_end(self, result):
        self.ended += 1


class TestDecisionIsLookedForUntilThereIsOne:
    def test_deciding_in_on_start_ends_the_run_and_is_reported_once(self):
        nodes = {i: ChattyInstant(i, 3) for i in range(3)}
        counter = DecisionCounter()
        result = AsyncioRuntime(nodes, timeout=30.0, observers=[counter]).run()
        assert result.outputs == {0: 0, 1: 1, 2: 2}
        assert sorted(counter.decided) == [0, 1, 2] and counter.ended == 1
        assert result.runtime_seconds < 5.0

    def test_deciding_on_a_delivery_is_reported_once_whatever_follows(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=1) for i in range(4)}
        counter = DecisionCounter()
        result = AsyncioRuntime(
            nodes, timeout=10.0, byzantine={3: CrashStrategy()}, observers=[counter]
        ).run()
        assert sorted(counter.decided) == [0, 1, 2] == sorted(result.decision_times)


class RecordingTransport(InMemoryTransport):
    """Keeps every ``put`` instead of delivering it."""

    def __init__(self):
        super().__init__()
        self.puts = []

    async def put(self, target, item):
        self.puts.append((target, item))


_destinations = st.one_of(st.just(BROADCAST), st.integers(min_value=0, max_value=5))
_messages = st.builds(
    Message,
    st.sampled_from(["flat", "group:0/x", "group:1/x", "reps/x"]),
    st.sampled_from(["ECHO", "BUNDLE"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    st.one_of(st.none(), st.integers(), st.lists(st.floats(allow_nan=False), max_size=4)),
)


class TestBulkTraceAccounting:
    """``_dispatch`` accounts a message's remote copies in one update; the
    totals must be what one ``Envelope`` per remote target recorded."""

    @given(
        sender=st.integers(min_value=0, max_value=5),
        outbound=st.lists(st.tuples(_destinations, _messages), max_size=6),
    )
    def test_trace_equals_per_envelope_accounting(self, sender, outbound):
        transport = RecordingTransport()
        runtime = AsyncioRuntime({i: SilentNode(i, 6) for i in range(6)}, transport=transport)
        asyncio.run(runtime._dispatch(sender, outbound))

        expected, deliveries = MessageTrace(), []
        for destination, message in outbound:
            targets = list(range(6)) if destination == BROADCAST else [destination]
            for target in targets:
                deliveries.append((target, (sender, message)))
                if target != sender:  # the self-copy never touches the network
                    expected.record(Envelope(sender, target, message))
        assert transport.puts == deliveries
        trace = runtime.trace
        assert trace.message_count == expected.message_count
        assert trace.total_bits == expected.total_bits
        assert trace.per_sender_bits == expected.per_sender_bits


class TestOnlyOverridersAreCalledPerEvent:
    def test_the_one_rule(self):
        recorder, digest, counter = TraceRecorder(), ScheduleDigest(), DecisionCounter()
        monitor = EpsilonAgreementMonitor(epsilon=1.0)
        duck = type("Duck", (), {"on_decide": lambda *a: None, "on_run_end": lambda *a: None})()
        assert event_observers([counter, recorder, monitor, digest, duck]) == (recorder, digest)
        assert event_observers([]) == ()

    @pytest.mark.parametrize("engine", ["fast", "reference", "asyncio"])
    def test_observer_without_on_event_gets_decisions_and_run_end_only(
        self, engine, monkeypatch
    ):
        def forbidden(self, *event):
            raise AssertionError(f"{type(self).__name__}.on_event called per event")

        monkeypatch.setattr(SimObserver, "on_event", forbidden)
        nodes = {i: BVBroadcastNode(i, 4, 1, value=i % 2) for i in range(4)}
        counter, recorder = DecisionCounter(), TraceRecorder(limit=10)
        observers = [counter, EpsilonAgreementMonitor(epsilon=1.0), recorder]
        if engine == "asyncio":
            result = AsyncioRuntime(nodes, timeout=10.0, observers=observers).run()
        else:
            result = SimulationRuntime(
                nodes=nodes,
                network=small_network(4),
                config=SimulationConfig(engine=engine),
                observers=observers,
            ).run()
        assert sorted(counter.decided) == [0, 1, 2, 3] and counter.ended == 1
        assert recorder.events_seen == result.events_processed > 0


class TestDeliveryTaskHygiene:
    """Regression: delayed deliveries ran in untracked fire-and-forget
    tasks that leaked past (and could be GC'd during) the run.  A delaying
    transport tracks them, and closing it at shutdown drains them."""

    def test_no_pending_tasks_after_successful_run(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=i % 2) for i in range(4)}
        transport = delayed(0.002)
        runtime = AsyncioRuntime(nodes, timeout=10.0, transport=transport)
        result, error, leaked = run_and_audit_tasks(runtime)
        assert error is None
        assert result.all_honest_decided
        assert leaked == []
        assert transport.pending() == 0

    def test_in_flight_deliveries_cancelled_and_counted(self):
        # Huge latency: every cross-node message is still in flight when the
        # last node decides (all decide at start), so shutdown must cancel
        # and drain them all.
        nodes = {i: ChattyInstant(i, 3) for i in range(3)}
        transport = delayed(30.0)
        runtime = AsyncioRuntime(nodes, timeout=10.0, transport=transport)
        result, error, leaked = run_and_audit_tasks(runtime)
        assert error is None
        assert leaked == []
        assert transport.frames_delayed == 6  # 3 broadcasts x 2 receivers
        assert transport.pending() == 0

    def test_no_pending_tasks_after_failure(self):
        nodes = {i: ExplodingNode(i, 2) for i in range(2)}
        transport = delayed(0.001)
        runtime = AsyncioRuntime(nodes, timeout=10.0, transport=transport)
        result, error, leaked = run_and_audit_tasks(runtime)
        assert result is None
        assert isinstance(error, SimulationError)
        assert leaked == []

    def test_no_pending_tasks_after_timeout(self):
        nodes = {i: SilentNode(i, 2) for i in range(2)}
        runtime = AsyncioRuntime(nodes, timeout=0.2, transport=delayed(0.001))
        result, error, leaked = run_and_audit_tasks(runtime)
        assert result is None
        assert isinstance(error, LivenessTimeout)
        assert leaked == []


class TestTimeoutConversion:
    """Regression: the runtime let asyncio.TimeoutError escape instead of a
    package error carrying the partial outputs."""

    def test_timeout_raises_liveness_timeout_with_partials(self):
        nodes = {0: InstantDecideNode(0, 2), 1: SilentNode(1, 2)}
        runtime = AsyncioRuntime(nodes, timeout=0.2)
        with pytest.raises(LivenessTimeout) as excinfo:
            runtime.run()
        error = excinfo.value
        assert isinstance(error, SimulationError)
        assert error.outputs == {0: 0}
        assert error.pending_nodes == [1]
        assert "1/2" in str(error)


class TestFailFast:
    def test_node_exception_aborts_run_as_simulation_error(self):
        nodes = {i: ExplodingNode(i, 2) for i in range(2)}
        runtime = AsyncioRuntime(nodes, timeout=10.0)
        started = time.monotonic()
        with pytest.raises(SimulationError, match="malformed payload"):
            runtime.run()
        # Fail-fast, not timeout: nowhere near the 10s budget.
        assert time.monotonic() - started < 5.0

    def test_observer_violation_propagates(self):
        nodes = {i: InstantDecideNode(i, 2) for i in range(2)}
        monitor = EpsilonAgreementMonitor(epsilon=0.5)  # outputs 0 and 10
        with pytest.raises(InvariantViolation):
            AsyncioRuntime(nodes, timeout=5.0, observers=[monitor]).run()


class TestByzantineAndObserverSeams:
    def test_crash_strategy_on_real_concurrency(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=1) for i in range(4)}
        result = AsyncioRuntime(
            nodes, timeout=10.0, byzantine={3: CrashStrategy()}
        ).run()
        assert set(result.outputs) == {0, 1, 2}
        assert result.byzantine_nodes == [3]
        assert result.honest_nodes == [0, 1, 2]

    def test_trace_recorder_sees_events_and_monitor_passes(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=1) for i in range(4)}
        recorder = TraceRecorder(limit=50)
        result = AsyncioRuntime(nodes, timeout=10.0, observers=[recorder]).run()
        assert recorder.events_seen == result.events_processed
        kinds = {entry["kind"] for entry in recorder.tail()}
        assert "deliver" in kinds

    def test_loss_window_drops_messages(self):
        """Faults enter the live engine through the transport seam only."""
        nodes = {i: BVBroadcastNode(i, 4, 1, value=1) for i in range(4)}
        transport = ChaosTransport(
            InMemoryTransport(),
            WireFaults(losses=(LossWindow(start=0.0, end=1e9, probability=1.0),)),
            seed=3,
        )
        runtime = AsyncioRuntime(nodes, timeout=0.3, transport=transport)
        with pytest.raises(LivenessTimeout):
            runtime.run()
        assert transport.frames_dropped > 0
        assert transport.frames_passed == 0


class TestTransportSeam:
    def test_custom_transport_is_used(self):
        class CountingTransport(InMemoryTransport):
            def __init__(self):
                super().__init__()
                self.puts = 0

            async def put(self, target, item):
                self.puts += 1
                await super().put(target, item)

        transport = CountingTransport()
        nodes = {i: BVBroadcastNode(i, 4, 1, value=0) for i in range(4)}
        result = AsyncioRuntime(nodes, timeout=10.0, transport=transport).run()
        assert result.all_honest_decided
        assert transport.puts >= result.events_processed - len(nodes)

    def test_transport_closed_after_run(self):
        transport = InMemoryTransport()
        nodes = {i: InstantDecideNode(i, 2) for i in range(2)}
        AsyncioRuntime(nodes, timeout=5.0, transport=transport).run()
        assert transport.pending() == 0


class TestValidation:
    def test_empty_nodes_rejected(self):
        with pytest.raises(SimulationError):
            AsyncioRuntime({})

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(SimulationError):
            AsyncioRuntime({0: InstantDecideNode(0, 1)}, timeout=0.0)

    def test_unknown_byzantine_id_rejected(self):
        with pytest.raises(SimulationError):
            AsyncioRuntime(
                {0: InstantDecideNode(0, 1)}, byzantine={5: CrashStrategy()}
            )
