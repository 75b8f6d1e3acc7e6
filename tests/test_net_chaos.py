"""Tests for the wire-level chaos layer (:mod:`repro.net.chaos`):
passthrough transparency with all faults disabled (hypothesis), seeded
determinism of fault decisions (hypothesis), delay/loss/partition window
semantics over the in-memory transport, and the live-only fault kinds —
mid-stream connection resets and bit-flip corruption — over real socket
transports, including the receiver's AuthenticationError rejection and the
sender's redial recovery."""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.net.network import DelayWindow, LossWindow, PartitionWindow
from repro.net.chaos import ChaosTransport, CorruptSpec, ResetSpec, WireFaults
from repro.net.message import Message
from repro.net.socket_transport import SocketTransport
from repro.sim.asyncio_runtime import InMemoryTransport


def run(coroutine):
    return asyncio.run(coroutine)


async def until(predicate, timeout=5.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def msg(payload=None, mtype="PING", round=0, protocol="p"):
    return Message(protocol, mtype, round, payload)


class FakeClock:
    """A settable monotonic clock for exact window control."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Spec validation and (de)serialisation
# ----------------------------------------------------------------------
class TestWireFaultSpecs:
    def test_reset_and_corrupt_validation(self):
        with pytest.raises(ConfigurationError):
            ResetSpec(at=-1.0)
        with pytest.raises(ConfigurationError):
            CorruptSpec(at=0.0, count=0)

    def test_matches_filters(self):
        spec = CorruptSpec(at=0.0, senders=(0,), receivers=(1, 2))
        assert spec.matches(0, 1) and spec.matches(0, 2)
        assert not spec.matches(0, 3) and not spec.matches(1, 1)
        assert ResetSpec(at=0.0).matches(5, 9)  # None filters = any channel

    def test_dict_round_trip(self):
        faults = WireFaults(
            partitions=(
                PartitionWindow(start=1.0, end=2.0, groups=((0, 1),), heal_delay=0.5),
            ),
            delays=(DelayWindow(start=0.0, end=3.0, extra=0.2, senders=(1,)),),
            losses=(LossWindow(start=0.5, end=1.5, probability=0.25),),
            resets=(ResetSpec(at=2.5, receivers=(0,)),),
            corruptions=(CorruptSpec(at=1.0, count=2),),
        )
        assert WireFaults.from_dict(faults.to_dict()) == faults
        assert faults.active

    def test_empty_faults_inactive(self):
        empty = WireFaults.from_dict({})
        assert empty == WireFaults()
        assert not empty.active

    def test_misspelt_keys_are_rejected_not_ignored(self):
        window = {"start": 0.0, "end": 1.0, "groups": [[0]]}
        with pytest.raises(ConfigurationError, match="'partition'"):
            WireFaults.from_dict({"partition": [window]})
        with pytest.raises(ConfigurationError, match="'heal'"):
            WireFaults.from_dict({"partitions": [{**window, "heal": 0.5}]})
        with pytest.raises(ConfigurationError, match="'sender'"):
            ResetSpec.from_dict({"at": 1.0, "sender": [0]})
        assert WireFaults.from_dict({"partitions": [window]}).active


# ----------------------------------------------------------------------
# Passthrough transparency (the hypothesis-checked tentpole property)
# ----------------------------------------------------------------------
@st.composite
def message_plans(draw):
    """A node set and a sequence of (sender, target, payload) sends."""
    n = draw(st.integers(min_value=2, max_value=5))
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=30,
        )
    )
    return n, sends


class TestPassthroughTransparency:
    @given(plan=message_plans())
    @settings(max_examples=30, deadline=None)
    def test_disabled_chaos_is_byte_identical_to_inner(self, plan):
        """With no active faults the wrapper must deliver exactly what the
        bare transport delivers — same pairs, same per-inbox order."""
        n, sends = plan

        async def deliveries(transport):
            await transport.open(list(range(n)))
            for sender, target, payload in sends:
                await transport.put(target, (sender, msg(payload=payload)))
            received = {node: [] for node in range(n)}
            for node in range(n):
                while True:
                    try:
                        pair = await asyncio.wait_for(transport.get(node), 0.01)
                    except asyncio.TimeoutError:
                        break
                    received[node].append((pair[0], pair[1].payload))
            await transport.close()
            return received

        bare = run(deliveries(InMemoryTransport()))
        wrapped_transport = ChaosTransport(InMemoryTransport(), WireFaults(), seed=3)
        wrapped = run(deliveries(wrapped_transport))
        assert wrapped == bare
        assert wrapped_transport.decision_log == []
        stats = wrapped_transport.stats()
        assert stats["frames_dropped"] == stats["frames_delayed"] == 0
        assert stats["frames_held"] == 0

    @given(
        plan=message_plans(),
        seed=st.integers(min_value=0, max_value=2**32),
        probability=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_identical_seeds_make_identical_decisions(self, plan, seed, probability):
        """Same seed + schedule + per-channel send sequence -> the same
        decision log and the same surviving messages."""
        n, sends = plan
        faults = WireFaults(
            losses=(LossWindow(start=0.0, end=100.0, probability=probability),)
        )

        def outcome():
            clock = FakeClock(1000.0)
            transport = ChaosTransport(
                InMemoryTransport(), faults, seed=seed, clock=clock
            )

            async def scenario():
                await transport.open(list(range(n)))
                clock.now += 1.0  # inside the loss window
                for sender, target, payload in sends:
                    await transport.put(target, (sender, msg(payload=payload)))
                await transport.close()

            run(scenario())
            return list(transport.decision_log), transport.stats()

        first_log, first_stats = outcome()
        second_log, second_stats = outcome()
        assert first_log == second_log
        assert first_stats == second_stats
        cross_channel = sum(1 for s, t, _ in sends if s != t)
        assert first_stats["frames_dropped"] + first_stats["frames_passed"] == (
            cross_channel
        )


# ----------------------------------------------------------------------
# Window semantics over the in-memory transport
# ----------------------------------------------------------------------
class TestWindowSemantics:
    def test_loss_window_only_applies_inside_window(self):
        faults = WireFaults(
            losses=(LossWindow(start=5.0, end=6.0, probability=1.0),)
        )
        clock = FakeClock(0.0)
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1, clock=clock)

        async def scenario():
            await transport.open([0, 1])
            await transport.put(1, (0, msg(payload="before")))  # t=0: outside
            clock.now = 5.5
            await transport.put(1, (0, msg(payload="inside")))  # dropped (p=1)
            clock.now = 7.0
            await transport.put(1, (0, msg(payload="after")))
            got = []
            for _ in range(2):
                sender, message = await asyncio.wait_for(transport.get(1), 1.0)
                got.append(message.payload)
            return got

        assert run(scenario()) == ["before", "after"]
        assert transport.frames_dropped == 1
        assert [d[0] for d in transport.decision_log] == ["drop"]

    def test_delay_window_adds_latency(self):
        faults = WireFaults(delays=(DelayWindow(start=0.0, end=60.0, extra=0.1),))
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            inner = transport.inner
            await transport.put(1, (0, msg(payload="late")))
            assert transport.frames_delayed == 1
            assert inner._inboxes[1].qsize() == 0  # not delivered yet
            assert transport.pending() == 1  # the held delivery task
            sender, message = await asyncio.wait_for(transport.get(1), 2.0)
            return sender, message.payload

        assert run(scenario()) == (0, "late")

    def test_partition_holds_until_heal_not_drops(self):
        faults = WireFaults(
            partitions=(
                PartitionWindow(start=0.0, end=0.15, groups=((0,),), heal_delay=0.05),
            )
        )
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            inner = transport.inner
            await transport.put(1, (0, msg(payload="held")))
            assert transport.frames_held == 1
            assert inner._inboxes[1].qsize() == 0  # severed, not delivered
            # Released no earlier than end + heal_delay, and never dropped.
            sender, message = await asyncio.wait_for(transport.get(1), 2.0)
            return sender, message.payload

        assert run(scenario()) == (0, "held")
        assert transport.frames_dropped == 0

    def test_held_message_waits_max_of_hold_and_delay(self):
        """The simulator's semantics, adopted by the wrapper: a delay that
        elapses while a message is held by a partition adds nothing."""
        faults = WireFaults(
            partitions=(PartitionWindow(start=0.0, end=10.0, groups=((0,),)),),
            delays=(DelayWindow(start=0.0, end=10.0, extra=4.0),),
        )
        clock = FakeClock(100.0)
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1, clock=clock)
        sleeps = []

        async def scenario():
            await transport.open([0, 1])
            clock.now += 2.0
            transport._deliver_later = lambda delay, target, item: sleeps.append(delay)
            await transport.put(1, (0, msg(payload="held")))
            await transport.close()

        run(scenario())
        assert sleeps == [8.0]  # max(hold=8, delay=4), not 8 + 4
        assert transport.frames_held == 1 and transport.frames_delayed == 0
        assert [d[0] for d in transport.decision_log] == ["hold"]

    def test_overlapping_loss_windows_stop_flipping_at_first_drop(self):
        faults = WireFaults(
            losses=(
                LossWindow(start=0.0, end=60.0, probability=0.0),
                LossWindow(start=0.0, end=60.0, probability=1.0),
                LossWindow(start=0.0, end=60.0, probability=1.0),
            )
        )
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            await transport.put(1, (0, msg(payload="doomed")))
            await transport.close()

        run(scenario())
        assert transport.decision_log == [("keep", 0, 1, 0), ("drop", 0, 1, 0)]
        assert transport.stats()["frames_dropped"] == 1

    def test_self_delivery_bypasses_faults(self):
        faults = WireFaults(losses=(LossWindow(start=0.0, end=60.0, probability=1.0),))
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            await transport.put(0, (0, msg(payload="to-self")))
            sender, message = await asyncio.wait_for(transport.get(0), 1.0)
            return message.payload

        assert run(scenario()) == "to-self"
        assert transport.frames_dropped == 0

    def test_close_cancels_held_deliveries(self):
        faults = WireFaults(
            partitions=(PartitionWindow(start=0.0, end=30.0, groups=((0,),)),)
        )
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            await transport.put(1, (0, msg(payload="doomed")))
            assert transport.pending() == 1
            await transport.close()
            assert transport.pending() == 0

        run(scenario())

    def test_pending_counts_deliveries_not_scheduled_timers(self):
        faults = WireFaults(
            resets=(ResetSpec(at=100.0),), corruptions=(CorruptSpec(at=100.0),)
        )
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            assert transport.pending() == 0  # two armed timers, no message
            await transport.close()

        run(scenario())

    def test_reset_unsupported_on_in_memory_is_counted(self):
        faults = WireFaults(resets=(ResetSpec(at=0.0),))
        transport = ChaosTransport(InMemoryTransport(), faults, seed=1)

        async def scenario():
            await transport.open([0, 1])
            assert await until(lambda: transport.wire_faults_unsupported == 1)
            await transport.close()

        run(scenario())
        assert transport.resets_applied == 0


# ----------------------------------------------------------------------
# Live-only faults over real sockets
# ----------------------------------------------------------------------
def _socket_pair(tmp_path):
    addresses = {i: ("unix", str(tmp_path / f"n{i}.sock")) for i in range(2)}
    sender_side = SocketTransport(
        addresses=addresses,
        local_ids=[0],
        redial_backoff=0.02,
        redial_backoff_max=0.1,
    )
    receiver_side = SocketTransport(addresses=addresses, local_ids=[1])
    return sender_side, receiver_side


class TestLiveWireFaults:
    def test_corruption_surfaces_as_auth_failure_then_recovers(self, tmp_path):
        """A chaos-corrupted frame must be rejected by the receiver's HMAC
        check (never surfacing as protocol input) and the sender must win
        the channel back through redial."""
        inner_sender, receiver_side = _socket_pair(tmp_path)
        faults = WireFaults(corruptions=(CorruptSpec(at=0.0, count=1),))
        chaos = ChaosTransport(inner_sender, faults, seed=9)

        async def scenario():
            await receiver_side.open([1])
            await chaos.open([0])
            assert await until(lambda: chaos.corruptions_armed == 1)
            await chaos.put(1, (0, msg(payload="poisoned")))
            assert await until(lambda: receiver_side.auth_failures >= 1)
            assert inner_sender.frames_corrupted == 1
            # The connection was dropped by the receiver; fresh sends must
            # eventually land through the redial/backoff machinery.
            delivered = None
            for attempt in range(200):
                await chaos.put(1, (0, msg(payload=f"clean-{attempt}")))
                try:
                    delivered = await asyncio.wait_for(receiver_side.get(1), 0.05)
                    break
                except asyncio.TimeoutError:
                    continue
            assert delivered is not None
            sender, message = delivered
            assert sender == 0
            assert message.payload.startswith("clean-")  # never "poisoned"
            await chaos.close()
            await receiver_side.close()

        run(scenario())

    def test_scheduled_reset_severs_live_connection_then_recovers(self, tmp_path):
        inner_sender, receiver_side = _socket_pair(tmp_path)
        faults = WireFaults(resets=(ResetSpec(at=0.05),))
        chaos = ChaosTransport(inner_sender, faults, seed=9)

        async def scenario():
            await receiver_side.open([1])
            await chaos.open([0])
            # Establish the channel, then wait for the scheduled reset.
            await chaos.put(1, (0, msg(payload="warm-up")))
            sender, message = await asyncio.wait_for(receiver_side.get(1), 2.0)
            assert message.payload == "warm-up"
            assert await until(lambda: chaos.resets_applied == 1)
            assert inner_sender.connections_reset == 1
            delivered = None
            for attempt in range(200):
                await chaos.put(1, (0, msg(payload=f"post-reset-{attempt}")))
                try:
                    delivered = await asyncio.wait_for(receiver_side.get(1), 0.05)
                    break
                except asyncio.TimeoutError:
                    continue
            assert delivered is not None
            await chaos.close()
            await receiver_side.close()

        run(scenario())

    def test_attribute_delegation_to_inner(self, tmp_path):
        inner_sender, _receiver = _socket_pair(tmp_path)
        chaos = ChaosTransport(inner_sender, WireFaults(), seed=0)
        assert chaos.addresses == inner_sender.addresses
        assert chaos.frames_sent == 0  # delegated counter
        with pytest.raises(AttributeError):
            chaos.no_such_attribute
