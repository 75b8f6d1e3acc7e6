"""Tests for the asynchronous network and the adversarial delivery policy."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import ConstantLatency
from repro.net.message import Envelope, Message
from repro.net.network import (
    DELAY,
    DROP,
    DROPPED,
    HOLD,
    PASS,
    AsynchronousNetwork,
    DelayWindow,
    DeliveryPolicy,
    LossWindow,
    NetworkFaultPlan,
    PartitionWindow,
)


def _envelope(sender=0, destination=1):
    return Envelope(sender, destination, Message("p", "T", None, 1.0))


class TestDeliveryPolicy:
    def test_no_delay_by_default(self):
        policy = DeliveryPolicy()
        assert policy.extra_delay() == 0.0

    def test_bounded_extra_delay(self):
        policy = DeliveryPolicy(max_extra_delay=0.5, seed=3)
        for _ in range(100):
            assert 0.0 <= policy.extra_delay() <= 0.5

    def test_target_fraction_zero_never_delays(self):
        policy = DeliveryPolicy(max_extra_delay=1.0, target_fraction=0.0)
        assert all(policy.extra_delay() == 0.0 for _ in range(20))

    def test_reorder_toggle_controls_tiebreak(self):
        ordered = DeliveryPolicy(reorder=False)
        assert ordered.tiebreak() == 0.0
        shuffled = DeliveryPolicy(reorder=True, seed=1)
        assert 0.0 <= shuffled.tiebreak() <= 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(NetworkError):
            DeliveryPolicy(max_extra_delay=-1.0)
        with pytest.raises(NetworkError):
            DeliveryPolicy(target_fraction=1.5)
        # An infinite delay is a drop (the delivery time equals DROPPED); a
        # NaN one would put NaN keys in the event heap.
        for delay in (float("inf"), float("nan")):
            with pytest.raises(NetworkError, match=r"max_extra_delay: \S+ is not in \[0, inf\)"):
                DeliveryPolicy(max_extra_delay=delay)


class TestAsynchronousNetwork:
    def test_delivery_time_includes_latency(self):
        network = AsynchronousNetwork(4, latency=ConstantLatency(0.02))
        assert network.delivery_time(_envelope(), now=1.0) == pytest.approx(1.02)

    def test_delivery_time_includes_bandwidth(self):
        network = AsynchronousNetwork(
            4,
            latency=ConstantLatency(0.0),
            bandwidth=BandwidthModel(bits_per_second=1000.0),
        )
        envelope = _envelope()
        expected = envelope.size_bits() / 1000.0
        assert network.delivery_time(envelope, now=0.0) == pytest.approx(expected)

    def test_adversarial_delay_added(self):
        network = AsynchronousNetwork(
            4,
            latency=ConstantLatency(0.0),
            policy=DeliveryPolicy(max_extra_delay=0.5, seed=2),
        )
        times = [network.delivery_time(_envelope(), now=0.0) for _ in range(50)]
        assert max(times) > 0.0
        assert all(0.0 <= t <= 0.5 for t in times)

    def test_unknown_destination_rejected(self):
        network = AsynchronousNetwork(2)
        with pytest.raises(NetworkError):
            network.delivery_time(_envelope(destination=5), now=0.0)

    def test_trace_and_reset(self):
        network = AsynchronousNetwork(4)
        network.delivery_time(_envelope(), now=0.0)
        assert network.trace.message_count == 1
        network.reset()
        assert network.trace.message_count == 0

    def test_rejects_empty_network(self):
        with pytest.raises(NetworkError):
            AsynchronousNetwork(0)


class TestFaultWindows:
    """The windows are their own spec: validation lives on the one class."""

    def test_windows_reject_nonsense_at_declaration(self):
        with pytest.raises(ConfigurationError):
            DelayWindow(start=5, end=1, extra=-3.0)
        with pytest.raises(ConfigurationError):
            DelayWindow(start=0.0, end=1.0, extra=-3.0)
        with pytest.raises(ConfigurationError):
            LossWindow(start=0.0, end=1.0, probability=7.0)
        with pytest.raises(ConfigurationError):
            LossWindow(start=-1.0, end=1.0, probability=0.5)
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=1.0, end=0.5, groups=((0,),))
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=0.0, end=1.0, groups=((0,),), heal_delay=-0.1)

    def test_fields_are_normalised(self):
        window = DelayWindow(start=0, end=1, extra=1, senders=[2, 3])
        assert window.to_dict() == {
            "start": 0.0,
            "end": 1.0,
            "extra": 1.0,
            "senders": [2, 3],
            "receivers": None,
        }
        assert window.senders == (2, 3)
        assert PartitionWindow(0, 1, [[0, 1], [2]]).groups == ((0, 1), (2,))

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ConfigurationError, match="'extr'"):
            DelayWindow.from_dict({"start": 0.0, "end": 1.0, "extr": 0.5})
        with pytest.raises(ConfigurationError, match="probability"):
            LossWindow.from_dict({"start": 0.0, "end": 1.0})
        # Optional keys may be left out.
        assert PartitionWindow.from_dict(
            {"start": 0.0, "end": 1.0, "groups": [[0]]}
        ) == PartitionWindow(0.0, 1.0, ((0,),))


class TestJudge:
    """``NetworkFaultPlan.judge`` — the one hold/delay/drop decision."""

    @staticmethod
    def _never():
        raise AssertionError("no loss window matches: the coin must not be drawn")

    def test_pass_delay_hold_kinds(self):
        plan = NetworkFaultPlan(
            partitions=(PartitionWindow(0.0, 1.0, ((0,),), heal_delay=0.5),),
            delays=(
                DelayWindow(0.0, 1.0, 0.25, receivers=(2,)),
                DelayWindow(0.0, 1.0, 0.5, senders=(1,)),
            ),
        )
        assert plan.judge(1, 3, 2.0, self._never) == (PASS, 0.0)
        assert plan.judge(3, 2, 0.5, self._never) == (DELAY, 0.25)
        assert plan.judge(1, 2, 0.5, self._never) == (DELAY, 0.75)  # delays add
        assert plan.judge(0, 3, 0.2, self._never) == (HOLD, pytest.approx(1.3))

    def test_held_message_waits_max_of_hold_and_delay(self):
        """A delay that elapses while the message is held costs nothing."""
        partition = PartitionWindow(0.0, 1.0, ((0,),))
        short = NetworkFaultPlan((partition,), (DelayWindow(0.0, 1.0, 0.3),))
        assert short.judge(0, 1, 0.5, self._never) == (HOLD, 0.5)
        long = NetworkFaultPlan((partition,), (DelayWindow(0.0, 1.0, 2.0),))
        assert long.judge(0, 1, 0.5, self._never) == (HOLD, 2.0)

    def test_coin_stops_at_first_drop(self):
        plan = NetworkFaultPlan(
            losses=(LossWindow(0.0, 1.0, 0.5), LossWindow(0.0, 1.0, 0.5))
        )
        coins = iter([0.9, 0.1, 0.1])
        assert plan.judge(0, 1, 0.5, lambda: next(coins)) == (DROP, DROPPED)
        assert next(coins) == 0.1  # the second window's draw ended it
        coins = iter([0.1])
        assert plan.judge(0, 1, 0.5, lambda: next(coins)) == (DROP, DROPPED)
        assert next(coins, None) is None  # one draw, not two

    def test_policy_fault_delay_is_the_judges_delay(self):
        plan = NetworkFaultPlan(
            delays=(DelayWindow(0.0, 1.0, 0.25),),
            losses=(LossWindow(2.0, 3.0, 1.0),),
        )
        policy = DeliveryPolicy(seed=4, faults=plan)
        assert policy.fault_delay(0, 1, 0.5) == 0.25
        assert policy.fault_delay(0, 1, 2.5) == DROPPED
        assert DeliveryPolicy(seed=4).fault_delay(0, 1, 0.5) == 0.0
