"""The simulated asynchronous network.

The network computes, for each outgoing envelope, when it will be delivered:
``delivery = departure + propagation``, where departure accounts for the
sender's uplink bandwidth (queueing + transmission delay) and propagation is
drawn from the latency model.  An adversarial :class:`DeliveryPolicy` can add
further delay to messages between honest nodes, which models the paper's
asynchronous adversary who "can arbitrarily delay and reorder messages but
cannot drop them".

The policy draws extra delay, tie-breaking and fault-plan loss from three
separate :class:`~repro.net.latency.BlockStream` objects, so the value one
concern sees depends only on how many times *it* has drawn.  Each is drawn
in blocks of :data:`POLICY_BLOCK` and builds its generator on its first
draw: a policy that never delays or drops a message pays nothing for those.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np

from repro.domains import NON_NEGATIVE, NON_NEGATIVE_OR_INF, PROBABILITY, coerce
from repro.errors import ConfigurationError, NetworkError
from repro.net.bandwidth import BandwidthAccountant, BandwidthModel
from repro.net.latency import BlockStream, ConstantLatency, LatencyModel
from repro.net.message import Envelope, MessageTrace

#: Number of policy random values drawn per vectorised block.
POLICY_BLOCK = 1024

#: Stream-domain tags for the policy's independent streams.
_DELAY_STREAM_TAG = 0x50
_TIEBREAK_STREAM_TAG = 0x54
_LOSS_STREAM_TAG = 0x4C

#: Delivery time returned for messages dropped by a loss window.
DROPPED = math.inf

#: The kinds of verdict :meth:`NetworkFaultPlan.judge` hands down.
PASS, DELAY, HOLD, DROP = "pass", "delay", "hold", "drop"


def _uniform_block(rng: np.random.Generator) -> np.ndarray:
    return rng.random(POLICY_BLOCK)


def _plain(value: Any) -> Any:
    """JSON-safe form of a spec field (tuples -> lists, specs -> dicts)."""
    if isinstance(value, JsonSpec):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def write_json(path: os.PathLike, payload: Any) -> Path:
    """Write ``payload`` as sorted, indented JSON (stable bytes, so diffs and
    hashes are), creating the directory; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


@functools.lru_cache(maxsize=None)
def _spec_fields(
    cls: type,
) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, type, bool], ...]]:
    """``(field names, nested)`` of a spec class, where ``nested`` lists the
    fields annotated as a :class:`JsonSpec` subclass or a ``Tuple`` of one:
    ``(name, that subclass, is a tuple)``."""
    nested = []
    for name, hint in get_type_hints(cls).items():
        many = get_origin(hint) is tuple
        inner = get_args(hint)[0] if many else hint
        if isinstance(inner, type) and issubclass(inner, JsonSpec):
            nested.append((name, inner, many))
    return tuple(spec_field.name for spec_field in fields(cls)), tuple(nested)


class JsonSpec:
    """``to_dict``/``from_dict`` and the ``write``/``load`` file pair shared
    by every spec dataclass.

    Subclasses are dataclasses whose ``__post_init__`` coerces and
    validates the fields, so ``from_dict`` only has to reject unknown keys,
    decode the fields that are themselves specs (read off the annotations)
    and let missing optional keys take their defaults.
    """

    def to_dict(self) -> Dict[str, Any]:
        return {
            spec_field.name: _plain(getattr(self, spec_field.name))
            for spec_field in fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Inverse of :meth:`to_dict` (tolerant of missing optional keys; a
        ``null`` spec-typed field means its default).  An unknown key is a
        :class:`ConfigurationError` naming the class it was found in — a
        misspelt key in a hand-written schedule must not silently run with
        no faults."""
        known, nested = _spec_fields(cls)
        for key in data:
            if key not in known:
                raise ConfigurationError(
                    f"{cls.__name__}: unknown key {key!r} (known: {', '.join(known)})"
                )
        values = dict(data)
        for name, spec, many in nested:
            raw = values.pop(name, None)
            if raw is not None:
                values[name] = (
                    tuple(spec.from_dict(entry) for entry in raw)
                    if many
                    else spec.from_dict(raw)
                )
        try:
            return cls(**values)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(f"{cls.__name__}: {error}") from None

    def write(self, path: os.PathLike) -> Path:
        """:func:`write_json` of :meth:`to_dict`; returns the path."""
        return write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: os.PathLike):
        """:meth:`from_dict` of a JSON file.  A file that cannot be read or
        parsed, or whose top level is not an object, is a
        :class:`ConfigurationError` like any other bad spec."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as error:
            raise ConfigurationError(f"{cls.__name__}: cannot read {path}: {error}")
        if not isinstance(data, dict):
            raise ConfigurationError(f"{cls.__name__}: {path} must hold a JSON object")
        return cls.from_dict(data)

    def _coerce(self, **converters: Callable[[Any], Any]) -> None:
        """Normalise fields in place (``__post_init__`` of a frozen class)."""
        coerce(self, converters)


def optional_ids(value: Any) -> Optional[Tuple[int, ...]]:
    """Coerce a node-id list to an int tuple; ``None`` (= any) stays."""
    return None if value is None else tuple(int(item) for item in value)


class ChannelFilter(JsonSpec):
    """``senders``/``receivers`` restrict which ordered channels a fault
    matches (``None`` = any).  Shared by every targeted fault kind so the
    matching semantics cannot diverge between them."""

    senders: Optional[Tuple[int, ...]]
    receivers: Optional[Tuple[int, ...]]

    def _coerce_filter(self) -> None:
        self._coerce(senders=optional_ids, receivers=optional_ids)

    def matches(self, sender: int, destination: int) -> bool:
        if self.senders is not None and sender not in self.senders:
            return False
        return self.receivers is None or destination in self.receivers


class _Window(JsonSpec):
    """A ``[start, end)`` time window, checked at declaration time.

    Catching nonsense here (rather than mid-run) matters: a negative delay,
    for example, would schedule deliveries in the simulated past and produce
    silently wrong campaign results instead of a clean error.
    """

    start: float
    end: float

    def _check_window(self, end: Callable = NON_NEGATIVE_OR_INF, **more: Any) -> None:
        self._coerce(start=NON_NEGATIVE, end=end, **more)
        if self.end < self.start:
            raise ConfigurationError(
                f"{type(self).__name__}: end {self.end} < start {self.start}"
            )


class _TargetedWindow(_Window, ChannelFilter):
    """A time window with a channel filter (base of delay and loss)."""

    def _check_window(self, **more: Any) -> None:
        super()._check_window(senders=optional_ids, receivers=optional_ids, **more)

    def applies(self, sender: int, destination: int, time: float) -> bool:
        return self.start <= time < self.end and self.matches(sender, destination)


@dataclass(frozen=True)
class PartitionWindow(_Window):
    """A network partition during ``[start, end)``.

    ``groups`` lists the partition islands (tuples of node ids); a message is
    severed when its endpoints lie in different islands, or when exactly one
    endpoint lies in a listed island (nodes absent from every island form the
    implicit remainder).  Severed messages are *not* dropped — the asynchrony
    model forbids it — but held back until the partition heals: they arrive no
    earlier than ``end + heal_delay`` plus their normal propagation, so
    ``end`` is finite: a partition that never heals would be a drop.
    """

    start: float
    end: float
    groups: Tuple[Tuple[int, ...], ...]
    heal_delay: float = 0.0

    def __post_init__(self) -> None:
        self._check_window(
            end=NON_NEGATIVE,
            groups=lambda groups: tuple(optional_ids(group) for group in groups),
            heal_delay=NON_NEGATIVE,
        )

    def _group_of(self, node: int) -> int:
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return -1

    def severs(self, sender: int, destination: int) -> bool:
        return self._group_of(sender) != self._group_of(destination)


@dataclass(frozen=True)
class DelayWindow(_TargetedWindow):
    """Targeted extra delay: ``extra`` seconds added to matching messages."""

    start: float
    end: float
    extra: float
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self._check_window(extra=NON_NEGATIVE)


@dataclass(frozen=True)
class LossWindow(_TargetedWindow):
    """Probabilistic message loss during the window.

    This deliberately steps *outside* the paper's adversary model (which may
    delay but never drop): fault campaigns use loss windows to observe how
    protocols degrade when the model's assumptions break.  Each matching
    message is dropped independently with ``probability``, drawn from the
    judge's caller-supplied seeded coin so runs stay deterministic.
    """

    start: float
    end: float
    probability: float
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self._check_window(probability=PROBABILITY)


@dataclass(frozen=True)
class NetworkFaultPlan:
    """A schedule of partition, delay and loss windows, and their one judge.

    The windows are the declarative fault vocabulary itself (they ride, as
    dicts, inside :class:`repro.faults.spec.FaultSpec` and
    :class:`repro.net.chaos.WireFaults`).  :meth:`judge` is the only place
    the hold/delay/drop decision is computed: the simulator's
    :meth:`DeliveryPolicy.fault_delay` and the live
    :class:`~repro.net.chaos.ChaosTransport` both call it.
    """

    partitions: Tuple[PartitionWindow, ...] = ()
    delays: Tuple[DelayWindow, ...] = ()
    losses: Tuple[LossWindow, ...] = ()

    @property
    def active(self) -> bool:
        return bool(self.partitions or self.delays or self.losses)

    def judge(
        self, sender: int, destination: int, time: float, coin: Callable[[], float]
    ) -> Tuple[str, float]:
        """Verdict for one cross-node message departing at ``time``.

        Returns ``(kind, extra)``: ``(DROP, DROPPED)`` when a loss window
        drops the message, otherwise the extra delay in seconds with kind
        ``HOLD`` (severed by a partition), ``DELAY`` or ``PASS``.  Matching
        delay windows add up; a severed message waits until its partition
        heals, ``max(hold, delays)`` — a delay that elapses while the
        message is held costs nothing more.  ``coin`` (uniform ``[0, 1)``)
        is drawn once per matching loss window, stopping at the first drop.
        """
        extra = 0.0
        for window in self.delays:
            if window.applies(sender, destination, time):
                extra += window.extra
        kind = DELAY if extra > 0.0 else PASS
        for window in self.partitions:
            if window.start <= time < window.end and window.severs(sender, destination):
                kind = HOLD
                hold = (window.end - time) + window.heal_delay
                if hold > extra:
                    extra = hold
        for window in self.losses:
            if window.applies(sender, destination, time):
                if coin() < window.probability:
                    return DROP, DROPPED
        return kind, extra


@dataclass
class DeliveryPolicy:
    """Adversarial control over message delivery between honest nodes.

    The policy never drops messages (the model forbids it) but may add
    bounded extra delay and randomise tie-breaking between messages that
    would otherwise arrive at the same instant.

    Attributes
    ----------
    max_extra_delay:
        Upper bound, in seconds, of adversarial delay added to each message.
    reorder:
        When true, ties between simultaneous deliveries are broken randomly
        (still deterministically for a fixed seed), exercising protocols
        under message reordering.
    target_fraction:
        Fraction of messages the adversary chooses to slow down; 1.0 delays
        every message, 0.0 none.
    seed:
        Seed of the policy's private random streams.
    faults:
        Optional :class:`NetworkFaultPlan` with partition/delay/loss windows
        (installed by the fault-campaign layer, see :mod:`repro.faults`).
    """

    max_extra_delay: float = 0.0
    reorder: bool = True
    target_fraction: float = 1.0
    seed: int = 0
    faults: Optional[NetworkFaultPlan] = None
    _delay_stream: BlockStream = field(init=False, repr=False)
    _tie_stream: BlockStream = field(init=False, repr=False)
    _loss_stream: BlockStream = field(init=False, repr=False)

    def __post_init__(self) -> None:
        domains = {"max_extra_delay": NON_NEGATIVE, "target_fraction": PROBABILITY}
        coerce(self, domains, store=False, error=NetworkError)
        self._delay_stream = BlockStream(_uniform_block, _DELAY_STREAM_TAG, self.seed)
        self._tie_stream = BlockStream(_uniform_block, _TIEBREAK_STREAM_TAG, self.seed)
        self._loss_stream = BlockStream(_uniform_block, _LOSS_STREAM_TAG, self.seed)

    @property
    def faults_active(self) -> bool:
        """Whether a non-empty fault plan is installed."""
        return self.faults is not None and self.faults.active

    def install_faults(self, plan: Optional[NetworkFaultPlan]) -> None:
        """Install (or clear) the network fault plan on this policy."""
        self.faults = plan

    def fault_delay(self, sender: int, destination: int, time: float) -> float:
        """Fault-plan adjustment for a message departing at ``time``.

        Returns extra delay in seconds, or :data:`DROPPED` (``inf``) when a
        loss window drops the message.  Called once per cross-node message by
        both simulation engines, in the same global order, so the loss
        stream's draws line up exactly (the engine-equivalence contract).
        """
        if self.faults is None:
            return 0.0
        return self.faults.judge(sender, destination, time, self._loss_stream.next)[1]

    def extra_delay(self) -> float:
        """Adversarial delay (seconds) added to one message."""
        if self.max_extra_delay <= 0.0:
            return 0.0
        if self._delay_stream.next() > self.target_fraction:
            return 0.0
        return self._delay_stream.next() * self.max_extra_delay

    def tiebreak(self) -> float:
        """Tie-breaking priority for simultaneous deliveries."""
        if self.reorder:
            return self._tie_stream.next()
        return 0.0


class AsynchronousNetwork:
    """Computes delivery times and accounts for traffic.

    Parameters
    ----------
    num_nodes:
        Number of nodes attached to the network.
    latency:
        Propagation-latency model; defaults to a 1 ms constant delay.
    bandwidth:
        Per-node uplink bandwidth model; defaults to unlimited.
    policy:
        Adversarial delivery policy; defaults to benign (no extra delay).
    """

    def __init__(
        self,
        num_nodes: int,
        latency: Optional[LatencyModel] = None,
        bandwidth: Optional[BandwidthModel] = None,
        policy: Optional[DeliveryPolicy] = None,
    ) -> None:
        if num_nodes <= 0:
            raise NetworkError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.latency = latency if latency is not None else ConstantLatency(0.001)
        self.accountant = BandwidthAccountant(
            model=bandwidth if bandwidth is not None else BandwidthModel()
        )
        self.policy = policy if policy is not None else DeliveryPolicy(reorder=True)

    def validate_destination(self, destination: int) -> None:
        """Raise :class:`NetworkError` if the destination node is unknown."""
        if not 0 <= destination < self.num_nodes:
            raise NetworkError(
                f"destination {destination} outside [0, {self.num_nodes})"
            )

    def delivery_time(self, envelope: Envelope, now: float) -> float:
        """Absolute simulated time at which ``envelope`` reaches its destination.

        Returns :data:`DROPPED` (``inf``) when the policy's fault plan drops
        the message; the runtime then simply never schedules the delivery.
        Traffic is still accounted — the message did leave the sender.
        """
        self.validate_destination(envelope.destination)
        departure = self.accountant.send(envelope, now)
        propagation = self.latency.delay(envelope.sender, envelope.destination)
        extra = self.policy.extra_delay()
        if self.policy.faults_active:
            fault = self.policy.fault_delay(
                envelope.sender, envelope.destination, departure
            )
            if fault == DROPPED:
                return DROPPED
            extra += fault
        return departure + propagation + extra

    @property
    def trace(self) -> MessageTrace:
        """Aggregated traffic statistics for everything sent so far."""
        return self.accountant.trace

    def reset(self) -> None:
        """Clear traffic statistics and uplink occupancy."""
        self.accountant.reset()
