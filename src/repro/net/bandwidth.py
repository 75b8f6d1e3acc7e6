"""Bandwidth models and accounting.

The paper reports (a) the total network bandwidth consumed per protocol run
(Fig. 6b) and (b) runtime in the CPS testbed where the devices' limited NIC
bandwidth is the rate-limiting factor (Fig. 6c, Fig. 7).  Both require the
simulator to account for bytes sent per node and to charge serialisation
delay when a node's uplink is saturated.

:class:`BandwidthModel` describes a per-node uplink capacity;
:class:`BandwidthAccountant` tracks, per node, when the uplink next becomes
free, which the simulation runtime uses to compute each envelope's
transmission (serialisation) delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.domains import POSITIVE_OR_INF, coerce
from repro.net.message import Envelope, MessageTrace


@dataclass(frozen=True)
class BandwidthModel:
    """Per-node uplink capacity.

    Attributes
    ----------
    bits_per_second:
        Uplink capacity of each node.  ``float("inf")`` disables bandwidth
        throttling (messages are only subject to propagation latency).
    """

    bits_per_second: float = float("inf")

    def __post_init__(self) -> None:
        coerce(self, {"bits_per_second": POSITIVE_OR_INF}, store=False)

    def transmission_delay(self, size_bits: int) -> float:
        """Time in seconds needed to push ``size_bits`` onto the wire."""
        if self.bits_per_second == float("inf"):
            return 0.0
        return size_bits / self.bits_per_second

    @property
    def unlimited(self) -> bool:
        """Whether this model imposes no throttling at all."""
        return self.bits_per_second == float("inf")


@dataclass
class BandwidthAccountant:
    """Tracks per-node uplink occupancy and total traffic.

    The accountant serialises each node's outgoing envelopes: a new envelope
    cannot start transmitting before the previous one from the same sender
    has finished.  This reproduces the paper's observation that in the CPS
    testbed the per-round communication *volume* is the dominant runtime
    factor.
    """

    model: BandwidthModel = field(default_factory=BandwidthModel)
    trace: MessageTrace = field(default_factory=MessageTrace)
    _uplink_free_at: Dict[int, float] = field(default_factory=dict)

    def send(self, envelope: Envelope, now: float) -> float:
        """Account for sending ``envelope`` at simulated time ``now``.

        Returns the time at which the last bit of the envelope leaves the
        sender, i.e. ``now`` plus any queueing delay behind earlier messages
        plus the transmission delay of this envelope.
        """
        return self.send_raw(envelope.sender, envelope.size_bits(), now)

    def send_raw(self, sender: int, size_bits: int, now: float) -> float:
        """:meth:`send` given a precomputed wire size (fast-path entry).

        Must perform the same arithmetic as :meth:`send` bit for bit — the
        fast and reference simulation engines assert identical traces.
        """
        self.trace.record_raw(sender, size_bits)
        if self.model.unlimited:
            return now
        start = max(now, self._uplink_free_at.get(sender, 0.0))
        finish = start + size_bits / self.model.bits_per_second
        self._uplink_free_at[sender] = finish
        return finish

    def reset(self) -> None:
        """Clear occupancy and traffic statistics."""
        self.trace = MessageTrace()
        self._uplink_free_at.clear()

    @property
    def total_bits(self) -> int:
        """Total bits sent through this accountant."""
        return self.trace.total_bits

    @property
    def total_megabytes(self) -> float:
        """Total traffic in megabytes."""
        return self.trace.total_megabytes

    @property
    def message_count(self) -> int:
        """Total number of envelopes sent."""
        return self.trace.message_count
