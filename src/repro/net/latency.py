"""Latency models for the simulated asynchronous network.

The paper evaluates Delphi in two environments:

* a geo-distributed AWS testbed with nodes spread equally across eight
  regions (N. Virginia, Ohio, N. California, Oregon, Canada, Ireland,
  Singapore and Tokyo), where round-trip times between regions dominate
  protocol runtime, and
* a CPS testbed of Raspberry Pi devices on a single LAN switch, where
  network latency is small but bandwidth and CPU are constrained.

Latency models map a ``(sender, destination)`` pair to a one-way delay in
seconds, optionally with jitter drawn from a seeded random stream so that
simulations are reproducible.

Jitter is sampled from *per-pair* streams drawn in blocks: every ordered
``(sender, destination)`` pair owns an independent generator seeded from
``(model seed, sender, destination)``, and delays are produced in vectorised
blocks of :data:`JITTER_BLOCK` values at a time, each kept as packed C
doubles (:class:`BlockStream`; about 3.4 KB per drawn pair, against
9.7 KB for a list of floats).  This keeps the simulator's hot loop free of
per-message scalar RNG calls, and it gives a stronger
determinism guarantee than a single shared stream: the ``k``-th message on a
pair sees the same delay regardless of how traffic on *other* pairs is
interleaved, which is what lets the fast and reference simulation engines
produce identical results (see ``docs/SIMULATOR.md``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.domains import NON_NEGATIVE, coerce
from repro.errors import ConfigurationError

#: Number of jitter values drawn per vectorised block.
JITTER_BLOCK = 256

#: Stream-domain tag mixed into per-pair latency seeds (keeps latency
#: streams independent from the delivery policy's streams).
_LATENCY_STREAM_TAG = 0x4C

#: Draws a stream's next block; the string keeps ``numpy.random`` unimported.
Fill = Callable[["np.random.Generator"], np.ndarray]


class BlockStream:
    """A seeded stream of doubles drawn in vectorised blocks.

    ``fill`` maps a :class:`numpy.random.Generator` to the next block (a
    float64 array).  The block is kept packed, as C doubles in an
    :class:`array.array`, and :meth:`next` hands its values out one Python
    ``float`` at a time through the array's iterator.  The ``PCG64`` bit
    generator, seeded from ``(tag, seed, *ids)``, is built on the first
    draw, so a stream that is never drawn costs one small object; between
    blocks only the bit generator is kept, and each block wraps it in a
    throw-away ``Generator``.  A uniform double consumes exactly one 64-bit
    output, so neither the block size nor the storage changes a value.
    """

    __slots__ = ("_key", "_fill", "_bits", "_it")

    def __init__(self, fill: Fill, tag: int, seed: int, *ids: int) -> None:
        self._key = (tag, seed & 0xFFFFFFFF, *ids)
        self._fill = fill
        self._bits: Optional[np.random.PCG64] = None
        self._it = iter(())

    def next(self) -> float:
        """The next value in this stream."""
        value = next(self._it, None)
        if value is None:
            if self._bits is None:
                self._bits = np.random.PCG64(self._key)
            block = self._fill(np.random.Generator(self._bits))
            self._it = iter(array("d", block.tobytes()))
            value = next(self._it)
        return value

#: The eight AWS regions used in the paper's geo-distributed testbed.
AWS_REGIONS: Tuple[str, ...] = (
    "us-east-1",       # N. Virginia
    "us-east-2",       # Ohio
    "us-west-1",       # N. California
    "us-west-2",       # Oregon
    "ca-central-1",    # Canada
    "eu-west-1",       # Ireland
    "ap-southeast-1",  # Singapore
    "ap-northeast-1",  # Tokyo
)

#: Approximate one-way inter-region latencies in milliseconds, derived from
#: published AWS inter-region RTT measurements (RTT / 2).  Keys are ordered
#: pairs of region names; the matrix is symmetric and the diagonal is the
#: intra-region latency.
_AWS_ONE_WAY_MS: Dict[Tuple[str, str], float] = {}


def _fill_aws_matrix() -> None:
    """Populate the AWS one-way latency matrix."""
    rtt_ms = {
        ("us-east-1", "us-east-1"): 1.0,
        ("us-east-1", "us-east-2"): 12.0,
        ("us-east-1", "us-west-1"): 62.0,
        ("us-east-1", "us-west-2"): 68.0,
        ("us-east-1", "ca-central-1"): 14.0,
        ("us-east-1", "eu-west-1"): 68.0,
        ("us-east-1", "ap-southeast-1"): 215.0,
        ("us-east-1", "ap-northeast-1"): 145.0,
        ("us-east-2", "us-east-2"): 1.0,
        ("us-east-2", "us-west-1"): 52.0,
        ("us-east-2", "us-west-2"): 58.0,
        ("us-east-2", "ca-central-1"): 22.0,
        ("us-east-2", "eu-west-1"): 78.0,
        ("us-east-2", "ap-southeast-1"): 205.0,
        ("us-east-2", "ap-northeast-1"): 135.0,
        ("us-west-1", "us-west-1"): 1.0,
        ("us-west-1", "us-west-2"): 22.0,
        ("us-west-1", "ca-central-1"): 78.0,
        ("us-west-1", "eu-west-1"): 130.0,
        ("us-west-1", "ap-southeast-1"): 170.0,
        ("us-west-1", "ap-northeast-1"): 110.0,
        ("us-west-2", "us-west-2"): 1.0,
        ("us-west-2", "ca-central-1"): 60.0,
        ("us-west-2", "eu-west-1"): 125.0,
        ("us-west-2", "ap-southeast-1"): 165.0,
        ("us-west-2", "ap-northeast-1"): 98.0,
        ("ca-central-1", "ca-central-1"): 1.0,
        ("ca-central-1", "eu-west-1"): 72.0,
        ("ca-central-1", "ap-southeast-1"): 210.0,
        ("ca-central-1", "ap-northeast-1"): 150.0,
        ("eu-west-1", "eu-west-1"): 1.0,
        ("eu-west-1", "ap-southeast-1"): 175.0,
        ("eu-west-1", "ap-northeast-1"): 205.0,
        ("ap-southeast-1", "ap-southeast-1"): 1.0,
        ("ap-southeast-1", "ap-northeast-1"): 70.0,
        ("ap-northeast-1", "ap-northeast-1"): 1.0,
    }
    for (a, b), rtt in rtt_ms.items():
        one_way = rtt / 2.0
        _AWS_ONE_WAY_MS[(a, b)] = one_way
        _AWS_ONE_WAY_MS[(b, a)] = one_way


_fill_aws_matrix()


class LatencyModel:
    """Base class for latency models.

    Subclasses implement :meth:`delay` returning a one-way delay in seconds
    for a message from ``sender`` to ``destination``.  Models whose delays
    are random should also implement :meth:`pair_sampler` on top of
    :class:`BlockStream` so the fast simulation engine can pull delays
    without per-message method dispatch; the default sampler simply wraps
    :meth:`delay`, which keeps custom models correct (both engines then
    consume the model's stream in the same per-pair order).
    """

    def delay(self, sender: int, destination: int) -> float:
        """One-way delay in seconds for a message ``sender -> destination``."""
        raise NotImplementedError

    def expected_delay(self, sender: int, destination: int) -> float:
        """Expected (jitter-free) one-way delay; defaults to :meth:`delay`."""
        return self.delay(sender, destination)

    def pair_sampler(self, sender: int, destination: int) -> Callable[[], float]:
        """A zero-argument callable yielding successive delays for one pair.

        The fast engine caches one sampler per ordered pair and calls it
        once per scheduled message — exactly as often as the reference
        engine calls :meth:`delay` for that pair.
        """
        return lambda: self.delay(sender, destination)


@dataclass
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``seconds`` to arrive."""

    seconds: float = 0.001

    def __post_init__(self) -> None:
        coerce(self, {"seconds": NON_NEGATIVE}, store=False)

    def delay(self, sender: int, destination: int) -> float:
        return self.seconds

    def pair_sampler(self, sender: int, destination: int) -> Callable[[], float]:
        seconds = self.seconds
        return lambda: seconds


@dataclass
class _PairStreamLatency(LatencyModel):
    """A model whose delays come from one :class:`BlockStream` per ordered
    pair, seeded from ``(model seed, sender, destination)``; subclasses say
    how a pair's block is drawn (:meth:`_fill`) and carry a ``seed``."""

    _streams: Dict[Tuple[int, int], BlockStream] = field(
        init=False, repr=False, default_factory=dict
    )

    def _fill(self, sender: int, destination: int) -> Fill:
        """The pair's block draw.  It must close over values, not the
        model, so model -> ``_streams`` -> stream holds no cycle."""
        raise NotImplementedError

    def _stream(self, sender: int, destination: int) -> BlockStream:
        key = (sender, destination)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = BlockStream(
                self._fill(sender, destination),
                _LATENCY_STREAM_TAG, self.seed, sender, destination,
            )
        return stream

    def delay(self, sender: int, destination: int) -> float:
        return self._stream(sender, destination).next()

    def pair_sampler(self, sender: int, destination: int) -> Callable[[], float]:
        return self._stream(sender, destination).next


@dataclass
class UniformLatency(_PairStreamLatency):
    """Delays drawn uniformly from ``[low, high]`` with seeded per-pair
    streams (see the module docstring for the block-drawing scheme)."""

    low: float = 0.001
    high: float = 0.010
    seed: int = 0

    def __post_init__(self) -> None:
        coerce(self, {"low": NON_NEGATIVE, "high": NON_NEGATIVE}, store=False)
        if self.low > self.high:
            raise ConfigurationError(
                f"UniformLatency requires low <= high, got {self.low} > {self.high}"
            )

    def _fill(self, sender: int, destination: int) -> Fill:
        low, high = self.low, self.high
        return lambda rng: rng.uniform(low, high, JITTER_BLOCK)

    def expected_delay(self, sender: int, destination: int) -> float:
        return (self.low + self.high) / 2.0


@dataclass
class GeoLatencyModel(_PairStreamLatency):
    """Latency model for nodes assigned to named regions.

    Each node is mapped to a region (round-robin by default, matching the
    paper's "distributed equally across 8 regions"), and the delay between
    two nodes is the inter-region one-way latency plus multiplicative jitter.
    """

    regions: Sequence[str]
    one_way_ms: Dict[Tuple[str, str], float]
    num_nodes: int
    jitter_fraction: float = 0.10
    seed: int = 0
    assignment: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        domains = {
            "jitter_fraction": NON_NEGATIVE,
            "one_way_ms": lambda table: [NON_NEGATIVE(ms) for ms in table.values()],
        }
        coerce(self, domains, store=False)
        if not self.regions:
            raise ConfigurationError("at least one region is required")
        if self.assignment is None:
            self.assignment = [
                self.regions[i % len(self.regions)] for i in range(self.num_nodes)
            ]
        if len(self.assignment) != self.num_nodes:
            raise ConfigurationError(
                "assignment length must equal num_nodes "
                f"({len(self.assignment)} != {self.num_nodes})"
            )

    def region_of(self, node: int) -> str:
        """Region name the given node is assigned to."""
        return self.assignment[node % self.num_nodes]

    def base_delay(self, sender: int, destination: int) -> float:
        """Jitter-free one-way delay in seconds between two nodes."""
        key = (self.region_of(sender), self.region_of(destination))
        if key not in self.one_way_ms:
            raise ConfigurationError(f"no latency entry for region pair {key}")
        return self.one_way_ms[key] / 1000.0

    def _fill(self, sender: int, destination: int) -> Fill:
        base, fraction = self.base_delay(sender, destination), self.jitter_fraction
        return lambda rng: np.maximum(
            0.0, base * (1.0 + rng.uniform(-fraction, fraction, JITTER_BLOCK))
        )

    def expected_delay(self, sender: int, destination: int) -> float:
        return self.base_delay(sender, destination)


def aws_latency_model(num_nodes: int, seed: int = 0) -> GeoLatencyModel:
    """Latency model reproducing the paper's geo-distributed AWS testbed.

    Nodes are assigned round-robin to the eight regions of
    :data:`AWS_REGIONS`, as the paper distributes nodes equally.
    """
    return GeoLatencyModel(
        regions=AWS_REGIONS,
        one_way_ms=dict(_AWS_ONE_WAY_MS),
        num_nodes=num_nodes,
        seed=seed,
    )


def cps_latency_model(num_nodes: int, seed: int = 0) -> UniformLatency:
    """Latency model for the Raspberry-Pi CPS testbed (single LAN switch).

    One-way delays on a switched LAN are sub-millisecond; the CPS testbed's
    runtime is instead dominated by bandwidth and CPU, which are modelled by
    :class:`repro.testbed.cps.CpsTestbed`.
    """
    return UniformLatency(low=0.0002, high=0.0015, seed=seed)
