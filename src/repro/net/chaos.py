"""Wire-level chaos injection over the 4-method transport seam.

:class:`ChaosTransport` wraps any transport implementing the seam shared by
:class:`~repro.sim.asyncio_runtime.InMemoryTransport` and
:class:`~repro.net.socket_transport.SocketTransport` — ``open`` / ``put`` /
``get`` / ``close`` moving ``(sender, message)`` pairs — and injects faults
on a declarative schedule:

* **delay windows** (:class:`~repro.net.network.DelayWindow`) — matching
  messages are delivered ``extra`` seconds late;
* **loss windows** (:class:`~repro.net.network.LossWindow`) — matching
  messages are dropped independently with the window's probability, drawn
  from a seeded per-channel stream so runs are reproducible;
* **partitions** (:class:`~repro.net.network.PartitionWindow`) — messages
  crossing partition islands are *held until the window heals* (severed,
  never dropped — the paper's asynchronous adversary may delay but not
  drop), then released;
* **connection resets** (:class:`ResetSpec`) — at a scheduled instant the
  wrapped transport's live connections are severed mid-stream (only
  transports exposing ``reset_connection``, i.e. the socket transport);
* **bit-flip corruption** (:class:`CorruptSpec`) — at a scheduled instant
  the next sealed frames on matching channels get one bit flipped (via
  ``corrupt_next_frame``), which the receiver must reject with
  :class:`~repro.errors.AuthenticationError` and the sender must survive
  through its redial/backoff machinery.

The first three *are* the simulator's
:class:`~repro.net.network.NetworkFaultPlan` — :class:`WireFaults` extends
it — and every ``put`` is decided by the plan's one
:meth:`~repro.net.network.NetworkFaultPlan.judge`, so one schedule language
and one hold/delay/drop semantics cover both the simulator and a live
deployment.  Because chaos is applied on the *sender side* of each wrapped
transport, per-process schedules naturally express asymmetric faults: the
``A -> B`` direction of a link can be partitioned while ``B -> A`` flows.

Determinism: every probabilistic decision is drawn from a per-channel
``random.Random`` seeded from ``(seed, sender, target)`` in per-channel
message order, and every decision is appended to :attr:`decision_log` —
two transports with the same seed, schedule and per-channel message
sequence make byte-identical decisions (a hypothesis-checked property).

The fault clock starts at :meth:`open` (``clock()`` is ``time.monotonic``
unless injected) and stops at :meth:`close`; window times are seconds since
the start.  A respawned process re-enters the timeline at zero — document
schedules accordingly.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.domains import AT_LEAST_ONE, NON_NEGATIVE
from repro.net.message import Message
from repro.net.network import (
    DROP,
    HOLD,
    PASS,
    ChannelFilter,
    JsonSpec,
    NetworkFaultPlan,
)


@dataclass(frozen=True)
class ResetSpec(ChannelFilter):
    """Sever matching live connections mid-stream at ``at`` seconds.

    ``senders``/``receivers`` restrict which ordered channels are reset
    (``None`` = any), using the same filter convention as the delay and
    loss windows.
    """

    at: float
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self._coerce(at=NON_NEGATIVE)
        self._coerce_filter()


@dataclass(frozen=True)
class CorruptSpec(ChannelFilter):
    """Arm bit-flip corruption of ``count`` frames per matching channel at
    ``at`` seconds (the corrupted frame must surface on the receiver as an
    :class:`~repro.errors.AuthenticationError`, never as protocol input)."""

    at: float
    count: int = 1
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self._coerce(at=NON_NEGATIVE, count=AT_LEAST_ONE)
        self._coerce_filter()


@dataclass(frozen=True)
class WireFaults(NetworkFaultPlan, JsonSpec):
    """One process's wire-fault schedule: the simulator's fault plan
    (partition, delay and loss windows, and their judge) plus the two
    live-only fault kinds (resets, corruption)."""

    resets: Tuple[ResetSpec, ...] = ()
    corruptions: Tuple[CorruptSpec, ...] = ()

    @property
    def active(self) -> bool:
        return bool(super().active or self.resets or self.corruptions)


class ChaosTransport:
    """Deterministic, seeded fault injection around any seam transport.

    Parameters
    ----------
    inner:
        The wrapped transport (socket or in-memory).  Unknown attributes
        (counters, ``advance_epoch``, ``addresses``, ...) delegate to it.
    faults:
        The wire-fault schedule.  With no active faults the wrapper is a
        pure passthrough — byte-identical to the inner transport (a
        hypothesis-checked property).
    seed:
        Seeds the per-channel loss streams.
    clock:
        Injectable monotonic clock (tests pin it for exact window control).
    """

    def __init__(
        self,
        inner: Any,
        faults: Optional[WireFaults] = None,
        *,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.inner = inner
        self.faults = faults if faults is not None else WireFaults()
        self.seed = seed
        self._clock = clock
        self._start: Optional[float] = None
        self._hosted: Tuple[int, ...] = ()
        self._peers: Tuple[int, ...] = ()
        self._deliveries: set = set()  # held or delayed messages
        self._timers: set = set()  # scheduled resets and corruptions
        self._rngs: Dict[Tuple[int, int], random.Random] = {}
        #: Every fault decision, in per-channel order:
        #: ``(kind, sender, target, channel_seq)``.
        self.decision_log: List[Tuple[str, int, int, int]] = []
        self._seq: Dict[Tuple[int, int], int] = {}
        # Observability counters.
        self.frames_passed = 0
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.frames_held = 0
        self.resets_applied = 0
        self.corruptions_armed = 0
        self.wire_faults_unsupported = 0

    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes not defined on the wrapper: delegate
        # to the wrapped transport (counters, addresses, epoch hooks, ...).
        return getattr(self.inner, name)

    def _now(self) -> float:
        assert self._start is not None
        return self._clock() - self._start

    def _rng(self, sender: int, target: int) -> random.Random:
        key = (sender, target)
        rng = self._rngs.get(key)
        if rng is None:
            # str seeds hash via SHA-512 in CPython's Random, so the stream
            # is stable across processes and PYTHONHASHSEED values.
            rng = self._rngs[key] = random.Random(f"{self.seed}|{sender}|{target}")
        return rng

    def _next_seq(self, sender: int, target: int) -> int:
        key = (sender, target)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    # ------------------------------------------------------------------
    # The transport seam
    # ------------------------------------------------------------------
    async def open(self, node_ids: Sequence[int]) -> None:
        await self.inner.open(node_ids)
        hosted = getattr(self.inner, "local_ids", None)
        self._hosted = tuple(hosted) if hosted else tuple(node_ids)
        addresses = getattr(self.inner, "addresses", None) or {}
        self._peers = tuple(sorted(set(addresses) | set(node_ids)))
        self._start = self._clock()
        for reset in self.faults.resets:
            self._spawn_timer(reset.at, self._apply_reset, reset)
        for corrupt in self.faults.corruptions:
            self._spawn_timer(corrupt.at, self._apply_corrupt, corrupt)

    async def put(self, target: int, item: Tuple[int, Message]) -> None:
        sender = item[0]
        if self._start is None or not self.faults.active or target == sender:
            # Not open / no faults / local self-delivery: passthrough.
            await self.inner.put(target, item)
            return
        seq = self._next_seq(sender, target)
        log = self.decision_log

        def coin() -> float:
            # Every draw is logged as a survival; the judge stops at the
            # first drop, so only the last entry can need correcting.
            log.append(("keep", sender, target, seq))
            return self._rng(sender, target).random()

        kind, extra = self.faults.judge(sender, target, self._now(), coin)
        if kind == DROP:
            log[-1] = (DROP, sender, target, seq)
            self.frames_dropped += 1
        elif kind == PASS:
            self.frames_passed += 1
            await self.inner.put(target, item)
        else:
            if kind == HOLD:
                self.frames_held += 1
            else:
                self.frames_delayed += 1
            log.append((kind, sender, target, seq))
            self._deliver_later(extra, target, item)

    async def get(self, node_id: int) -> Tuple[int, Message]:
        return await self.inner.get(node_id)

    def pending(self) -> int:
        """Locally queued messages plus held or delayed deliveries."""
        inner_pending = getattr(self.inner, "pending", None)
        base = inner_pending() if callable(inner_pending) else 0
        return base + len(self._deliveries)

    async def close(self) -> None:
        # Stop the fault clock: a later put passes through, and the closed
        # inner transport drops and counts it.  Held/delayed messages die
        # with the transport: the seam is best-effort, exactly like sends
        # racing teardown.
        self._start = None
        tasks = [*self._deliveries, *self._timers]
        self._deliveries, self._timers = set(), set()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self.inner.close()

    # ------------------------------------------------------------------
    # Scheduled delivery and wire events
    # ------------------------------------------------------------------
    @staticmethod
    def _track(tasks: set, coroutine: Any) -> None:
        task = asyncio.create_task(coroutine)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def _deliver_later(self, delay: float, target: int, item: Tuple[int, Message]) -> None:
        async def _later() -> None:
            await asyncio.sleep(max(0.0, delay))
            await self.inner.put(target, item)

        self._track(self._deliveries, _later())

    def _spawn_timer(self, at: float, apply: Callable[[Any], None], spec: Any) -> None:
        async def _fire() -> None:
            remaining = at - self._now()
            if remaining > 0:
                await asyncio.sleep(remaining)
            apply(spec)

        self._track(self._timers, _fire())

    def _apply_reset(self, spec: ResetSpec) -> None:
        reset = getattr(self.inner, "reset_connection", None)
        if reset is None:
            self.wire_faults_unsupported += 1
            return
        for sender in self._hosted:
            for target in self._peers:
                if target != sender and spec.matches(sender, target):
                    if reset(sender, target):
                        self.resets_applied += 1

    def _apply_corrupt(self, spec: CorruptSpec) -> None:
        corrupt = getattr(self.inner, "corrupt_next_frame", None)
        if corrupt is None:
            self.wire_faults_unsupported += 1
            return
        for sender in self._hosted:
            for target in self._peers:
                if target != sender and spec.matches(sender, target):
                    corrupt(sender, target, spec.count)
                    self.corruptions_armed += 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """JSON-safe counter snapshot for verdicts and metrics."""
        return {
            "frames_passed": self.frames_passed,
            "frames_dropped": self.frames_dropped,
            "frames_delayed": self.frames_delayed,
            "frames_held": self.frames_held,
            "resets_applied": self.resets_applied,
            "corruptions_armed": self.corruptions_armed,
            "wire_faults_unsupported": self.wire_faults_unsupported,
            "decisions": len(self.decision_log),
        }
