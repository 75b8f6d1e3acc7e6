"""Runtime observer hooks for the simulation engines.

Both engines (reference and fast) call the same three hooks on every
registered observer, in the same order, so an observer sees an identical
stream of callbacks regardless of the engine:

* :meth:`SimObserver.on_event` — after each processed event (START or
  DELIVER), with the event's integer kind (:data:`~repro.sim.events.START_EVENT`
  / :data:`~repro.sim.events.DELIVER_EVENT`);
* :meth:`SimObserver.on_decide` — the first time an *honest* node produces an
  output, with the node's CPU-finish time (the value recorded in
  ``decision_times``);
* :meth:`SimObserver.on_run_end` — once, with the final
  :class:`~repro.sim.runtime.SimulationResult`.

Observers must not mutate protocol or network state and must not consume any
random stream — the engine-equivalence contract (``docs/SIMULATOR.md``)
depends on observers being pure listeners.  The fault-campaign invariant
monitors (:mod:`repro.faults.monitors`) are built on this interface and
*raise* :class:`~repro.errors.InvariantViolation` from a hook to fail fast.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.net.message import Message
from repro.sim.events import DELIVER_EVENT, START_EVENT


class SimObserver:
    """Base class for simulation observers; every hook defaults to a no-op."""

    def on_event(
        self,
        time: float,
        kind: int,
        node_id: int,
        sender: int,
        message: Optional[Message],
    ) -> None:
        """Called after each processed event (``sender``/``message`` are
        ``-1``/``None`` for START events)."""

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        """Called when an honest node first produces an output."""

    def on_run_end(self, result: Any) -> None:
        """Called once with the final :class:`SimulationResult`."""


def event_observers(observers: Sequence[SimObserver]) -> Tuple[SimObserver, ...]:
    """The observers whose class overrides ``on_event``: the only ones the
    engines call per event (``on_decide``/``on_run_end`` reach every one)."""
    base = (None, SimObserver.on_event)
    return tuple(o for o in observers if getattr(type(o), "on_event", None) not in base)


class TraceRecorder(SimObserver):
    """Keeps a bounded tail of processed events for violation repro bundles.

    ``on_event`` keeps the hook's arguments as one tuple (a ``Message`` is
    immutable); :meth:`tail` turns each into a JSON-safe dict (time, kind,
    node, sender, protocol, message type, round, but no payload) — enough
    to see *what the schedule looked like* just before an invariant broke.
    """

    def __init__(self, limit: int = 200) -> None:
        self.limit = limit
        self._tail: Deque[Tuple[Any, ...]] = deque(maxlen=limit)
        self.events_seen = 0

    def on_event(
        self,
        time: float,
        kind: int,
        node_id: int,
        sender: int,
        message: Optional[Message],
    ) -> None:
        self.events_seen += 1
        self._tail.append((time, kind, node_id, sender, message))

    def tail(self) -> List[Dict[str, Any]]:
        """The recorded event tail, oldest first (JSON-safe)."""
        entries = []
        for time, kind, node_id, sender, message in self._tail:
            entry: Dict[str, Any] = {
                "time": time,
                "kind": "start" if kind == START_EVENT else "deliver",
                "node": node_id,
            }
            if kind == DELIVER_EVENT and message is not None:
                entry["sender"] = sender
                entry["protocol"] = message.protocol
                entry["mtype"] = message.mtype
                if message.round is not None:
                    entry["round"] = message.round
            entries.append(entry)
        return entries


class ScheduleDigest(SimObserver):
    """A stable fingerprint of one run's delivery schedule.

    Folds every processed event (time, kind, node, sender, message type,
    round) and every decision into a CRC — two runs share a digest iff the
    engines walked the same schedule.  The adversarial-schedule search
    (:mod:`repro.faults.search`) uses this to recognise mutants whose change
    was behaviourally inert (e.g. a fault window entirely past the run's
    horizon) instead of wasting budget and leaderboard slots on duplicates.
    """

    def __init__(self) -> None:
        self._crc = 0
        self.events = 0

    def on_event(
        self,
        time: float,
        kind: int,
        node_id: int,
        sender: int,
        message: Optional[Message],
    ) -> None:
        self.events += 1
        if kind == DELIVER_EVENT and message is not None:
            blob = (
                f"{time:.9f}|{node_id}|{sender}|{message.protocol}"
                f"|{message.mtype}|{message.round}"
            )
        else:
            blob = f"{time:.9f}|start|{node_id}"
        self._crc = zlib.crc32(blob.encode("utf-8"), self._crc)

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        value = getattr(output, "value", output)
        self._crc = zlib.crc32(
            f"decide|{node_id}|{value!r}|{time:.9f}".encode("utf-8"), self._crc
        )

    @property
    def digest(self) -> str:
        """Hex digest qualified by the event count (JSON-safe)."""
        return f"{self._crc:08x}-{self.events}"
