"""Priority-queue event scheduler with deterministic tie-breaking.

The scheduler owns the simulation clock and, since the fast-path overhaul,
also the run's *time horizon*: when a ``max_time`` is configured the
scheduler itself refuses to release events beyond it (``pop`` returns
``None`` and sets :attr:`EventScheduler.horizon_reached`), so engines no
longer need a manual per-event overrun check.  Scheduling an event in the
past, or configuring a nonsensical horizon, raises a
:class:`~repro.errors.SimulationError` with the offending values spelled
out.

Events are native tuples ``(time, tiebreak, sequence, kind, node,
envelope)`` (see :mod:`repro.sim.events`), so the heap orders them by
``(time, tiebreak, sequence)`` with C-level tuple comparison.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.errors import SimulationError


class EventScheduler:
    """A min-heap of tuple events ordered by ``(time, tiebreak, sequence)``.

    The scheduler also tracks the current simulated time and refuses to
    schedule events in the past, which catches protocol-runtime bugs early.

    Parameters
    ----------
    horizon:
        Optional cap on simulated time (``SimulationConfig.max_time``).
        Events scheduled beyond the horizon are accepted — a message may
        legitimately be in flight past the cap — but never released:
        :meth:`pop` returns ``None`` instead and records the cutoff in
        :attr:`horizon_reached`.
    """

    def __init__(self, horizon: Optional[float] = None) -> None:
        if horizon is not None and horizon < 0:
            raise SimulationError(
                f"simulation horizon (max_time) must be non-negative, got {horizon}"
            )
        self._heap: List[tuple] = []
        self._sequence = 0
        self._now = 0.0
        self._horizon = horizon
        self.horizon_reached = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def horizon(self) -> Optional[float]:
        """The time cap this scheduler enforces (``None`` = unbounded)."""
        return self._horizon

    @property
    def pending(self) -> int:
        """Number of events waiting to be processed."""
        return len(self._heap)

    def next_sequence(self) -> int:
        """Monotonically increasing sequence number for event creation."""
        self._sequence += 1
        return self._sequence

    def schedule(self, event: tuple) -> None:
        """Add an event to the queue.

        Raises
        ------
        SimulationError
            If the event is scheduled before the current simulated time.
        """
        if event[0] < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event in the past: event time t={event[0]} "
                f"is before the simulation clock now={self._now}"
            )
        heapq.heappush(self._heap, event)

    def pop(self) -> Optional[tuple]:
        """Remove and return the earliest event, advancing simulated time.

        Returns ``None`` when the queue is empty or when the next event
        lies beyond the configured horizon (in which case
        :attr:`horizon_reached` is set and the event stays queued).
        """
        if not self._heap:
            return None
        if self._horizon is not None and self._heap[0][0] > self._horizon:
            self.horizon_reached = True
            return None
        event = heapq.heappop(self._heap)
        if event[0] > self._now:
            self._now = event[0]
        return event

    def clear(self) -> None:
        """Drop all pending events and reset the clock."""
        self._heap.clear()
        self._sequence = 0
        self._now = 0.0
        self.horizon_reached = False
