"""Simulation events.

The discrete-event simulator processes a totally ordered stream of events.
Two kinds exist: ``START`` events that trigger a node's ``on_start`` hook and
``DELIVER`` events that hand an in-flight message to its destination.

Both deterministic engines (see ``docs/SIMULATOR.md``) schedule plain
tuples whose first three fields are ``(time, tiebreak, sequence)``, with the
integer kinds :data:`START_EVENT` / :data:`DELIVER_EVENT` in the fourth:

* the reference engine's :class:`~repro.sim.scheduler.EventScheduler`
  holds 6-tuples ``(time, tiebreak, sequence, kind, node, envelope)``
  (``envelope`` is ``None`` for a START);
* the fast engine's heap holds 7-tuples
  ``(time, tiebreak, sequence, kind, node, sender, message)``.

Native tuple comparison realises the ``(time, tiebreak, sequence)`` order
in C; the sequence number is unique, so later elements never compare.  The
``tiebreak`` is drawn from the delivery policy (randomised when it reorders)
so messages arriving at identical simulated times can be reordered
adversarially while the whole run stays deterministic for a fixed seed.
"""

from __future__ import annotations

#: Integer event kinds (the fourth field of every tuple event).
START_EVENT = 0
DELIVER_EVENT = 1
