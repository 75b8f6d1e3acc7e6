"""Tests for the event scheduler and event ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.message import Envelope, Message
from repro.sim.events import DELIVER_EVENT, START_EVENT
from repro.sim.scheduler import EventScheduler


def _event(time, tiebreak=0.0, sequence=0, node=0):
    return (time, tiebreak, sequence, START_EVENT, node, None)


def _popped(*events):
    scheduler = EventScheduler()
    for event in events:
        scheduler.schedule(event)
    return [scheduler.pop() for _ in events]


class TestEventOrdering:
    def test_ordered_by_time(self):
        late, early = _event(2.0, sequence=1), _event(1.0, sequence=2)
        assert _popped(late, early) == [early, late]

    def test_tiebreak_orders_simultaneous_events(self):
        late, early = _event(1.0, 0.9, sequence=1), _event(1.0, 0.1, sequence=2)
        assert _popped(late, early) == [early, late]

    def test_sequence_is_final_tiebreaker(self):
        late, early = _event(1.0, 0.5, sequence=2), _event(1.0, 0.5, sequence=1)
        assert _popped(late, early) == [early, late]

    def test_payload_fields_never_compare(self):
        # Envelopes define no ordering: the unique sequence must settle
        # every tie before the comparison could reach them.
        envelope = Envelope(0, 1, Message("p", "T", None, None))
        deliver = (1.0, 0.5, 2, DELIVER_EVENT, 1, envelope)
        start = _event(1.0, 0.5, sequence=1)
        assert _popped(deliver, start) == [start, deliver]


class TestEventScheduler:
    def test_pop_returns_events_in_time_order(self):
        scheduler = EventScheduler()
        scheduler.schedule(_event(2.0, sequence=scheduler.next_sequence()))
        scheduler.schedule(_event(1.0, sequence=scheduler.next_sequence()))
        scheduler.schedule(_event(3.0, sequence=scheduler.next_sequence()))
        times = [scheduler.pop()[0] for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.sampled_from([0.0, 0.25, 0.5]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_any_events_pop_in_key_order_on_a_monotone_clock(self, keys, late):
        scheduler = EventScheduler()
        events = [
            _event(time, tiebreak, sequence=scheduler.next_sequence())
            for time, tiebreak in keys
        ]
        for event in events:
            scheduler.schedule(event)
        popped, clock = [], []
        while scheduler.pending:
            popped.append(scheduler.pop())
            clock.append(scheduler.now)
        assert popped == sorted(events, key=lambda event: event[:3])
        assert clock == sorted(clock)
        assert scheduler.now == max(time for time, _ in keys)
        if late < scheduler.now - 1e-12:
            with pytest.raises(SimulationError):
                scheduler.schedule(_event(late, sequence=scheduler.next_sequence()))
        else:
            scheduler.schedule(_event(late, sequence=scheduler.next_sequence()))
            assert scheduler.pop()[0] == late

    def test_clock_advances_monotonically(self):
        scheduler = EventScheduler()
        scheduler.schedule(_event(5.0, sequence=1))
        scheduler.pop()
        assert scheduler.now == 5.0

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler()
        scheduler.schedule(_event(5.0, sequence=1))
        scheduler.pop()
        with pytest.raises(SimulationError):
            scheduler.schedule(_event(1.0, sequence=2))

    def test_pop_empty_returns_none(self):
        assert EventScheduler().pop() is None

    def test_pending_counts_events(self):
        scheduler = EventScheduler()
        assert scheduler.pending == 0
        scheduler.schedule(_event(1.0, sequence=1))
        assert scheduler.pending == 1

    def test_clear_resets_clock_and_queue(self):
        scheduler = EventScheduler()
        scheduler.schedule(_event(1.0, sequence=1))
        scheduler.pop()
        scheduler.clear()
        assert scheduler.now == 0.0
        assert scheduler.pending == 0

    def test_sequence_numbers_increase(self):
        scheduler = EventScheduler()
        assert scheduler.next_sequence() < scheduler.next_sequence()


class TestSchedulerHorizon:
    def test_pop_refuses_events_beyond_horizon(self):
        scheduler = EventScheduler(horizon=2.0)
        scheduler.schedule(_event(1.0, sequence=1))
        scheduler.schedule(_event(3.0, sequence=2))
        assert scheduler.pop()[0] == 1.0
        assert scheduler.pop() is None
        assert scheduler.horizon_reached
        # The over-horizon event stays queued and the clock does not move.
        assert scheduler.pending == 1
        assert scheduler.now == 1.0

    def test_event_exactly_at_horizon_is_released(self):
        scheduler = EventScheduler(horizon=2.0)
        scheduler.schedule(_event(2.0, sequence=1))
        assert scheduler.pop()[0] == 2.0
        assert not scheduler.horizon_reached

    def test_scheduling_beyond_horizon_is_allowed(self):
        # A message may legitimately still be in flight past the cap.
        scheduler = EventScheduler(horizon=1.0)
        scheduler.schedule(_event(5.0, sequence=1))
        assert scheduler.pending == 1

    def test_negative_horizon_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler(horizon=-1.0)

    def test_clear_resets_horizon_flag(self):
        scheduler = EventScheduler(horizon=1.0)
        scheduler.schedule(_event(2.0, sequence=1))
        assert scheduler.pop() is None and scheduler.horizon_reached
        scheduler.clear()
        assert not scheduler.horizon_reached
