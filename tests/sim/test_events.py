"""Unit tests for the event queue primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append(3))
    q.push(1.0, lambda: fired.append(1))
    q.push(2.0, lambda: fired.append(2))
    while q:
        q.pop()._fire()
    assert fired == [1, 2, 3]


def test_same_time_orders_by_priority():
    q = EventQueue()
    fired = []
    q.push(1.0, lambda: fired.append("low"), priority=PRIORITY_LOW)
    q.push(1.0, lambda: fired.append("high"), priority=PRIORITY_HIGH)
    q.push(1.0, lambda: fired.append("normal"), priority=PRIORITY_NORMAL)
    while q:
        q.pop()._fire()
    assert fired == ["high", "normal", "low"]


def test_same_time_same_priority_is_fifo():
    q = EventQueue()
    fired = []
    for i in range(10):
        q.push(1.0, lambda i=i: fired.append(i))
    while q:
        q.pop()._fire()
    assert fired == list(range(10))


def test_len_counts_live_events():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    e1.cancel()
    assert len(q) == 1
    q.pop()
    assert len(q) == 0
    assert not q


def test_cancelled_events_are_skipped():
    q = EventQueue()
    fired = []
    e = q.push(1.0, lambda: fired.append("cancelled"))
    q.push(2.0, lambda: fired.append("kept"))
    e.cancel()
    while q:
        q.pop()._fire()
    assert fired == ["kept"]


def test_cancel_twice_returns_false():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    assert e.cancel() is True
    assert e.cancel() is False
    assert len(q) == 0


def test_cancel_after_fire_returns_false():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.pop()._fire()
    assert e.fired
    assert e.cancel() is False


def test_cancel_after_pop_keeps_live_count():
    # A popped event has left the queue: cancelling it is allowed, but
    # must not take the still-queued event off the live count.
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    second = q.push(2.0, lambda: None)
    assert q.pop() is first
    assert first.cancel() is True
    assert len(q) == 1 and q
    assert q.pop() is second


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.pop()


def test_event_state_flags():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    assert e.pending and not e.fired and not e.cancelled
    q.pop()._fire()
    assert e.fired and not e.pending


def test_events_are_not_comparable():
    # The heap orders (time, priority, seq, event) tuples; seq is unique,
    # so nothing ever compares two events, and nothing may.
    q = EventQueue()
    early = q.push(1.0, lambda: None)
    late = q.push(2.0, lambda: None)
    with pytest.raises(TypeError):
        early < late  # noqa: B015
    with pytest.raises(TypeError):
        sorted([late, early])


def test_pop_due_leaves_later_events_queued():
    q = EventQueue()
    dropped = q.push(0.5, lambda: None)
    first = q.push(1.0, lambda: None)
    later = q.push(2.0, lambda: None)
    dropped.cancel()
    assert q.pop_due(1.0) is first
    assert q.pop_due(1.0) is None
    assert len(q) == 1 and later.pending
    assert q.pop_due() is later
    assert q.pop_due() is None


_PUSH = st.tuples(
    st.just("push"),
    st.sampled_from((0.0, 0.5, 1.0, 2.5)),
    st.sampled_from((PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)),
)
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 63))
_POP = st.tuples(st.just("pop"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_PUSH, _PUSH, _CANCEL, _POP), max_size=80))
def test_random_push_cancel_pop_follows_time_priority_push_order(ops):
    q = EventQueue()
    pushed = []  # (time, priority, push index, event), in push order
    live = set()  # push indices of events neither cancelled nor popped

    def next_live():
        return min(live, key=lambda i: pushed[i][:3])

    for op in ops:
        if op[0] == "push":
            _, time, priority = op
            event = q.push(time, lambda: None, priority=priority)
            live.add(len(pushed))
            pushed.append((time, priority, len(pushed), event))
        elif op[0] == "cancel" and pushed:
            i = op[1] % len(pushed)
            assert pushed[i][3].cancel() is (i in live)
            live.discard(i)
        elif op[0] == "pop":
            if not live:
                with pytest.raises(SimulationError):
                    q.pop()
            else:
                expected = next_live()
                event = q.pop()
                assert event is pushed[expected][3]
                assert not event.cancelled
                event._fire()
                live.discard(expected)
        assert len(q) == len(live)

    drained = []
    while q:
        event = q.pop()
        assert not event.cancelled
        drained.append(event)
        assert len(q) == len(live) - len(drained)
    order = sorted(live, key=lambda i: pushed[i][:3])
    assert drained == [pushed[i][3] for i in order]
    assert q.pop_due() is None
