import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcast import engine
from gradcast.engine import (Event, EventKind, SchedulingInPastError, Simulator, Tape,
                             make_stream)


def test_schedule_keeps_clock():
    sim = Simulator(seed=1)
    sim.clock = 3.0
    sim.schedule(5.0, EventKind.TIMER, 0, "x")
    assert sim.pending() == 1
    assert sim.clock == 3.0


def test_equal_fire_times_dequeue_in_insertion_order():
    sim = Simulator(seed=1)
    order = []
    sim.handler = lambda s, ev: order.append(ev.payload)
    sim.schedule(5.0, EventKind.TIMER, 0, "first")
    sim.schedule(5.0, EventKind.TIMER, 0, "second")
    sim.run_until_idle()
    assert order == ["first", "second"]


def test_scheduling_in_the_past_is_a_fault():
    sim = Simulator(seed=1)
    sim.clock = 3.0
    with pytest.raises(SchedulingInPastError):
        sim.schedule(2.0, EventKind.TIMER, 0, None)


def test_run_until_idle_on_empty_queue_returns_clock():
    sim = Simulator(seed=1)
    assert sim.run_until_idle(100.0) == 0.0


def test_max_time_leaves_later_events_queued():
    sim = Simulator(seed=1)
    fired = []
    sim.handler = lambda s, ev: fired.append(ev.fire_at)
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, EventKind.TIMER, 0, None)
    clock = sim.run_until_idle(2.5)
    assert fired == [1.0, 2.0]
    assert 2.0 <= clock < 3.0
    assert sim.pending() == 1   # no event loss


def test_handler_can_schedule_followups():
    sim = Simulator(seed=1)
    seen = []

    def handler(s, ev):
        seen.append(ev.fire_at)
        if ev.fire_at < 3.0:
            s.schedule(ev.fire_at + 1.0, EventKind.TIMER, 0, None)

    sim.handler = handler
    sim.schedule(1.0, EventKind.TIMER, 0, None)
    sim.run_until_idle()
    assert seen == [1.0, 2.0, 3.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_clock_is_monotone_over_any_schedule(times):
    sim = Simulator(seed=1)
    dequeued = []
    sim.handler = lambda s, ev: dequeued.append(ev.fire_at)
    for t in times:
        sim.schedule(t, EventKind.TIMER, 0, None)
    sim.run_until_idle()
    assert dequeued == sorted(dequeued)
    assert len(dequeued) == len(times)


def test_streams_are_deterministic_and_distinct():
    a = make_stream(7, 3, 11, "mac").random(8).tolist()
    b = make_stream(7, 3, 11, "mac").random(8).tolist()
    assert a == b
    c = make_stream(7, 3, 11, "policy").random(8).tolist()
    d = make_stream(7, 3, 12, "mac").random(8).tolist()
    e = make_stream(7, 4, 11, "mac").random(8).tolist()
    assert a != c and a != d and a != e


def test_simulator_stream_cursor_keeps_its_place():
    sim = Simulator(seed=5, run_index=2)
    c1 = sim.stream(4, "policy")
    first = c1.random()
    assert sim.stream(4, "policy") is c1
    second = c1.random()
    fresh = make_stream(5, 2, 4, "policy")
    assert [first, second] == [fresh.random(), fresh.random()]


def test_cells_sharing_tapes_replay_one_seeding(monkeypatch):
    """Two simulators on one tape dict read the same draws, each from its own
    position, and the stream is seeded once, through the module attribute."""
    seeded = []
    real = engine.make_stream
    monkeypatch.setattr(engine, "make_stream",
                        lambda *key: seeded.append(key) or real(*key))
    tapes = {}
    a = Simulator(seed=9, run_index=1, tapes=tapes).stream(3, "mac")
    b = Simulator(seed=9, run_index=1, tapes=tapes).stream(3, "mac")
    n = 3 * Tape.BLOCK + 5
    first = [a.random() for _ in range(n)]
    assert [b.random() for _ in range(n)] == first
    assert seeded == [(9, 1, 3, "mac")]
    assert first == real(9, 1, 3, "mac").random(n).tolist()
    assert list(tapes) == [(9, 1, 3, "mac")]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), node=st.integers(0, 2000),
       k=st.integers(1, 3 * Tape.BLOCK + 1), offset=st.integers(0, 2 * Tape.BLOCK))
def test_block_draws_equal_scalar_draws(seed, node, k, offset):
    """``Generator.random(k)`` gives the doubles of k scalar ``random()``
    calls, at any offset into the stream; a cursor reads them across its
    tape's block refills."""
    blocks = make_stream(seed, 0, node, "failure")
    scalars = make_stream(seed, 0, node, "failure")
    cursor = Simulator(seed, 0).stream(node, "failure")
    for _ in range(offset):
        scalars.random()
        cursor.random()
    blocks.random(offset)
    expected = [scalars.random() for _ in range(k)]
    assert blocks.random(k).tolist() == expected
    assert [cursor.random() for _ in range(k)] == expected


FINITE = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0, 120.0, 5e-324])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lo=FINITE, hi=FINITE, same=st.booleans())
def test_uniform_is_affine_in_one_double(seed, lo, hi, same):
    """numpy's scalar ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()`` bit
    for bit wherever it accepts lo and hi, and a cursor's ``uniform`` is that
    formula for any finite lo and hi. numpy refuses a range with its sign bit
    set (lo > hi, or 0.0 to -0.0), so nothing in the simulator can have
    depended on its value there."""
    if same:
        hi = lo
    numpy_draws = make_stream(seed, 0, 1, "mac")
    doubles = make_stream(seed, 0, 1, "mac")
    cursor = Simulator(seed, 0).stream(1, "mac")
    for _ in range(3):
        want = struct.pack("<d", lo + (hi - lo) * doubles.random())
        assert struct.pack("<d", cursor.uniform(lo, hi)) == want
        if math.copysign(1.0, hi - lo) < 0.0:
            with pytest.raises(ValueError):
                numpy_draws.uniform(lo, hi)
        else:
            assert struct.pack("<d", numpy_draws.uniform(lo, hi)) == want


def test_event_fields():
    ev = Event(1.5, 7, EventKind.TX_START, 3, "payload")
    assert (ev.fire_at, ev.seq, ev.kind, ev.node, ev.payload) == \
        (1.5, 7, EventKind.TX_START, 3, "payload")
