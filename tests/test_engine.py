import math
import struct
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcast import engine
from gradcast.config import default_config
from gradcast.engine import (BLOCK, STREAM_PURPOSES, Event, EventKind, SchedulingInPastError,
                             Simulator, make_stream)
from gradcast.metrics import RunRecorder
from gradcast.phys import Transmission
from gradcast.scenario import Network, build_network


def test_schedule_keeps_clock():
    sim = Simulator()
    sim.clock = 3.0
    sim.schedule(5.0, EventKind.TIMER, 0, "x")
    assert sim.pending() == 1
    assert sim.clock == 3.0


def test_equal_fire_times_dequeue_in_insertion_order():
    sim = Simulator()
    order = []
    sim.handler = lambda s, ev: order.append(ev.payload)
    sim.schedule(5.0, EventKind.TIMER, 0, "first")
    sim.schedule(5.0, EventKind.TIMER, 0, "second")
    sim.run_until_idle()
    assert order == ["first", "second"]


def test_scheduling_in_the_past_is_a_fault():
    sim = Simulator()
    sim.clock = 3.0
    with pytest.raises(SchedulingInPastError):
        sim.schedule(2.0, EventKind.TIMER, 0, None)


def test_run_until_idle_on_empty_queue_returns_clock():
    sim = Simulator()
    assert sim.run_until_idle(100.0) == 0.0


def test_max_time_leaves_later_events_queued():
    sim = Simulator()
    fired = []
    sim.handler = lambda s, ev: fired.append(ev.fire_at)
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, EventKind.TIMER, 0, None)
    clock = sim.run_until_idle(2.5)
    assert fired == [1.0, 2.0]
    assert 2.0 <= clock < 3.0
    assert sim.pending() == 1   # no event loss


def test_handler_can_schedule_followups():
    sim = Simulator()
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
    sim = Simulator()
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


def _network(seed: int, run_index: int, tapes: dict | None = None) -> Network:
    """A built network of eight sensors and a sink, drawing from the tapes
    of (seed, run_index)."""
    cfg = default_config()
    cfg.scenario.base_seed = seed
    net = Network(cfg, Simulator(), RunRecorder(run_index, "BGB", 0.0), tapes=tapes)
    net.build([(10.0 * i, 0.0) for i in range(1, 9)], (0.0, 0.0))
    return net


def test_network_cursor_keeps_its_place():
    """Each (node, purpose) stream of a network keeps its own read
    position: draws of another node or purpose in between do not move it."""
    net = _network(seed=5, run_index=2)
    first = net.random(4, "policy")
    net.random(5, "policy")
    net.random(4, "mac")
    second = net.random(4, "policy")
    fresh = make_stream(5, 2, 4, "policy")
    assert [first, second] == [fresh.random(), fresh.random()]


def test_resume_moves_every_cursor_on_the_snapshots_tapes():
    """A network resumed from a snapshot, on the tape dict the snapshot was
    taken on, reads on from the snapshot's read positions and grows no
    node's draws; ``build_network`` refuses a snapshot without a tape dict."""
    tapes = {}
    played = _network(seed=3, run_index=1, tapes=tapes)
    for _ in range(BLOCK + 5):   # two blocks in
        played.random(7, "mac")
    played.random(2, "policy")
    snap = played.snapshot()
    n = len(played.nodes)
    assert snap.reads == {"mac": tuple(BLOCK + 5 if i == 7 else 0 for i in range(n)),
                          "policy": tuple(int(i == 2) for i in range(n))}
    resumed = _network(seed=3, run_index=1, tapes=tapes)
    resumed.resume(snap, [])
    assert resumed.snapshot() == snap
    assert [len(draws) for draws in tapes[3, 1, "mac"][1]] == \
        [2 * BLOCK if i == 7 else 0 for i in range(n)]
    assert [resumed.random(7, "mac") for _ in range(80)] == \
        [played.random(7, "mac") for _ in range(80)]
    assert resumed.random(2, "policy") == played.random(2, "policy")
    with pytest.raises(ValueError, match="tapes"):
        build_network(default_config(), 1, snapshot=snap)


def test_cells_sharing_tapes_replay_one_seeding(monkeypatch):
    """Two networks on one tape dict read the same draws, each from its own
    position, and each purpose is seeded once, through the module
    attributes: one hash of its seed words over every node id, whose row
    for each node is make_stream's seed, and each block of a node's draws
    grown once, by the first reader; a node holds no draws before its
    first read."""
    hashed, grown = [], []
    real_words, real_grow = engine.seed_words, engine.grow
    monkeypatch.setattr(engine, "seed_words",
                        lambda *args: hashed.append(args) or real_words(*args))
    monkeypatch.setattr(engine, "grow", lambda draws, row: grown.append(
        (row.tobytes(), len(draws))) or real_grow(draws, row))
    tapes = {}
    nets = [_network(seed=9, run_index=1, tapes=tapes) for _ in range(2)]
    n = 3 * BLOCK + 5
    a, b = nets
    for node in (3, 5):
        first = [a.random(node, "mac") for _ in range(n)]
        assert [b.random(node, "mac") for _ in range(n)] == first
        assert first == make_stream(9, 1, node, "mac").random(n).tolist()
    assert [args[:3] for args in hashed] == [(9, 1, "mac")]
    assert list(hashed[0][3]) == list(range(9))
    assert list(tapes) == [(9, 1, "mac")]
    rows, draws = tapes[9, 1, "mac"]
    seeds = [np.random.SeedSequence([9 ^ 1, node, STREAM_PURPOSES["mac"]])
             .generate_state(4, np.uint64).tobytes() for node in range(9)]
    assert [row.tobytes() for row in rows] == seeds
    assert grown == [(seeds[node], k * BLOCK) for node in (3, 5) for k in range(4)]
    assert [len(d) for d in draws] == [4 * BLOCK if node in (3, 5) else 0 for node in range(9)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), node=st.integers(0, 2000),
       k=st.integers(1, 3 * BLOCK + 1), offset=st.integers(0, 2 * BLOCK))
def test_block_draws_equal_scalar_draws(seed, node, k, offset):
    """``Generator.random(k)`` gives the doubles of k scalar ``random()``
    calls, at any offset into the stream; ``Network.random`` reads them
    across the blocks grown onto a node's draws (on a network of nine node
    ids, the stream of node ``node % 9``)."""
    blocks = make_stream(seed, 0, node, "failure")
    scalars = make_stream(seed, 0, node, "failure")
    for _ in range(offset):
        scalars.random()
    blocks.random(offset)
    expected = [scalars.random() for _ in range(k)]
    assert blocks.random(k).tolist() == expected
    net = _network(seed, 0)
    node %= len(net.nodes)
    for _ in range(offset):
        net.random(node, "failure")
    want = make_stream(seed, 0, node, "failure").random(offset + k).tolist()[offset:]
    assert [net.random(node, "failure") for _ in range(k)] == want


# seed ^ run as SeedSequence splits it: zero, one 32-bit word, two or three
# words, and more words than its pool of four holds with the node and purpose
STREAM_KEYS = (st.just(0) | st.integers(1, 2**32 - 1) | st.integers(2**32, 2**96 - 1)
               | st.integers(2**96, 2**200))


@settings(max_examples=120, deadline=None)
@given(key=STREAM_KEYS, run=st.integers(0, 63), purpose=st.sampled_from(list(STREAM_PURPOSES)),
       count=st.integers(1, 300))
@example(key=2**32 - 1, run=0, purpose="mac", count=1)
@example(key=2**32, run=5, purpose="failure", count=300)
@example(key=2**96 - 1, run=1, purpose="policy", count=2)
@example(key=2**96, run=0, purpose="topology", count=3)
def test_seed_words_are_numpys_seed_sequence(key, run, purpose, count):
    """Every row is what numpy's SeedSequence hands PCG64 for that stream."""
    rows = engine.seed_words(key ^ run, run, purpose, np.arange(count))
    assert rows.dtype == np.uint64 and rows.shape == (count, 4)
    for node in range(count):
        want = np.random.SeedSequence([key, node, STREAM_PURPOSES[purpose]])
        assert rows[node].tobytes() == want.generate_state(4, np.uint64).tobytes()


@settings(max_examples=60, deadline=None)
@given(key=STREAM_KEYS, purpose=st.sampled_from(list(STREAM_PURPOSES)),
       node=st.integers(0, 299))
def test_tape_blocks_are_make_streams_draws(key, purpose, node):
    """Draws grown block by block from a node's row of its purpose's seed
    words are make_stream's doubles byte for byte, across three blocks."""
    want = make_stream(key, 0, node, purpose).random(3 * BLOCK).tobytes()
    row = engine.seed_words(key, 0, purpose, np.arange(node + 1))[node]
    draws = array("d")
    for _ in range(3):
        engine.grow(draws, row)
    assert draws.tobytes() == want


def test_row_seed_hands_pcg64_its_row_and_refuses_anything_else():
    row = engine.seed_words(3, 0, "mac", [5])[0]
    seq = engine._row_seed_class()(row)
    assert seq.generate_state(4, np.uint64) is row
    assert seq.generate_state(4, "uint64") is row
    for args in [(4,), (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64),
                 (4, np.int64)]:
        with pytest.raises(ValueError):
            seq.generate_state(*args)


def test_importing_gradcast_leaves_numpy_random_unloaded():
    """numpy loads ``numpy.random`` on first use; importing it costs about
    5.4 MB on top of numpy, which a module of this package must not pay at
    import."""
    script = ("import importlib, pkgutil, sys\n"
              f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
              "import gradcast\n"
              "names = [m.name for m in pkgutil.iter_modules(gradcast.__path__)]\n"
              "for name in names:\n"
              "    importlib.import_module('gradcast.' + name)\n"
              "print(len(names), 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    count, numpy_loaded, random_loaded = done.stdout.split()
    assert int(count) >= 10 and numpy_loaded == "True"
    assert random_loaded == "False"


FINITE = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0, 120.0, 5e-324])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lo=FINITE, hi=FINITE, same=st.booleans())
def test_uniform_is_affine_in_one_double(seed, lo, hi, same):
    """numpy's scalar ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()`` bit
    for bit wherever it accepts lo and hi, and ``Network.uniform`` is that
    formula for any finite lo and hi. numpy refuses a range with its sign bit
    set (lo > hi, or 0.0 to -0.0), so nothing in the simulator can have
    depended on its value there."""
    if same:
        hi = lo
    numpy_draws = make_stream(seed, 0, 1, "mac")
    doubles = make_stream(seed, 0, 1, "mac")
    net = _network(seed, 0)
    for _ in range(3):
        want = struct.pack("<d", lo + (hi - lo) * doubles.random())
        assert struct.pack("<d", net.uniform(1, "mac", lo, hi)) == want
        if math.copysign(1.0, hi - lo) < 0.0:
            with pytest.raises(ValueError):
                numpy_draws.uniform(lo, hi)
        else:
            assert struct.pack("<d", numpy_draws.uniform(lo, hi)) == want


def test_event_fields():
    ev = Event(1.5, 7, EventKind.TX_START, 3, "payload")
    assert (ev.fire_at, ev.seq, ev.kind, ev.node, ev.payload) == \
        (1.5, 7, EventKind.TX_START, 3, "payload")
    # a plain tuple that orders by (fire_at, seq) on the heap
    assert Event._fields == ("fire_at", "seq", "kind", "node", "payload")
    assert isinstance(ev, tuple) and tuple(ev) == (1.5, 7, EventKind.TX_START, 3, "payload")
    assert Event(1.5, 8, EventKind.TIMER, 0).payload is None
    # the simulator builds its events past the constructor, into the same type
    sim = Simulator()
    sim.seq = 7
    scheduled = sim.schedule(1.5, EventKind.TX_START, 3, "payload")
    assert type(scheduled) is Event and scheduled == ev and scheduled.kind is EventKind.TX_START
    assert sim.schedule(1.5, EventKind.TIMER, 0) == Event(1.5, 8, EventKind.TIMER, 0)


class Unordered:
    """A payload that fails the run if anything compares it."""
    __hash__ = object.__hash__

    def _compared(self, other):
        raise AssertionError("a payload was compared")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _compared


def test_events_at_one_instant_pop_in_seq_order_without_comparing_payloads():
    sim = Simulator()
    popped = []
    sim.handler = lambda s, ev: popped.append(ev)
    # payloads that do not order (a Transmission, a dict) or refuse any
    # comparison, under kinds that do not order either, pushed around
    # earlier and later events so the heap sifts past them
    payloads = [Transmission(0, 0.0, 1.0, 2.0, "pkt"), {"a": 1}, Unordered(),
                Unordered(), {"a": 1}, Transmission(0, 0.0, 1.0, 2.0, "pkt")]
    kinds = list(EventKind)
    scheduled = []
    for k, payload in enumerate(payloads):
        sim.schedule(9.5 - k, EventKind.TIMER, 0, k)
        scheduled.append(sim.schedule(5.0, kinds[k % len(kinds)], k, payload))
    sim.run_until_idle()
    at_five = [ev for ev in popped if ev.fire_at == 5.0]
    assert [ev.seq for ev in at_five] == sorted(ev.seq for ev in scheduled)
    assert all(a is b for a, b in zip(at_five, scheduled))
    assert [ev.fire_at for ev in popped] == sorted(ev.fire_at for ev in popped)
