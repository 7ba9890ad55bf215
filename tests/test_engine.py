import math
import struct
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradcast import engine
from gradcast.config import default_config
from gradcast.engine import (BLOCK, STREAM_PURPOSES, Event, EventKind, SchedulingInPastError,
                             Simulator, make_stream)
from gradcast.metrics import RunRecorder
from gradcast.phys import Transmission
from gradcast.scenario import Network, build_network, generate_topology
from tests.conftest import numpy_stream


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
    fresh = numpy_stream(5, 2, 4, "policy")
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
    position, and each block of a node's draws is grown once, by its first
    reader, through the module attributes. Node 3 reads four blocks while no
    other node reads: each is made for it alone, hashing only its seed row.
    Node 5's reads then find each block held, so each is made in one pass
    for every node id at that level, and the first pass hashes the seed
    words over every node id, once. Every row is numpy's seed and every
    node's draws are its stream's."""
    hashed, grown = [], []
    real_words, real_grow = engine.seed_words, engine.grow
    monkeypatch.setattr(engine, "seed_words",
                        lambda *args: hashed.append(args) or real_words(*args))
    monkeypatch.setattr(engine, "grow", lambda tapes, key, node: grown.append(
        (key, node, len(tapes[key][1][node]))) or real_grow(tapes, key, node))
    tapes = {}
    nets = [_network(seed=9, run_index=1, tapes=tapes) for _ in range(2)]
    n = 3 * BLOCK + 5
    a, b = nets
    for node in (3, 5):
        first = [a.random(node, "mac") for _ in range(n)]
        assert [b.random(node, "mac") for _ in range(n)] == first
        assert first == numpy_stream(9, 1, node, "mac").random(n).tolist()
    key = (9, 1, "mac")
    assert grown == [(key, node, k * BLOCK) for node in (3, 5) for k in range(4)]
    assert [(args[:3], list(args[3])) for args in hashed] == \
        [(key, [3])] * 4 + [(key, list(range(9)))]
    assert list(tapes) == [key]
    rows, draws = tapes[key]
    seeds = [np.random.SeedSequence([9 ^ 1, node, STREAM_PURPOSES["mac"]])
             .generate_state(4, np.uint64).tobytes() for node in range(9)]
    assert [row.tobytes() for row in rows] == seeds
    assert [d.tobytes() for d in draws] == \
        [numpy_stream(9, 1, node, "mac").random(4 * BLOCK).tobytes() for node in range(9)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), node=st.integers(0, 2000),
       k=st.integers(1, 3 * BLOCK + 1), offset=st.integers(0, 2 * BLOCK))
def test_block_draws_equal_scalar_draws(seed, node, k, offset):
    """make_stream's ``random(k)`` after ``random(offset)`` gives numpy's k
    scalar ``random()`` draws at that offset into the stream;
    ``Network.random`` reads them across the blocks grown onto a node's
    draws (on a network of nine node ids, the stream of node ``node % 9``)."""
    blocks = make_stream(seed, 0, node, "failure")
    scalars = numpy_stream(seed, 0, node, "failure")
    for _ in range(offset):
        scalars.random()
    blocks.random(offset)
    expected = [scalars.random() for _ in range(k)]
    assert blocks.random(k).tolist() == expected
    net = _network(seed, 0)
    node %= len(net.nodes)
    for _ in range(offset):
        net.random(node, "failure")
    want = numpy_stream(seed, 0, node, "failure").random(offset + k).tolist()[offset:]
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
       node=st.integers(0, 299), leader=st.integers(0, 299), levels=st.integers(1, 4))
@example(key=2**96, purpose="failure", node=0, leader=299, levels=4)
def test_tape_blocks_are_make_streams_draws(key, purpose, node, leader, levels):
    """Blocks at levels 0-3 made both ways are numpy's doubles byte for
    byte, and make_stream's: the leader reads ``levels`` blocks alone, each
    made from its own seed row, then ``node``'s reads make each level in
    one pass over every node id still at that level."""
    assume(node != leader)
    n = max(node, leader) + 1
    k = (key, 0, purpose)
    tapes = {k: [None, [array("d") for _ in range(n)]]}
    for reader in (leader, node):
        for _ in range(levels):
            engine.grow(tapes, k, reader)
    rows, draws = tapes[k]
    assert rows.shape == (n, 4) and [len(d) for d in draws] == [levels * BLOCK] * n
    for i in {leader, node, 0, n - 1}:
        want = numpy_stream(key, 0, i, purpose).random(levels * BLOCK).tobytes()
        assert draws[i].tobytes() == want
        assert make_stream(key, 0, i, purpose).random(levels * BLOCK).tobytes() == want


def test_a_level_pass_fills_exactly_the_nodes_at_its_level():
    """A block no node holds is made for its reader alone, hashing no seed
    words for the rest; a block another node holds is made in one pass for
    exactly the node ids holding as many draws as the reader, and ids behind
    or ahead of it keep theirs. Every draw stays numpy's."""
    key = (4, 0, "policy")
    held = [2, 1, 0, 1, 3, 1]   # blocks per node id, copied from numpy
    draws = [array("d", numpy_stream(4, 0, i, "policy").random(b * BLOCK))
             for i, b in enumerate(held)]
    tapes = {key: [None, draws]}
    engine.grow(tapes, key, 4)   # no node holds block 3
    assert tapes[key][0] is None
    engine.grow(tapes, key, 1)   # node 0 holds block 1
    assert tapes[key][0].shape == (6, 4)
    assert [len(d) // BLOCK for d in draws] == [2, 2, 0, 2, 4, 2]
    for i, d in enumerate(draws):
        assert d.tobytes() == numpy_stream(4, 0, i, "policy").random(len(d)).tobytes()


def test_a_level_pass_keeps_its_temporaries_to_a_few_blocks():
    # numpy reports its buffers to tracemalloc: a pass over 1000 node ids
    # works BLOCK rows at a time, so what it allocates and frees again (its
    # peak above the draws it keeps) stays a few (BLOCK, BLOCK) arrays, not
    # several (1000, BLOCK) ones
    n, key = 1000, (1, 0, "mac")
    tapes = {key: [engine.seed_words(*key, np.arange(n)), [array("d") for _ in range(n)]]}
    engine.grow(tapes, key, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.grow(tapes, key, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - before >= (n - 1) * BLOCK * 8
    assert peak - kept < 12 * BLOCK * BLOCK * 8


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lo=st.integers(0, 2**20),
       span=st.integers(0, 60) | st.sampled_from([2**31, 0x55555555, 2**32 - 2]),
       follow=st.integers(1, 3 * BLOCK))
@example(seed=0, lo=3, span=0, follow=1)
@example(seed=0, lo=0, span=2**31, follow=1)
@example(seed=2, lo=0, span=0x55555555, follow=1)
def test_integers_are_numpys_bounded_draws(seed, lo, span, follow):
    """``integers(lo, lo + span + 1)`` is numpy's draw, then so are the
    doubles that follow. A zero span consumes nothing. The spans 2**31 and
    (2**32 - 1) / 3 reject about half and a third of their 32-bit draws
    (Lemire), whose threshold is 2**32 mod (span + 1); the two explicit
    streams of them reject their first."""
    mine, numpys = make_stream(seed, 0, None, "traffic"), numpy_stream(seed, 0, None, "traffic")
    for _ in range(2):   # the second draw reads the half the first one left
        assert mine.integers(lo, lo + span + 1) == numpys.integers(lo, lo + span + 1)
    assert mine.random(follow).tobytes() == numpys.random(follow).tobytes()
    for bad in (lo, lo - 1, lo + 2**32):
        with pytest.raises(ValueError):
            mine.integers(lo, bad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       w=st.floats(1.0, 1e4), h=st.floats(1.0, 1e4))
def test_one_double_draw_is_both_uniform_coordinate_draws(seed, n, w, h):
    """``random((2, n))`` scaled by the width and the height, as
    generate_topology draws it, is numpy's ``uniform(0, w, n)`` then
    ``uniform(0, h, n)``, and so are the topology's sensor positions."""
    xs, ys = make_stream(seed, 0, None, "topology").random((2, n)) * [[w], [h]]
    numpys = numpy_stream(seed, 0, None, "topology")
    assert xs.tobytes() == numpys.uniform(0.0, w, n).tobytes()
    assert ys.tobytes() == numpys.uniform(0.0, h, n).tobytes()
    cfg = default_config()
    cfg.scenario.node_count, cfg.scenario.area_width_m, cfg.scenario.area_height_m = n, w, h
    positions, _, _ = generate_topology(cfg, make_stream(seed, 0, None, "topology"))
    assert positions == list(zip(xs.tolist(), ys.tolist()))


def test_importing_gradcast_leaves_numpy_random_unloaded():
    """numpy loads ``numpy.random`` on first use; importing it, with
    ``secrets``, ``hmac`` and the Cython runtime, costs about 5.4 MB of RSS
    on top of numpy and this package (1.8 MB in the benchmark's child, which
    already loads part of it). No module of this package pays it at import,
    and no played run pays it: a serial sweep of the five protocols at p_f
    0.4 on both failure sides draws from every stream purpose."""
    script = ("import importlib, pkgutil, sys\n"
              f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
              "import gradcast\n"
              "names = [m.name for m in pkgutil.iter_modules(gradcast.__path__)]\n"
              "for name in names:\n"
              "    importlib.import_module('gradcast.' + name)\n"
              "from gradcast import config, scenario\n"
              "cfg = config.apply_overrides(config.default_config(), [\n"
              "    'scenario.node_count=30', 'scenario.area_width_m=120',\n"
              "    'scenario.area_height_m=120', 'scenario.p_f=0.4', 'scenario.replications=2'])\n"
              "runs, _ = scenario.sweep(cfg, {'scenario.protocol': ['BGB', 'GRAB', 'P-GRAB',\n"
              "    'U-GRAB', 'UP-GRAB'], 'scenario.failure_side': ['rx', 'tx']}, jobs=1)\n"
              "print(len(names), 'numpy' in sys.modules, len(runs),\n"
              "      sum(m.relay_failures for m in runs) > 0,\n"
              "      *(name in sys.modules for name in ('numpy.random', 'secrets', 'hmac')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    count, numpy_loaded, runs, failed, *loaded = done.stdout.split()
    assert int(count) >= 10 and numpy_loaded == "True"
    assert int(runs) == 2 * 5 * 2 and failed == "True"
    assert loaded == ["False"] * 3


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
    numpy_draws = numpy_stream(seed, 0, 1, "mac")
    doubles = numpy_stream(seed, 0, 1, "mac")
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
