import copy
import dataclasses
import gc
import json
import math
import statistics
import subprocess
import sys
import types
import weakref
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcast import costfield, engine, phys, policies, scenario
from gradcast.config import ConfigError, apply_overrides, default_config, validate
from gradcast.engine import STREAM_PURPOSES, Simulator, make_stream
from gradcast.metrics import RunRecorder, run_row
from gradcast.policies import Battery
from gradcast.scenario import (TrafficEvent, build_network, connectivity,
                               generate_topology, generate_traffic,
                               neighbor_lists, play, run_replication, sweep)
from gradcast.shared_setup import DATA_ONLY_FIELDS, SetupSnapshot, SharedSetup, setup_key
from tests.conftest import line_cfg, numpy_stream, small_cfg


def test_topology_is_reproducible():
    cfg = small_cfg()
    a, sink_a, _ = generate_topology(cfg, make_stream(1, 0, None, "topology"))
    b, sink_b, _ = generate_topology(cfg, make_stream(1, 0, None, "topology"))
    assert a == b and sink_a == sink_b
    c, _, _ = generate_topology(cfg, make_stream(1, 1, None, "topology"))
    assert a != c


def test_two_nodes_on_a_tiny_area_are_mutual_neighbors():
    cfg = default_config()
    cfg.scenario.node_count = 2
    cfg.scenario.area_width_m = cfg.scenario.area_height_m = 10.0
    positions, sink, _ = generate_topology(cfg, make_stream(1, 0, None, "topology"))
    nbrs = neighbor_lists(positions, cfg.phys)
    assert nbrs[0] == [1] and nbrs[1] == [0]


def test_sink_placement_modes():
    cfg = small_cfg()
    _, corner, _ = generate_topology(cfg, make_stream(1, 0, None, "topology"))
    assert corner == (0.0, 0.0)
    cfg.scenario.sink_placement = "center"
    _, center, _ = generate_topology(cfg, make_stream(1, 0, None, "topology"))
    assert center == (75.0, 75.0)


def test_desk_scale_degree_band():
    # regression band frozen from the generator's own statistics at the
    # default radio profile (mean degree ~ 31 +/- 2 over seeds)
    cfg = default_config()
    degrees = []
    for run in range(3):
        positions, sink, _ = generate_topology(cfg, make_stream(1, run, None, "topology"))
        nbrs = neighbor_lists(positions + [sink], cfg.phys)
        degrees.extend(len(lst) for lst in nbrs[:-1])
    mean_deg = statistics.fmean(degrees)
    assert 27.0 <= mean_deg <= 35.0


def test_require_connected_resamples_until_connected():
    cfg = small_cfg(require_connected=True)
    positions, sink, _ = generate_topology(cfg, make_stream(1, 5, None, "topology"))
    assert all(connectivity(positions, sink, cfg.phys))


def test_traffic_totals_and_window():
    cfg = default_config()
    totals = []
    for run in range(30):
        events = generate_traffic(cfg, make_stream(1, run, None, "traffic"))
        totals.append(len(events))
        for ev in events:
            assert cfg.scenario.data_start_ms <= ev.trigger_ms <= \
                cfg.scenario.data_start_ms + cfg.scenario.data_window_ms
    assert min(totals) >= 25 and max(totals) <= 35
    assert len(set(totals)) > 1
    again = generate_traffic(cfg, make_stream(1, 0, None, "traffic"))
    assert [ (e.pos, e.trigger_ms) for e in again ] == \
        [ (e.pos, e.trigger_ms) for e in generate_traffic(cfg, make_stream(1, 0, None, "traffic")) ]


def _scalar_traffic(cfg, rng) -> list:
    """generate_traffic's reference: the total, then per event its own
    ``uniform`` calls for x, y and the trigger offset."""
    sc = cfg.scenario
    total = int(rng.integers(max(0, sc.event_count - sc.event_spread),
                             sc.event_count + sc.event_spread + 1))
    events = []
    for _ in range(total):
        x = float(rng.uniform(0.0, sc.area_width_m))
        y = float(rng.uniform(0.0, sc.area_height_m))
        t = sc.data_start_ms + float(rng.uniform(0.0, sc.data_window_ms))
        events.append(((x, y), t))
    return events


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), run=st.integers(0, 1000),
       count=st.integers(0, 4), spread=st.integers(0, 2),
       width=st.floats(1.0, 1e4), height=st.floats(1.0, 1e4),
       start=st.sampled_from([0.0, 2000.0, 12345.6]), window=st.floats(1.0, 1e5))
@example(seed=0, run=0, count=0, spread=0, width=250.0, height=250.0, start=0.0,
         window=1.0)   # no event
@example(seed=0, run=0, count=1, spread=0, width=250.0, height=90.0, start=2000.0,
         window=15000.0)   # exactly one
def test_traffic_is_the_scalar_draws_bit_for_bit(seed, run, count, spread, width, height,
                                                 start, window):
    cfg = default_config()
    sc = cfg.scenario
    sc.event_count, sc.event_spread = count, spread
    sc.area_width_m, sc.area_height_m = width, height
    sc.data_start_ms, sc.data_window_ms = start, window
    events = generate_traffic(cfg, make_stream(seed, run, None, "traffic"))
    expected = _scalar_traffic(cfg, numpy_stream(seed, run, None, "traffic"))
    assert [(e.pos, e.trigger_ms) for e in events] == expected
    for e in events:
        assert [type(v) for v in (*e.pos, e.trigger_ms)] == [float] * 3


def test_event_on_a_node_picks_that_node_as_source():
    cfg, positions, sink = line_cfg(3, spacing_m=40.0)
    traffic = [TrafficEvent(positions[1], cfg.scenario.data_start_ms + 1.0)]
    sim, net = build_network(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    assert list(net.recorder.sent) == [(1, 0)]


def test_two_node_run_delivers_with_airtime_delay():
    cfg, positions, sink = line_cfg(1, spacing_m=40.0)
    traffic = [TrafficEvent(positions[0], cfg.scenario.data_start_ms)]
    m = run_replication(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    assert m.messages_sent == 1 and m.messages_delivered == 1
    assert m.success_ratio == 1.0
    # zero backoff: the delay is exactly one data airtime
    assert m.avg_delay_ms == pytest.approx(cfg.phys.airtime_ms(cfg.phys.data_bytes))


def test_bgb_chain_every_intermediate_forwards_once():
    cfg, positions, sink = line_cfg(4, spacing_m=40.0)
    traffic = [TrafficEvent(positions[0], cfg.scenario.data_start_ms)]
    m = run_replication(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    assert m.messages_delivered == 1
    assert m.forwarded_total == 4   # source plus three relays
    assert m.avg_delay_ms == pytest.approx(4 * cfg.phys.airtime_ms(cfg.phys.data_bytes))


def test_grab_chain_delivers_with_bounded_forwards():
    cfg, positions, sink = line_cfg(5, spacing_m=40.0, protocol="GRAB")
    traffic = [TrafficEvent(positions[0], cfg.scenario.data_start_ms)]
    m = run_replication(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    assert m.messages_delivered == 1
    assert m.forwarded_total >= 4   # at least the chain itself


def test_same_seed_same_metrics():
    cfg = small_cfg(protocol="P-GRAB")
    a = run_replication(cfg, 1)
    b = run_replication(cfg, 1)
    assert run_row(a) == run_row(b)
    assert a.min_delay_ms == b.min_delay_ms


def test_same_seed_same_event_trace():
    cfg = small_cfg(protocol="U-GRAB")
    traces = []
    for _ in range(2):
        t = []
        run_replication(cfg, 0, event_trace=lambda ev: t.append(
            (ev.fire_at, ev.seq, ev.kind.value, ev.node)))
        traces.append(t)
    assert traces[0] == traces[1]


def test_protocol_choice_does_not_move_topology_or_traffic():
    seen = []
    for proto in ("BGB", "GRAB", "P-GRAB", "U-GRAB", "UP-GRAB"):
        cfg = small_cfg(protocol=proto)
        sim, net = build_network(cfg, 3)
        traffic = generate_traffic(cfg, make_stream(cfg.scenario.base_seed, 3, None, "traffic"))
        seen.append(([n.pos for n in net.nodes],
                     [(e.pos, e.trigger_ms) for e in traffic]))
    assert all(s == seen[0] for s in seen[1:])


def test_failure_probability_zero_and_one():
    # p_f = 1 with a 2-hop chain: the relay never relays, nothing arrives
    cfg, positions, sink = line_cfg(2, spacing_m=40.0, p_f=1.0)
    traffic = [TrafficEvent(positions[0], cfg.scenario.data_start_ms)]
    m = run_replication(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    assert m.messages_delivered == 0
    # but a sink-adjacent source still delivers directly
    cfg1, positions1, sink1 = line_cfg(1, spacing_m=40.0, p_f=1.0)
    traffic1 = [TrafficEvent(positions1[0], cfg1.scenario.data_start_ms)]
    m1 = run_replication(cfg1, 0, positions=positions1, sink_pos=sink1, traffic=traffic1)
    assert m1.messages_delivered == 1
    # p_f = 0 never draws the lottery
    cfg0, positions0, sink0 = line_cfg(2, spacing_m=40.0, p_f=0.0)
    traffic0 = [TrafficEvent(positions0[0], cfg0.scenario.data_start_ms)]
    m0 = run_replication(cfg0, 0, positions=positions0, sink_pos=sink0, traffic=traffic0)
    assert m0.messages_delivered == 1 and m0.relay_failures == 0


def test_failure_rate_calibration():
    p = 0.4
    rng = make_stream(1, 0, 7, "failure")
    n = 10_000
    fails = sum(u < p for u in rng.random(n).tolist())
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(fails / n - p) <= 3 * sigma


def test_tx_side_failure_mode_blocks_relays():
    cfg, positions, sink = line_cfg(2, spacing_m=40.0, p_f=1.0, failure_side="tx")
    traffic = [TrafficEvent(positions[0], cfg.scenario.data_start_ms)]
    m = run_replication(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    assert m.messages_delivered == 0 and m.relay_failures == 1


def test_sweep_shapes():
    cfg = small_cfg()
    cfg.scenario.replications = 2
    runs = sweep(cfg, {})[0]
    assert [m.run_index for m in runs] == [0, 1]
    all_runs, cells = sweep(cfg, {"scenario.protocol": ["BGB", "GRAB"],
                                  "scenario.p_f": ["0", "0.4"]})
    assert len(cells) == 4 and len(all_runs) == 8
    assert [(c.protocol, c.p_f) for c in cells] == \
        [("BGB", 0.0), ("BGB", 0.4), ("GRAB", 0.0), ("GRAB", 0.4)]


def _seeded(net, purpose: str) -> dict[int, int]:
    """Per node id that read its ``purpose`` stream, the draws it read."""
    _, _, reads = net.streams.get(purpose, (None, None, []))
    return {i: pos for i, pos in enumerate(reads) if pos}


def test_policy_streams_only_for_protocols_that_draw(monkeypatch):
    """BGB and GRAB never draw from a node's policy stream, so they read no
    node's policy draws and make no policy tape; P-GRAB does draw, so the
    check is not vacuous. U-GRAB draws only on a reward tie, so it reads
    policy draws exactly for each node that drew, once per draw; with the
    energy reward pinned to the fresh ladder's, ties are common."""
    built = {}
    for protocol in ("BGB", "GRAB", "P-GRAB"):
        cfg = small_cfg(protocol=protocol, replications=1)
        sim, net = build_network(cfg, 0)
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)
        net.release()
        assert net.counters["forwarded_total"] > 0
        # the nodes holding policy draws, and whether the policy seed words
        # were hashed
        built[protocol] = (_seeded(net, "policy"),
                           (cfg.scenario.base_seed, 0, "policy") in net.tapes)
    assert built["BGB"] == built["GRAB"] == ({}, False)
    assert built["P-GRAB"][0] and built["P-GRAB"][1]

    draws = []
    real = policies.ugrab_decide

    def counted(node_id, coin):
        def draw():
            draws.append(node_id)
            return coin()
        return draw

    monkeypatch.setattr(policies, "ugrab_decide", lambda node, c_n, limit, params, coin:
                        real(node, c_n, limit, params, counted(node.id, coin)))
    for forced_tie in (False, True):
        if forced_tie:
            monkeypatch.setattr(policies, "energy_reward", lambda battery: 0.25)
        draws.clear()
        cfg = small_cfg(protocol="U-GRAB", replications=1)
        sim, net = build_network(cfg, 0)
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)
        net.release()
        assert net.counters["forwarded_total"] > 0
        streams = _seeded(net, "policy")
        assert streams == Counter(draws)
        if forced_tie:
            assert len(draws) > 10
        else:
            assert len(streams) == len(draws)


def test_ugrab_without_a_tie_hashes_no_policy_words(monkeypatch):
    """U-GRAB flips its policy coin only on a reward tie: a play whose
    decisions hold no tie hashes no policy seed words and makes no policy
    tape, though its nodes decide: it hashes the node-less streams' words
    (``make_stream``) and the mac and failure words."""
    hashed = []
    real_words = engine.seed_words
    monkeypatch.setattr(engine, "seed_words",
                        lambda *args: hashed.append(args[2]) or real_words(*args))
    decisions = []
    cfg = small_cfg(protocol="U-GRAB", replications=1, p_f=0.4)
    sim, net = build_network(cfg, 0, decision_trace=decisions.append)
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    net.release()
    # row: time, node, protocol, eligible, action, p_fw, c_n, ladder and energy rewards
    decided = [row for row in decisions if row[3] == 1]
    assert len(decided) > 10 and all(row[7] != row[8] for row in decided)
    assert set(hashed) == {"topology", "traffic", "failure", "mac"}
    assert set(net.tapes) == {(cfg.scenario.base_seed, 0, p) for p in ("failure", "mac")}


def test_a_new_protocol_is_one_table_row(monkeypatch):
    monkeypatch.setitem(policies.PROTOCOLS, "BGB-COPY", policies.PROTOCOLS["BGB"])
    copy_cfg = small_cfg(protocol="BGB-COPY")
    validate(copy_cfg)
    copy = [run_row(m) for m in sweep(copy_cfg, {})[0]]
    bgb = [run_row(m) for m in sweep(small_cfg(protocol="BGB"), {})[0]]
    assert [r[1] for r in copy] == ["BGB-COPY"] * len(bgb)
    assert [r[:1] + r[2:] for r in copy] == [r[:1] + r[2:] for r in bgb]


SWEEP_PROTOCOLS = ["BGB", "GRAB", "P-GRAB", "U-GRAB", "UP-GRAB"]
SWEEP_AXES = {"scenario.protocol": SWEEP_PROTOCOLS, "scenario.p_f": ["0", "0.4"]}
# require_connected resamples several times per replication on this arena
SPARSE_CONNECTED = dict(area_width_m=360.0, area_height_m=360.0, require_connected=True)


def _count_link_tables(monkeypatch) -> list[int]:
    built = []
    real = phys.link_table

    def counting(points, params):
        built.append(len(points))
        return real(points, params)

    monkeypatch.setattr(phys, "link_table", counting)
    return built


@pytest.mark.parametrize("arena", [{}, SPARSE_CONNECTED], ids=["compact", "sparse-connected"])
def test_sweep_cells_share_each_topology(monkeypatch, arena):
    """Ten cells on two replications: the sweep samples each replication's
    topology and table once, yet every row equals a replication run on its
    own, serially and in parallel."""
    built = _count_link_tables(monkeypatch)
    runs, _ = sweep(small_cfg(**arena), SWEEP_AXES)
    shared = len(built)
    built.clear()
    alone = [run_row(run_replication(small_cfg(protocol=protocol, p_f=p_f, **arena), i))
             for protocol in SWEEP_PROTOCOLS for p_f in (0.0, 0.4) for i in range(2)]
    assert [run_row(m) for m in runs] == alone
    # one table per replication, or per sample drawn where resampling
    assert len(built) == 10 * shared
    assert shared > 2 if arena else shared == 2
    parallel, _ = sweep(small_cfg(**arena), SWEEP_AXES, jobs=2)
    assert [run_row(m) for m in parallel] == alone


# cells shaped like the acceptance gate's: no cross product of axes, and
# differing in protocol, p_f and the policy knobs but not in topology
PLAY_CELLS = [("BGB", 0.0, 10.0, 2.0), ("GRAB", 0.4, 1.0, 2.0), ("GRAB", 0.4, 20.0, 2.0),
              ("P-GRAB", 0.8, 10.0, 2.0), ("P-GRAB", 0.4, 10.0, 16.0),
              ("U-GRAB", 0.0, 10.0, 2.0), ("UP-GRAB", 0.4, 5.0, 8.0)]


def _play_cell(protocol, p_f, credit, spread):
    cfg = small_cfg(protocol=protocol, p_f=p_f, require_connected=True)
    cfg.policies.credit_factor = credit
    cfg.policies.spread_factor = spread
    return cfg, f"credit={credit:g},spread={spread:g}"


def test_play_an_explicit_cell_list_shares_each_topology(monkeypatch):
    """Seven cells on two replications: play builds one link table per run
    index, yet each cell's rows equal its replications run on their own,
    serially and in parallel."""
    cells = [_play_cell(*c) for c in PLAY_CELLS]
    built = _count_link_tables(monkeypatch)
    runs, aggs = play(cells)
    assert len(built) == 2
    built.clear()
    alone = [run_row(run_replication(cfg, i, param=param))
             for cfg, param in cells for i in range(2)]
    assert len(built) == 2 * len(cells)
    assert [run_row(m) for m in runs] == alone
    assert [(a.protocol, a.p_f, a.param, a.n_runs) for a in aggs] == \
        [(cfg.scenario.protocol, cfg.scenario.p_f, param, 2) for cfg, param in cells]
    parallel, _ = play(cells, jobs=2)
    assert [run_row(m) for m in parallel] == alone


def test_play_seeds_each_stream_once_per_topology_group(monkeypatch):
    """Twenty cells on two replications, differing in protocol, p_f and the
    failure side: each purpose's seed words are hashed over every node id
    once in the play (a block made for one node alone hashes only its row),
    and each block of a node's draws is grown once; of the node-less
    streams, ``make_stream`` seeds the topology once per run index and the
    traffic once per cell and run. Yet each cell's rows equal its
    replications run on their own, serially and in parallel."""
    cells = [(small_cfg(protocol=protocol, p_f=p_f, failure_side=side), "")
             for protocol in SWEEP_PROTOCOLS for p_f in (0.0, 0.4) for side in ("rx", "tx")]
    seeded, hashed, grown = [], [], []
    real_stream, real_words, real_grow = engine.make_stream, engine.seed_words, engine.grow
    monkeypatch.setattr(engine, "make_stream",
                        lambda *key: seeded.append(key) or real_stream(*key))
    monkeypatch.setattr(engine, "seed_words", lambda *args: hashed.append(
        (*args[:3], len(args[3]))) or real_words(*args))
    monkeypatch.setattr(engine, "grow", lambda tapes, key, node: grown.append(
        (key, node, len(tapes[key][1][node]))) or real_grow(tapes, key, node))
    runs, _ = play(cells)
    # make_stream hashes one row per node-less stream
    passes = [key[:3] for key in hashed if key[3] > 1]
    for keys in (passes, grown):
        assert set(Counter(keys).values()) == {1}
    seed = cells[0][0].scenario.base_seed
    assert Counter(seeded) == {(seed, run, None, "topology"): 1 for run in (0, 1)} | \
        {(seed, run, None, "traffic"): len(cells) for run in (0, 1)}
    assert {(run, purpose) for _, run, purpose in passes} == \
        {(run, purpose) for run in (0, 1) for purpose in ("failure", "mac", "policy")}
    alone = [run_row(run_replication(cfg, i)) for cfg, _ in cells for i in range(2)]
    assert [run_row(m) for m in runs] == alone
    parallel, _ = play(cells, jobs=2)
    assert [run_row(m) for m in parallel] == alone


@pytest.mark.parametrize("axis", [{"scenario.node_count": ["50", "60"]},
                                  {"phys.alpha_exp": ["3.0", "3.5"]}],
                         ids=["node_count", "alpha_exp"])
def test_topology_axis_gives_each_value_its_table(monkeypatch, axis):
    built = _count_link_tables(monkeypatch)
    cfg = small_cfg(replications=1)
    sweep(cfg, axis)
    assert len(built) == 2   # one table per cell
    built.clear()
    sweep(cfg, {**axis, "scenario.protocol": ["BGB", "GRAB"]})
    assert len(built) == 2   # the protocols of one value share it
    if "scenario.node_count" in axis:
        assert built == [51, 61]


def test_build_network_alone_builds_its_own_table(monkeypatch):
    built = _count_link_tables(monkeypatch)
    cfg = small_cfg()
    _, a = build_network(cfg, 0)
    _, b = build_network(cfg, 0)
    assert built == [61, 61] and a.links is not b.links


def test_sweep_rejects_empty_axis():
    with pytest.raises(ValueError):
        sweep(small_cfg(), {"scenario.p_f": []})


@pytest.mark.parametrize("axes", [
    [("scenario.p_f", ["0"]), ("scenario.p_f", ["0.4"])],
    {"p_f": ["0", "0.8"], "scenario.p_f": ["0.4"]},
    [("scenario.p_f", ["0"]), ("scenario.p_f", [])],
], ids=["twice", "bare-and-dotted", "twice-one-empty"])
def test_sweep_rejects_two_axes_on_one_key(axes):
    with pytest.raises(ConfigError, match="scenario.p_f"):
        sweep(small_cfg(), axes)


def test_dead_source_is_skipped():
    cfg, positions, sink = line_cfg(2, spacing_m=40.0)
    traffic = [TrafficEvent(positions[0], cfg.scenario.data_start_ms)]
    sim, net = build_network(cfg, 0, positions=positions, sink_pos=sink, traffic=traffic)
    for node in net.nodes:
        if not node.is_sink:
            node.battery.consumed_j = node.battery.capacity_j
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    m = net.finish()
    assert m.messages_sent == 0 and m.messages_delivered == 0


def test_parallel_jobs_match_serial_results():
    cfg = small_cfg(protocol="GRAB")
    cfg.scenario.replications = 3
    serial = [run_row(m) for m in sweep(cfg, {}, jobs=1)[0]]
    parallel = [run_row(m) for m in sweep(cfg, {}, jobs=2)[0]]
    assert serial == parallel


def test_only_a_pooled_play_imports_multiprocessing():
    """A fresh interpreter imports every module of this package and plays
    serially: ``multiprocessing`` stays unloaded, also at ``jobs=2`` when
    the play forms one topology group. A ``jobs=2`` play of two groups starts
    the pool, and its rows equal the serial play's."""
    script = ("import importlib, json, pkgutil, sys\n"
              f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
              "import gradcast\n"
              "for m in pkgutil.iter_modules(gradcast.__path__):\n"
              "    importlib.import_module('gradcast.' + m.name)\n"
              "from gradcast.config import default_config\n"
              "from gradcast.metrics import run_row\n"
              "from gradcast.scenario import sweep\n"
              "cfg = default_config()\n"
              "sc = cfg.scenario\n"
              "sc.node_count, sc.area_width_m, sc.area_height_m = 30, 120.0, 120.0\n"
              "axes = {'scenario.protocol': ['GRAB', 'P-GRAB']}\n"
              "out = {'cli': 'gradcast.cli' in sys.modules}\n"
              "sc.replications = 2\n"
              "out['serial'] = [run_row(m) for m in sweep(cfg, axes, jobs=1)[0]]\n"
              "out['after_serial'] = 'multiprocessing' in sys.modules\n"
              "sc.replications = 1\n"
              "out['one_group'] = len(sweep(cfg, axes, jobs=2)[0])\n"
              "out['after_one_group'] = 'multiprocessing' in sys.modules\n"
              "sc.replications = 2\n"
              "out['pooled'] = [run_row(m) for m in sweep(cfg, axes, jobs=2)[0]]\n"
              "out['after_pooled'] = 'multiprocessing' in sys.modules\n"
              "print(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["cli"] and out["one_group"] == 2 and len(out["serial"]) == 4
    assert not out["after_serial"] and not out["after_one_group"]
    assert out["after_pooled"] and out["pooled"] == out["serial"]


def test_no_node_forwards_the_same_message_twice():
    from collections import Counter

    from gradcast.engine import EventKind
    from gradcast.policies import DataPacket

    for proto in ("BGB", "P-GRAB", "U-GRAB"):
        cfg = small_cfg(protocol=proto, require_connected=True)
        pairs = []

        def watch(ev, pairs=pairs):
            if ev.kind is EventKind.TX_START and isinstance(ev.payload[0], DataPacket):
                pairs.append((ev.node, ev.payload[0].msg_id))

        sim, net = build_network(cfg, 0, event_trace=watch)
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)
        assert pairs, proto
        dupes = [k for k, v in Counter(pairs).items() if v > 1]
        assert not dupes, (proto, dupes)


def _pair_loop_neighbor_lists(points, params):
    """The reference: is_neighbor over every unordered pair."""
    out = [[] for _ in points]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if phys.is_neighbor(points[i], points[j], params):
                out[i].append(j)
                out[j].append(i)
    return out


def test_neighbors_from_the_link_table_equal_the_pair_loop():
    cfg = default_config()
    d_edge = 10.0 ** (54.5 / 30.0)   # reception exactly at sensitivity: not a link
    for run in range(3):
        positions, sink, _ = generate_topology(cfg, make_stream(1, run, None, "topology"))
        positions += [positions[0], (0.0, 0.0), (d_edge, 0.0), (sink[0], d_edge - 1e-9)]
        pts = positions + [sink]
        reference = _pair_loop_neighbor_lists(pts, cfg.phys)
        assert neighbor_lists(pts, cfg.phys) == reference
        net = scenario.Network(cfg, Simulator(), RunRecorder(run, "BGB", 0.0))
        net.build(positions, sink)
        assert net.links.neighbors == reference
        assert scenario._reaches(net.links.neighbors, net.sink_id)[:-1] == \
            connectivity(positions, sink, cfg.phys)


def _loop_nearest_alive_sensor(net, pos):
    """The reference: every alive sensor's (phys.distance, id) key."""
    best = None
    best_key = None
    for node in net.nodes:
        if node.is_sink or node.battery.dead:
            continue
        key = (phys.distance(node.pos, pos), node.id)
        if best_key is None or key < best_key:
            best, best_key = node, key
    return best


# repeated values make duplicate positions and exact distance ties common;
# the next double after 10 makes keys one ulp apart
NEAR = st.sampled_from([0.0, 10.0, math.nextafter(10.0, 11.0), 30.0, 75.0]) | st.floats(0.0, 150.0)


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(NEAR, NEAR), min_size=1, max_size=40),
       dead=st.lists(st.booleans(), min_size=40, max_size=40),
       pos=st.tuples(NEAR, NEAR))
@example(points=[(10.0, 0.0), (0.0, 10.0), (10.0, 0.0)], dead=[False] * 40, pos=(0.0, 0.0))
@example(points=[(10.0, 10.0)] * 3, dead=[True] + [False] * 39, pos=(10.0, 10.0))
@example(points=[(5.0, 5.0), (6.0, 6.0)], dead=[True] * 40, pos=(0.0, 0.0))
@example(points=[(30.0, 30.0)] * 40, dead=[False] * 40, pos=(0.0, 0.0))
# math.hypot puts the second sensor one ulp nearer, np.hypot (numpy 2.4,
# x86-64) the first: only the exact comparison picks the second
@example(points=[(36.32520752167883, 24.672297793085797),
                 (36.325207521678834, 24.672297793085786)], dead=[False] * 40, pos=(0.0, 0.0))
def test_nearest_alive_sensor_equals_the_loop(points, dead, pos):
    net = scenario.Network(default_config(), Simulator(), RunRecorder(0, "BGB", 0.0))
    net.build(points, (75.0, 75.0))
    for node, off in zip(net.nodes[:-1], dead):
        if off:
            node.battery.consumed_j = node.battery.capacity_j
    assert net._nearest_alive_sensor(pos) is _loop_nearest_alive_sensor(net, pos)


def test_nearest_alive_sensor_ties_and_all_dead():
    net = scenario.Network(default_config(), Simulator(), RunRecorder(0, "BGB", 0.0))
    net.build([(10.0, 0.0), (0.0, 10.0), (10.0, 0.0), (3.0, 4.0)], (75.0, 75.0))
    assert net._nearest_alive_sensor((0.0, 0.0)).id == 3
    net.nodes[3].battery.consumed_j = net.nodes[3].battery.capacity_j
    assert net._nearest_alive_sensor((0.0, 0.0)).id == 0   # ties break by id
    net.nodes[0].battery.consumed_j = net.nodes[0].battery.capacity_j
    assert net._nearest_alive_sensor((0.0, 0.0)).id == 1
    assert net._nearest_alive_sensor((10.0, 0.0)).id == 2  # duplicate of a dead one
    for node in net.nodes[:-1]:
        node.battery.consumed_j = node.battery.capacity_j
    assert net._nearest_alive_sensor((0.0, 0.0)) is None


@pytest.mark.parametrize("protocol", ["BGB", "GRAB", "P-GRAB", "U-GRAB", "UP-GRAB"])
@pytest.mark.parametrize("cut", [False, True])
def test_finished_replication_is_freed_without_the_collector(monkeypatch, protocol, cut):
    cfg = small_cfg(protocol=protocol)
    if cut:
        # second-long advertisements, stopped mid-flood: several stay on the air
        cfg.phys.bitrate_bps = 100.0
        cfg.scenario.max_sim_time_ms = 2000.0
    built, on_air = [], []

    def spy(*args, **kwargs):
        sim, net = build_network(*args, **kwargs)
        built.append((weakref.ref(net), weakref.ref(sim), weakref.ref(net.links),
                      weakref.ref(net.links.bank)))
        return sim, net

    def release(net, release=scenario.Network.release):
        on_air.append(len(net.active))
        release(net)

    monkeypatch.setattr(scenario, "build_network", spy)
    monkeypatch.setattr(scenario.Network, "release", release)
    gc.disable()
    try:
        run_replication(cfg, 0)
        assert [ref() is None for ref in built[0]] == [True] * 4
    finally:
        gc.enable()
    assert (on_air[0] >= 2) == cut


def test_transmissions_on_the_air_are_freed_with_the_network(monkeypatch):
    """A flood cut mid-air leaves transmissions on the air and their marks
    in the channel log; with the collector off, the network and every one
    of them go with the replication: they hold bank rows, not each other."""
    cfg = small_cfg(protocol="BGB")
    cfg.phys.bitrate_bps = 100.0
    cfg.scenario.max_sim_time_ms = 2000.0
    held = []

    def release(net, release=scenario.Network.release):
        assert net.active and net.marks[0]
        held.extend(weakref.ref(tr) for tr in net.active.values())
        held.append(weakref.ref(net))
        release(net)

    monkeypatch.setattr(scenario.Network, "release", release)
    gc.disable()
    try:
        run_replication(cfg, 0)
        assert len(held) > 2 and [ref() for ref in held] == [None] * len(held)
    finally:
        gc.enable()


def _referenced(root) -> list:
    """Every object reachable from ``root``, classes and modules left out."""
    seen, out, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def test_shared_setup_is_freed_with_its_group(monkeypatch):
    """Four cells of one replication hold two setup keys: with the collector
    off, no network, simulator, link table, row bank or snapshot outlives the
    play, and a snapshot reaches no network, node, simulator or tape."""
    cells = [(small_cfg(protocol=p, replications=1), "")
             for p in ("GRAB", "P-GRAB", "U-GRAB", "UP-GRAB")]
    built, snapshots = [], []

    def spy(*args, **kwargs):
        sim, net = build_network(*args, **kwargs)
        built.append((weakref.ref(net), weakref.ref(sim), weakref.ref(net.links),
                      weakref.ref(net.links.bank)))
        return sim, net

    def snapshot(net, snapshot=scenario.Network.snapshot):
        snap = snapshot(net)
        held = {type(obj) for obj in _referenced(snap)}
        assert not held & {scenario.Network, scenario.Node, Simulator, array, phys.LinkTable}
        snapshots.append(weakref.ref(snap))
        return snap

    monkeypatch.setattr(scenario, "build_network", spy)
    monkeypatch.setattr(scenario.Network, "snapshot", snapshot)
    gc.disable()
    try:
        play(cells)
        assert len(built) == 4 and len(snapshots) == 2
        assert [ref() is None for refs in built for ref in refs] == [True] * 16
        assert [ref() is None for ref in snapshots] == [True, True]
    finally:
        gc.enable()


def test_require_connected_builds_the_link_table_once(monkeypatch):
    built = []
    real = phys.link_table

    def counting(points, params):
        built.append(len(points))
        return real(points, params)

    monkeypatch.setattr(phys, "link_table", counting)
    cfg = small_cfg(require_connected=True)
    positions, sink, links = generate_topology(cfg, make_stream(1, 0, None, "topology"))
    fresh = real(positions + [sink], cfg.phys)
    assert np.array_equal(links.pathloss_db, fresh.pathloss_db)
    # the written rows: the default-power ones, as no reception is built yet
    assert links.filled == fresh.filled == 61
    assert np.array_equal(links.bank[:61], fresh.bank[:61])
    built.clear()
    build_network(cfg, 0)
    assert built == [61]   # the accepted sample's table serves the network
    # a sink only comes with explicit positions, and they only with a sink
    with pytest.raises(ValueError):
        build_network(cfg, 0, sink_pos=(75.0, 75.0))
    with pytest.raises(ValueError):
        build_network(cfg, 0, positions=positions)
    cfg.scenario.require_connected = False
    built.clear()
    build_network(cfg, 0)
    assert built == [61]


def test_a_played_transmission_carries_the_tables_reception(monkeypatch):
    # GRAB sends at the default power and at reduced ones
    decoded = Counter()

    def checked(wanted, marks, links, decode_batch=phys.decode_batch):
        assert wanted.reception is links.reception(wanted.sender, wanted.tx_power_dbm)
        # the window's rows, the clamped group's and the log's (an end's as
        # ~row), are receptions' rows
        rows = {rec.row for rec in links.receptions.values()}
        assert set(wanted.group) | {r if r >= 0 else ~r for r in marks[1][wanted.first:]} <= rows
        decoded[wanted.tx_power_dbm == links.tx_power_dbm] += 1
        return decode_batch(wanted, marks, links)

    monkeypatch.setattr(phys, "decode_batch", checked)
    run_replication(small_cfg(protocol="GRAB"), 0)
    assert decoded[True] and decoded[False]


def test_the_end_of_a_transmission_makes_no_numpy_call():
    """Past the decode, the end of a transmission reads its reception's
    hearer list and packed pathlosses: no numpy name, array or array method
    appears in it."""
    names = {"np", "numpy", "tolist", "take", "ids", "lim", "signal", "pathloss_db", "bank"}
    for fn in (scenario.Network._tx_end, scenario.Network._receive_data,
               scenario.Network._receive_setup):
        assert not set(fn.__code__.co_names) & names, fn.__name__


def test_receiver_drained_mid_run_hears_nothing_more(monkeypatch):
    # five mutually audible nodes; node 2 hears the sink's advertisement and
    # is drained to exactly zero as that advertisement ends
    cfg, _, _ = line_cfg()
    cfg.metrics.energy_audit = True
    positions = [(10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)]
    tx_end = scenario.Network._tx_end
    frozen = []

    def drain_after_first_end(net, ev):
        tx_end(net, ev)
        if not frozen:
            assert ev.node == net.sink_id
            node = net.nodes[2]
            net.energy_log.append((2, node.battery.drain(node.battery.capacity_j)))
            frozen.append((len(net.energy_log), dict(node.neighbor_pathloss), node.cost.q))

    # the network reads its handlers from the class when it is made
    monkeypatch.setattr(scenario.Network, "_tx_end", drain_after_first_end)
    sim, net = build_network(cfg, 0, positions=positions, sink_pos=(0.0, 0.0), traffic=[])
    node = net.nodes[2]
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    assert frozen
    net.release()
    metrics = net.finish()   # re-checks the ledger against the batteries
    at, pathloss, q = frozen[0]
    assert node.battery.dead and list(pathloss) == [net.sink_id] and math.isfinite(q)
    # the other nodes kept advertising, and none of it reached node 2
    assert metrics.adv_total == 4
    assert [j for j, _ in net.energy_log[at:]].count(2) == 0
    assert node.neighbor_pathloss == pathloss and node.cost.q == q
    # no advertisement collides here, and a dead hearer is no failed one:
    # node 2 misses the three advertisements after its drain uncounted
    assert metrics.adv_decode_failures == 0


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TINY = 5e-324


@settings(max_examples=500, deadline=None)
@given(FINITE, FINITE)
@example(1.0, 1.0)
@example(0.5, 0.5)
@example(1.0, math.nextafter(1.0, 0.0))
@example(1.0, math.nextafter(1.0, 2.0))
@example(3 * TINY, 2 * TINY)
@example(2 * TINY, 3 * TINY)
@example(2 * TINY, 2 * TINY)
@example(2.2250738585072014e-308, 2.225073858507201e-308)
def test_consumed_below_capacity_is_exactly_alive(capacity, consumed):
    """Battery.dead compares consumed with capacity, and the end of a
    transmission inlines that comparison to skip dead receivers and count
    an advertisement's alive hearers; it must never disagree with the
    remaining energy's sign."""
    battery = Battery(capacity, consumed)
    assert (consumed < capacity) == (not battery.dead)
    assert battery.dead == (battery.remaining_j <= 0.0)


# ---------------------------------------------------------------------------
# the setup phase, played once per setup key


@pytest.fixture
def setups_of(monkeypatch):
    """Plays a list of cells serially and returns how often each of the two
    setup handlers ran."""
    calls = Counter()
    for name in ("handle_adv", "handle_ncnt"):
        def counting(*args, real=getattr(costfield, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(costfield, name, counting)

    def play_counting(cells) -> Counter:
        calls.clear()
        play(cells)
        return Counter(calls)
    return play_counting


def _keep_ledgers(monkeypatch) -> None:
    """Give every RunMetrics its energy ledger, so the ledger comes back from
    a worker process with it."""
    finalize = RunRecorder.finalize

    def keeping(self, nodes, include_sink, energy_log=None):
        m = finalize(self, nodes, include_sink, energy_log)
        m.ledger = None if energy_log is None else list(energy_log)
        return m

    monkeypatch.setattr(RunRecorder, "finalize", keeping)


COUNTERS = tuple(RunRecorder(0, "", 0.0).counters)


def _outcome(m) -> tuple:
    return run_row(m), [getattr(m, c) for c in COUNTERS], getattr(m, "ledger", None)


def _assert_plays_as_alone(cells) -> None:
    """Every row, counter and ledger of ``play`` at jobs 1 and 2 equals
    that of each replication run on its own."""
    alone = [_outcome(run_replication(cfg, i, param=param))
             for cfg, param in cells for i in range(cfg.scenario.replications)]
    for jobs in (1, 2):
        runs, _ = play(cells, jobs=jobs)
        assert [_outcome(m) for m in runs] == alone, jobs


def _cell(protocol, *overrides, **scenario_values):
    cfg = small_cfg(protocol=protocol, p_f=0.4, replications=1, **scenario_values)
    cfg = apply_overrides(cfg, list(overrides))
    return cfg, ""


# each field changes the setup: a cell with it gets a setup of its own
SETUP_FIELDS = ("mac.backoff_max_ms=100", "costfield.beta_adv_ms=4",
                "policies.initial_energy_j=0.4", "policies.rx_draw_w=0.03",
                "metrics.energy_audit=True")


def test_one_setup_per_key(monkeypatch, setups_of):
    """The cells of a replication play one setup per setup key: the
    protocols without the count stage share one, those with it another,
    and a cell apart in any setup field plays its own."""
    _keep_ledgers(monkeypatch)
    grab = setups_of([_cell("GRAB")])
    assert grab["handle_adv"] > 0 and grab["handle_ncnt"] == 0
    assert setups_of([_cell(p) for p in ("BGB", "GRAB", "U-GRAB")]) == grab
    pgrab = setups_of([_cell("P-GRAB")])
    assert pgrab["handle_ncnt"] > 0
    assert setups_of([_cell("P-GRAB"), _cell("UP-GRAB")]) == pgrab
    for pair in SETUP_FIELDS:
        apart = setups_of([_cell("GRAB", pair)])
        assert setups_of([_cell("GRAB"), _cell("GRAB", pair)]) == \
            grab + apart, pair
    _assert_plays_as_alone([_cell(p) for p in ("BGB", "GRAB", "P-GRAB", "U-GRAB", "UP-GRAB")]
                           + [_cell("U-GRAB", pair) for pair in SETUP_FIELDS])


# each data-only field: the protocol the field acts on, and two values
DATA_ONLY_VALUES = {
    "scenario.protocol": ("P-GRAB", "P-GRAB", "UP-GRAB"),
    "scenario.p_f": ("GRAB", "0.1", "0.6"),
    "scenario.failure_side": ("U-GRAB", "rx", "tx"),
    "scenario.event_count": ("GRAB", "20", "30"),
    "scenario.event_spread": ("GRAB", "0", "5"),
    "scenario.data_window_ms": ("GRAB", "15000", "12000"),
    "policies.credit_factor": ("GRAB", "10", "2"),
    "policies.wide_neighbor_count": ("GRAB", "3", "5"),
    "policies.power_margin_db": ("GRAB", "7", "3"),
    "policies.spread_factor": ("P-GRAB", "2", "8"),
    "policies.spread_factor_max": ("UP-GRAB", "64", "4"),
    "policies.ladder_scale": ("U-GRAB", "0.75", "0.5"),
    "policies.ladder_ratio": ("U-GRAB", "0.75", "0.5"),
    "policies.ema_weight": ("U-GRAB", "0.1", "0.3"),
    "policies.stall_high": ("U-GRAB", "0.5", "0.2"),
    "policies.stall_low": ("U-GRAB", "0.05", "0.2"),
    "policies.stall_check_factor": ("UP-GRAB", "10", "2"),
    "metrics.include_sink": ("GRAB", "False", "True"),
}


def _setup_snapshot(cfg, tapes=None) -> SetupSnapshot:
    """The snapshot a replication alone takes at its data start, on
    ``tapes`` when given."""
    sim, net = build_network(cfg, 0, tapes=tapes)
    sim.run_until_idle(math.nextafter(cfg.scenario.data_start_ms, -math.inf))
    snap = net.snapshot()
    net.release()
    assert snap is not None
    return snap


def test_the_data_only_fields_are_listed_with_values():
    assert set(DATA_ONLY_VALUES) == DATA_ONLY_FIELDS


@pytest.mark.parametrize("name", sorted(DATA_ONLY_VALUES))
def test_cells_apart_only_in_a_data_only_field_share_the_setup(monkeypatch, setups_of, name):
    protocol, a, b = DATA_ONLY_VALUES[name]
    cells = [_cell(protocol, f"{name}={v}", "metrics.energy_audit=True") for v in (a, b)]
    assert setup_key(cells[0][0]) == setup_key(cells[1][0])
    assert _setup_snapshot(cells[0][0]) == _setup_snapshot(cells[1][0])
    _keep_ledgers(monkeypatch)
    assert setups_of(cells) == setups_of(cells[:1])
    _assert_plays_as_alone(cells)


def test_cells_apart_in_the_data_start_play_their_own_setups(monkeypatch, setups_of):
    """The snapshot is cut just before the data start, so the data start is
    in the setup key: cells apart only in it each play their own setup, the
    later one's included, and play as they play alone."""
    cells = [_cell("GRAB", "metrics.energy_audit=True", data_start_ms=v)
             for v in (5500.0, 500.0)]
    for cfg, _ in cells:
        validate(cfg)
    assert setup_key(cells[0][0]) != setup_key(cells[1][0])
    _keep_ledgers(monkeypatch)
    assert setups_of(cells) == setups_of(cells[:1]) + setups_of(cells[1:])
    _assert_plays_as_alone(cells)


def _another(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "~"


def test_every_other_field_is_in_the_setup_key():
    """A field not listed as data-only, a new one included, keeps cells
    apart in it from sharing a setup."""
    cfg = small_cfg()
    key = setup_key(cfg)
    names = []
    for section in dataclasses.fields(cfg):
        for f in dataclasses.fields(getattr(cfg, section.name)):
            name = f"{section.name}.{f.name}"
            if name in DATA_ONLY_FIELDS:
                continue
            names.append(name)
            other = cfg.copy()
            part = getattr(other, section.name)
            setattr(part, f.name, _another(getattr(part, f.name)))
            assert setup_key(other) != key, name
    assert "scenario.max_sim_time_ms" in names and "mac.congestion_limit" in names
    # the protocol enters as its count-stage flag
    assert setup_key(small_cfg(protocol="BGB")) == key
    assert setup_key(small_cfg(protocol="P-GRAB")) != key


# the config fields ``scenario._topology_key`` holds, besides the run index
TOPOLOGY_FIELDS = {"scenario.base_seed", "scenario.node_count", "scenario.area_width_m",
                   "scenario.area_height_m", "scenario.sink_placement",
                   "scenario.require_connected"}


def _topology(cfg) -> tuple:
    positions, sink, links = generate_topology(
        cfg, make_stream(cfg.scenario.base_seed, 0, None, "topology"))
    return positions, sink, links.pathloss_db.tobytes(), links.neighbors


def test_every_field_outside_the_topology_key_leaves_the_topology():
    """Cells that share a topology key share its sample and link table: a
    field outside the key, a new one included, moves neither, and each
    field inside it, every radio parameter among them, changes the key."""
    cfg = small_cfg(require_connected=True)
    key = scenario._topology_key(cfg, 0)
    topology = _topology(cfg)
    inside = set()
    for section in dataclasses.fields(cfg):
        for f in dataclasses.fields(getattr(cfg, section.name)):
            name = f"{section.name}.{f.name}"
            other = cfg.copy()
            part = getattr(other, section.name)
            setattr(part, f.name, _another(getattr(part, f.name)))
            if scenario._topology_key(other, 0) != key:
                inside.add(name)
            else:
                assert _topology(other) == topology, name
    phys_fields = {f"phys.{f.name}" for f in dataclasses.fields(cfg.phys)}
    assert inside == TOPOLOGY_FIELDS | phys_fields
    assert scenario._topology_key(cfg, 1) != key


# setups that run into the data phase, or past the end of the run: each
# cell's protocol and timing
OVERLAPS = {
    "flood": [("GRAB", dict(data_start_ms=500.0)), ("U-GRAB", dict(data_start_ms=500.0))],
    "count-stage": [("P-GRAB", dict(data_start_ms=4500.0)),
                    ("UP-GRAB", dict(data_start_ms=4500.0))],
    "cut": [(p, dict(data_start_ms=200.0, data_window_ms=200.0, max_sim_time_ms=400.0))
            for p in ("GRAB", "U-GRAB")],
    # three cells of one key: each later one retries the snapshot that came
    # back None
    "three-inside-flood": [(p, dict(data_start_ms=500.0)) for p in ("GRAB", "U-GRAB", "BGB")],
    # validate rejects a run that ends before its data start; play takes it
    # as given and must not play past the end to reach the data start
    "ends-before-data": [(p, dict(max_sim_time_ms=4500.0)) for p in ("P-GRAB", "UP-GRAB")],
}
# cases validate rejects, which play must still take as given: a count stage
# that runs into the data phase, a run that ends before its data start
UNVALIDATED = {"count-stage", "ends-before-data"}


@pytest.mark.parametrize("case", sorted(OVERLAPS))
def test_setup_overlapping_the_data_phase_is_not_shared(monkeypatch, setups_of, case):
    cells = []
    for protocol, timing in OVERLAPS[case]:
        cfg, param = _cell(protocol, "metrics.energy_audit=True")
        for key, value in timing.items():
            setattr(cfg.scenario, key, value)
        if case in UNVALIDATED:
            with pytest.raises(ConfigError):
                validate(cfg)
        else:
            validate(cfg)
        cells.append((cfg, param))
    assert len({setup_key(cfg) for cfg, _ in cells}) == 1
    _keep_ledgers(monkeypatch)
    alone = sum((setups_of([cell]) for cell in cells), Counter())
    taken = []

    def snapshot(net, real=scenario.Network.snapshot):
        taken.append(real(net))
        return taken[-1]

    monkeypatch.setattr(scenario.Network, "snapshot", snapshot)
    assert setups_of(cells) == alone
    # every cell but the last tried to snapshot its setup, and none could
    assert taken == [None] * (len(cells) - 1)
    _assert_plays_as_alone(cells)


@pytest.mark.parametrize("mode", ["computed", "fixed"])
def test_every_deciding_node_holds_the_sinks_bounds(monkeypatch, mode):
    """The discrepancy policies decide under ``node.cost.bounds``: every
    node that reaches a decision, in a cell with a setup of its own and in
    one resumed from it, holds the bounds the sink shipped."""
    cells = [_cell(p, f"costfield.bounds_mode={mode}") for p in ("P-GRAB", "UP-GRAB")]
    cfg = cells[0][0]
    _, net = build_network(cfg, 0)
    net.release()
    sink_bounds = net.nodes[net.sink_id].cost.bounds
    assert sink_bounds is not None
    if mode == "fixed":
        assert sink_bounds == (cfg.costfield.fixed_bounds_lo, cfg.costfield.fixed_bounds_hi)
    held = {"pgrab_decide": [], "upgrab_decide": []}
    for name, bounds in held.items():
        def spy(node, *args, real=getattr(policies, name), bounds=bounds):
            bounds.append(node.cost.bounds)
            return real(node, *args)
        monkeypatch.setattr(policies, name, spy)
    play(cells)
    for name, bounds in held.items():
        assert bounds and set(bounds) == {sink_bounds}, name


@pytest.mark.parametrize("protocol", ["P-GRAB", "UP-GRAB"])
def test_cursor_lists_hold_the_simulators_cursors(protocol):
    """The network's read positions, one list per purpose beside that
    purpose's tape key and draws, in a run with a setup of its own and in
    one resumed from a snapshot: no purpose is opened before its first draw
    or, after a resume, beyond the setup's; each list holds one position
    per node id on the draws of its own key, a node that read holds at
    least the draws it read, in whole blocks, and a resumed network
    snapshots back to the snapshot it resumed from."""
    cfg = small_cfg(protocol=protocol, replications=1, p_f=0.4, failure_side="rx")
    validate(cfg)
    taken_on = {}
    snap = _setup_snapshot(cfg, taken_on)
    assert set(snap.reads) == {"mac"}
    rows = []
    for snapshot in (None, snap):
        sim, net = build_network(cfg, 0, snapshot=snapshot,
                                 tapes=None if snapshot is None else taken_on)
        if snapshot is None:
            # the setup's first draws are the sink's backoff and the count
            # stage's timers
            assert set(net.streams) == {"mac"}
        else:
            assert set(net.streams) == set(snap.reads)
            assert net.snapshot() == snap
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)
        net.release()
        assert net.counters["relay_failures"] > 0
        assert set(net.streams) == {"failure", "mac", "policy"}
        for purpose, (key, draws, reads) in net.streams.items():
            assert key == (cfg.scenario.base_seed, 0, purpose)
            seeds, tape_draws = net.tapes[key]
            assert tape_draws is draws and seeds.shape == (len(net.nodes), 4)
            assert len(draws) == len(reads) == len(net.nodes)
            assert all(pos <= len(d) for d, pos in zip(draws, reads))
            assert all(len(d) % engine.BLOCK == 0 for d in draws)
        # every draw went through the lists: only the purposes drawn from
        # hashed their seed words
        assert set(net.tapes) == {(cfg.scenario.base_seed, 0, p) for p in net.streams}
        rows.append(_outcome(net.finish()))
    assert rows[0] == rows[1]


def test_group_tape_dict_holds_one_tape_per_node_id_per_purpose(monkeypatch):
    """Every key of a topology group's tape dict is (seed, run, purpose),
    holding the purpose's seed rows and one array of draws per node id;
    each cell of the group plays on the group's dict, each on read
    positions of its own."""
    played = []

    def spy(*args, **kwargs):
        sim, net = build_network(*args, **kwargs)
        played.append(net)
        return sim, net

    monkeypatch.setattr(scenario, "build_network", spy)
    cells = [(small_cfg(protocol=p, p_f=0.4), "") for p in SWEEP_PROTOCOLS]
    play(cells)
    seed = cells[0][0].scenario.base_seed
    for run in (0, 1):
        nets = [net for net in played if net.recorder.run_index == run]
        assert len(nets) == len(cells)
        tapes = nets[0].tapes
        assert all(net.tapes is tapes for net in nets)
        assert set(tapes) == {(seed, run, p) for p in ("failure", "mac", "policy")}
        for rows, draws in tapes.values():
            assert rows.shape == (len(nets[0].nodes), 4)
            assert len(draws) == len(nets[0].nodes)
            assert all(type(d) is array for d in draws)
        reads = [pos for net in nets for *_, pos in net.streams.values()]
        assert len({id(pos) for pos in reads}) == len(reads)


def test_played_tapes_hold_make_streams_draws():
    """Every node's draws a played replication filled hold its stream's
    draws byte for byte, grown from its row of its purpose's seed words,
    which is the stream's numpy SeedSequence state."""
    cfg = small_cfg(protocol="UP-GRAB", replications=1, p_f=0.4)
    sim, net = build_network(cfg, 0)
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    net.release()
    assert {purpose for *_, purpose in net.tapes} == {"failure", "mac", "policy"}
    # some node's failure draws were grown more than once
    assert max(map(len, net.tapes[cfg.scenario.base_seed, 0, "failure"][1])) > engine.BLOCK
    for (seed, run, purpose), (rows, draws) in net.tapes.items():
        assert len(rows) == len(draws) == len(net.nodes)
        for node, (row, d) in enumerate(zip(rows, draws)):
            seq = np.random.SeedSequence([seed ^ run, node, STREAM_PURPOSES[purpose]])
            assert row.tobytes() == seq.generate_state(4, np.uint64).tobytes()
            want = numpy_stream(seed, run, node, purpose).random(len(d))
            assert d.tobytes() == want.tobytes()


def _reference_receive_data(net, tr, verdicts):
    """``Network._receive_data`` through its helpers: the decoded hearers
    (one verdict per hearer) and the liveness filter first, then
    ``Network.random`` on the failure stream, ``Battery.drain``,
    ``costfield.link_cost`` from the pathloss matrix and ``policies.eligible``
    per receiver."""
    nodes = net.nodes
    pkt = tr.packet
    sc = net.cfg.scenario
    joules = policies.rx_joules(net.radio.data_bytes, net.policies, net.radio)
    ids = tr.reception.ids.tolist()
    assert len(verdicts) == len(ids)
    alive = [j for j, ok in zip(ids, verdicts) if ok and not nodes[j].battery.dead]
    losses = net.links.pathloss_db[tr.sender].take(alive).tolist()
    for rx_id, pl in zip(alive, losses):
        rx = nodes[rx_id]
        if (sc.p_f > 0.0 and sc.failure_side == "rx" and rx_id != net.sink_id
                and net.random(rx_id, "failure") < sc.p_f):
            net.counters["relay_failures"] += 1
            continue
        drawn = rx.battery.drain(joules)
        if net.energy_log is not None:
            net.energy_log.append((rx_id, drawn))
        if rx_id == net.sink_id:
            net.recorder.on_delivery(pkt.msg_id, net.sim.clock)
            continue
        hop_cost = costfield.link_cost(tr.tx_power_dbm, tr.tx_power_dbm - pl)
        rx.neighbor_pathloss[tr.sender] = hop_cost
        if rx.ugrab is not None:
            policies.note_overheard(rx, pkt.q_p, net.policies)
        if not policies.eligible(rx, pkt):
            if net.decision_trace is not None:
                net._trace_decision(rx, eligible=False, dec=None)
            continue
        rx.seen.add(pkt.msg_id)
        net._decide_and_forward(rx, pkt, hop_cost)


@pytest.mark.parametrize("protocol", sorted(policies.PROTOCOLS))
@pytest.mark.parametrize("side", ["rx", "tx"])
def test_flat_receive_loop_equals_its_helpers(monkeypatch, protocol, side):
    """The inlined receive loop plays every replication as the loop through
    the helpers it inlines: rows, counters, the energy ledger and every
    decision, with batteries that run dry mid-run."""
    cfg = small_cfg(protocol=protocol, replications=1, p_f=0.4, failure_side=side)
    cfg.policies.initial_energy_j = 0.005
    cfg.metrics.energy_audit = True
    validate(cfg)
    _keep_ledgers(monkeypatch)
    plays = []
    for receive in (None, _reference_receive_data):
        if receive is not None:
            monkeypatch.setattr(scenario.Network, "_receive_data", receive)
        decisions = []
        m = run_replication(cfg, 0, decision_trace=decisions.append)
        plays.append((_outcome(m), decisions, m.dead_nodes))
    assert plays[0] == plays[1]
    outcome, decisions, dead = plays[0]
    assert dead > 0
    assert side == "tx" or outcome[1][COUNTERS.index("relay_failures")] > 0
    assert any(row[3] == 0 for row in decisions) and any(row[3] == 1 for row in decisions)


def _reference_receive_setup(net, tr, verdicts):
    """``Network._receive_setup`` through its helpers: the liveness filter
    first, an advertisement's failed decodes counted over all its alive
    hearers, then ``Battery.drain``, ``costfield.link_cost`` from the
    pathloss matrix and ``handle_adv`` or ``handle_ncnt`` per receiver."""
    nodes = net.nodes
    pkt = tr.packet
    joules = policies.rx_joules(getattr(net.radio, f"{pkt.kind}_bytes"), net.policies,
                                net.radio)
    ids = tr.reception.ids.tolist()
    assert len(verdicts) == len(ids)
    alive = [j for j in ids if not nodes[j].battery.dead]
    decoded = [j for j, ok in zip(ids, verdicts) if ok and not nodes[j].battery.dead]
    if pkt.kind == "adv":
        net.counters["adv_decode_failures"] += len(alive) - len(decoded)
    losses = net.links.pathloss_db[tr.sender].take(decoded).tolist()
    for rx_id, pl in zip(decoded, losses):
        rx = nodes[rx_id]
        drawn = rx.battery.drain(joules)
        if net.energy_log is not None:
            net.energy_log.append((rx_id, drawn))
        link = costfield.link_cost(tr.tx_power_dbm, tr.tx_power_dbm - pl)
        rx.neighbor_pathloss[tr.sender] = link
        if pkt.kind == "adv":
            costfield.handle_adv(net, rx, pkt, link)
        else:
            costfield.handle_ncnt(net, rx, pkt, tr.sender)


@pytest.mark.parametrize("protocol", sorted(policies.PROTOCOLS))
def test_flat_setup_loop_equals_its_helpers(monkeypatch, protocol):
    """The flat setup loop plays every replication as the loop through the
    helpers it inlines: rows, counters, the energy ledger and every node's
    cost state, learned link costs and heard counts, with batteries so small
    that decoded hearers are already dead during the setup phase."""
    cfg = small_cfg(protocol=protocol, replications=1)
    cfg.policies.initial_energy_j = 0.002
    cfg.metrics.energy_audit = True
    validate(cfg)
    dead_decoded = []

    def reference(net, tr, verdicts):
        dead_decoded.extend(j for j, ok in zip(tr.reception.hearers, verdicts)
                            if ok and net.nodes[j].battery.dead)
        _reference_receive_setup(net, tr, verdicts)

    plays = []
    for receive in (None, reference):
        if receive is not None:
            monkeypatch.setattr(scenario.Network, "_receive_setup", receive)
        sim, net = build_network(cfg, 0)
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)
        net.release()
        plays.append((run_row(net.finish()), dict(net.counters), net.energy_log,
                      [(n.cost, n.neighbor_pathloss, n.neighbor_counts) for n in net.nodes]))
    assert plays[0] == plays[1]
    assert dead_decoded   # a dead hearer was skipped
    assert plays[0][1]["adv_decode_failures"] > 0


def _head(ev) -> tuple:
    return ev.fire_at, ev.kind, ev.node


def test_resumed_cell_plays_the_events_of_its_own_setup_run():
    """A cell started from another's snapshot, on tapes of its own, pops
    the same data-phase events in the same order as a run with a setup of
    its own, an injection at the instant of the first stall checks
    included; the key's last cell drops the snapshot."""
    grab, ugrab = (small_cfg(protocol=p, replications=1) for p in ("GRAB", "U-GRAB"))
    start = ugrab.scenario.data_start_ms
    traffic = generate_traffic(ugrab, make_stream(ugrab.scenario.base_seed, 0, None, "traffic"))
    # a tie the queue breaks by scheduling order: the stall sweep comes first
    traffic.append(TrafficEvent(traffic[0].pos,
                                start + policies.stall_period(ugrab.policies, ugrab.scenario)))
    shared, tapes = SharedSetup(2), {}
    run_replication(grab, 0, setup=shared, tapes=tapes)
    assert shared.snapshot is not None
    resumed, own = [], []
    m = run_replication(ugrab, 0, setup=shared, traffic=traffic, tapes=tapes,
                        event_trace=lambda ev: resumed.append(_head(ev)))
    assert shared.snapshot is None and shared.cells == 0
    alone = run_replication(ugrab, 0, traffic=traffic,
                            event_trace=lambda ev: own.append(_head(ev)))
    assert resumed and resumed == [ev for ev in own if ev[0] >= start]
    assert _outcome(m) == _outcome(alone)
    # a network started from a snapshot holds all of it, and its data phase
    # writes nothing back into the snapshot
    snap = _setup_snapshot(grab, tapes)
    kept = copy.deepcopy(snap)
    sim, net = build_network(ugrab, 0, snapshot=snap, tapes=tapes)
    assert net.snapshot() == snap
    sim.run_until_idle(ugrab.scenario.max_sim_time_ms)
    net.release()
    assert snap == kept


@pytest.mark.parametrize("protocol", ["U-GRAB", "UP-GRAB"])
def test_one_stall_sweep_per_period_checks_the_alive_sensors(monkeypatch, protocol):
    """The ladder's stall rule runs as one network sweep per period: at the
    data start plus k periods, summed as the handler sums them, over
    exactly the sensors alive at that instant in ascending id, and never
    after the end; the data start queues one sweep event."""
    cfg = small_cfg(protocol=protocol, replications=1)
    cfg.policies.initial_energy_j = 0.005   # sensors die mid-run
    sc = cfg.scenario
    traffic = generate_traffic(cfg, make_stream(sc.base_seed, 0, None, "traffic"))
    events = []
    sim, net = build_network(cfg, 0, traffic=traffic, event_trace=events.append)
    assert net._data_events == 1 + len(traffic)
    sweeps = {}   # instant -> (the alive sensors then, the sensors checked)
    check = policies.stall_check

    def spy(node, params):
        alive = [n.id for n in net.nodes if not n.is_sink and not n.battery.dead]
        sweeps.setdefault(sim.clock, (alive, []))[1].append(node.id)
        return check(node, params)

    monkeypatch.setattr(policies, "stall_check", spy)
    sim.run_until_idle(sc.max_sim_time_ms)
    period = policies.stall_period(cfg.policies, sc)
    expected, t = [], sc.data_start_ms + period
    while t <= sc.max_sim_time_ms:
        expected.append(t)
        t += period
    assert list(sweeps) == expected and len(expected) >= 2
    assert [(ev.fire_at, ev.node) for ev in events
            if ev.payload == ("stall", 0)] == [(t, -1) for t in expected]
    for alive, checked in sweeps.values():
        assert checked == alive == sorted(alive)
    # deaths between sweeps must shrink a later sweep, or liveness goes unpinned
    sizes = [len(alive) for alive, _ in sweeps.values()]
    assert sizes[0] > sizes[-1] > 0
