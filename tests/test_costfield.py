import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gradcast import costfield, phys
from gradcast.costfield import bounds_center, link_cost, neighborhood_discrepancy
from gradcast.scenario import build_network
from tests.conftest import line_cfg, small_cfg


def run_setup(cfg, run_index=0, positions=None, sink_pos=None):
    cfg.scenario.event_count = 0
    cfg.scenario.event_spread = 0
    sim, net = build_network(cfg, run_index, positions=positions, sink_pos=sink_pos,
                             traffic=[])
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    return sim, net


def test_link_cost_is_power_difference():
    assert link_cost(0.0, -30.0) == 30.0
    assert link_cost(5.0, -25.0) == 30.0


def test_link_cost_agrees_with_geometry():
    # cost from (tx, rx) powers equals the pathloss for the same distance
    pl = phys.pathloss_db(10.0, 3.0)
    rx = phys.received_power_dbm(0.0, 10.0, 3.0)
    assert link_cost(0.0, rx) == pl == pytest.approx(30.0, abs=1e-12)


def test_sub_metre_links_may_cost_negative():
    rx = phys.received_power_dbm(0.0, 0.05, 3.0)   # clamped to 0.1 m
    assert link_cost(0.0, rx) == pytest.approx(-30.0, abs=1e-12)


def test_chain_costs_accumulate_shortest_path():
    cfg, positions, sink = line_cfg(3, spacing_m=40.0)
    sim, net = run_setup(cfg, positions=positions, sink_pos=sink)
    hop = phys.pathloss_db(40.0, cfg.phys.alpha_exp)
    # chain 120 -- 80 -- 40 -- sink: cost is per-hop pathloss accumulated
    assert net.nodes[2].cost.q == pytest.approx(hop, rel=1e-12)
    assert net.nodes[1].cost.q == pytest.approx(2 * hop, rel=1e-12)
    assert net.nodes[0].cost.q == pytest.approx(3 * hop, rel=1e-12)


def test_every_connected_node_advertises_exactly_once():
    cfg = small_cfg(require_connected=True)
    sim, net = run_setup(cfg)
    assert net.counters["adv_total"] == cfg.scenario.node_count + 1   # sink included
    assert all(n.cost.adv_sent for n in net.nodes if not n.is_sink)
    assert all(math.isfinite(n.cost.q) for n in net.nodes)


def test_worse_advertisement_changes_nothing():
    cfg, positions, sink = line_cfg(3, spacing_m=40.0)
    sim, net = run_setup(cfg, positions=positions, sink_pos=sink)
    node = net.nodes[1]
    from gradcast.costfield import AdvPacket, handle_adv
    before_q = node.cost.q
    before_pending = sim.pending()
    handle_adv(net, node, AdvPacket(q_p=before_q), link=10.0)
    assert node.cost.q == before_q
    assert sim.pending() == before_pending


def test_cost_only_decreases_during_setup():
    cfg = small_cfg(require_connected=True)
    cfg.scenario.event_count = 0
    cfg.scenario.event_spread = 0
    seen: dict[int, float] = {}
    sim, net = build_network(cfg, 1, traffic=[])

    def watch(s, ev):
        net.handle(s, ev)
        for n in net.nodes:
            q = n.cost.q
            assert q <= seen.get(n.id, math.inf)
            seen[n.id] = q

    sim.handler = watch
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    assert seen


def test_neighbor_count_stage_on_a_clique():
    cfg, positions, sink = line_cfg(2, spacing_m=30.0, protocol="P-GRAB")
    # 2 sensors 30 m apart, 30/60 m from the sink: everyone hears everyone
    sim, net = run_setup(cfg, positions=positions, sink_pos=sink)
    assert net.counters["ncnt_total"] == 3
    a, b, s = net.nodes
    assert a.neighbor_counts[b.id] == 2
    assert b.neighbor_counts[a.id] == 2
    assert a.neighbor_counts[s.id] == 2


def test_discrepancy_examples():
    assert neighborhood_discrepancy(4, [2, 2, 2, 2]) == 2.0
    assert neighborhood_discrepancy(2, [5, 5]) == -3.0
    assert neighborhood_discrepancy(3, [3, 3, 3]) == 0.0
    assert neighborhood_discrepancy(0, []) == 0.0


def test_discrepancy_with_missing_counts_is_conservative():
    # two neighbors, one count lost: the lost one contributes zero on top
    full = neighborhood_discrepancy(2, [5, 5])
    lossy = neighborhood_discrepancy(2, [5])
    assert lossy == -1.5
    assert abs(lossy) < abs(full)


@given(st.integers(1, 50), st.integers(1, 50))
def test_pairwise_contributions_antisymmetric(a, b):
    # the numerator contributions of a pair are negatives of each other
    assert neighborhood_discrepancy(a, [b]) * a == pytest.approx(
        -(neighborhood_discrepancy(b, [a]) * b), rel=1e-12, abs=1e-12)


@given(st.integers(-2, 10**4), st.lists(st.integers(-10, 10**4), max_size=60))
@example(0, [])
@example(0, [3, 4])
@example(7, [])
@example(-1, [5])
@example(2**70, [2**71, -2**69, 3])
def test_discrepancy_is_the_exact_integer_sum_of_surpluses(own, counts):
    """own * len - sum is the per-neighbor surplus sum, exactly, for lists
    and for the dict views ``Network.ensure_delta`` passes."""
    old = 0.0 if own <= 0 else sum(own - c for c in counts) / own
    assert neighborhood_discrepancy(own, counts) == old
    assert neighborhood_discrepancy(own, dict(enumerate(counts)).values()) == old


def _reference_bounds(net):
    """``Network._discrepancy_bounds`` in computed mode, sensor by sensor,
    with the per-neighbor surplus sum."""
    nbrs = net.links.neighbors
    deltas = []
    for i in range(net.sink_id):
        own = len(nbrs[i])
        deltas.append(0.0 if own <= 0 else sum(own - len(nbrs[j]) for j in nbrs[i]) / own)
    lo, hi = min(deltas), max(deltas)
    return (lo - 1.0, hi + 1.0) if lo >= hi else (lo, hi)


# a chain from the sink, two isolated sensors and a far pair
SPARSE = [(30.0, 0.0), (90.0, 0.0), (150.0, 0.0), (400.0, 400.0), (800.0, 50.0),
          (820.0, 50.0), (50.0, 700.0)]


@pytest.mark.parametrize("topology", ["dense", "sparse", "two-nodes"])
def test_discrepancy_bounds_equal_a_per_sensor_reference(monkeypatch, topology):
    """The sink's computed bounds equal the per-sensor reference, with one
    discrepancy call per sensor: on a dense arena, on a sparse one with
    isolated sensors (no neighbor, discrepancy 0), and on one sensor and
    the sink, whose equal bounds widen to a unit interval each side."""
    cfg = small_cfg(protocol="P-GRAB", replications=1)
    positions, sink = {"dense": (None, None), "sparse": (SPARSE, (0.0, 0.0)),
                       "two-nodes": ([(20.0, 0.0)], (0.0, 0.0))}[topology]
    _, net = build_network(cfg, 0, positions=positions, sink_pos=sink)
    owns = []
    discrepancy = costfield.neighborhood_discrepancy
    monkeypatch.setattr(costfield, "neighborhood_discrepancy",
                        lambda own, counts: owns.append(own) or discrepancy(own, counts))
    bounds = net._discrepancy_bounds()
    assert bounds == _reference_bounds(net) == net.nodes[net.sink_id].cost.bounds
    assert len(owns) == net.sink_id
    assert (0 in owns) == (topology == "sparse")
    assert (bounds == (-1.0, 1.0)) == (topology == "two-nodes")


def test_bounds_center():
    assert bounds_center((-60.0, 40.0)) == -10.0


def test_bounds_travel_in_advertisements():
    cfg = small_cfg(require_connected=True, protocol="P-GRAB")
    sim, net = run_setup(cfg)
    bounds = net.nodes[net.sink_id].cost.bounds
    assert bounds is not None and bounds == net._discrepancy_bounds()
    for node in net.nodes:
        assert node.cost.bounds == bounds


def test_fixed_bounds_mode():
    cfg = small_cfg(require_connected=True, protocol="P-GRAB")
    cfg.costfield.bounds_mode = "fixed"
    sim, net = run_setup(cfg)
    assert net.nodes[net.sink_id].cost.bounds == (-60.0, 40.0)

