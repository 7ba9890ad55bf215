from hypothesis import given, settings
from hypothesis import strategies as st

from gradcast.config import default_config
from gradcast.engine import EventKind, Simulator
from gradcast.mac import sense, transmit
from gradcast.metrics import RunRecorder
from gradcast.phys import Transmission, distance, received_power_dbm
from gradcast.scenario import Network
from gradcast.policies import Battery


def make_net(positions, protocol="BGB", sink_pos=(0.0, 0.0), **mac_overrides):
    cfg = default_config()
    cfg.scenario.protocol = protocol
    cfg.scenario.node_count = len(positions)
    for key, value in mac_overrides.items():
        setattr(cfg.mac, key, value)
    sim = Simulator()
    net = Network(cfg, sim, RunRecorder(0, protocol, 0.0))
    net.build(positions, sink_pos)
    return net


def on_air(net, sender, packet, power=0.0, start=0.0):
    """Put a transmission on the air from where its sender stands."""
    end = start + net.radio.airtime_ms(net.radio.data_bytes)
    tr = Transmission(sender, power, start, end, packet)
    net.active[len(net.active) + 1] = tr
    return tr


def geometric_sense(net, node):
    """The reference count: a distance and a log10 per transmission on the
    air, from the node's position to the sender's."""
    radio = net.radio
    floor = radio.sensitivity_dbm - net.mac.carrier_sense_offset_db
    return sum(1 for tr in net.active.values()
               if tr.sender != node.id
               and received_power_dbm(tr.tx_power_dbm,
                                      distance(node.pos, net.nodes[tr.sender].pos),
                                      radio.alpha_exp, radio.d_min_m) > floor)


def test_sense_silent_network_is_zero():
    net = make_net([(10.0, 0.0), (20.0, 0.0)])
    assert sense(net, net.nodes[0]) == 0


def test_sense_counts_distinct_overlapping_transmissions():
    net = make_net([(10.0, 0.0), (20.0, 0.0), (30.0, 0.0)])
    on_air(net, 1, "a")
    assert sense(net, net.nodes[0]) == 1
    on_air(net, 2, "b", start=2.0)
    assert sense(net, net.nodes[0]) == 2


def test_sense_excludes_own_transmission():
    net = make_net([(10.0, 0.0), (20.0, 0.0)])
    on_air(net, 0, "mine")
    assert sense(net, net.nodes[0]) == 0
    assert sense(net, net.nodes[1]) == 1


def test_sense_ignores_senders_below_detection_floor():
    # node 1 stands 5 m beyond the default-power decode range of node 0
    d_out = 10.0 ** (54.5 / 30.0) + 5.0
    positions = [(10.0, 0.0), (10.0 + d_out, 0.0)]
    net = make_net(positions, carrier_sense_offset_db=0.0)
    on_air(net, 1, "far")
    assert sense(net, net.nodes[0]) == 0
    # a wider detection window hears it again
    net2 = make_net(positions, carrier_sense_offset_db=15.0)
    on_air(net2, 1, "far")
    assert sense(net2, net2.nodes[0]) == 1


# the sensing edge at each offset, a spot on top of another and spots closer
# than d_min_m, so ties, clamps and coincident nodes come up often
EDGES = [10.0 ** ((54.5 + offset) / 30.0) for offset in (0.0, 15.0)]
COORD = st.sampled_from([0.0, 0.05, 0.1, 30.0, *EDGES]) | st.floats(0.0, 250.0)
POWER = st.sampled_from([0.0, -3.0, -12.5, -30.0]) | st.floats(-40.0, 5.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=10),
       st.tuples(COORD, COORD),
       st.lists(st.tuples(st.integers(0, 10), POWER), max_size=8),
       st.sampled_from([0.0, 15.0]))
def test_sense_from_the_link_table_equals_the_geometric_count(positions, sink_pos,
                                                              sends, offset):
    net = make_net(positions, sink_pos=sink_pos, carrier_sense_offset_db=offset)
    for k, (sender, power) in enumerate(sends):
        # sender ids past the sensors fold onto the sink
        on_air(net, min(sender, net.sink_id), k, power=power, start=float(k))
    for node in net.nodes:
        assert sense(net, node) == geometric_sense(net, node)


def test_zero_backoff_transmits_now():
    net = make_net([(10.0, 0.0), (20.0, 0.0)], backoff_min_ms=0.0, backoff_max_ms=0.0)
    net.sim.clock = 4.0
    assert transmit(net, net.nodes[0], "pkt")
    (ev,) = net.sim._heap
    assert ev.fire_at == 4.0 and ev.kind is EventKind.TX_START


def test_backoff_draws_are_reproducible_per_node():
    draws = []
    for _ in range(2):
        net = make_net([(10.0, 0.0), (20.0, 0.0)])
        for node in net.nodes[:2]:
            transmit(net, node, "pkt")
        draws.append([ev.fire_at for ev in sorted(net.sim._heap)])
    assert draws[0] == draws[1]
    lo, hi = net.mac.backoff_min_ms, net.mac.backoff_max_ms
    assert all(lo <= u <= hi for u in draws[0])


def test_dead_node_transmission_is_suppressed():
    net = make_net([(10.0, 0.0), (20.0, 0.0)])
    node = net.nodes[0]
    node.battery = Battery(capacity_j=1.0, consumed_j=1.0)
    assert not transmit(net, node, "pkt")
    assert net.counters["suppressed_tx"] == 1
    assert net.sim.pending() == 0


def test_disjoint_backoffs_overlap_iff_airtime_exceeds_gap():
    airtime = default_config().phys.airtime_ms(36)
    u1, u2 = 3.0, 8.0
    # transmissions [u, u+airtime]: overlap exactly when gap < airtime
    assert (u1 + airtime > u2) == (abs(u1 - u2) < airtime)
    assert (u1 + 4.0 > u2) is False   # a shorter packet would not overlap
