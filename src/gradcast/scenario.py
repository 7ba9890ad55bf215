"""Experiment execution: topology, traffic, per-node state, packet dispatch.

A replication plays three phases on one seeded event loop: the advertisement
flood that builds the cost field, an optional neighbor-count stage (needed by
the discrepancy-based policies), and the data phase where sensing events
inject messages that roll downhill to the sink under the selected policy.
The first two form the setup phase, which cells of a topology group that
share its inputs play once (see ``shared_setup``).
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from collections import Counter
from dataclasses import astuple, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import costfield, engine, mac, phys, policies
from .config import ConfigError, SimConfig, resolve_key
from .costfield import AdvPacket, CostState, NeighborCountPacket
from .engine import Event, EventKind, Simulator
from .metrics import RunMetrics, RunRecorder, aggregate
from .policies import Battery, DataPacket, Decision, UGrabState
from .shared_setup import SetupSnapshot, SharedSetup, node_states, restore_nodes, setup_key


@dataclass
class Node:
    id: int
    pos: tuple[float, float]
    is_sink: bool
    battery: Battery
    cost: CostState = field(default_factory=CostState)
    ugrab: UGrabState | None = None
    neighbor_pathloss: dict = field(default_factory=dict)   # id -> learned link cost
    neighbor_counts: dict = field(default_factory=dict)     # id -> advertised count
    advertised_count: int | None = None   # own count as broadcast in the count stage
    delta: float | None = None
    delta_bounds: tuple[float, float] | None = None
    p_ia: float | None = None   # erfc conversion of delta at policies.spread_factor
    seen: set = field(default_factory=set)


@dataclass
class TrafficEvent:
    pos: tuple[float, float]
    trigger_ms: float


# ---------------------------------------------------------------------------
# generation


def generate_topology(cfg: SimConfig, rng) -> tuple[list, tuple[float, float],
                                                    phys.LinkTable]:
    """Uniform sensor positions, the sink position and their link table
    (sensors, then the sink: the network's node order). With
    require_connected, resample until every sensor reaches the sink."""
    sc = cfg.scenario
    w, h = sc.area_width_m, sc.area_height_m
    sink_pos = (0.0, 0.0) if sc.sink_placement == "corner" else (w / 2.0, h / 2.0)
    for _ in range(1000):
        xs = rng.uniform(0.0, w, sc.node_count)
        ys = rng.uniform(0.0, h, sc.node_count)
        positions = [(float(x), float(y)) for x, y in zip(xs, ys)]
        links = phys.link_table(positions + [sink_pos], cfg.phys)
        if not sc.require_connected or all(_reaches(links.neighbors, sc.node_count)):
            return positions, sink_pos, links
    raise RuntimeError("could not sample a fully connected topology")


def neighbor_lists(positions: list, params: phys.RadioParams) -> list[list[int]]:
    """Ground-truth neighbor ids per node (default power), ids ascending."""
    return phys.link_table(positions, params).neighbors


def connectivity(positions: list, sink_pos, params: phys.RadioParams) -> list[bool]:
    """Which sensors reach the sink through the neighbor graph."""
    nbrs = neighbor_lists(positions + [sink_pos], params)
    return _reaches(nbrs, len(positions))[:len(positions)]


def _reaches(nbrs: list[list[int]], root: int) -> list[bool]:
    """Which ids the neighbor graph connects to ``root``."""
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for i in frontier:
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return [i in seen for i in range(len(nbrs))]


def generate_traffic(cfg: SimConfig, rng) -> list[TrafficEvent]:
    """Randomly positioned sensing events, one message each; the total is
    uniform on event_count +/- event_spread, triggers uniform over the data
    window."""
    sc = cfg.scenario
    lo = max(0, sc.event_count - sc.event_spread)
    hi = sc.event_count + sc.event_spread
    total = int(rng.integers(lo, hi + 1))
    events = []
    for _ in range(total):
        x = float(rng.uniform(0.0, sc.area_width_m))
        y = float(rng.uniform(0.0, sc.area_height_m))
        t = sc.data_start_ms + float(rng.uniform(0.0, sc.data_window_ms))
        events.append(TrafficEvent((x, y), t))
    return events


# ---------------------------------------------------------------------------
# the wired network

# the per-node streams a replication draws from once its nodes exist
CURSOR_PURPOSES = ("failure", "mac", "policy")


class Network:
    """Owns one replication: nodes, the active-transmission set, dispatch."""

    def __init__(self, cfg: SimConfig, sim: Simulator, recorder: RunRecorder,
                 decision_trace: Optional[Callable] = None, tapes: dict | None = None):
        self.cfg = cfg
        self.radio = cfg.phys
        self.mac = cfg.mac
        self.costfield = cfg.costfield
        self.policies = cfg.policies
        self.proto = policies.PROTOCOLS[cfg.scenario.protocol]
        self.sim = sim
        self.recorder = recorder
        self.counters = recorder.counters
        self.decision_trace = decision_trace
        self.nodes: list[Node] = []
        self.sink_id = -1
        self.links: phys.LinkTable | None = None
        self.sensor_xy: np.ndarray | None = None   # (sensors, 2), for the source search
        self.active: dict[int, phys.Transmission] = {}   # by its TX_END event's seq
        self.flood_epoch = 0.0
        self.energy_log: list | None = [] if cfg.metrics.energy_audit else None
        self._setup_seqs = 0    # events the setup phase schedules at the start
        self._data_events = 0   # events the data phase schedules at the start
        # (seed, run, node, purpose) -> engine.Tape, the run being the
        # recorder's; the cells of a topology group share one dict
        self.tapes = {} if tapes is None else tapes
        self._seed_run = (cfg.scenario.base_seed, recorder.run_index)
        # purpose -> one cursor slot per node id, filled at the node's first
        # draw from that stream (see ``cursor``) or by ``resume``
        self.cursors: dict[str, list[engine.Cursor | None]] = {}
        # the class's functions, read when the network is made: a handler
        # patched on the class beforehand is seen, and the table holds no
        # reference back to this network
        cls = type(self)
        self._handlers = {EventKind.TX_END: cls._tx_end, EventKind.TX_START: cls._tx_start,
                          EventKind.TIMER: cls._timer, EventKind.INJECT: cls._inject}
        sim.handler = self.handle

    # -- construction ------------------------------------------------------

    def build(self, positions: list, sink_pos: tuple[float, float],
              links: phys.LinkTable | None = None) -> None:
        """Create the nodes; ``links``, when given, is the link table of
        ``positions + [sink_pos]`` under this network's radio parameters."""
        pol = self.policies
        for i, pos in enumerate(positions):
            self.nodes.append(Node(i, pos, False, Battery(pol.initial_energy_j)))
            if self.proto.ladder:
                self.nodes[i].ugrab = UGrabState(pol.ladder_scale, pol.ladder_ratio,
                                                 spread=pol.spread_factor)
        self.sink_id = len(positions)
        sink = Node(self.sink_id, sink_pos, True, Battery(pol.initial_energy_j))
        sink.cost.q = 0.0
        self.nodes.append(sink)
        if links is None:
            links = phys.link_table([n.pos for n in self.nodes], self.radio)
        self.links = links
        self.sensor_xy = np.array(positions, dtype=float).reshape(-1, 2)
        self.cursors = {purpose: [None] * len(self.nodes) for purpose in CURSOR_PURPOSES}

    def cursor(self, node_id: int, purpose: str) -> engine.Cursor:
        """The node's cursor on its ``purpose`` stream, made at the node's
        first draw on the tape of key (seed, run, node, purpose)."""
        slots = self.cursors[purpose]
        cur = slots[node_id]
        if cur is None:
            key = self._seed_run + (node_id, purpose)
            tape = self.tapes.get(key)
            if tape is None:
                tape = self.tapes[key] = engine.Tape(*key)
            cur = slots[node_id] = engine.Cursor(tape)
        return cur

    def _discrepancy_bounds(self) -> tuple[float, float]:
        cf = self.costfield
        if cf.bounds_mode == "fixed":
            return (cf.fixed_bounds_lo, cf.fixed_bounds_hi)
        # exact bounds over the true geometry, computed centrally and shipped
        # in the sink's advertisement
        nbrs = self.links.neighbors
        true_counts = [len(nbrs[n.id]) for n in self.nodes]
        deltas = []
        for node in self.nodes:
            if node.is_sink:
                continue
            counts = [true_counts[j] for j in nbrs[node.id]]
            deltas.append(costfield.neighborhood_discrepancy(true_counts[node.id], counts))
        lo, hi = min(deltas, default=0.0), max(deltas, default=0.0)
        if lo >= hi:
            # degenerate geometry; fall back to a unit interval around it
            lo, hi = lo - 1.0, hi + 1.0
        return (lo, hi)

    def start(self, traffic: list[TrafficEvent]) -> None:
        """Schedule the setup phase (the flood and the optional
        neighbor-count stage), then the data phase: stall checks and all
        message injections."""
        sim = self.sim
        sink = self.nodes[self.sink_id]
        if self.proto.counts:
            sink.cost.bounds = self._discrepancy_bounds()
        mac.transmit(self, sink, AdvPacket(sink.id, 0.0, self.radio.tx_power_dbm,
                                           sink.cost.bounds))
        if self.proto.counts:
            cf = self.costfield
            for node in self.nodes:
                u = self.cursor(node.id, "mac").uniform(0.0, cf.ncnt_window_ms)
                sim.schedule(cf.ncnt_start_ms + u, EventKind.TIMER, node.id, ("ncnt", 0))
        self._start_data(traffic)

    def _start_data(self, traffic: list[TrafficEvent]) -> None:
        """Schedule the data phase's events, all at or after the data start,
        after the setup phase's."""
        sim = self.sim
        self._setup_seqs = sim.seq
        if self.proto.ladder:
            period = self._stall_period()
            for node in self.nodes:
                if not node.is_sink:
                    sim.schedule(self.cfg.scenario.data_start_ms + period,
                                 EventKind.TIMER, node.id, ("stall", 0))
        for k, ev in enumerate(traffic):
            sim.schedule(ev.trigger_ms, EventKind.INJECT, -1, (k, ev))
        self._data_events = sim.seq - self._setup_seqs

    def snapshot(self) -> SetupSnapshot | None:
        """The state after the setup phase, taken once every event before
        the data start has played; None while a setup event is still
        queued or on the air."""
        sim = self.sim
        if sim.pending() != self._data_events:
            return None
        played = sim.seq - self._setup_seqs - self._data_events
        positions = {(i, purpose): cur.pos for purpose, slots in self.cursors.items()
                     for i, cur in enumerate(slots) if cur is not None}
        return SetupSnapshot(sim.clock, (self._setup_seqs, played), positions,
                             node_states(self.nodes), dict(self.counters),
                             None if self.energy_log is None else list(self.energy_log))

    def resume(self, snap: SetupSnapshot, traffic: list[TrafficEvent]) -> None:
        """Start from ``snap`` in place of a setup phase of this network's
        own, then schedule the data phase. Every event takes the number it
        takes after a setup of its own: the data events follow the setup's
        start, and the setup's played events took the numbers after them."""
        restore_nodes(self.nodes, snap.nodes)
        self.counters.update(snap.counters)
        if snap.energy_log is not None:
            self.energy_log = list(snap.energy_log)
        for (node_id, purpose), pos in snap.cursors.items():
            cur = self.cursor(node_id, purpose)
            while len(cur.tape.draws) < pos:
                cur.tape.grow()
            cur.pos = pos
        sim = self.sim
        sim.clock = snap.clock
        sim.seq, played = snap.seqs
        self._start_data(traffic)
        sim.seq += played

    def _stall_period(self) -> float:
        sc = self.cfg.scenario
        mean_interarrival = sc.data_window_ms / max(1, sc.event_count)
        return self.policies.stall_check_factor * mean_interarrival

    # -- event dispatch ------------------------------------------------------

    def handle(self, sim: Simulator, ev: Event) -> None:
        self._handlers[ev.kind](self, ev)

    def _tx_start(self, ev: Event) -> None:
        node = self.nodes[ev.node]
        packet, power = ev.payload
        if node.battery.dead:
            self.counters["suppressed_tx"] += 1
            return
        # packet contents freeze at the moment the transmission begins
        kind = packet.kind
        if kind == "adv":
            packet.q_p = node.cost.q
            packet.bounds = node.cost.bounds
            if node.is_sink:
                self.flood_epoch = self.sim.clock
            self.counters["adv_total"] += 1
        elif kind == "ncnt":
            packet.count = len(node.neighbor_pathloss)
            node.advertised_count = packet.count
            self.counters["ncnt_total"] += 1
        else:
            packet.q_p = node.cost.q
            self.counters["forwarded_total"] += 1
        n_bytes = getattr(self.radio, kind + "_bytes")
        joules = policies.consume_energy(node, n_bytes, power, self.policies, self.radio)
        if self.energy_log is not None:
            self.energy_log.append((node.id, joules))
        now = self.sim.clock
        tr = phys.Transmission(node.id, power, now, now + self.radio.airtime_ms(n_bytes), packet,
                               reception=self.links.reception(node.id, power), n_bytes=n_bytes)
        tr.interferers = list(self.active.values())
        for other in self.active.values():
            other.interferers.append(tr)
        self.active[self.sim.schedule(tr.end, EventKind.TX_END, node.id, tr).seq] = tr

    def _tx_end(self, ev: Event) -> None:
        tr = ev.payload
        del self.active[ev.seq]
        decoded = phys.decode_batch(tr, self.links)
        # the transmissions still on the air keep theirs; dropping this list
        # breaks the reference cycles between finished transmissions
        tr.interferers = []
        # Dead receivers drop out after the decode (a data packet's in its
        # receive loop), which equals leaving them out of it: each column
        # decodes on its own, and the decode changes no battery.
        kind = tr.packet.kind
        if kind == "data":
            self._receive_data(tr, decoded)
            return
        nodes = self.nodes
        alive = [j for j in decoded if (b := nodes[j].battery).consumed_j < b.capacity_j]
        if kind == "adv":
            heard = sum(1 for j in tr.reception.ids.tolist()
                        if (b := nodes[j].battery).consumed_j < b.capacity_j)
            self.counters["adv_decode_failures"] += heard - len(alive)
        self._receive_setup(tr, alive)

    # Everything a reception reads that is the same for all receivers of one
    # transmission (powers, byte count, joules, packet fields, switches) is
    # read once; each receiver's side effects keep their order.

    def _receive_data(self, tr: phys.Transmission, decoded: list[int]) -> None:
        """Every alive decoded receiver of a data packet, in one flat loop.
        It inlines the liveness filter, the failure lottery
        (``Cursor.random``), the debit (``Battery.drain``), the hop cost
        (``costfield.link_cost``) and the downhill rule
        (``policies.eligible``), each with its helper's exact arithmetic; the
        helpers remain the reference. A receiver changes no other
        receiver's battery, so filtering each one as the loop reaches it
        equals filtering them all first."""
        pkt = tr.packet
        nodes = self.nodes
        pol = self.policies
        sink_id = self.sink_id
        sender, txp = tr.sender, tr.tx_power_dbm
        q_p, msg_id = pkt.q_p, pkt.msg_id
        joules = policies.rx_joules(tr.n_bytes, pol, self.radio)
        log = self.energy_log
        p_f = self.cfg.scenario.p_f
        lottery = p_f > 0.0 and self.cfg.scenario.failure_side == "rx"
        failure = self.cursors["failure"]
        counters = self.counters
        traced = self.decision_trace is not None
        losses = self.links.pathloss_db[sender].take(decoded).tolist()
        for rx_id, pl in zip(decoded, losses):
            rx = nodes[rx_id]
            battery = rx.battery
            if battery.consumed_j >= battery.capacity_j:
                continue
            if lottery and rx_id != sink_id:
                cur = failure[rx_id] or self.cursor(rx_id, "failure")
                pos = cur.pos
                draws = cur.tape.draws
                if pos == len(draws):
                    cur.tape.grow()
                cur.pos = pos + 1
                if draws[pos] < p_f:
                    counters["relay_failures"] += 1
                    continue
            remaining = battery.capacity_j - battery.consumed_j
            drawn = joules if joules < remaining else remaining
            if drawn < 0.0:
                drawn = 0.0
            battery.consumed_j += drawn
            if log is not None:
                log.append((rx_id, drawn))
            if rx_id == sink_id:
                self.recorder.on_delivery(msg_id, self.sim.clock)
                continue
            hop_cost = txp - (txp - pl)
            rx.neighbor_pathloss[sender] = hop_cost
            if rx.ugrab is not None:
                policies.note_overheard(rx, q_p, pol)
            # the receiver is no sink here
            if not (rx.cost.q < q_p and msg_id not in rx.seen):
                if traced:
                    self._trace_decision(rx, eligible=False, dec=None)
                continue
            rx.seen.add(msg_id)
            self._decide_and_forward(rx, pkt, hop_cost)

    def _receive_setup(self, tr: phys.Transmission, decoded: list[int]) -> None:
        pkt = tr.packet
        nodes = self.nodes
        adv = pkt.kind == "adv"
        txp = tr.tx_power_dbm
        joules = policies.rx_joules(tr.n_bytes, self.policies, self.radio)
        log = self.energy_log
        losses = self.links.pathloss_db[tr.sender].take(decoded).tolist()
        for rx_id, pl in zip(decoded, losses):
            rx = nodes[rx_id]
            drawn = rx.battery.drain(joules)
            if log is not None:
                log.append((rx_id, drawn))
            rx_power = txp - pl
            rx.neighbor_pathloss[pkt.sender] = costfield.link_cost(txp, rx_power)
            if adv:
                costfield.handle_adv(self, rx, pkt, rx_power)
            else:
                costfield.handle_ncnt(self, rx, pkt)

    def ensure_delta(self, node: Node) -> None:
        """Settle the node's discrepancy and its bounds, once, from what the
        count stage delivered."""
        if node.delta is None:
            # the node's own count enters as the value it advertised, so both
            # sides of the discrepancy are snapshots of the same stage
            own = (node.advertised_count if node.advertised_count is not None
                   else len(node.neighbor_pathloss))
            node.delta = costfield.neighborhood_discrepancy(
                own, node.neighbor_counts.values())
            node.delta_bounds = (node.cost.bounds if node.cost.bounds is not None
                                 else (self.costfield.fixed_bounds_lo,
                                       self.costfield.fixed_bounds_hi))

    def _decide_and_forward(self, node: Node, pkt: DataPacket, hop_cost: float) -> None:
        fwd_pkt = DataPacket(pkt.msg_id, pkt.q_p, pkt.tx_power_dbm, pkt.budget,
                             pkt.consumed + hop_cost)
        if self.proto.counts:
            self.ensure_delta(node)
        dec = self.proto.decide(self, node, fwd_pkt)
        if self.decision_trace is not None:
            self._trace_decision(node, eligible=True, dec=dec)
        if not dec.forward:
            return
        sc = self.cfg.scenario
        if sc.p_f > 0.0 and sc.failure_side == "tx":
            if self.cursor(node.id, "failure").random() < sc.p_f:
                self.counters["relay_failures"] += 1
                return
        fwd_pkt.q_p = node.cost.q
        fwd_pkt.tx_power_dbm = (self.radio.tx_power_dbm if dec.tx_power_dbm is None
                                else dec.tx_power_dbm)
        mac.transmit(self, node, fwd_pkt, fwd_pkt.tx_power_dbm)

    def _trace_decision(self, node: Node, eligible: bool, dec: Decision | None) -> None:
        f = "" if dec is None else ("1" if dec.forward else "0")
        row = (self.sim.clock, node.id, self.cfg.scenario.protocol, int(eligible), f,
               getattr(dec, "p_fw", None), getattr(dec, "c_n", None),
               getattr(dec, "forward_reward", None), getattr(dec, "energy_reward", None))
        self.decision_trace(row)

    def _timer(self, ev: Event) -> None:
        tag, gen = ev.payload
        node = self.nodes[ev.node]
        if tag == "adv":
            st = node.cost
            if gen != st.adv_timer_gen or st.adv_sent or node.battery.dead:
                return
            st.adv_sent = True
            mac.transmit(self, node, AdvPacket(node.id, st.q, self.radio.tx_power_dbm,
                                               st.bounds))
        elif tag == "ncnt":
            if not node.battery.dead:
                mac.transmit(self, node, NeighborCountPacket(
                    node.id, len(node.neighbor_pathloss)))
        elif tag == "stall":
            if not node.battery.dead and node.ugrab is not None:
                policies.stall_check(node, self.policies)
            nxt = self.sim.clock + self._stall_period()
            if nxt <= self.cfg.scenario.max_sim_time_ms:
                self.sim.schedule(nxt, EventKind.TIMER, node.id, ("stall", 0))

    def _inject(self, ev: Event) -> None:
        k, tev = ev.payload
        src = self._nearest_alive_sensor(tev.pos)
        if src is None:
            return
        msg_id = (src.id, k)
        self.recorder.on_sent(msg_id, self.sim.clock)
        src.seen.add(msg_id)
        budget, power = self.proto.inject(self, src)
        pkt = DataPacket(msg_id, src.cost.q, power, budget=budget, consumed=0.0)
        mac.transmit(self, src, pkt, power)

    def _nearest_alive_sensor(self, pos) -> Node | None:
        """The alive sensor with the least (phys.distance, id). np.hypot and
        math.hypot each lie within an ulp of the true distance, so the exact
        minimum is among the alive sensors whose np.hypot distance is within
        a relative 1e-9 of the nearest alive one's; only those are compared
        exactly."""
        dist = np.hypot(self.sensor_xy[:, 0] - pos[0], self.sensor_xy[:, 1] - pos[1])
        order = dist.argsort()
        best = None
        best_key = None
        limit = math.inf
        for i, d in zip(order.tolist(), dist.take(order).tolist()):
            if d > limit:
                break
            node = self.nodes[i]
            if node.battery.dead:
                continue
            if best is None:
                limit = d * (1.0 + 1e-9)
            key = (phys.distance(node.pos, pos), i)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best

    def release(self) -> None:
        """Break the reference cycles of a played replication, so reference
        counting frees it and its link table without waiting for the garbage
        collector: the simulator's handler is this network's bound method, and
        transmissions still on the air list each other as interferers."""
        self.sim.handler = None
        for tr in self.active.values():
            tr.interferers = []

    def finish(self) -> RunMetrics:
        return self.recorder.finalize(self.nodes, self.cfg.metrics.include_sink,
                                      self.energy_log)


# ---------------------------------------------------------------------------
# replication drivers


def build_network(cfg: SimConfig, run_index: int, *, positions=None, sink_pos=None,
                  links=None, traffic=None, tapes=None, event_trace=None,
                  decision_trace=None, param: str = "",
                  snapshot: SetupSnapshot | None = None) -> tuple[Simulator, Network]:
    """Assemble a ready-to-run replication. Positions and the sink position
    may be supplied together for scripted topologies, and traffic too;
    otherwise they come from the run's topology and traffic streams.
    ``links``, given with explicit positions, is their link table
    (``generate_topology``'s third item). ``tapes`` is the ``Network``'s
    tape dict, shared by the cells of one topology group. With ``snapshot``,
    taken on the same topology and tapes by a cell of the same setup key,
    the replication starts from it and plays only its data phase."""
    if (positions is None) != (sink_pos is None):
        raise ValueError("positions and sink_pos must be given together")
    seed = cfg.scenario.base_seed
    if positions is None:
        positions, sink_pos, links = generate_topology(
            cfg, engine.make_stream(seed, run_index, None, "topology"))
    if traffic is None:
        traffic = generate_traffic(cfg, engine.make_stream(seed, run_index, None, "traffic"))
    sim = Simulator(trace=event_trace)
    recorder = RunRecorder(run_index, cfg.scenario.protocol, cfg.scenario.p_f, param)
    net = Network(cfg, sim, recorder, decision_trace=decision_trace, tapes=tapes)
    net.build(positions, sink_pos, links)
    if snapshot is None:
        net.start(traffic)
    else:
        net.resume(snapshot, traffic)
    return sim, net


def run_replication(cfg: SimConfig, run_index: int, *, positions=None, sink_pos=None,
                    links=None, traffic=None, tapes=None, event_trace=None,
                    decision_trace=None, param: str = "",
                    setup: SharedSetup | None = None) -> RunMetrics:
    """Play one replication. ``setup``, shared by the cells of one setup
    key on one topology and tape dict, supplies a snapshot to start from
    when its setup ended before this cell's data start; otherwise the cell
    plays its own setup phase and, when ``setup.wanted``, leaves its
    snapshot there."""
    snap = None if setup is None else setup.claim(cfg.scenario.data_start_ms)
    sim, net = build_network(cfg, run_index, positions=positions, sink_pos=sink_pos,
                             links=links, traffic=traffic, tapes=tapes,
                             event_trace=event_trace, decision_trace=decision_trace,
                             param=param, snapshot=snap)
    del snap   # the key's last cell frees the snapshot here
    if setup is not None and setup.wanted:
        # every event strictly before the data start, and none past the end
        sim.run_until_idle(min(math.nextafter(cfg.scenario.data_start_ms, -math.inf),
                               cfg.scenario.max_sim_time_ms))
        setup.snapshot = net.snapshot()
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    net.release()
    return net.finish()


def _topology_key(cfg: SimConfig, run_index: int) -> tuple:
    """Everything ``generate_topology`` and the link table read."""
    sc = cfg.scenario
    return (run_index, sc.base_seed, sc.node_count, sc.area_width_m, sc.area_height_m,
            sc.sink_placement, sc.require_connected, astuple(cfg.phys))


def _traffic_key(cfg: SimConfig) -> tuple:
    """Everything ``generate_traffic`` reads besides its stream."""
    sc = cfg.scenario
    return (sc.event_count, sc.event_spread, sc.area_width_m, sc.area_height_m,
            sc.data_start_ms, sc.data_window_ms)


def _run_group(tasks: list) -> list[RunMetrics]:
    """Replications of one run index whose cells share the topology: sample
    it and its link table once, draw the traffic once per traffic setting,
    and play each cell on them with one tape dict, so each per-node stream
    is seeded once for the group. Cells of one setup key share a
    ``SharedSetup``, so its setup phase plays once when it ends before the
    data start."""
    cfg, run_index, _ = tasks[0]
    seed = cfg.scenario.base_seed
    positions, sink_pos, links = generate_topology(
        cfg, engine.make_stream(seed, run_index, None, "topology"))
    traffic: dict[tuple, list[TrafficEvent]] = {}
    tapes: dict = {}
    keys = [setup_key(cell) for cell, _, _ in tasks]
    setups = {key: SharedSetup(n) for key, n in Counter(keys).items()}
    rank = {key: r for r, key in enumerate(setups)}
    runs = [None] * len(tasks)
    # one key's cells after another, so one snapshot is kept at a time
    for k in sorted(range(len(tasks)), key=lambda k: rank[keys[k]]):
        cell, _, param = tasks[k]
        tkey = _traffic_key(cell)
        if tkey not in traffic:
            traffic[tkey] = generate_traffic(
                cell, engine.make_stream(seed, run_index, None, "traffic"))
        runs[k] = run_replication(cell, run_index, positions=positions, sink_pos=sink_pos,
                                  links=links, traffic=traffic[tkey], tapes=tapes,
                                  param=param, setup=setups[keys[k]])
    return runs


def sweep(base_cfg: SimConfig, axes, *, jobs: int = 1):
    """Cross product of override axes, a dict or a list of (key, values)
    pairs; returns (runs, cell aggregates) with cells ordered by axis
    combination. An axis without values, or two that name one config key
    (bare or dotted), is a ``ConfigError`` naming the key."""
    from .config import apply_overrides
    pairs = list(axes.items() if isinstance(axes, dict) else axes)
    keys = [resolve_key(dotted) for dotted, _ in pairs]
    for (dotted, values), key in zip(pairs, keys):
        if not values:
            raise ConfigError(f"sweep axis {dotted} has no values")
        if keys.count(key) > 1:
            raise ConfigError(f"two sweep axes set {'.'.join(key)}")
    cells = []
    for combo in itertools.product(*(values for _, values in pairs)):
        overrides = [f"{dotted}={v}" for (dotted, _), v in zip(pairs, combo)]
        param = ",".join(f"{key}={v}" for (_, key), v in zip(keys, combo)
                         if key not in ("protocol", "p_f"))
        cells.append((apply_overrides(base_cfg, overrides), param))
    return play(cells, jobs=jobs)


def play(cells: list[tuple[SimConfig, str]], *, jobs: int = 1):
    """Every replication of each (config, param) cell; returns (runs, cell
    aggregates), runs in cell order and each cell's runs by index. Cells
    that share a replication's topology (``_topology_key``) share its sample
    and link table, and ``jobs`` > 1 maps those groups over a process pool;
    the results do not depend on ``jobs``. Within a group, the cells of one
    setup key (``shared_setup.setup_key``) play its setup phase once."""
    tasks = [(cfg_i, i, param) for cfg_i, param in cells
             for i in range(cfg_i.scenario.replications)]
    groups: dict[tuple, list[int]] = {}
    for k, (cfg_i, i, _) in enumerate(tasks):
        groups.setdefault(_topology_key(cfg_i, i), []).append(k)
    work = [[tasks[k] for k in members] for members in groups.values()]
    if jobs > 1 and len(work) > 1:
        with multiprocessing.Pool(min(jobs, len(work))) as pool:
            played = pool.map(_run_group, work)
    else:
        played = [_run_group(g) for g in work]
    # runs keep the task order: cells in order, each cell's runs by index
    runs = [None] * len(tasks)
    for members, group_runs in zip(groups.values(), played):
        for k, m in zip(members, group_runs):
            runs[k] = m
    ends = list(itertools.accumulate(c.scenario.replications for c, _ in cells))
    return runs, [aggregate(runs[a:b]) for a, b in zip([0] + ends, ends)]


def costfield_rows(net: Network) -> list[list[str]]:
    """Topology and cost-field dump rows: node,x,y,Q,N_i,delta."""
    rows = []
    for node in net.nodes:
        rows.append([str(node.id), format(node.pos[0], ".10g"), format(node.pos[1], ".10g"),
                     format(node.cost.q, ".10g"), str(len(node.neighbor_pathloss)),
                     "" if node.delta is None else format(node.delta, ".10g")])
    return rows
