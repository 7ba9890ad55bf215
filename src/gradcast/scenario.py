"""Experiment execution: topology, traffic, per-node state, packet dispatch.

A replication plays three phases on one seeded event loop: the advertisement
flood that builds the cost field, an optional neighbor-count stage (needed by
the discrepancy-based policies), and the data phase where sensing events
inject messages that roll downhill to the sink under the selected policy.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import astuple, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import costfield, engine, mac, phys, policies
from .config import SimConfig
from .costfield import AdvPacket, CostState, NeighborCountPacket
from .engine import Event, EventKind, Simulator
from .metrics import RunMetrics, RunRecorder, aggregate
from .policies import Battery, DataPacket, Decision, UGrabState


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

    @property
    def dead(self) -> bool:
        return self.battery.dead


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
        if not sc.require_connected or all(
                _reaches(links.neighbors(cfg.phys.sensitivity_dbm), sc.node_count)):
            return positions, sink_pos, links
    raise RuntimeError("could not sample a fully connected topology")


def neighbor_lists(positions: list, params: phys.RadioParams) -> list[list[int]]:
    """Ground-truth neighbor ids per node (default power), ids ascending."""
    return phys.link_table(positions, params).neighbors(params.sensitivity_dbm)


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


class Network:
    """Owns one replication: nodes, the active-transmission set, dispatch."""

    def __init__(self, cfg: SimConfig, sim: Simulator, recorder: RunRecorder,
                 decision_trace: Optional[Callable] = None):
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
        self.neighbors: list[list[int]] = []
        self.links: phys.LinkTable | None = None
        self.sensor_xy: np.ndarray | None = None   # (sensors, 2), for the source search
        self.active: dict[int, phys.Transmission] = {}
        self._tx_serial = 0
        self.flood_epoch = 0.0
        self.delta_bounds: tuple[float, float] | None = None
        self.energy_log: list | None = [] if cfg.metrics.energy_audit else None
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
        self.neighbors = self.links.neighbors(self.radio.sensitivity_dbm)
        self.sensor_xy = np.array(positions, dtype=float).reshape(-1, 2)
        if self.proto.counts:
            self.delta_bounds = self._discrepancy_bounds()
            sink.cost.bounds = self.delta_bounds

    def _discrepancy_bounds(self) -> tuple[float, float]:
        cf = self.costfield
        if cf.bounds_mode == "fixed":
            return (cf.fixed_bounds_lo, cf.fixed_bounds_hi)
        # exact bounds over the true geometry, computed centrally and shipped
        # in the sink's advertisement
        true_counts = [len(self.neighbors[n.id]) for n in self.nodes]
        deltas = []
        for node in self.nodes:
            if node.is_sink:
                continue
            counts = [true_counts[j] for j in self.neighbors[node.id]]
            deltas.append(costfield.neighborhood_discrepancy(true_counts[node.id], counts))
        lo, hi = min(deltas, default=0.0), max(deltas, default=0.0)
        if lo >= hi:
            # degenerate geometry; fall back to a unit interval around it
            lo, hi = lo - 1.0, hi + 1.0
        return (lo, hi)

    def start(self, traffic: list[TrafficEvent]) -> None:
        """Schedule the flood, the optional neighbor-count stage, stall checks
        and all message injections."""
        sim = self.sim
        sink = self.nodes[self.sink_id]
        mac.transmit(self, sink, AdvPacket(sink.id, 0.0, self.radio.tx_power_dbm,
                                           sink.cost.bounds))
        if self.proto.counts:
            cf = self.costfield
            for node in self.nodes:
                u = sim.stream(node.id, "mac").uniform(0.0, cf.ncnt_window_ms)
                sim.schedule(cf.ncnt_start_ms + u, EventKind.TIMER, node.id, ("ncnt", 0))
        if self.proto.ladder:
            period = self._stall_period()
            for node in self.nodes:
                if not node.is_sink:
                    sim.schedule(self.cfg.scenario.data_start_ms + period,
                                 EventKind.TIMER, node.id, ("stall", 0))
        for k, ev in enumerate(traffic):
            sim.schedule(ev.trigger_ms, EventKind.INJECT, -1, (k, ev))

    def _stall_period(self) -> float:
        sc = self.cfg.scenario
        mean_interarrival = sc.data_window_ms / max(1, sc.event_count)
        return self.policies.stall_check_factor * mean_interarrival

    # -- event dispatch ------------------------------------------------------

    def handle(self, sim: Simulator, ev: Event) -> None:
        if ev.kind is EventKind.TX_END:
            self._tx_end(ev)
        elif ev.kind is EventKind.TX_START:
            self._tx_start(ev)
        elif ev.kind is EventKind.TIMER:
            self._timer(ev)
        elif ev.kind is EventKind.INJECT:
            self._inject(ev)

    def _tx_start(self, ev: Event) -> None:
        node = self.nodes[ev.node]
        packet, power = ev.payload
        if node.dead:
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
        tr = phys.Transmission(node.id, node.pos, power, now,
                               now + self.radio.airtime_ms(n_bytes), packet,
                               rx_mw=self.links.rx_mw_row(node.id, power), n_bytes=n_bytes)
        tr.interferers = list(self.active.values())
        for other in self.active.values():
            other.interferers.append(tr)
        self._tx_serial += 1
        self.active[self._tx_serial] = tr
        self.sim.schedule(tr.end, EventKind.TX_END, node.id, (self._tx_serial, tr))

    def _tx_end(self, ev: Event) -> None:
        serial, tr = ev.payload
        del self.active[serial]
        nodes = self.nodes
        # Battery.dead without its property chain: for finite floats,
        # capacity - consumed <= 0 exactly when consumed >= capacity, since
        # the rounded difference keeps the sign of the exact one
        alive = [j for j in self.neighbors[tr.sender]
                 if (b := nodes[j].battery).consumed_j < b.capacity_j]
        decoded = phys.decode_batch(tr, alive, self.links, self.radio)
        # the transmissions still on the air keep theirs; dropping this list
        # breaks the reference cycles between finished transmissions
        tr.interferers = []
        kind = tr.packet.kind
        if kind == "data":
            self._receive_data(tr, decoded)
        else:
            if kind == "adv":
                self.counters["adv_decode_failures"] += len(alive) - len(decoded)
            self._receive_setup(tr, decoded)

    # Everything a reception reads that is the same for all receivers of one
    # transmission (powers, byte count, joules, packet fields, switches) is
    # read once; each receiver's side effects keep their order.

    def _receive_data(self, tr: phys.Transmission, decoded: list[int]) -> None:
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
        stream = self.sim.stream
        traced = self.decision_trace is not None
        losses = self.links.pathloss_db[sender].take(decoded).tolist()
        for rx_id, pl in zip(decoded, losses):
            rx = nodes[rx_id]
            if lottery and rx_id != sink_id and stream(rx_id, "failure").random() < p_f:
                self.counters["relay_failures"] += 1
                continue
            drawn = rx.battery.drain(joules)
            if log is not None:
                log.append((rx_id, drawn))
            if rx_id == sink_id:
                self.recorder.on_delivery(msg_id, self.sim.clock)
                continue
            hop_cost = costfield.link_cost(txp, txp - pl)
            rx.neighbor_pathloss[sender] = hop_cost
            if rx.ugrab is not None:
                policies.note_overheard(rx, q_p, pol)
            if not policies.eligible(rx, pkt):
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
            if self.sim.stream(node.id, "failure").random() < sc.p_f:
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
            if gen != st.adv_timer_gen or st.adv_sent or node.dead:
                return
            st.adv_sent = True
            mac.transmit(self, node, AdvPacket(node.id, st.q, self.radio.tx_power_dbm,
                                               st.bounds))
        elif tag == "ncnt":
            if not node.dead:
                mac.transmit(self, node, NeighborCountPacket(
                    node.id, len(node.neighbor_pathloss)))
        elif tag == "stall":
            if not node.dead and node.ugrab is not None:
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
            if node.dead:
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
                  decision_trace=None, param: str = "") -> tuple[Simulator, Network]:
    """Assemble a ready-to-run replication. Positions and the sink position
    may be supplied together for scripted topologies, and traffic too;
    otherwise they come from the run's topology and traffic streams.
    ``links``, given with explicit positions, is their link table
    (``generate_topology``'s third item). ``tapes`` is the ``Simulator``'s
    tape dict, shared by the cells of one topology group."""
    if (positions is None) != (sink_pos is None):
        raise ValueError("positions and sink_pos must be given together")
    seed = cfg.scenario.base_seed
    if positions is None:
        positions, sink_pos, links = generate_topology(
            cfg, engine.make_stream(seed, run_index, None, "topology"))
    if traffic is None:
        traffic = generate_traffic(cfg, engine.make_stream(seed, run_index, None, "traffic"))
    sim = Simulator(seed, run_index, trace=event_trace, tapes=tapes)
    recorder = RunRecorder(run_index, cfg.scenario.protocol, cfg.scenario.p_f, param)
    net = Network(cfg, sim, recorder, decision_trace=decision_trace)
    net.build(positions, sink_pos, links)
    net.start(traffic)
    return sim, net


def run_replication(cfg: SimConfig, run_index: int, *, positions=None, sink_pos=None,
                    links=None, traffic=None, tapes=None, event_trace=None,
                    decision_trace=None, param: str = "") -> RunMetrics:
    sim, net = build_network(cfg, run_index, positions=positions, sink_pos=sink_pos,
                             links=links, traffic=traffic, tapes=tapes,
                             event_trace=event_trace, decision_trace=decision_trace,
                             param=param)
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
    is seeded once for the group."""
    cfg, run_index, _ = tasks[0]
    seed = cfg.scenario.base_seed
    positions, sink_pos, links = generate_topology(
        cfg, engine.make_stream(seed, run_index, None, "topology"))
    traffic: dict[tuple, list[TrafficEvent]] = {}
    tapes: dict = {}
    runs = []
    for cell, _, param in tasks:
        key = _traffic_key(cell)
        if key not in traffic:
            traffic[key] = generate_traffic(
                cell, engine.make_stream(seed, run_index, None, "traffic"))
        runs.append(run_replication(cell, run_index, positions=positions, sink_pos=sink_pos,
                                    links=links, traffic=traffic[key], tapes=tapes,
                                    param=param))
    return runs


def sweep(base_cfg: SimConfig, axes: dict[str, list[str]], *, jobs: int = 1):
    """Cross product of override axes; returns (runs, cell aggregates) with
    cells ordered by axis combination."""
    from .config import apply_overrides
    for key, values in axes.items():
        if not values:
            raise ValueError(f"sweep axis {key} has no values")
    keys = list(axes)
    cells = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        overrides = [f"{k}={v}" for k, v in zip(keys, combo)]
        param = ",".join(f"{k.split('.')[-1]}={v}" for k, v in zip(keys, combo)
                         if k.split(".")[-1] not in ("protocol", "p_f"))
        cells.append((apply_overrides(base_cfg, overrides), param))
    return play(cells, jobs=jobs)


def play(cells: list[tuple[SimConfig, str]], *, jobs: int = 1):
    """Every replication of each (config, param) cell; returns (runs, cell
    aggregates), runs in cell order and each cell's runs by index. Cells
    that share a replication's topology (``_topology_key``) share its sample
    and link table, and ``jobs`` > 1 maps those groups over a process pool;
    the results do not depend on ``jobs``."""
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
