"""Forwarding policies and the quantities they consume.

Five strategies act on an eligible node (cost strictly below the packet cost,
message not yet decided):

* basic gradient broadcast: always forward;
* credit forwarding: a per-packet cost budget buys wide broadcasts (power to
  reach a fixed number of nearest neighbors) until slack runs out, then only
  the nearest neighbor is reached;
* probabilistic: forward with the product of an interference-avoidance
  probability (erfc of the neighborhood discrepancy) and a life-duration
  probability (expected remaining broadcasts);
* utility: compare the forwarding reward ladder against the consumed-energy
  reward, dropping outright on a busy channel;
* hybrid: the utility game where the forward action fires with the
  interference-avoidance probability under a per-node spreading factor.

``PROTOCOLS`` names each strategy and says what it adds to the shared
gradient broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

from . import mac
from .costfield import bounds_center


@dataclass
class PolicyParams:
    credit_factor: float = 10.0      # extra budget as a multiple of the source cost
    wide_neighbor_count: int = 3     # wide broadcasts aim at this many nearest neighbors
    power_margin_db: float = 7.0     # landing margin above sensitivity
    spread_factor: float = 2.0       # erfc spreading; higher flattens the curve
    spread_factor_max: float = 64.0
    ladder_scale: float = 0.75       # forward reward = 1 - scale * ratio**steps
    ladder_ratio: float = 0.75
    ema_weight: float = 0.1
    stall_high: float = 0.5          # upstream-traffic EMA must exceed this
    stall_low: float = 0.05          # downstream EMA must stay below this
    stall_check_factor: float = 10.0  # check period in mean message interarrivals
    tx_draw_w: float = 0.075         # at 0 dBm; scales linearly with radiated mW
    rx_draw_w: float = 0.024
    initial_energy_j: float = 0.5    # roughly a thousand data broadcasts


@dataclass
class Battery:
    capacity_j: float
    consumed_j: float = 0.0
    n_forwarded: int = 0    # broadcasts of any packet kind

    @property
    def remaining_j(self) -> float:
        return self.capacity_j - self.consumed_j

    @property
    def dead(self) -> bool:
        """``remaining_j <= 0.0``: for finite floats the rounded difference
        keeps the sign of the exact one."""
        return self.consumed_j >= self.capacity_j

    def drain(self, joules: float) -> float:
        """Debit up to ``joules``; returns the amount actually drawn.
        ``Network._receive_data`` inlines it; keep the two in step."""
        remaining = self.capacity_j - self.consumed_j
        take = joules if joules < remaining else remaining
        if take < 0.0:
            take = 0.0
        self.consumed_j += take
        return take


@dataclass
class UGrabState:
    ladder_scale: float = 0.75
    ladder_ratio: float = 0.75
    steps: int = 0
    n_high: float = 0.0    # EMA of decoded packets costlier than this node
    n_low: float = 0.0     # EMA of decoded packets cheaper than this node
    spread: float = 2.0    # per-node spreading factor (hybrid policy adapts it)

    @property
    def forward_reward(self) -> float:
        return ladder_reward(self.steps, self.ladder_scale, self.ladder_ratio)


@dataclass
class DataPacket:
    kind: ClassVar[str] = "data"
    msg_id: tuple[int, int]    # (source id, injection sequence)
    q_p: float                 # cost of the most recent forwarder
    tx_power_dbm: float
    budget: float = math.inf   # credit policy: total allowed cumulative cost
    consumed: float = 0.0      # credit policy: cost spent so far


@dataclass
class Decision:
    forward: bool
    tx_power_dbm: float | None = None   # None means default power
    wide: bool | None = None            # credit policy: wide or narrow
    p_fw: float | None = None
    c_n: int | None = None
    forward_reward: float | None = None
    energy_reward: float | None = None


def eligible(node, pkt: DataPacket) -> bool:
    """Downhill rule: only undecided non-sink nodes strictly cheaper than the
    packet cost get a forwarding decision. ``Network._receive_data``
    inlines it; keep the two in step."""
    return (not node.is_sink) and node.cost.q < pkt.q_p and pkt.msg_id not in node.seen


def erfc_forward_probability(delta: float, spread: float,
                             bounds: tuple[float, float]) -> float:
    """Map a neighborhood discrepancy to a forwarding probability.

    The interval ``bounds`` is scaled onto the [-12, 12] section of erfc, so
    0.5 * erfc((delta - center) / (spread * width / 24)) runs from ~1 at the
    lower bound to ~0 at the upper bound. ``spread`` >= 1 flattens the curve
    toward linear; the value at the center is 1/2 for every spread. Inputs
    outside the bounds evaluate as-is.
    """
    lo, hi = bounds
    c = (lo + hi) / 2.0
    m = spread * (hi - lo) / 24.0
    if m <= 0.0:
        # degenerate interval: everyone sits at the center
        return 0.5 if delta == c else (1.0 if delta < c else 0.0)
    return 0.5 * math.erfc((delta - c) / m)


def remaining_life_probability(battery: Battery) -> float:
    """Chance the node can keep forwarding, from its mean energy per broadcast.

    With expected remaining broadcasts n, returns 1 - 1/(n + 1): close to one
    for a healthy battery, zero when nothing can be sent anymore. A node that
    never broadcast has no estimate and is maximally willing.
    """
    if battery.remaining_j <= 0.0:
        return 0.0
    if battery.n_forwarded == 0:
        return 1.0
    per_packet = battery.consumed_j / battery.n_forwarded
    if per_packet <= 0.0:
        return 1.0
    expected = battery.remaining_j / per_packet
    return 1.0 - 1.0 / (expected + 1.0)


def ladder_reward(steps: int, scale: float = 0.75, ratio: float = 0.75) -> float:
    """Forwarding reward after ``steps`` raises: 1 - scale * ratio**steps.
    Strictly increasing in steps, supremum 1."""
    return 1.0 - scale * ratio ** steps


def strategy_payoff(forward: bool, congested: bool, forward_reward: float,
                    energy_reward: float) -> float:
    """Payoff table of the forwarding game; forwarding into a congested
    channel is penalised by one unit."""
    if not forward:
        return energy_reward
    return forward_reward - 1.0 if congested else forward_reward


def energy_reward(battery: Battery) -> float:
    """Reward for dropping: the fraction of initial energy already consumed."""
    return battery.consumed_j / battery.capacity_j


# ---------------------------------------------------------------------------
# decisions


def bgb_decide(node, pkt: DataPacket) -> Decision:
    """Every eligible node forwards, at default power."""
    return Decision(True)


def reach_power(node, k: int, params: PolicyParams, radio) -> float:
    """Power that lands on the k-th nearest known neighbor just above
    sensitivity, capped at the default power. Neighbor distances come from the
    link costs learned during setup."""
    losses = sorted(node.neighbor_pathloss.values())
    pl = losses[min(k, len(losses)) - 1]
    power = radio.sensitivity_dbm + params.power_margin_db + pl
    return power if power < radio.tx_power_dbm else radio.tx_power_dbm


def grab_decide(node, pkt: DataPacket, params: PolicyParams, radio) -> Decision:
    """Credit rule: with slack = budget - (consumed + own cost), broadcast wide
    (k nearest neighbors) while slack >= 0, otherwise narrow (nearest only).
    ``pkt.consumed`` must already include the hop that delivered the packet.
    A node with an empty neighbor table has nowhere to aim and drops."""
    if not node.neighbor_pathloss:
        return Decision(False)
    slack = pkt.budget - (pkt.consumed + node.cost.q)
    wide = slack >= 0.0
    k = params.wide_neighbor_count if wide else 1
    return Decision(True, tx_power_dbm=reach_power(node, k, params, radio), wide=wide)


def pgrab_decide(node, rng) -> Decision:
    """Bernoulli forward with p = interference avoidance * life duration."""
    p = node.p_ia * remaining_life_probability(node.battery)
    return Decision(bool(rng.random() < p), p_fw=p)


def _utility_game(node, c_n: int, limit: int, rng) -> Decision:
    """The forwarding game both utility policies play: a busy channel drops
    outright, otherwise forward iff the ladder reward beats the energy
    reward, flipping a fair coin on a tie."""
    a = node.ugrab.forward_reward
    r = energy_reward(node.battery)
    if c_n >= limit or a < r:
        fwd = False
    elif a > r:
        fwd = True
    else:
        fwd = bool(rng.random() < 0.5)
    return Decision(fwd, c_n=c_n, forward_reward=a, energy_reward=r)


def ugrab_decide(node, c_n: int, limit: int, rng) -> Decision:
    """The utility game with the single-channel shortcut (``_utility_game``)."""
    return _utility_game(node, c_n, limit, rng)


def upgrab_decide(node, c_n: int, limit: int, params: PolicyParams, rng) -> Decision:
    """Utility game whose forward action fires with the interference-avoidance
    probability under a per-node spreading factor.

    The spreading factor moves one step per decision: down for nodes below the
    interval center, up for nodes above it. The prescribed moves coincide for
    busy and free channels, so the probability drifts monotonically toward its
    per-node maximum (1 below the center, 1/2 above); congestion response
    therefore acts through the busy-channel drop, not through the spreading
    factor. Tests pin the realised drift direction.
    """
    st = node.ugrab
    delta = node.delta
    center = bounds_center(node.delta_bounds)
    step = -1.0 if delta < center else (1.0 if delta > center else 0.0)
    st.spread = min(params.spread_factor_max, max(1.0, st.spread + step))

    game = _utility_game(node, c_n, limit, rng)
    if not game.forward:
        return game
    p_ia = erfc_forward_probability(delta, st.spread, node.delta_bounds)
    return replace(game, forward=bool(rng.random() < p_ia), p_fw=p_ia)


# ---------------------------------------------------------------------------
# stall detection (utility policies)


def note_overheard(node, pkt_cost: float, params: PolicyParams) -> None:
    """EMA bookkeeping of decoded data traffic relative to the node's cost."""
    st = node.ugrab
    w = params.ema_weight
    if pkt_cost > node.cost.q:
        st.n_high = (1.0 - w) * st.n_high + w
        st.n_low = (1.0 - w) * st.n_low
    elif pkt_cost < node.cost.q:
        st.n_low = (1.0 - w) * st.n_low + w
        st.n_high = (1.0 - w) * st.n_high


def stall_check(node, params: PolicyParams) -> bool:
    """Raise the reward ladder when upstream packets keep arriving but nothing
    is heard moving on below: the cheaper neighbors have stopped forwarding,
    so this node must lift its own energy threshold and resume."""
    st = node.ugrab
    if st.n_high > params.stall_high and st.n_low < params.stall_low:
        st.steps += 1
        return True
    return False


# ---------------------------------------------------------------------------
# energy


def consume_energy(node, n_bytes: int, tx_power_dbm: float,
                   params: PolicyParams, radio) -> float:
    """Debit the battery for one transmission and return the joules drawn.
    The draw scales with radiated power, and the broadcast count goes up.
    Receptions debit ``rx_joules`` through ``Battery.drain``."""
    seconds = n_bytes * 8 / radio.bitrate_bps
    draw_w = params.tx_draw_w * 10.0 ** (tx_power_dbm / 10.0)
    node.battery.n_forwarded += 1
    return node.battery.drain(draw_w * seconds)


def rx_joules(n_bytes: int, params: PolicyParams, radio) -> float:
    """Joules one reception of ``n_bytes`` asks of the battery: a flat draw
    over the airtime, the same for every receiver of a transmission."""
    seconds = n_bytes * 8 / radio.bitrate_bps
    return params.rx_draw_w * seconds


# ---------------------------------------------------------------------------
# the protocol table
#
# The entries below call the functions above through this module's globals at
# call time, so a wrapper installed on ``policies.<name>`` sees every call.


def _default_injection(net, src) -> tuple[float, float]:
    """A source's (budget, power): no credit limit, default power."""
    return math.inf, net.radio.tx_power_dbm


def _credit_injection(net, src) -> tuple[float, float]:
    """The credit budget, (1 + credit_factor) times the source cost, and a
    wide broadcast's power; a source without known neighbors sends at
    default power."""
    pol = net.policies
    power = (reach_power(src, pol.wide_neighbor_count, pol, net.radio)
             if src.neighbor_pathloss else net.radio.tx_power_dbm)
    return src.cost.q * (1.0 + pol.credit_factor), power


def _bgb(net, node, pkt: DataPacket) -> Decision:
    return bgb_decide(node, pkt)


def _grab(net, node, pkt: DataPacket) -> Decision:
    return grab_decide(node, pkt, net.policies, net.radio)


def _pgrab(net, node, pkt: DataPacket) -> Decision:
    if node.p_ia is None:
        node.p_ia = erfc_forward_probability(node.delta, net.policies.spread_factor,
                                             node.delta_bounds)
    return pgrab_decide(node, net.cursor(node.id, "policy"))


def _ugrab(net, node, pkt: DataPacket) -> Decision:
    return ugrab_decide(node, mac.sense(net, node), net.mac.congestion_limit,
                        net.cursor(node.id, "policy"))


def _upgrab(net, node, pkt: DataPacket) -> Decision:
    return upgrab_decide(node, mac.sense(net, node), net.mac.congestion_limit,
                         net.policies, net.cursor(node.id, "policy"))


@dataclass(frozen=True)
class Protocol:
    """What one strategy adds to the shared gradient broadcast."""
    # neighbor-count stage, discrepancy bounds, and each deciding node's delta
    counts: bool
    # reward ladder state on every sensor and its stall timer
    ladder: bool
    # (net, source) -> (credit budget, transmit power) of an injected message
    inject: Callable
    # (net, eligible node, packet with the arriving hop spent) -> Decision
    decide: Callable


PROTOCOLS = {
    "BGB": Protocol(counts=False, ladder=False, inject=_default_injection, decide=_bgb),
    "GRAB": Protocol(counts=False, ladder=False, inject=_credit_injection, decide=_grab),
    "P-GRAB": Protocol(counts=True, ladder=False, inject=_default_injection, decide=_pgrab),
    "U-GRAB": Protocol(counts=False, ladder=True, inject=_default_injection, decide=_ugrab),
    "UP-GRAB": Protocol(counts=True, ladder=True, inject=_default_injection, decide=_upgrab),
}
