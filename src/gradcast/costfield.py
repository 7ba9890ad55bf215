"""Sink-rooted cost field: advertisement flooding, neighbor counts, discrepancy.

Every node ends up with Q = minimum cumulative link cost to the sink, built by
one flood of ADV packets. The link cost is the pathloss in dB, computed at the
receiver from the advertised transmit power and the measured received power.
Each node broadcasts exactly one ADV: a backoff proportional to its cost lets
cheaper nodes speak first, and the one-shot flag suppresses any repeat even if
the cost improves later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Collection

from .engine import EventKind

INFINITE_COST = math.inf


@dataclass
class CostfieldParams:
    beta_adv_ms: float = 5.0          # advertisement backoff per unit of cost
    bounds_mode: str = "computed"     # discrepancy scaling interval: computed | fixed
    fixed_bounds_lo: float = -60.0
    fixed_bounds_hi: float = 40.0
    ncnt_start_ms: float = 4000.0     # neighbor-count stage begins here
    ncnt_window_ms: float = 1000.0     # sends spread uniformly over this window


@dataclass
class CostState:
    q: float = INFINITE_COST
    adv_sent: bool = False
    adv_timer_gen: int = 0            # invalidates superseded backoff timers
    bounds: tuple[float, float] | None = None


@dataclass
class AdvPacket:
    kind: ClassVar[str] = "adv"
    sender: int
    q_p: float                        # sender's cost when the packet hit the air
    tx_power_dbm: float
    bounds: tuple[float, float] | None = None


@dataclass
class NeighborCountPacket:
    kind: ClassVar[str] = "ncnt"
    sender: int
    count: int


def link_cost(tx_power_dbm: float, rx_power_dbm: float) -> float:
    """Energy-related link cost: transmit minus received power, i.e. the
    pathloss in dB. Negative below one metre; cost updates stay monotone.
    ``Network._receive_data`` and ``Network._receive_setup`` inline it;
    keep the three in step."""
    return tx_power_dbm - rx_power_dbm


def handle_adv(net, node, adv: AdvPacket, rx_power_dbm: float) -> None:
    """Cost update rule: adopt q_p + L when it beats the current cost, and
    (re)arm the one-shot advertisement backoff.

    The backoff fires at flood_epoch + beta * cost, anchored to the moment the
    sink started the flood. Anchoring makes nodes speak in cost order (cheaper
    first), so the single advertisement each node sends already carries its
    final cost; a delay measured from the update instant would not.
    """
    st = node.cost
    if adv.bounds is not None and st.bounds is None:
        st.bounds = adv.bounds
    cost = adv.q_p + link_cost(adv.tx_power_dbm, rx_power_dbm)
    if cost < st.q:
        st.q = cost
        if not node.is_sink and not st.adv_sent:
            st.adv_timer_gen += 1
            fire_at = max(net.sim.clock, net.flood_epoch + net.costfield.beta_adv_ms * cost)
            net.sim.schedule(fire_at, EventKind.TIMER, node.id,
                             ("adv", st.adv_timer_gen))


def handle_ncnt(net, node, pkt: NeighborCountPacket) -> None:
    node.neighbor_counts[pkt.sender] = pkt.count


def neighborhood_discrepancy(own_count: int, received_counts: Collection[int]) -> float:
    """Average surplus of a node's neighbor count over its neighbors' counts.

    Positive means the node sits in a relatively denser spot than its
    neighbors; zero means uniform. Counts lost to collisions contribute zero
    to the sum while the denominator keeps the full neighbor count, an
    underestimate of the magnitude that is accepted. A node with no neighbors
    hears nothing and gets discrepancy 0. The integer sum of the surpluses
    is exact, so it is taken as own * len - sum.
    """
    if own_count <= 0:
        return 0.0
    return (own_count * len(received_counts) - sum(received_counts)) / own_count


def bounds_center(bounds: tuple[float, float]) -> float:
    return (bounds[0] + bounds[1]) / 2.0
