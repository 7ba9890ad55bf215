"""Basic CSMA: uniform random backoff, no carrier re-check, no acknowledgement.

Sensing happens once, at the moment a forwarding decision is made; the backoff
that follows never re-senses. A node that is already transmitting still blocks
its own receptions through self-interference in the radio model, so no extra
half-duplex state is kept here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import EventKind


@dataclass
class MacParams:
    backoff_min_ms: float = 0.0
    backoff_max_ms: float = 120.0
    congestion_limit: int = 1   # channel counts as congested at this many accesses
    # energy detection hears below the decode floor; sensing counts anything
    # received above sensitivity minus this offset
    carrier_sense_offset_db: float = 15.0


def sense(net, node) -> int:
    """Sensed congestion: distinct foreign transmissions currently received
    above sensitivity minus the carrier-sense offset (a local estimate of
    concurrent channel accesses), read from the link table's pathloss."""
    floor = net.radio.sensitivity_dbm - net.mac.carrier_sense_offset_db
    pathloss = net.links.pathloss_db
    busy = 0
    for tr in net.active.values():
        if tr.sender != node.id and tr.tx_power_dbm - pathloss[node.id, tr.sender] > floor:
            busy += 1
    return busy


def transmit(net, node, packet, tx_power_dbm: float | None = None) -> bool:
    """Queue a broadcast after a uniform random backoff draw from the node's
    mac stream. Dead nodes drop the packet silently (tallied as suppressed)."""
    if node.battery.dead:
        net.counters["suppressed_tx"] += 1
        return False
    power = net.radio.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
    lo, hi = net.mac.backoff_min_ms, net.mac.backoff_max_ms
    u = net.cursor(node.id, "mac").uniform(lo, hi) if hi > lo else lo
    net.sim.schedule(net.sim.clock + u, EventKind.TX_START, node.id, (packet, power))
    return True
