"""The setup phase that the cells of one topology group share.

A replication's setup phase (the advertisement flood, then for ``counts``
protocols the neighbor-count stage) reads no data-phase setting. The cells of
a group that agree on everything it does read, and on the data start where it
is cut, their setup key, play it once: the first snapshots its state just
before the data start, and the others start their data phase from that
snapshot on the same tapes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .policies import PROTOCOLS

# Config fields that only the data phase reads. The protocol enters the
# setup key as its ``counts`` flag; every other field, a new one included,
# enters it as it is. The data start does too: the snapshot is cut there.
DATA_ONLY_FIELDS = frozenset({
    "scenario.protocol", "scenario.p_f", "scenario.failure_side",
    # traffic
    "scenario.event_count", "scenario.event_spread", "scenario.data_window_ms",
    # credit, spread, ladder and stall policies
    "policies.credit_factor", "policies.wide_neighbor_count", "policies.power_margin_db",
    "policies.spread_factor", "policies.spread_factor_max",
    "policies.ladder_scale", "policies.ladder_ratio",
    "policies.ema_weight", "policies.stall_high", "policies.stall_low",
    "policies.stall_check_factor",
    "metrics.include_sink",
})


def setup_key(cfg) -> tuple:
    """Everything the setup phase may read: the protocol's ``counts`` flag
    and each config field outside ``DATA_ONLY_FIELDS``."""
    key = [PROTOCOLS[cfg.scenario.protocol].counts]
    for section in fields(cfg):
        values = getattr(cfg, section.name)
        key += [getattr(values, f.name) for f in fields(values)
                if f"{section.name}.{f.name}" not in DATA_ONLY_FIELDS]
    return tuple(key)


@dataclass
class SetupSnapshot:
    """A replication's state after its setup phase, taken just before the
    data start once no setup event is left to fire. It holds plain values
    only, no network, simulator or tape, so it keeps no played replication
    alive; its read positions are valid only on the tape dict it was taken
    on. The flood's epoch is left out: with no setup event left, no
    advertisement is received after it. So are event numbers: a resumed
    cell numbers its events afresh (see ``Network.resume``)."""
    clock: float              # the last setup event's time
    reads: dict               # purpose -> each node id's read position on its tape
    nodes: list[tuple]        # per node, as ``Network.snapshot`` lists it
    counters: dict
    energy_log: list | None


class SharedSetup:
    """The setup phase of the cells of one setup key in a group. ``cells``
    of them are still to play; the first to play the setup leaves its
    snapshot here when others are to come, and the last drops it."""
    __slots__ = ("cells", "snapshot")

    def __init__(self, cells: int):
        self.cells = cells
        self.snapshot: SetupSnapshot | None = None

    def claim(self) -> SetupSnapshot | None:
        """Count one cell as playing; return the snapshot it starts from,
        if an earlier cell left one."""
        self.cells -= 1
        snap = self.snapshot
        if not self.cells:
            self.snapshot = None
        return snap

    @property
    def wanted(self) -> bool:
        """Whether the cell that just claimed should snapshot its setup: no
        snapshot is kept, so the cell plays its own, and others are to come."""
        return self.cells > 0 and self.snapshot is None
