"""Per-run measurement and cross-run aggregation.

Per-run CSV columns:
    run,protocol,p_f,param,success_ratio,avg_delay_ms,forwarded,adv,energy_pct,dead_nodes

``adv`` counts every setup broadcast (cost advertisements plus neighbor-count
packets, sink included). Aggregates carry the same columns with _mean/_std
suffixes plus run counts, since runs without deliveries contribute no delay.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    run_index: int
    protocol: str
    p_f: float
    param: str
    messages_sent: int
    messages_delivered: int
    min_delay_ms: dict = field(default_factory=dict)   # msg id -> first-arrival delay
    forwarded_total: int = 0      # every data broadcast, injections included
    adv_total: int = 0            # cost advertisements, sink's included
    ncnt_total: int = 0
    suppressed_tx: int = 0
    relay_failures: int = 0       # receptions lost to the failure lottery
    adv_decode_failures: int = 0  # advertisement receptions lost to collisions
    energy_consumed_pct: float = 0.0
    dead_nodes: int = 0

    @property
    def success_ratio(self) -> float | None:
        if self.messages_sent == 0:
            return None
        return self.messages_delivered / self.messages_sent

    @property
    def avg_delay_ms(self) -> float | None:
        if not self.min_delay_ms:
            return None
        return sum(self.min_delay_ms.values()) / len(self.min_delay_ms)


class RunRecorder:
    """Collects deliveries and counters while a replication runs."""

    def __init__(self, run_index: int, protocol: str, p_f: float, param: str = ""):
        self.run_index = run_index
        self.protocol = protocol
        self.p_f = p_f
        self.param = param
        self.sent: dict = {}        # msg id -> injection time
        self.delivered: dict = {}   # msg id -> min delay
        self.counters = {   # keyed by the RunMetrics fields they become
            "forwarded_total": 0, "adv_total": 0, "ncnt_total": 0, "suppressed_tx": 0,
            "relay_failures": 0, "adv_decode_failures": 0,
        }

    def on_sent(self, msg_id, t: float) -> None:
        self.sent[msg_id] = t

    def on_delivery(self, msg_id, t: float) -> None:
        delay = t - self.sent[msg_id]
        prev = self.delivered.get(msg_id)
        if prev is None:
            self.delivered[msg_id] = delay
        else:
            # the first arrival is minimal by clock monotonicity
            assert delay >= prev

    def finalize(self, nodes, include_sink: bool, energy_log=None) -> RunMetrics:
        counted = [n for n in nodes if include_sink or not n.is_sink]
        if energy_log is not None:
            _audit_energy(nodes, energy_log)
        if counted:
            energy_pct = sum(n.battery.consumed_j / n.battery.capacity_j
                             for n in counted) / len(counted) * 100.0
        else:
            energy_pct = 0.0
        return RunMetrics(
            run_index=self.run_index,
            protocol=self.protocol,
            p_f=self.p_f,
            param=self.param,
            messages_sent=len(self.sent),
            messages_delivered=len(self.delivered),
            min_delay_ms=dict(self.delivered),
            **self.counters,
            energy_consumed_pct=energy_pct,
            dead_nodes=sum(1 for n in counted if n.battery.dead),
        )


def _audit_energy(nodes, energy_log) -> None:
    """Replay the per-debit log and demand bitwise agreement with the
    accumulated per-node totals (the ledger must close exactly)."""
    replay = {n.id: 0.0 for n in nodes}
    for node_id, joules in energy_log:
        replay[node_id] += joules
    for n in nodes:
        if replay[n.id] != n.battery.consumed_j:
            raise AssertionError(
                f"energy ledger mismatch at node {n.id}: "
                f"{replay[n.id]!r} != {n.battery.consumed_j!r}")


# ---------------------------------------------------------------------------
# aggregation

# Each metric's column name and how a run yields it, in column order: run_row
# formats the value, aggregate averages it as a float over the runs that
# have it (not None).
METRICS = (
    ("success_ratio", lambda m: m.success_ratio),
    ("avg_delay_ms", lambda m: m.avg_delay_ms),
    ("forwarded", lambda m: m.forwarded_total),
    ("adv", lambda m: m.adv_total + m.ncnt_total),
    ("energy_pct", lambda m: m.energy_consumed_pct),
    ("dead_nodes", lambda m: m.dead_nodes),
)

AGG_METRICS = tuple(name for name, _ in METRICS)


@dataclass
class CellAggregate:
    protocol: str
    p_f: float
    param: str
    n_runs: int
    stats: dict = field(default_factory=dict)   # metric -> (mean, std, n_present)


def aggregate(runs: list[RunMetrics]) -> CellAggregate:
    """Mean and sample (n-1) standard deviation per metric; runs where a
    metric is absent are excluded from that metric with the count kept."""
    if not runs:
        raise ValueError("aggregate() needs at least one run")
    head = runs[0]
    stats: dict = {}
    for name, get in METRICS:
        values = [float(v) for m in runs if (v := get(m)) is not None]
        if not values:
            stats[name] = (None, None, 0)
        elif len(values) == 1:
            stats[name] = (values[0], 0.0, 1)
        else:
            stats[name] = (statistics.fmean(values), statistics.stdev(values), len(values))
    return CellAggregate(head.protocol, head.p_f, head.param, len(runs), stats)


# ---------------------------------------------------------------------------
# CSV input/output

RUN_COLUMNS = ["run", "protocol", "p_f", "param", *AGG_METRICS]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def run_row(m: RunMetrics) -> list[str]:
    return [str(m.run_index), m.protocol, _fmt(m.p_f), m.param,
            *(_fmt(get(m)) for _, get in METRICS)]


def write_runs_csv(path, runs: list[RunMetrics]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RUN_COLUMNS)
        for m in runs:
            w.writerow(run_row(m))


def aggregate_columns() -> list[str]:
    cols = ["protocol", "p_f", "param", "n_runs"]
    for name in AGG_METRICS:
        cols += [f"{name}_mean", f"{name}_std", f"{name}_n"]
    return cols


def aggregate_row(cell: CellAggregate) -> list[str]:
    row = [cell.protocol, _fmt(cell.p_f), cell.param, str(cell.n_runs)]
    for name in AGG_METRICS:
        mean, std, n = cell.stats[name]
        row += [_fmt(mean), _fmt(std), str(n)]
    return row


def write_aggregate_csv(path, cells: list[CellAggregate]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(aggregate_columns())
        for cell in cells:
            w.writerow(aggregate_row(cell))


def read_aggregate_csv(path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
