"""Golden bytes: fixed seeds must keep producing the same output bytes.

Each cell runs all five protocols on the compact arena and hashes the
``run_row`` lines, and apart from them the run counters that ``runs.csv``
leaves out (``adv_decode_failures`` among them); the low-energy cell drains
nodes mid-run, so the liveness filter, the battery clamp and the energy
ledger's order are in play. Two U-GRAB ``dump-trace`` runs, one ending
before the first stall sweep and one sweeping four times, pin the event and
decision traces byte for byte, each file by its own hash; ``dump-topology``
pins the cost field and the discrepancy column, and one sweep pins
``aggregate.csv``. The run, ledger and decision-trace hashes were taken from
the simulator before the per-transmission reception fan-out, the topology
hashes before the protocol table, the aggregate hash before the metric
table, the counter hashes before the decode over cached hearer arrays, the
second decision-trace hash before the one-event stall sweep; a change that
moves any of them changes the simulator's results. The event-trace hashes
were taken after the sweep replaced a stall timer per sensor, which changed
only the removed timers' rows and the ``seq`` column.
"""

import csv
import functools
import hashlib
import io

import pytest

from gradcast import cli, policies
from gradcast.config import default_config
from gradcast.scenario import build_network, play, sweep
from gradcast.metrics import run_row, write_aggregate_csv
from tests.conftest import small_cfg
from tests.test_cli import FAST

PROTOCOLS = ("BGB", "GRAB", "P-GRAB", "U-GRAB", "UP-GRAB")

# the compact arena is always connected; at this size require_connected
# resamples 4 and 15 times for the two replications
SPARSE = dict(area_width_m=360.0, area_height_m=360.0)

CELLS = {
    "pf0": dict(p_f=0.0),
    "pf0-connected": dict(p_f=0.0, require_connected=True, **SPARSE),
    "pf04-rx": dict(p_f=0.4, failure_side="rx"),
    "pf04-tx-connected": dict(p_f=0.4, failure_side="tx", require_connected=True,
                              **SPARSE),
    "low-energy": dict(p_f=0.0, initial_energy_j=0.03),
}

GOLDEN = {
    "pf0":
        "523650d8b28f9e15a17aaa0562e7d8c8ba184cc4d4f411f0c26d6edae1d5b4d8",
    "pf0-connected":
        "e7611d5e3e5e7600b8f2bd11b10c75e9b28dc4dbf3e12508a15181cdc1e0125e",
    "pf04-rx":
        "b8d2d10eae8ebd63b1fb71d21ea5569635e2cd772d278c66aa50e7156435d11f",
    "pf04-tx-connected":
        "a3243a02b5399b2af9a665f378cee35b1503bd0a142ed2278c8195c4e38abd27",
    "low-energy":
        "534875e527dac9f85d5955865b7d9ad9253692373415369a05d9d6e65630ed57",
    "low-energy-ledger":
        "64733a6cbe1263caa05e94960430060181ac0a96ae3a9f57a43e7120838de090",
    "dump-trace":
        "b93ffa4152556d1425511b994f19da7c0b938665a3f7f6f1c5fc29fab7427940",
    "dump-trace-decisions":
        "d3f95b1b0e7ceb807ae7124119c3a4606d86c6e9f9088d98c110d4d0cd90ab03",
    "dump-trace-stall":
        "ce9d678030e6c1a69d4175fb1a815c10abcadd2b7c198e14fa9cdb34688acdf4",
    "dump-trace-stall-decisions":
        "62edb20c0092cf5e7a3dfafec3299cf305e2052e0a9cab5db0204b34cfe1d2f0",
    "aggregate":
        "fe6af73d8071420674892c94f271022bbc334f9764e92ffa27cfb68f12275934",
}

# the run counters that runs.csv leaves out, per cell
COUNTERS = ("forwarded_total", "adv_total", "ncnt_total", "suppressed_tx",
            "relay_failures", "adv_decode_failures")
COUNTERS_GOLDEN = {
    "pf0":
        "63210f1f81677cb6987813d2cab2e7c6ea529c81ba92c7a04355f026d563e4c0",
    "pf0-connected":
        "8ae650f8cf409873e6e0473536605160b2d33820a6224da96bc9280820dd3a0e",
    "pf04-rx":
        "f51dce9db8e288097b0b40eb2214777723f98ba1933bbd1dbfd2c5ebc62dabef",
    "pf04-tx-connected":
        "26055236b37c3f2a316d79d23c2e15fe9b2c595bd039456f4a299f8abfa22c0c",
    "low-energy":
        "da302b1da3d1b8566e7adb96cedf18711776da9b7f7170894fd66676e1e2c8ef",
}

# event_count=0 with event_spread=1 leaves some runs of a cell without a
# message or a delivery, and with event_spread=0 every run, so the aggregate
# rows hold means over fewer runs than the cell has and empty fields
AGGREGATE_AXES = {
    "scenario.protocol": list(PROTOCOLS),
    "scenario.p_f": ["0", "0.8"],
    "scenario.event_count": ["0", "30"],
    "scenario.event_spread": ["0", "1"],
}

# P-GRAB and UP-GRAB run the same set-up phase, so they share one field
TOPOLOGY_GOLDEN = {
    "BGB": "b492027c18baade12e958060b92cc7992b30716250267ab17f9bc3b573791f01",
    "P-GRAB": "717c945bd23a3cee0f5e0ffc9ed37a03a7f43c8f25f160c1fbf9fd75baaf5942",
    "UP-GRAB": "717c945bd23a3cee0f5e0ffc9ed37a03a7f43c8f25f160c1fbf9fd75baaf5942",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cell_cfg(protocol: str, overrides: dict):
    scenario = {k: v for k, v in overrides.items() if k != "initial_energy_j"}
    cfg = small_cfg(protocol=protocol, **scenario)
    if "initial_energy_j" in overrides:
        cfg.policies.initial_energy_j = overrides["initial_energy_j"]
    return cfg


@functools.cache
def _played(cell: str):
    runs, _ = play([(_cell_cfg(p, CELLS[cell]), "") for p in PROTOCOLS])
    return runs


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_run_rows_match_golden_bytes(cell):
    runs = _played(cell)
    if cell == "low-energy":
        # the cell must really kill nodes, or it pins nothing about liveness
        assert all(m.dead_nodes > 0 for m in runs if m.protocol == "BGB")
    assert _sha("\n".join(",".join(run_row(m)) for m in runs)) == GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_run_counters_match_golden(cell):
    lines = [" ".join(str(getattr(m, name)) for name in COUNTERS) for m in _played(cell)]
    assert _sha("\n".join(lines)) == COUNTERS_GOLDEN[cell]


def test_aggregate_csv_matches_golden_bytes(tmp_path):
    _, cells = sweep(small_cfg(), AGGREGATE_AXES)
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv(path, cells)
    blob = path.read_bytes()
    assert b",,0," in blob   # a metric no run of a cell has
    assert hashlib.sha256(blob).hexdigest() == GOLDEN["aggregate"]


def test_energy_ledger_order_matches_golden_bytes():
    """Every debit in order, (node, joules), over one low-energy replication
    per protocol: receptions must be charged in the same sequence."""
    lines = []
    for p in PROTOCOLS:
        cfg = _cell_cfg(p, CELLS["low-energy"])
        cfg.metrics.energy_audit = True
        sim, net = build_network(cfg, 0)
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)
        net.release()
        net.finish()   # re-checks the ledger against the batteries
        lines += [f"{node} {joules!r}" for node, joules in net.energy_log]
    assert _sha("\n".join(lines)) == GOLDEN["low-energy-ledger"]


def _dump_trace(tmp_path, golden: str, *overrides: str) -> tuple[bytes, bytes]:
    """One U-GRAB ``dump-trace`` on the FAST arena: its trace.csv and
    decisions.csv bytes, each checked against its own golden hash."""
    out = tmp_path / "trace"
    sets = [arg for o in ("protocol=U-GRAB",) + overrides for arg in ("--set", o)]
    assert cli.main(["dump-trace", "--out", str(out)] + sets + FAST) == 0
    trace, decisions = (out / "trace.csv").read_bytes(), (out / "decisions.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == GOLDEN[golden]
    assert hashlib.sha256(decisions).hexdigest() == GOLDEN[golden + "-decisions"]
    return trace, decisions


def test_dump_trace_matches_golden_bytes(tmp_path, capsys):
    # the first stall sweep would fall at 13,500 ms, after the 12,000 ms end
    trace, _ = _dump_trace(tmp_path, "dump-trace")
    assert b",stall" not in trace


def test_dump_trace_with_stall_sweeps_matches_golden_bytes(tmp_path, capsys):
    """A 1,600 ms stall period sweeps the network at 7,100, 8,700, 10,300
    and 11,900 ms, one event each, and raises some ladders."""
    trace, decisions = _dump_trace(tmp_path, "dump-trace-stall",
                                   "policies.stall_check_factor=2")
    stalls = [row for row in csv.reader(io.StringIO(trace.decode())) if row[4] == "stall"]
    assert [(row[0], row[3]) for row in stalls] == [
        (f"{t}.000000", "-1") for t in (7100, 8700, 10300, 11900)]
    pol = default_config().policies
    floor = policies.ladder_reward(0, pol.ladder_scale, pol.ladder_ratio)
    alphas = [row["alpha_n"] for row in csv.DictReader(io.StringIO(decisions.decode()))]
    assert any(a and float(a) > floor for a in alphas)


@pytest.mark.parametrize("protocol", sorted(TOPOLOGY_GOLDEN))
def test_dump_topology_matches_golden_bytes(tmp_path, capsys, protocol):
    out = tmp_path / "topo"
    assert cli.main(["dump-topology", "--out", str(out), "--set", f"protocol={protocol}"]
                    + FAST) == 0
    blob = (out / "topology.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == TOPOLOGY_GOLDEN[protocol]
