"""The fast paths against their scalar references, on real runs.

The property tests feed the fast paths synthetic inputs. Here real cells play
through one ``play``, so shared topologies and draw tapes, cached receptions
and their SINR limits, reduced-power rows and resumed setups are all in use,
and every call of the batched decode, the carrier-sense count and the source
search is compared bit for bit with its reference. A wrong cache key, which
no synthetic input reaches, shows up as a mismatch here.
"""

from collections import Counter

from gradcast import mac, phys, scenario
from gradcast.metrics import run_row
from gradcast.scenario import play
from tests.test_golden import CELLS, GOLDEN, PROTOCOLS, _cell_cfg, _sha
from tests.test_mac import geometric_sense
from tests.test_scenario import _loop_nearest_alive_sensor

# every way decode_batch can take through a call
BRANCHES = ("no interferer", "clamped group of 1", "clamped group of 2",
            "clamped group of 3+", "tied later marks", "reduced-power reception",
            "reduced-power interferer")


def _branches(wanted, default_power):
    """The branches a decode of ``wanted`` takes, read off its interferers
    as ``phys.decode`` sees them."""
    ws, we = wanted.start, wanted.end
    group, instants, reduced = 0, [], False
    for other in wanted.interferers:
        if min(other.end, we) <= max(other.start, ws):
            continue
        if other.start <= ws:
            group += 1
        else:
            instants.append(other.start)
        if other.end < we:
            instants.append(other.end)
        reduced |= other.tx_power_dbm != default_power
    taken = []
    if not group and not instants:
        taken.append("no interferer")
    if group:
        taken.append(f"clamped group of {group}" if group < 3 else "clamped group of 3+")
    if len(set(instants)) < len(instants):
        taken.append("tied later marks")
    if wanted.tx_power_dbm != default_power:
        taken.append("reduced-power reception")
    if reduced:
        taken.append("reduced-power interferer")
    return taken


def _play_checked(monkeypatch, cells):
    """Play ``cells`` through one ``play`` with every call of the fast paths
    checked against its reference; returns the runs and the call counts,
    decode branches included."""
    calls = Counter()
    playing = []   # the network whose replication is playing, and its positions

    def build(net, *args, build=scenario.Network.build, **kwargs):
        build(net, *args, **kwargs)
        playing[:] = [net, [n.pos for n in net.nodes]]

    def resume(net, snap, traffic, resume=scenario.Network.resume):
        calls["resume"] += 1
        resume(net, snap, traffic)

    def decode_batch(wanted, links, decode_batch=phys.decode_batch):
        decoded = decode_batch(wanted, links)
        net, positions = playing
        assert wanted.reception is links.receptions[wanted.sender, wanted.tx_power_dbm]
        # every node but the sender, not only the cached hearers
        assert decoded == [n.id for n in net.nodes if n.id != wanted.sender and phys.decode(
            n.pos, wanted, wanted.interferers, net.radio, positions)]
        calls["decode_batch"] += 1
        calls.update(_branches(wanted, net.radio.tx_power_dbm))
        return decoded

    def sense(net, node, sense=mac.sense):
        busy = sense(net, node)
        assert busy == geometric_sense(net, node)
        calls["sense"] += 1
        return busy

    def nearest(net, pos, nearest=scenario.Network._nearest_alive_sensor):
        src = nearest(net, pos)
        assert src is _loop_nearest_alive_sensor(net, pos)
        calls["nearest"] += 1
        return src

    monkeypatch.setattr(scenario.Network, "build", build)
    monkeypatch.setattr(scenario.Network, "resume", resume)
    monkeypatch.setattr(phys, "decode_batch", decode_batch)
    monkeypatch.setattr(mac, "sense", sense)
    monkeypatch.setattr(scenario.Network, "_nearest_alive_sensor", nearest)
    runs, _ = play(cells)
    return runs, calls


def test_fast_paths_equal_their_references_on_real_runs(monkeypatch):
    runs, calls = _play_checked(monkeypatch, [(_cell_cfg(p, CELLS[cell]), "")
                                              for cell in CELLS for p in PROTOCOLS])
    assert calls["decode_batch"] and calls["sense"] and calls["nearest"]
    assert calls["resume"] > 0
    # the cells played together give the rows each gives on its own
    per_cell = len(runs) // len(CELLS)
    for k, cell in enumerate(CELLS):
        rows = runs[k * per_cell:(k + 1) * per_cell]
        assert _sha("\n".join(",".join(run_row(m)) for m in rows)) == GOLDEN[cell]


def test_zero_backoff_reaches_every_decode_branch(monkeypatch):
    """With no backoff, the receivers of one packet forward at one instant,
    so marks after a wanted packet's start tie; every branch of the decode
    is taken and checked."""
    cells = []
    for protocol in ("GRAB", "P-GRAB"):   # GRAB sends at reduced power
        cfg = _cell_cfg(protocol, CELLS["pf0"])
        cfg.mac.backoff_min_ms = cfg.mac.backoff_max_ms = 0.0
        cells.append((cfg, ""))
    _, calls = _play_checked(monkeypatch, cells)
    assert [branch for branch in BRANCHES if not calls[branch]] == []
