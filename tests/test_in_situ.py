"""The fast paths against their scalar references, on real runs.

The property tests feed the fast paths synthetic inputs. Here the five
golden cells play through one ``play``, so shared topologies and draw tapes,
cached hearer arrays, reduced-power rows and resumed setups are all in use,
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


def test_fast_paths_equal_their_references_on_real_runs(monkeypatch):
    calls = Counter()
    playing = []   # the network whose replication is playing

    def build(net, *args, build=scenario.Network.build, **kwargs):
        playing[:] = [net]
        build(net, *args, **kwargs)

    def resume(net, snap, traffic, resume=scenario.Network.resume):
        calls["resume"] += 1
        resume(net, snap, traffic)

    def decode_batch(wanted, hearers, params, decode_batch=phys.decode_batch):
        decoded = decode_batch(wanted, hearers, params)
        nodes = playing[0].nodes
        # every node but the sender, not only the cached hearers
        assert decoded == [n.id for n in nodes if n.id != wanted.sender and phys.decode(
            n.pos, wanted, wanted.interferers, params)]
        calls["decode_batch"] += 1
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
    runs, _ = play([(_cell_cfg(p, CELLS[cell]), "") for cell in CELLS for p in PROTOCOLS])
    assert calls["decode_batch"] and calls["sense"] and calls["nearest"]
    assert calls["resume"] > 0
    # the cells played together give the rows each gives on its own
    per_cell = len(runs) // len(CELLS)
    for k, cell in enumerate(CELLS):
        rows = runs[k * per_cell:(k + 1) * per_cell]
        assert _sha("\n".join(",".join(run_row(m)) for m in rows)) == GOLDEN[cell]
