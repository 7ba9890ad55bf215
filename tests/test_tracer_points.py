"""Every name the benchmark's span tracer wraps still exists, and still sees
every call of its layer.

``perfbench/tracing.install`` replaces module and class attributes of the
simulator by name, so deleting or renaming one of them breaks every traced
benchmark run, and inlining one leaves its span counting fewer calls than
the layer makes. Installing it on freshly imported modules, in a process of
its own because the patching is process-wide, catches both here.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from gradcast.policies import PROTOCOLS

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing
from gradcast import config, costfield, engine, mac, metrics, phys, policies, scenario
modules = dict(config=config, costfield=costfield, engine=engine, mac=mac,
               metrics=metrics, phys=phys, policies=policies, scenario=scenario)
rec = tracing.SpanRecorder()
tracing.install(rec, modules)
"""

# One small cell per protocol with batteries that run dry, played under the
# tracer: its setup phase to the data start, then to the end. Prints, per
# protocol and phase, what the phase added to the span calls, the run
# counters, the events popped, the energy ledger's entries (the sink's
# apart) and the decision trace's rows, eligible or not; and the events
# still queued at the end.
PLAY = INSTALL + """
import json, math

def calls():
    return {{name: s["calls"] for name, s in rec.summary().items()}}

def less(now, before):
    return {{k: less(v, before.get(k, {{}})) if isinstance(v, dict) else v - before.get(k, 0)
            for k, v in now.items()}}

out = {{}}
for protocol in policies.PROTOCOLS:
    cfg = config.default_config()
    sc = cfg.scenario
    sc.node_count, sc.area_width_m, sc.area_height_m = 60, 150.0, 150.0
    sc.protocol, sc.p_f = protocol, 0.4
    cfg.policies.initial_energy_j = 0.03
    cfg.metrics.energy_audit = True
    config.validate(cfg)
    popped, rows = [0], []
    before = dict(calls=calls())
    sim, net = scenario.build_network(
        cfg, 0, event_trace=lambda ev: popped.__setitem__(0, popped[0] + 1),
        decision_trace=lambda row: rows.append(row[3]))
    phases = []
    for until in (math.nextafter(sc.data_start_ms, -math.inf), sc.max_sim_time_ms):
        sim.run_until_idle(until)
        now = dict(calls=calls(), counters=dict(net.counters), popped=popped[0],
                   ledger=len(net.energy_log), rows=len(rows), eligible=sum(rows),
                   sink=sum(i == net.sink_id for i, _ in net.energy_log))
        phases.append(less(now, before))
        before = now
    out[protocol] = dict(phases=phases, pending=sim.pending())
print(json.dumps(out))
"""


def _run(script: str) -> subprocess.CompletedProcess:
    script = script.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)


def test_tracer_installs_on_fresh_modules():
    done = _run(INSTALL)
    assert done.returncode == 0, done.stderr


def test_traced_layers_see_every_call():
    """The traced calls of each layer add up to what the run itself counts:
    events popped, transmissions, decisions and energy-ledger entries. A
    layer inlined into its caller, or no longer called by its traced name,
    counts fewer calls than the run makes."""
    done = _run(PLAY)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    for protocol, result in out.items():
        proto = PROTOCOLS[protocol]
        assert result["pending"] == 0, protocol   # every event scheduled pops
        setup, data = result["phases"]
        for phase, played in (("setup", setup), ("data", data)):
            c, n = Counter(played["calls"]), played["counters"]
            where = f"{protocol} {phase}"
            handled = sum(v for name, v in c.items() if name.startswith("scenario.handle."))
            sent = n["forwarded_total"] + n["adv_total"] + n["ncnt_total"]
            assert handled == played["popped"] > 0, where
            assert c["policies.consume_energy"] == sent > 0, where
            # a dead sender is suppressed in mac.transmit or at its TX_START
            assert c["mac.transmit"] == sent + n["suppressed_tx"], where
            assert c["policies.decide"] == played["eligible"], where
            assert c["mac.sense"] == (c["policies.decide"] if proto.ladder else 0), where
            # each alive decoded hearer of a data packet that is no sink,
            # and passes the failure lottery, overhears it and leaves a row
            assert c["policies.note_overheard"] == (played["rows"] if proto.ladder else 0), \
                where
            # the ledger: one debit per transmission and per reception
            setup_rx = c["costfield.handle_adv"] + c["costfield.handle_ncnt"]
            data_rx = played["rows"] + (played["sink"] if phase == "data" else 0)
            assert played["ledger"] == c["policies.consume_energy"] + setup_rx + data_rx, where
        # the setup phase ends before the data start, and carries no data
        assert setup["counters"]["forwarded_total"] == setup["rows"] == 0, protocol
        assert setup["calls"]["costfield.handle_adv"] > 0, protocol
        assert data["calls"]["costfield.handle_adv"] == data["calls"]["costfield.handle_ncnt"] == 0
        assert (setup["calls"]["costfield.handle_ncnt"] > 0) == proto.counts, protocol
        assert data["calls"]["policies.decide"] > 0, protocol
        if protocol == "GRAB":
            # every decider has learned its sender's link, and an injected
            # message's source with a known neighbour aims a wide broadcast
            reach = data["calls"]["policies.reach_power"]
            decided = data["calls"]["policies.decide"]
            assert decided <= reach <= decided + data["calls"]["scenario.handle.inject"]
        else:
            assert data["calls"]["policies.reach_power"] == 0, protocol
    # batteries ran dry and suppressed transmissions somewhere
    assert any(result["phases"][1]["counters"]["suppressed_tx"] for result in out.values())
