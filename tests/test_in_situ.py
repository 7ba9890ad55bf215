"""The fast paths against their scalar references, on real runs.

The property tests feed the fast paths synthetic inputs. Here real cells play
through one ``play``, so shared topologies and draw tapes, cached receptions
and their SINR limits, reduced-power rows and resumed setups are all in use,
and every call of the batched decode, the carrier-sense count and the source
search is compared bit for bit with its reference. A wrong cache key, which
no synthetic input reaches, shows up as a mismatch here. The utility game
that U-GRAB and UP-GRAB play is checked against the payoff table it encodes,
``policies.strategy_payoff``, decision by decision.
"""

from collections import Counter

from gradcast import mac, phys, policies, scenario
from gradcast.metrics import run_row
from gradcast.scenario import play
from tests.test_golden import CELLS, GOLDEN, PROTOCOLS, _cell_cfg, _sha
from tests.test_mac import geometric_sense
from tests.test_scenario import _loop_nearest_alive_sensor

# every way decode_batch can take through a call
BRANCHES = ("no interferer", "single-row window", "clamped group of 1", "clamped group of 2",
            "clamped group of 3+", "tied later marks", "reduced-power reception",
            "reduced-power interferer", "start at the window's start, played after it",
            "end at the window's start, played after it", "mark at the window's end",
            "removal read from a negated row")


def _branches(wanted, concurrent, marks, default_power):
    """The branches a decode of ``wanted`` takes, read off ``concurrent`` as
    ``phys.decode`` sees them, and off the log's marks of its window."""
    ws, we = wanted.start, wanted.end
    group, added, instants, reduced = 0, 0, [], False
    for other in concurrent:
        if other is wanted:
            continue
        if min(other.end, we) <= max(other.start, ws):
            continue
        if other.start <= ws:
            group += 1
        else:
            added += 1
            instants.append(other.start)
        if other.end < we:
            instants.append(other.end)
        reduced |= other.tx_power_dbm != default_power
    taken = []
    if not group and not instants:
        taken.append("no interferer")
    if group + added == 1:   # its one row is the peak: no sum is taken
        taken.append("single-row window")
    if group:
        taken.append(f"clamped group of {group}" if group < 3 else "clamped group of 3+")
    if len(set(instants)) < len(instants):
        taken.append("tied later marks")
    if wanted.tx_power_dbm != default_power:
        taken.append("reduced-power reception")
    if reduced:
        taken.append("reduced-power interferer")
    instants, rows = marks   # an end's row is ~row, a negative id
    window = list(zip(instants[wanted.first:], rows[wanted.first:]))
    if any(t == ws and r >= 0 for t, r in window):
        taken.append("start at the window's start, played after it")
    if any(t == ws and r < 0 for t, r in window):
        taken.append("end at the window's start, played after it")
    if we in instants[wanted.first:]:
        taken.append("mark at the window's end")
    inside = [(t, r) for t, r in window if ws < t < we]
    if any(r < 0 and any(u >= t and s >= 0 for u, s in inside) for t, r in inside):
        # an end inside the window with a start at or after it: its row is read
        taken.append("removal read from a negated row")
    return taken


def _play_checked(monkeypatch, cells):
    """Play ``cells`` through one ``play`` with every call of the fast paths
    checked against its reference; returns the runs and the call counts,
    decode branches included. ``phys.decode`` gets the transmissions this
    test records itself, not the network's channel log."""
    calls = Counter()
    playing = []   # the network whose replication is playing, its positions and longest airtime
    # the playing replication's transmissions, dropped once they end a
    # longest airtime before a decode: no later window reaches them
    record = []

    def build(net, *args, build=scenario.Network.build, **kwargs):
        build(net, *args, **kwargs)
        r = net.radio
        playing[:] = [net, [n.pos for n in net.nodes],
                      max(r.airtime_ms(n) for n in (r.adv_bytes, r.ncnt_bytes, r.data_bytes))]
        record.clear()

    def transmission(*args, make=phys.Transmission, **kwargs):
        tr = make(*args, **kwargs)
        record.append(tr)
        return tr

    def resume(net, snap, traffic, resume=scenario.Network.resume):
        calls["resume"] += 1
        resume(net, snap, traffic)

    def decode_batch(wanted, marks, links, decode_batch=phys.decode_batch):
        verdicts = decode_batch(wanted, marks, links)
        net, positions, longest = playing
        rec = wanted.reception
        assert rec is links.receptions[wanted.sender, wanted.tx_power_dbm]
        record[:] = [tr for tr in record if tr.end >= wanted.end - longest]
        # one verdict per hearer, in hearer order; every node but the
        # sender is compared, not only the cached hearers
        assert len(verdicts) == len(rec.hearers) and set(verdicts) <= {True, False}
        decoded = [j for j, ok in zip(rec.hearers, verdicts) if ok]
        assert decoded == [n.id for n in net.nodes if n.id != wanted.sender and phys.decode(
            n.pos, wanted, record, net.radio, positions)]
        calls["decode_batch"] += 1
        calls.update(_branches(wanted, record, marks, net.radio.tx_power_dbm))
        return verdicts

    def release(net, release=scenario.Network.release):
        # the log empties with the channel
        assert net.active or net.marks == ([], [])
        calls["idle at the end"] += not net.active
        release(net)

    def utility_game(node, c_n, limit, params, coin, game=policies._utility_game):
        # the played decision is the argmax of the payoff table over
        # forwarding and dropping, and a tie follows the coin it drew
        coins = []

        def recorded():
            coins.append(coin())
            return coins[-1]

        a = policies.ladder_reward(node.ugrab.steps, params.ladder_scale, params.ladder_ratio)
        r = policies.energy_reward(node.battery)
        dec = game(node, c_n, limit, params, recorded)
        assert (dec.forward_reward, dec.energy_reward) == (a, r)
        forward = policies.strategy_payoff(True, c_n >= limit, a, r)
        drop = policies.strategy_payoff(False, c_n >= limit, a, r)
        if forward == drop:
            assert len(coins) == 1 and dec.forward == (coins[0] < 0.5)
            calls["utility game tie"] += 1
            calls["utility game tie forwards"] += dec.forward
        else:
            assert coins == [] and dec.forward == (forward > drop)
        calls["utility game congested" if c_n >= limit else "utility game free"] += 1
        calls["utility game forwards"] += dec.forward
        return dec

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
    monkeypatch.setattr(scenario.Network, "release", release)
    monkeypatch.setattr(phys, "Transmission", transmission)
    monkeypatch.setattr(phys, "decode_batch", decode_batch)
    monkeypatch.setattr(policies, "_utility_game", utility_game)
    monkeypatch.setattr(mac, "sense", sense)
    monkeypatch.setattr(scenario.Network, "_nearest_alive_sensor", nearest)
    runs, _ = play(cells)
    return runs, calls


def test_fast_paths_equal_their_references_on_real_runs(monkeypatch):
    runs, calls = _play_checked(monkeypatch, [(_cell_cfg(p, CELLS[cell]), "")
                                              for cell in CELLS for p in PROTOCOLS])
    assert calls["decode_batch"] and calls["sense"] and calls["nearest"]
    assert calls["resume"] > 0
    # U-GRAB and UP-GRAB cells play the game busy and free, forwarding and not
    assert calls["utility game congested"] and calls["utility game free"]
    assert 0 < calls["utility game forwards"] < (calls["utility game congested"]
                                                 + calls["utility game free"])
    # the cells played together give the rows each gives on its own
    per_cell = len(runs) // len(CELLS)
    for k, cell in enumerate(CELLS):
        rows = runs[k * per_cell:(k + 1) * per_cell]
        assert _sha("\n".join(",".join(run_row(m)) for m in rows)) == GOLDEN[cell]


def test_zero_backoff_reaches_every_decode_branch(monkeypatch):
    """With no backoff, the receivers of one packet forward at one instant,
    so marks after a wanted packet's start tie, and starts and ends fall on
    window boundaries. An end at a window's start lands in the log after
    that start only when the start was scheduled before the ending packet
    began: in the third cell every time is a whole millisecond (4 ms
    advertisements, 3 ms counts, an 8 ms backoff, advertisements sent as
    they are heard), and the count stage's sends at 36 ms start as the
    second hop of the flood, begun at 32 ms, ends. Every branch of the
    decode is taken and checked."""
    cells = []
    for protocol in ("GRAB", "P-GRAB"):   # GRAB sends at reduced power
        cfg = _cell_cfg(protocol, CELLS["pf0"])
        cfg.mac.backoff_min_ms = cfg.mac.backoff_max_ms = 0.0
        cells.append((cfg, ""))
    cfg = _cell_cfg("P-GRAB", CELLS["pf0"])
    cfg.mac.backoff_min_ms = cfg.mac.backoff_max_ms = 8.0
    cfg.phys.bitrate_bps = 32000.0
    cfg.costfield.beta_adv_ms = cfg.costfield.ncnt_window_ms = 0.0
    cfg.costfield.ncnt_start_ms = 28.0
    cells.append((cfg, ""))
    _, calls = _play_checked(monkeypatch, cells)
    assert [branch for branch in BRANCHES if not calls[branch]] == []


def test_the_log_is_empty_after_every_replication(monkeypatch):
    """The golden cells' channels idle by the end of each replication, and
    the log empties with the channel."""
    cells = [(_cell_cfg(p, CELLS[cell]), "") for cell in CELLS for p in PROTOCOLS]
    ended = []

    def release(net, release=scenario.Network.release):
        ended.append((len(net.active), len(net.marks[0])))
        release(net)

    monkeypatch.setattr(scenario.Network, "release", release)
    runs, _ = play(cells)
    assert ended == [(0, 0)] * len(runs)


def test_the_utility_game_ties_follow_their_coin(monkeypatch):
    """With a ladder scale of 1 and radios that draw no energy, a node that
    has not raised its ladder holds a forward reward of 0 against an energy
    reward of 0: every such decision on a free channel is a tie, played by
    the coin, which the checked game compares with the decision."""
    cells = []
    for protocol in ("U-GRAB", "UP-GRAB"):
        cfg = _cell_cfg(protocol, CELLS["pf0"])
        cfg.policies.ladder_scale = 1.0
        cfg.policies.tx_draw_w = cfg.policies.rx_draw_w = 0.0
        cells.append((cfg, ""))
    _, calls = _play_checked(monkeypatch, cells)
    # both sides of the coin come up
    assert 0 < calls["utility game tie forwards"] < calls["utility game tie"]
