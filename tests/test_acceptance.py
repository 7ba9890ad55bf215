"""Acceptance gate.

Exact property suites (criteria 1-6) and statistical ordering checks over
30-seed cells at the desk-scale default profile (criteria 7-14). Each check
prints one line::

    criterion NN PASS  <name>  <detail>

Cells reuse fully connected topologies so that ratios compare protocol
behavior rather than shared dead topologies. The statistical half reads its
14 cells from one ``scenario.play`` on every available core, so the first
ordering check to run computes all of them (about 30 s on 2 cores).
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.special import erfc as scipy_erfc

from gradcast import phys
from gradcast.config import default_config
from gradcast.engine import make_stream
from gradcast.metrics import run_row
from gradcast.policies import (Battery, PolicyParams, erfc_forward_probability,
                               ladder_reward, remaining_life_probability, strategy_payoff)
from gradcast.scenario import build_network, neighbor_lists, play, run_replication

SEEDS = 30
# every (protocol, p_f, credit, spread) cell criteria 7-14 compare
CELLS = (
    ("BGB", 0.0, 10.0, 2.0),
    ("GRAB", 0.0, 10.0, 2.0),
    ("GRAB", 0.4, 10.0, 2.0),
    ("GRAB", 0.4, 1.0, 2.0),
    ("GRAB", 0.4, 5.0, 2.0),
    ("GRAB", 0.4, 20.0, 2.0),
    ("P-GRAB", 0.0, 10.0, 2.0),
    ("P-GRAB", 0.4, 10.0, 2.0),
    ("P-GRAB", 0.8, 10.0, 2.0),
    ("P-GRAB", 0.0, 10.0, 16.0),
    ("P-GRAB", 0.4, 10.0, 16.0),
    ("U-GRAB", 0.0, 10.0, 2.0),
    ("U-GRAB", 0.4, 10.0, 2.0),
    ("U-GRAB", 0.8, 10.0, 2.0),
)
_CELLS: dict = {}
_LINES: list = []


@pytest.fixture(autouse=True)
def _publish_criterion_lines(request):
    """Write criterion lines where the terminal summary will echo them."""
    sink = getattr(request.config, "criterion_lines", None)
    if sink is not None:
        globals()["_LINES"] = sink
    yield


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {name}  [{detail}]"
    print(line)
    _LINES.append(line)
    assert ok, f"criterion {num}: {name} ({detail})"


def desk_cfg(protocol: str, p_f: float, *, credit=10.0, spread=2.0):
    cfg = default_config()
    cfg.scenario.protocol = protocol
    cfg.scenario.p_f = p_f
    cfg.scenario.require_connected = True
    cfg.policies.credit_factor = credit
    cfg.policies.spread_factor = spread
    cfg.scenario.replications = SEEDS
    return cfg


def cell(protocol: str, p_f: float, *, credit=10.0, spread=2.0):
    """The SEEDS runs of one of CELLS; the first call plays them all, the
    cells of one seed on one shared topology."""
    if not _CELLS:
        runs, _ = play([(desk_cfg(p, f, credit=c, spread=k), "") for p, f, c, k in CELLS],
                       jobs=len(os.sched_getaffinity(0)))
        for k, key in enumerate(CELLS):
            _CELLS[key] = runs[k * SEEDS:(k + 1) * SEEDS]
    return _CELLS[(protocol, p_f, credit, spread)]


def mean_of(runs, metric):
    values = []
    for m in runs:
        v = getattr(m, metric)
        if v is not None:
            values.append(float(v))
    return statistics.fmean(values)


def std_of(runs, metric):
    values = [float(getattr(m, metric)) for m in runs if getattr(m, metric) is not None]
    return statistics.stdev(values) if len(values) > 1 else 0.0


# ---------------------------------------------------------------------------
# exact property suites


def test_criterion_01_single_advertisement_per_node():
    cfg = default_config()
    cfg.scenario.require_connected = True
    cfg.scenario.event_count = 0
    cfg.scenario.event_spread = 0
    cfg.scenario.max_sim_time_ms = 5500.0
    n = cfg.scenario.node_count
    counts = [run_replication(cfg, i).adv_total for i in range(20)]
    # each of the N sensors attempts exactly once; the +1 is the sink's flood start
    ok = all(c == n + 1 for c in counts)
    _check(1, "one advertisement per node over 20 seeds",
           ok, f"sensor attempts per run {sorted(set(c - 1 for c in counts))} == {n}")


def _oracle_positions(rng, n, side, params):
    while True:
        # uniform(0.0, side, n) twice: 0.0 + side * u of the same doubles
        xs, ys = rng.random((2, n)) * side
        pos = [(float(x), float(y)) for x, y in zip(xs, ys)]
        pts = pos + [(0.0, 0.0)]
        if min(phys.distance(pts[i], pts[j])
               for i in range(len(pts)) for j in range(i + 1, len(pts))) < 1.0:
            continue   # keep every link cost non-negative for the oracle
        nbrs = neighbor_lists(pts, params)
        seen, stack = {len(pts) - 1}, [len(pts) - 1]
        while stack:
            for j in nbrs[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == len(pts):
            return pos


def test_criterion_02_cost_field_matches_dijkstra():
    worst = 0.0
    for run in range(20):
        cfg = default_config()
        cfg.scenario.node_count = 40
        cfg.scenario.area_width_m = cfg.scenario.area_height_m = 160.0
        cfg.scenario.event_count = 0
        cfg.scenario.event_spread = 0
        cfg.phys.sinr_threshold_db = -300.0  # no collision: every audible hearer decodes
        cfg.phys.bitrate_bps = 1e12          # negligible airtime
        cfg.mac.backoff_max_ms = 0.0
        cfg.scenario.max_sim_time_ms = 1e7
        rng = make_stream(99, run, None, "topology")
        pos = _oracle_positions(rng, 40, 160.0, cfg.phys)
        sim, net = build_network(cfg, run, positions=pos, sink_pos=(0.0, 0.0), traffic=[])
        sim.run_until_idle(cfg.scenario.max_sim_time_ms)

        pts = pos + [(0.0, 0.0)]
        nbrs = neighbor_lists(pts, cfg.phys)
        rows, cols, vals = [], [], []
        for i in range(len(pts)):
            for j in nbrs[i]:
                rows.append(i)
                cols.append(j)
                vals.append(phys.pathloss_db(phys.distance(pts[i], pts[j]),
                                             cfg.phys.alpha_exp, cfg.phys.d_min_m))
        graph = csr_matrix((vals, (rows, cols)), shape=(len(pts), len(pts)))
        dist = dijkstra(graph, indices=len(pts) - 1)
        for node in net.nodes:
            rel = abs(node.cost.q - dist[node.id]) / max(1.0, abs(dist[node.id]))
            worst = max(worst, rel)
    _check(2, "converged costs equal shortest-path oracle on 20 topologies",
           worst <= 1e-9, f"worst relative error {worst:.2e}")


def test_criterion_03_erfc_conversion_suite():
    bounds = (-60.0, 40.0)
    lo, hi = bounds
    c = (lo + hi) / 2.0
    center_err = max(abs(erfc_forward_probability(c, k, bounds) - 0.5)
                     for k in (1.0, 2.0, 4.0, 8.0, 16.0))
    oracle_err = 0.0
    for k in (1.0, 2.0, 4.0, 8.0, 16.0):
        m = k * (hi - lo) / 24.0
        for delta in np.linspace(lo, hi, 101):
            want = 0.5 * scipy_erfc((float(delta) - c) / m)
            oracle_err = max(oracle_err, abs(
                erfc_forward_probability(float(delta), k, bounds) - want))
    xs = np.linspace(-30.0, 15.0, 1000)   # transition band; tails saturate in doubles
    monotone = all(
        all(a > b for a, b in zip(vals, vals[1:]))
        for vals in ([erfc_forward_probability(float(x), k, bounds) for x in xs]
                     for k in (1.0, 2.0, 4.0, 8.0, 16.0)))
    spread_shrink = all(
        abs(erfc_forward_probability(d, ka, bounds) - 0.5)
        > abs(erfc_forward_probability(d, kb, bounds) - 0.5)
        for d in (-35.0, -20.0, 0.0, 20.0)
        for ka, kb in ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 16.0)))
    endpoints = (erfc_forward_probability(hi, 1.0, bounds) < 1e-6
                 and erfc_forward_probability(lo, 1.0, bounds) > 1.0 - 1e-6)
    ok = center_err < 1e-12 and oracle_err < 1e-12 and monotone and \
        spread_shrink and endpoints
    _check(3, "erfc conversion against independent oracle", ok,
           f"center err {center_err:.1e}, oracle err {oracle_err:.1e}, "
           f"monotone {monotone}, spread {spread_shrink}, endpoints {endpoints}")


def test_criterion_04_reward_algebra():
    half = Battery(1.0, consumed_j=0.5, n_forwarded=5)
    life_ok = (remaining_life_probability(Battery(1.0)) == 1.0
               and remaining_life_probability(Battery(1.0, consumed_j=1.0, n_forwarded=2)) == 0.0
               and abs(remaining_life_probability(half) - 5.0 / 6.0) < 1e-12)
    payoff_ok = (strategy_payoff(False, False, 0.25, 0.3) == 0.3
                 and abs(strategy_payoff(True, True, 0.25, 0.3) - (-0.75)) < 1e-12
                 and strategy_payoff(True, False, 0.25, 0.3) == 0.25)
    ladder = (PolicyParams().ladder_scale, PolicyParams().ladder_ratio)
    ladder_ok = (abs(ladder_reward(0, *ladder) - 0.25) < 1e-12
                 and abs(ladder_reward(1, *ladder) - 0.4375) < 1e-12
                 and abs(ladder_reward(2, *ladder) - 0.578125) < 1e-12)
    _check(4, "life/payoff/ladder unit algebra exact",
           life_ok and payoff_ok and ladder_ok,
           f"life {life_ok}, payoff {payoff_ok}, ladder {ladder_ok}")


def test_criterion_05_ledger_and_determinism(tmp_path):
    cfg = default_config()
    cfg.scenario.require_connected = True
    cfg.metrics.energy_audit = True   # finalize re-checks the ledger bitwise
    cfg.scenario.protocol = "UP-GRAB"
    rows = [run_row(run_replication(cfg, 0)) for _ in range(2)]
    from gradcast import cli
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--out", str(out), "--set", "protocol=P-GRAB",
                         "--set", "scenario.require_connected=true",
                         "--seeds", "2"]) == 0
        outs.append((out / "runs.csv").read_bytes())
    ok = rows[0] == rows[1] and outs[0] == outs[1]
    _check(5, "energy ledger closes exactly; byte-identical reruns", ok,
           f"audited rows equal {rows[0] == rows[1]}, csv bytes equal {outs[0] == outs[1]}")


def test_criterion_06_bernoulli_calibration():
    from gradcast.policies import pgrab_decide
    from gradcast.costfield import CostState

    class Stub:
        def __init__(self):
            self.cost = CostState(q=50.0)
            self.battery = Battery(1.0, consumed_j=0.2, n_forwarded=10)
            self.p_ia = erfc_forward_probability(-2.0, 2.0, (-12.0, 12.0))

    node = Stub()
    p = node.p_ia * remaining_life_probability(node.battery)
    rng = np.random.default_rng(20260808)
    n = 10_000
    hits = sum(pgrab_decide(node, rng.random).forward for _ in range(n))
    sig_p = math.sqrt(p * (1.0 - p) / n)
    fwd_ok = abs(hits / n - p) <= 3 * sig_p

    p_f = 0.4
    frng = make_stream(1, 0, 7, "failure")
    fails = sum(u < p_f for u in frng.random(n).tolist())
    sig_f = math.sqrt(p_f * (1.0 - p_f) / n)
    fail_ok = abs(fails / n - p_f) <= 3 * sig_f
    _check(6, "forward and failure rates within 3 binomial sigma",
           fwd_ok and fail_ok,
           f"forward {hits / n:.4f} vs {p:.4f}, failure {fails / n:.4f} vs {p_f}")


# ---------------------------------------------------------------------------
# statistical ordering checks (30 seeds per cell)


def test_criterion_07_flood_forwards_dominate_credit():
    bgb = mean_of(cell("BGB", 0.0), "forwarded_total")
    grab = mean_of(cell("GRAB", 0.0), "forwarded_total")
    _check(7, "plain flood sends >= 1.3x credit forwards at p_f=0",
           bgb >= 1.3 * grab, f"{bgb:.0f} vs {grab:.0f} (x{bgb / grab:.2f})")


def test_criterion_08_credit_is_slower_than_flood():
    bgb = mean_of(cell("BGB", 0.0), "avg_delay_ms")
    grab = mean_of(cell("GRAB", 0.0), "avg_delay_ms")
    _check(8, "credit delay >= 1.5x flood delay at p_f=0",
           grab >= 1.5 * bgb, f"{grab:.0f}ms vs {bgb:.0f}ms (x{grab / bgb:.2f})")


def test_criterion_09_probabilistic_beats_credit_delay():
    ok = True
    details = []
    for p_f in (0.0, 0.4):
        pg = mean_of(cell("P-GRAB", p_f), "avg_delay_ms")
        grab = mean_of(cell("GRAB", p_f), "avg_delay_ms")
        ok &= pg <= 0.7 * grab
        details.append(f"p_f={p_f}: {pg:.0f} vs {grab:.0f} (x{pg / grab:.2f})")
    _check(9, "probabilistic delay <= 0.7x credit delay", ok, "; ".join(details))


def test_criterion_10_probabilistic_saves_forwards_under_failures():
    pg = mean_of(cell("P-GRAB", 0.4), "forwarded_total")
    grab = mean_of(cell("GRAB", 0.4), "forwarded_total")
    _check(10, "probabilistic forwards <= 0.85x credit at p_f=0.4",
           pg <= 0.85 * grab, f"{pg:.0f} vs {grab:.0f} (x{pg / grab:.2f})")


def test_criterion_11_probabilistic_most_robust_in_mild_conditions():
    ok = True
    details = []
    for p_f in (0.0, 0.4):
        pg = mean_of(cell("P-GRAB", p_f), "success_ratio")
        ug = mean_of(cell("U-GRAB", p_f), "success_ratio")
        ok &= pg >= 1.05 * ug
        details.append(f"p_f={p_f}: {pg:.3f} vs {ug:.3f} (x{pg / ug:.2f})")
    _check(11, "probabilistic success >= 1.05x utility at p_f<=0.4", ok,
           "; ".join(details))


def test_criterion_12_utility_most_robust_in_harsh_conditions():
    ug = mean_of(cell("U-GRAB", 0.8), "success_ratio")
    pg = mean_of(cell("P-GRAB", 0.8), "success_ratio")
    _check(12, "utility success >= 1.5x probabilistic at p_f=0.8",
           ug >= 1.5 * pg, f"{ug:.3f} vs {pg:.3f} (x{ug / pg:.2f})")


def test_criterion_13_forwards_grow_with_the_spreading_factor():
    ok = True
    details = []
    for p_f in (0.0, 0.4):
        k16 = mean_of(cell("P-GRAB", p_f, spread=16.0), "forwarded_total")
        k2 = mean_of(cell("P-GRAB", p_f, spread=2.0), "forwarded_total")
        ok &= k16 > k2
        details.append(f"p_f={p_f}: K16 {k16:.0f} > K2 {k2:.0f}")
    _check(13, "spreading factor 16 forwards more than 2", ok, "; ".join(details))


def test_criterion_14_credit_buys_robustness_under_failures():
    factors = (1.0, 5.0, 10.0, 20.0)
    cells = [cell("GRAB", 0.4, credit=f) for f in factors]
    means = [mean_of(c, "success_ratio") for c in cells]
    stds = [std_of(c, "success_ratio") for c in cells]
    inversions = [i for i in range(len(means) - 1) if means[i + 1] < means[i]]
    ok = not inversions or (len(inversions) == 1
                            and means[inversions[0]] - means[inversions[0] + 1]
                            <= stds[inversions[0]])
    _check(14, "success non-decreasing in the credit factor at p_f=0.4 "
               "(one inversion within one std allowed)", ok,
           "means " + ", ".join(f"{m:.3f}" for m in means))
