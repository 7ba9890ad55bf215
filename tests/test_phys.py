import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcast.config import default_config
from gradcast.engine import make_stream
from gradcast.phys import (RadioParams, Transmission, decode, decode_batch, distance,
                           is_neighbor, link_table, pathloss_db, received_power_dbm)
from gradcast.scenario import generate_topology

PARAMS = RadioParams()


def test_pathloss_reference_values():
    assert pathloss_db(1.0, 3.0) == 0.0
    assert pathloss_db(10.0, 3.0) == pytest.approx(30.0, abs=1e-12)
    assert pathloss_db(100.0, 2.0) == pytest.approx(40.0, abs=1e-12)


def test_pathloss_clamps_small_distances():
    assert pathloss_db(0.0, 3.0) == pathloss_db(0.1, 3.0)
    assert pathloss_db(-5.0, 3.0) == pathloss_db(0.05, 3.0) == pathloss_db(0.1, 3.0)
    assert pathloss_db(0.1, 3.0) == pytest.approx(-30.0, abs=1e-12)


def test_received_power_values():
    assert received_power_dbm(0.0, 1.0, 3.0) == 0.0
    assert received_power_dbm(5.0, 10.0, 3.0) == pytest.approx(-25.0, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=0.1, max_value=1e4),
       st.floats(min_value=2.0, max_value=6.0))
def test_pathloss_monotone_in_distance(d1, d2, alpha):
    if d1 == d2:
        return
    lo, hi = sorted((d1, d2))
    assert pathloss_db(lo, alpha) < pathloss_db(hi, alpha)


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0.2, max_value=5000))
def test_tx_minus_rx_equals_pathloss(tx, d):
    # the two cost routes (geometry vs power difference) agree
    pl = pathloss_db(d, 3.0)
    rx = received_power_dbm(tx, d, 3.0)
    assert tx - rx == pytest.approx(pl, rel=1e-12, abs=1e-12)


def test_neighbor_threshold_is_strict():
    p = RadioParams(alpha_exp=3.0, tx_power_dbm=0.0, sensitivity_dbm=-54.5)
    d_edge = 10.0 ** (54.5 / 30.0)   # received power lands exactly on sensitivity
    assert not is_neighbor((0.0, 0.0), (d_edge, 0.0), p)
    assert is_neighbor((0.0, 0.0), (d_edge - 0.01, 0.0), p)


def test_colocated_nodes_are_neighbors():
    assert is_neighbor((5.0, 5.0), (5.0, 5.0), PARAMS)


@given(st.tuples(st.floats(0, 250), st.floats(0, 250)),
       st.tuples(st.floats(0, 250), st.floats(0, 250)))
def test_neighbor_relation_symmetric(a, b):
    assert is_neighbor(a, b, PARAMS) == is_neighbor(b, a, PARAMS)


def _tx(sender, pos, power, start, end, ident="p"):
    return Transmission(sender, pos, power, start, end, ident)


def test_decode_clean_reception():
    wanted = _tx(0, (0.0, 0.0), 0.0, 10.0, 17.5)
    assert decode((30.0, 0.0), wanted, [], PARAMS)


def test_decode_below_sensitivity_fails():
    wanted = _tx(0, (0.0, 0.0), 0.0, 10.0, 17.5)
    far = (10.0 ** (54.5 / 30.0) + 1.0, 0.0)
    assert not decode(far, wanted, [], PARAMS)


def test_equal_power_full_overlap_interferer_fails():
    # both senders 30 m away on opposite sides: SINR ~ 0 dB, below any
    # threshold of 3 dB or more
    wanted = _tx(0, (-30.0, 0.0), 0.0, 10.0, 17.5)
    interf = _tx(1, (30.0, 0.0), 0.0, 10.0, 17.5)
    assert not decode((0.0, 0.0), wanted, [interf], PARAMS)


def test_interferer_ending_before_start_is_ignored():
    wanted = _tx(0, (-30.0, 0.0), 0.0, 10.0, 17.5)
    early = _tx(1, (30.0, 0.0), 0.0, 2.0, 10.0)   # ends exactly at start
    assert decode((0.0, 0.0), wanted, [early], PARAMS) == \
        decode((0.0, 0.0), wanted, [], PARAMS) is True


def test_partial_overlap_still_fails_whole_duration_rule():
    # strong interferer covering only the first millisecond of the reception
    wanted = _tx(0, (-30.0, 0.0), 0.0, 10.0, 17.5)
    burst = _tx(1, (10.0, 0.0), 0.0, 9.0, 11.0)
    assert not decode((0.0, 0.0), wanted, [burst], PARAMS)


def test_own_transmission_blocks_reception():
    # a receiver transmitting anything during the window cannot decode
    wanted = _tx(0, (-30.0, 0.0), 0.0, 10.0, 17.5)
    own = _tx(2, (0.0, 0.0), -20.0, 12.0, 13.0)
    assert not decode((0.0, 0.0), wanted, [own], PARAMS)


def _sampled_decode(rx_pos, wanted, concurrent, params, steps=2000):
    """Independent check: sample the SINR densely over the reception."""
    pr = received_power_dbm(wanted.tx_power_dbm, distance(rx_pos, wanted.sender_pos),
                            params.alpha_exp, params.d_min_m)
    if pr <= params.sensitivity_dbm:
        return False
    sig = 10.0 ** (pr / 10.0)
    noise = 10.0 ** (params.noise_floor_dbm / 10.0)
    thr = 10.0 ** (params.sinr_threshold_db / 10.0)
    span = wanted.end - wanted.start
    for k in range(steps + 1):
        t = wanted.start + span * k / steps
        interference = 0.0
        for o in concurrent:
            if o is wanted or not (o.start < t < o.end):
                continue
            interference += 10.0 ** (received_power_dbm(
                o.tx_power_dbm, distance(rx_pos, o.sender_pos),
                params.alpha_exp, params.d_min_m) / 10.0)
        if sig / (noise + interference) < thr:
            return False
    return True


@given(st.lists(st.tuples(st.floats(0, 120), st.floats(0, 120),
                          st.floats(5, 25), st.floats(1, 8)),
                min_size=0, max_size=5),
       st.floats(10, 60))
def test_decode_matches_dense_sampling(interferers, rx_x):
    params = RadioParams()
    wanted = _tx(0, (0.0, 0.0), 0.0, 10.0, 17.5)
    concurrent = []
    for i, (x, y, start, dur) in enumerate(interferers):
        concurrent.append(_tx(i + 1, (x, y), 0.0, start, start + dur))
    got = decode((rx_x, 0.0), wanted, concurrent, params)
    # the boundary sweep is exact, so it is at least as strict as sampling at
    # any finite set of instants: a sampled failure forces an exact failure
    assert not got or _sampled_decode((rx_x, 0.0), wanted, concurrent, params)
    assert _sampled_decode((rx_x, 0.0), wanted, concurrent, params, steps=997) or not got


@given(st.lists(st.tuples(st.floats(0, 120), st.floats(0, 120),
                          st.floats(5, 25), st.floats(1, 8)),
                min_size=1, max_size=5))
def test_adding_interferers_never_helps(interferers):
    wanted = _tx(0, (0.0, 0.0), 0.0, 10.0, 17.5)
    rx = (40.0, 0.0)
    concurrent = []
    previous = decode(rx, wanted, concurrent, PARAMS)
    for i, (x, y, start, dur) in enumerate(interferers):
        concurrent.append(_tx(i + 1, (x, y), 0.0, start, start + dur))
        now = decode(rx, wanted, concurrent, PARAMS)
        assert not (now and not previous)
        previous = now


def test_perfect_decode_hook_skips_interference_not_sensitivity():
    params = RadioParams(perfect_decode=True)
    wanted = _tx(0, (-30.0, 0.0), 0.0, 10.0, 17.5)
    jam = _tx(1, (1.0, 0.0), 0.0, 10.0, 17.5)
    assert decode((0.0, 0.0), wanted, [jam], params)
    far = (10.0 ** (54.5 / 30.0) + 1.0, 0.0)
    assert not decode(far, wanted, [], params)


def test_airtime():
    assert PARAMS.airtime_ms(36) == pytest.approx(7.5)
    assert PARAMS.airtime_ms(0) == 0.0


# ---------------------------------------------------------------------------
# link table and batched decode against the scalar reference

D_EDGE = 10.0 ** (54.5 / 30.0)   # default-power reception exactly at sensitivity


def test_link_table_entries_equal_scalar_formulas():
    positions, sink, _ = generate_topology(default_config(), make_stream(1, 0, None, "topology"))
    # coincident points (a duplicated sensor, a node on the sink), a pair at
    # exactly the sensitivity range and one closer than d_min_m
    pts = positions + [sink, positions[3], sink, (0.0, 0.0), (D_EDGE, 0.0), (0.05, 0.0)]
    links = link_table(pts, PARAMS)
    for i, a in enumerate(pts):
        pl_row = links.pathloss_db[i].tolist()
        mw_row = links.rx_mw[i].tolist()
        reduced = links.rx_mw_row(i, -7.25).tolist()
        for j, b in enumerate(pts):
            d = distance(a, b)
            assert pl_row[j] == pathloss_db(d, PARAMS.alpha_exp, PARAMS.d_min_m)
            assert mw_row[j] == 10.0 ** (received_power_dbm(
                PARAMS.tx_power_dbm, d, PARAMS.alpha_exp, PARAMS.d_min_m) / 10.0)
            assert reduced[j] == 10.0 ** (received_power_dbm(
                -7.25, d, PARAMS.alpha_exp, PARAMS.d_min_m) / 10.0)
    # the default power shares the table row instead of copying it
    assert links.rx_mw_row(5, PARAMS.tx_power_dbm).base is links.rx_mw


ARENA_61 = [(float(x), float(y))
            for x, y in np.random.default_rng(7).uniform(0.0, 150.0, (61, 2))]


@settings(max_examples=200, deadline=None)
@given(sender=st.integers(0, 60), power=st.floats(-40.0, 20.0))
def test_reduced_power_rows_are_exact_and_kept(sender, power):
    links = link_table(ARENA_61, PARAMS)
    row = links.rx_mw_row(sender, power)
    if power == PARAMS.tx_power_dbm:
        assert row.base is links.rx_mw
        return
    expected = [10.0 ** ((power - pl) / 10.0) for pl in links.pathloss_db[sender].tolist()]
    assert row.tolist() == expected
    assert links.rx_mw_row(sender, power) is row
    assert list(links.rows) == [(sender, power)]


def test_neighbor_lists_are_kept_per_sensitivity():
    links = link_table(ARENA_61, PARAMS)
    lists = {}
    for sensitivity in (PARAMS.sensitivity_dbm, PARAMS.sensitivity_dbm + 10.0):
        nbrs = lists[sensitivity] = links.neighbors(sensitivity)
        assert links.neighbors(sensitivity) is nbrs
        assert nbrs == link_table(ARENA_61, PARAMS).neighbors(sensitivity)
    assert lists[PARAMS.sensitivity_dbm] != lists[PARAMS.sensitivity_dbm + 10.0]


def _oracle_ids(wanted, receivers, points, params):
    return [r for r in receivers if decode(points[r], wanted, wanted.interferers, params)]


def _on_air(links, sender, points, power, start, end):
    return Transmission(sender, points[sender], power, start, end, "p",
                        rx_mw=links.rx_mw_row(sender, power))


# grid values make coincident nodes, clamped starts and shared boundaries common
GRID_M = st.sampled_from([0.0, 0.05, 20.0, 35.0, 60.0, D_EDGE, 90.0, 140.0])
COORD = GRID_M | st.floats(0.0, 150.0)
POWER = st.sampled_from([0.0, -3.0, -12.5, 2.0]) | st.floats(-20.0, 5.0)
INSTANT = st.sampled_from([2.0, 5.0, 8.0, 10.0, 12.0, 13.5, 17.5, 20.0]) | st.floats(0.0, 25.0)
SPAN = st.sampled_from([1.5, 2.0, 4.0, 7.5]) | st.floats(0.01, 10.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COORD, COORD), min_size=2, max_size=9),
       POWER,
       st.lists(st.tuples(st.integers(0, 8), POWER, INSTANT, SPAN), max_size=8),
       st.booleans())
def test_decode_batch_equals_decode(points, wanted_power, others, perfect):
    params = RadioParams(perfect_decode=perfect)
    links = link_table(points, params)
    wanted = _on_air(links, 0, points, wanted_power, 10.0, 17.5)
    # interferers may be sent by a receiver itself (distance 0, below d_min_m)
    wanted.interferers = [_on_air(links, k % len(points), points, p, s, s + dur)
                          for k, p, s, dur in others]
    receivers = list(range(1, len(points)))
    assert decode_batch(wanted, receivers, links, params) == \
        _oracle_ids(wanted, receivers, points, params)


def test_decode_batch_boundary_cases():
    # receiver 1 survives either of the two interferers 42 m away, not both
    points = [(0.0, 0.0), (30.0, 0.0), (72.0, 0.0), (30.0, 42.0), (20.0, 20.0), (120.0, 0.0)]
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
    wanted.interferers = [
        _on_air(links, 2, points, 0.0, 13.5, 15.0),    # starts where the next one ends,
        _on_air(links, 3, points, 0.0, 8.0, 13.5),     # listed first: order by instant, then mW
        _on_air(links, 5, points, 0.0, 2.0, 10.0),     # ends exactly at the start
        _on_air(links, 5, points, -6.0, 4.0, 12.0),    # clamped to the start together
        _on_air(links, 5, points, -9.0, 9.0, 11.0),    # with this one
        _on_air(links, 4, points, -30.0, 16.0, 16.5),  # sent by receiver 4 itself
        _on_air(links, 3, points, 0.0, 17.5, 20.0),    # starts exactly at the end
    ]
    receivers = [1, 2, 3, 4, 5]
    assert decode_batch(wanted, receivers, links, PARAMS) == \
        _oracle_ids(wanted, receivers, points, PARAMS) == [1]
    wanted.interferers[0].start = 13.25   # now the two overlap
    assert decode_batch(wanted, receivers, links, PARAMS) == \
        _oracle_ids(wanted, receivers, points, PARAMS) == []


def _threshold_db_hitting(ratio):
    """A sinr_threshold_db whose linear threshold equals ``ratio`` exactly, or
    None when no double near 10*log10(ratio) lands on it."""
    x = 10.0 * math.log10(ratio)
    for _ in range(8):
        x = math.nextafter(x, -math.inf)
    for _ in range(17):
        if 10.0 ** (x / 10.0) == ratio:
            return x
        x = math.nextafter(x, math.inf)
    return None


def test_decode_batch_at_exact_sinr_threshold():
    noise = 10.0 ** (PARAMS.noise_floor_dbm / 10.0)
    hits = 0
    for k in range(100):
        # SINR near 2.6 dB at receiver 1; scan the interferer for an exact tie
        points = [(0.0, 0.0), (20.0, 0.0), (44.0 + 0.01 * k, 0.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, 2, points, 0.0, 9.0, 20.0)]
        at = _threshold_db_hitting(float(links.rx_mw[0, 1]) / (noise + float(links.rx_mw[2, 1])))
        if at is None:
            continue
        hits += 1
        above = at
        while 10.0 ** (above / 10.0) == 10.0 ** (at / 10.0):
            above = math.nextafter(above, math.inf)
        for thr_db, expected in ((at, [1]), (above, [])):
            params = RadioParams(sinr_threshold_db=thr_db)
            assert _oracle_ids(wanted, [1], points, params) == expected
            assert decode_batch(wanted, [1], links, params) == expected
    assert hits >= 10


# ---------------------------------------------------------------------------
# ties: marks at one instant, which decode orders by signed mW per receiver

def _agrees_near_ratio(wanted, receiver, links, points, ratio):
    """Compare decode_batch with decode at every SINR threshold within 48
    ulps of ``ratio`` (in dB) for one receiver; True when the scan crosses the
    decision, so that a one-ulp change of the peak would have shown. Below 4
    dB consecutive thresholds step through every double near the ratio."""
    x = 10.0 * math.log10(ratio)
    assert abs(x) < 4.0
    for _ in range(48):
        x = math.nextafter(x, -math.inf)
    outcomes = set()
    for _ in range(97):
        params = RadioParams(sinr_threshold_db=x)
        expected = _oracle_ids(wanted, [receiver], points, params)
        assert decode_batch(wanted, [receiver], links, params) == expected
        outcomes.add(bool(expected))
        x = math.nextafter(x, math.inf)
    return outcomes == {True, False}


def _sinr(links, wanted, receiver, interferers):
    noise = 10.0 ** (PARAMS.noise_floor_dbm / 10.0)
    peak = sum(float(tr.rx_mw[receiver]) for tr in interferers)
    return float(wanted.rx_mw[receiver]) / (noise + peak)


def test_decode_tie_of_two_interior_additions_ordered_per_receiver():
    # B is louder at receiver 1, C at receiver 2: both start at 13.0, so the
    # two receivers add them in opposite orders on top of A's level
    crossed = 0
    for k in range(40):
        points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0),
                  (-38.0 - 0.37 * k, -38.0), (62.0, -22.0), (-22.0, 62.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, 3, points, 0.0, 9.0, 20.0),
                              _on_air(links, 4, points, 0.0, 13.0, 20.5),
                              _on_air(links, 5, points, 0.0, 13.0, 20.5)]
        assert links.rx_mw[4, 1] > links.rx_mw[5, 1] and links.rx_mw[5, 2] > links.rx_mw[4, 2]
        for r in (1, 2):
            crossed += _agrees_near_ratio(wanted, r, links, points,
                                          _sinr(links, wanted, r, wanted.interferers))
    assert crossed >= 60


def test_decode_tie_of_an_addition_and_a_removal():
    # receiver 1 survives either interferer alone, not both: the removal at
    # 13.5 must come first although the addition is listed first
    points = [(0.0, 0.0), (30.0, 0.0), (72.0, 0.0), (30.0, 42.0)]
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
    wanted.interferers = [_on_air(links, 2, points, 0.0, 13.5, 15.0),
                          _on_air(links, 3, points, 0.0, 8.0, 13.5)]
    assert decode_batch(wanted, [1], links, PARAMS) == _oracle_ids(wanted, [1], points, PARAMS) == [1]


def test_decode_tie_of_clamped_starts_only():
    # every interferer began before the wanted packet and outlasts it: one
    # group of clamped starts at 10.0, whose removals at the end drop out
    crossed = 0
    for k in range(30):
        points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (-50.0 - 0.41 * k, -10.0),
                  (60.0, -30.0), (-30.0, 60.0), (20.0, -65.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, j, points, 0.0, s, s + 7.5)
                              for j, s in ((3, 4.0), (4, 9.5), (5, 6.0), (6, 10.0))]
        for r in (1, 2):
            crossed += _agrees_near_ratio(wanted, r, links, points,
                                          _sinr(links, wanted, r, wanted.interferers))
    assert crossed >= 40


def test_decode_tie_of_removals_only_at_the_end():
    # distinct interior starts, every interferer still on the air at 17.5
    crossed = 0
    for k in range(30):
        points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (-50.0 - 0.41 * k, -10.0),
                  (60.0, -25.0), (-25.0, 60.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, j, points, 0.0, s, 20.0)
                              for j, s in ((3, 11.0), (4, 12.5), (5, 14.0))]
        for r in (1, 2):
            crossed += _agrees_near_ratio(wanted, r, links, points,
                                          _sinr(links, wanted, r, wanted.interferers))
    assert crossed >= 40


def test_decode_mixed_airtimes():
    # a neighbour count (2.5 ms) ends before an advertisement (3.33 ms)
    # starts; data packets (7.5 ms) straddle both ends of the window
    ncnt, adv, data = (PARAMS.airtime_ms(n) for n in (PARAMS.ncnt_bytes, PARAMS.adv_bytes,
                                                     PARAMS.data_bytes))
    points = [(0.0, 0.0), (30.0, 0.0), (72.0, 0.0), (30.0, 42.0), (140.0, 0.0), (0.0, 150.0)]
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, points, 0.0, 10.0, 10.0 + data)
    wanted.interferers = [_on_air(links, 2, points, 0.0, 10.5, 10.5 + ncnt),
                          _on_air(links, 3, points, 0.0, 13.5, 13.5 + adv),
                          _on_air(links, 4, points, 0.0, 10.0 - 3.0, 10.0 - 3.0 + data),
                          _on_air(links, 5, points, 0.0, 15.0, 15.0 + data)]
    receivers = [1, 2, 3, 4, 5]
    assert decode_batch(wanted, receivers, links, PARAMS) == \
        _oracle_ids(wanted, receivers, points, PARAMS)
    assert 1 in decode_batch(wanted, receivers, links, PARAMS)


# instants on a 1 ms grid and airtimes that keep most ends on it, so that
# starts, ends and window boundaries coincide often
GRID_INSTANT = st.integers(7, 19).map(float)
GRID_SPAN = st.sampled_from([1.0, 2.0, 3.0, 7.5])
NEAR = st.sampled_from([0.0, 20.0, 35.0, 50.0, 60.0]) | st.floats(0.0, 80.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NEAR, NEAR), min_size=2, max_size=7),
       st.lists(st.tuples(st.integers(0, 6), st.sampled_from([0.0, -3.0, -9.0]),
                          GRID_INSTANT, GRID_SPAN), max_size=10))
def test_decode_batch_equals_decode_on_a_grid_of_instants(points, others):
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, points, 0.0, 10.0, 17.5)
    wanted.interferers = [_on_air(links, k % len(points), points, p, s, s + dur)
                          for k, p, s, dur in others]
    receivers = list(range(1, len(points)))
    # a mis-ordered tie moves a peak by up to 3 dB: thresholds every 0.5 dB
    # turn most such moves into a different decision
    for half_db in range(-12, 29):
        params = RadioParams(sinr_threshold_db=0.5 * half_db)
        assert decode_batch(wanted, receivers, links, params) == \
            _oracle_ids(wanted, receivers, points, params)
