import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcast import phys
from gradcast.config import default_config
from gradcast.engine import make_stream
from gradcast.phys import (RadioParams, Transmission, decode, decode_batch, distance,
                           is_neighbor, link_table, pathloss_db, received_power_dbm,
                           sinr_limits)
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


def _tx(sender, power, start, end, ident="p"):
    return Transmission(sender, power, start, end, ident)


def test_decode_clean_reception():
    wanted = _tx(0, 0.0, 10.0, 17.5)
    assert decode((30.0, 0.0), wanted, [], PARAMS, {0: (0.0, 0.0)})


def test_decode_below_sensitivity_fails():
    wanted = _tx(0, 0.0, 10.0, 17.5)
    far = (10.0 ** (54.5 / 30.0) + 1.0, 0.0)
    assert not decode(far, wanted, [], PARAMS, {0: (0.0, 0.0)})


def test_equal_power_full_overlap_interferer_fails():
    # both senders 30 m away on opposite sides: SINR ~ 0 dB, below any
    # threshold of 3 dB or more
    wanted = _tx(0, 0.0, 10.0, 17.5)
    interf = _tx(1, 0.0, 10.0, 17.5)
    assert not decode((0.0, 0.0), wanted, [interf], PARAMS, {0: (-30.0, 0.0), 1: (30.0, 0.0)})


def test_interferer_ending_before_start_is_ignored():
    wanted = _tx(0, 0.0, 10.0, 17.5)
    early = _tx(1, 0.0, 2.0, 10.0)   # ends exactly at start
    positions = {0: (-30.0, 0.0), 1: (30.0, 0.0)}
    assert decode((0.0, 0.0), wanted, [early], PARAMS, positions) == \
        decode((0.0, 0.0), wanted, [], PARAMS, positions) is True


def test_partial_overlap_still_fails_whole_duration_rule():
    # strong interferer covering only the first millisecond of the reception
    wanted = _tx(0, 0.0, 10.0, 17.5)
    burst = _tx(1, 0.0, 9.0, 11.0)
    assert not decode((0.0, 0.0), wanted, [burst], PARAMS, {0: (-30.0, 0.0), 1: (10.0, 0.0)})


def test_own_transmission_blocks_reception():
    # a receiver transmitting anything during the window cannot decode
    wanted = _tx(0, 0.0, 10.0, 17.5)
    own = _tx(2, -20.0, 12.0, 13.0)
    assert not decode((0.0, 0.0), wanted, [own], PARAMS, {0: (-30.0, 0.0), 2: (0.0, 0.0)})


def _sampled_decode(rx_pos, wanted, concurrent, params, positions, steps=2000):
    """Independent check: sample the SINR densely over the reception."""
    pr = received_power_dbm(wanted.tx_power_dbm, distance(rx_pos, positions[wanted.sender]),
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
                o.tx_power_dbm, distance(rx_pos, positions[o.sender]),
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
    wanted = _tx(0, 0.0, 10.0, 17.5)
    positions = [(0.0, 0.0)] + [(x, y) for x, y, _, _ in interferers]
    concurrent = []
    for i, (x, y, start, dur) in enumerate(interferers):
        concurrent.append(_tx(i + 1, 0.0, start, start + dur))
    got = decode((rx_x, 0.0), wanted, concurrent, params, positions)
    # the boundary sweep is exact, so it is at least as strict as sampling at
    # any finite set of instants: a sampled failure forces an exact failure
    assert not got or _sampled_decode((rx_x, 0.0), wanted, concurrent, params, positions)
    assert _sampled_decode((rx_x, 0.0), wanted, concurrent, params, positions,
                           steps=997) or not got


@given(st.lists(st.tuples(st.floats(0, 120), st.floats(0, 120),
                          st.floats(5, 25), st.floats(1, 8)),
                min_size=1, max_size=5))
def test_adding_interferers_never_helps(interferers):
    wanted = _tx(0, 0.0, 10.0, 17.5)
    rx = (40.0, 0.0)
    positions = [(0.0, 0.0)] + [(x, y) for x, y, _, _ in interferers]
    concurrent = []
    previous = decode(rx, wanted, concurrent, PARAMS, positions)
    for i, (x, y, start, dur) in enumerate(interferers):
        concurrent.append(_tx(i + 1, 0.0, start, start + dur))
        now = decode(rx, wanted, concurrent, PARAMS, positions)
        assert not (now and not previous)
        previous = now


def test_perfect_decode_hook_skips_interference_not_sensitivity():
    params = RadioParams(perfect_decode=True)
    wanted = _tx(0, 0.0, 10.0, 17.5)
    jam = _tx(1, 0.0, 10.0, 17.5)
    positions = {0: (-30.0, 0.0), 1: (1.0, 0.0)}
    assert decode((0.0, 0.0), wanted, [jam], params, positions)
    far = (10.0 ** (54.5 / 30.0) + 1.0, 0.0)
    assert not decode(far, wanted, [], params, positions)


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
        mw_row = links.bank[i].tolist()
        row = links.reception(i, -7.25).row   # before reading links.bank, which it may grow
        reduced = links.bank[row].tolist()
        for j, b in enumerate(pts):
            d = distance(a, b)
            assert pl_row[j] == pathloss_db(d, PARAMS.alpha_exp, PARAMS.d_min_m)
            assert mw_row[j] == 10.0 ** (received_power_dbm(
                PARAMS.tx_power_dbm, d, PARAMS.alpha_exp, PARAMS.d_min_m) / 10.0)
            assert reduced[j] == 10.0 ** (received_power_dbm(
                -7.25, d, PARAMS.alpha_exp, PARAMS.d_min_m) / 10.0)
    # the default power reads the table's own row instead of a copy
    assert links.reception(5, PARAMS.tx_power_dbm).row == 5
    assert links.filled == 2 * len(pts)


@st.composite
def _point_sets(draw):
    """Point sets whose sizes fall below, at and across link_table's row
    blocks, and the radio parameters to tabulate them at. Coordinates come
    from a grid of 0, d_min_m and its fractions as well as from an
    interval, and a point may copy another or share one of its coordinates:
    duplicates, pairs exactly d_min_m apart and closer, and axis-aligned
    pairs come up often."""
    block = phys._BLOCK_ROWS
    n = draw(st.sampled_from([1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 3])
             | st.integers(1, 3 * block + 2))
    d_min = draw(st.sampled_from([0.1, 0.5, 2.0]) | st.floats(0.01, 5.0))
    coord = st.sampled_from([0.0, d_min, d_min / 2.0, 2.0 * d_min]) | st.floats(0.0, 120.0)
    points = []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "copy", "same x", "same y"]))
        x, y = draw(st.sampled_from(points)) if points else (0.0, 0.0)
        if kind != "copy" or not points:
            x = x if kind == "same x" else draw(coord)
            y = y if kind == "same y" else draw(coord)
        points.append((x, y))
    params = RadioParams(alpha_exp=draw(st.floats(2.0, 6.0)), d_min_m=d_min,
                         tx_power_dbm=draw(st.floats(-20.0, 10.0)),
                         sensitivity_dbm=draw(st.floats(-90.0, -30.0)))
    return points, params


@settings(max_examples=150, deadline=None)
@given(_point_sets())
def test_link_table_is_the_scalar_formulas_bit_for_bit(case):
    points, params = case
    links = link_table(points, params)
    pl = links.pathloss_db.tolist()
    mw = links.bank[:len(points)].tolist()
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            d = distance(a, b)
            assert pl[i][j] == pathloss_db(d, params.alpha_exp, params.d_min_m)
            assert mw[i][j] == 10.0 ** (received_power_dbm(
                params.tx_power_dbm, d, params.alpha_exp, params.d_min_m) / 10.0)
        assert links.neighbors[i] == [j for j, b in enumerate(points)
                                      if j != i and is_neighbor(a, b, params)]


ARENA_61 = [(float(x), float(y))
            for x, y in np.random.default_rng(7).uniform(0.0, 150.0, (61, 2))]


@settings(max_examples=200, deadline=None)
@given(sender=st.integers(0, 60), power=st.floats(-40.0, 20.0))
def test_reduced_power_rows_are_exact_and_kept(sender, power):
    links = link_table(ARENA_61, PARAMS)
    rec = links.reception(sender, power)
    assert links.reception(sender, power) is rec
    if power == PARAMS.tx_power_dbm:
        assert rec.row == sender   # the default-power row
        return
    expected = [10.0 ** ((power - pl) / 10.0) for pl in links.pathloss_db[sender].tolist()]
    assert links.bank[rec.row].tolist() == expected
    # a fresh table's first key is appended after the default-power rows
    assert list(links.receptions) == [(sender, power)]
    assert rec.row == len(ARENA_61) and links.filled == len(ARENA_61) + 1


def test_a_first_reduced_power_key_overwrites_no_default_row():
    links = link_table(ARENA_61, PARAMS)
    default = links.bank[:61].copy()
    rec = links.reception(7, -6.0)
    assert rec.row == 61
    assert np.array_equal(links.bank[:61], default)
    # the default-power pass built after it keeps every row in its place
    for sender in range(61):
        assert links.reception(sender, PARAMS.tx_power_dbm).row == sender
    assert links.reception(9, -6.0).row == 62 and links.reception(7, -6.0) is rec
    assert np.array_equal(links.bank[:61], default)
    assert links.bank[61].tolist() == [
        10.0 ** ((-6.0 - pl) / 10.0) for pl in links.pathloss_db[7].tolist()]


def test_bank_grows_keeping_every_row():
    links = link_table(ARENA_61, PARAMS)
    default = links.bank[:61].copy()
    capacity = len(links.bank)
    powers = [-0.25 * k for k in range(1, 2 * capacity)]
    rows = [links.reception(k % 61, p).row for k, p in enumerate(powers)]
    assert len(links.bank) > capacity
    assert rows == list(range(61, 61 + len(powers)))
    assert np.array_equal(links.bank[:61], default)
    for k, (p, row) in enumerate(zip(powers, rows)):
        assert links.reception(k % 61, p).row == row
        assert links.bank[row].tolist() == [
            10.0 ** ((p - pl) / 10.0) for pl in links.pathloss_db[k % 61].tolist()]


@settings(max_examples=200, deadline=None)
@given(sender=st.integers(0, 60),
       power=st.sampled_from([0.0, -3.0, -12.5, -84.5]) | st.floats(-90.0, 0.0))
def test_hearers_cut_the_neighbor_lists_at_the_power(sender, power):
    links = link_table(ARENA_61, PARAMS)
    ids = links.reception(sender, power).ids
    assert ids.dtype == np.intp and not ids.flags.writeable
    # at or below the default power: the neighbor list, filtered by power
    row = links.pathloss_db[sender].tolist()
    assert ids.tolist() == [j for j in links.neighbors[sender]
                            if power - row[j] > PARAMS.sensitivity_dbm]
    # the sender's own entry is the d_min_m clamp, audible above -84.5 dBm,
    # and still left out
    assert row[sender] == pathloss_db(0.0, PARAMS.alpha_exp, PARAMS.d_min_m)
    assert sender not in ids.tolist()
    assert links.reception(sender, power).ids is ids


# ---------------------------------------------------------------------------
# SINR limits: decode's threshold test as one comparison per hearer

def _passes(signal, noise, peak, threshold):
    """decode's test in numpy arithmetic, where x / 0 is inf rather than an
    error (a noise floor of -4000 dBm is 0.0 mW)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return bool(np.float64(signal) / (np.float64(noise) + peak) >= threshold)


MW = (st.sampled_from([0.0, 5e-324, 1e-300, 10.0 ** -10.5, 1.0, 1e300, sys.float_info.max])
      | st.floats(0.0, sys.float_info.max))
THRESHOLD = (st.sampled_from([1.0, 10.0 ** 0.3, 0.5, 10.0 ** -0.3, sys.float_info.min, 1e-310])
             | st.floats(5e-324, 1e300))
# signals whose clean SINR sits within a few ulps of the threshold
AT_THRESHOLD = st.sampled_from([0.0, 1.0, -1.0, 3.0, 2.0 ** 40]).map(
    lambda k: 1.0 + k * 2.0 ** -52)


@settings(max_examples=300, deadline=None)
@given(st.lists(MW, min_size=1, max_size=6), MW, THRESHOLD, st.lists(MW, max_size=4),
       st.lists(AT_THRESHOLD, max_size=4))
@example([1.0], 1.0, 1.0, [], [])   # the limit is 2**-53, tiny beside the noise
def test_sinr_limit_is_the_threshold_test(signals, noise, threshold, peaks, at_threshold):
    signals += [x for k in at_threshold if math.isfinite(x := threshold * noise * k)]
    lim, halvings = sinr_limits(np.array(signals), noise, threshold)
    # each limit lies within two ulps of its estimate, two halvings per
    # search; only a subnormal threshold sends them over the whole range
    assert halvings <= (4 if threshold >= sys.float_info.min else 128)
    for s, limit in zip(signals, lim.tolist()):
        assert limit == -1.0 or limit >= 0.0
        near = [limit, math.nextafter(limit, math.inf), math.nextafter(limit, -math.inf)]
        for peak in [0.0, *peaks, *(near if limit >= 0.0 else [])]:
            if peak >= 0.0:
                assert (peak <= limit) == _passes(s, noise, peak, threshold)


def test_sinr_limits_need_a_positive_finite_threshold():
    for threshold in (0.0, math.inf):
        with pytest.raises(ValueError):
            sinr_limits(np.array([1.0]), 1.0, threshold)


@pytest.mark.parametrize("noise_dbm", [-105.0, -4000.0])
def test_receptions_hold_limits_at_the_default_power_and_signals_at_others(noise_dbm):
    params = RadioParams(noise_floor_dbm=noise_dbm, sinr_threshold_db=-2.5)
    links = link_table(ARENA_61, params)
    assert (links.noise_mw == 0.0) == (noise_dbm == -4000.0)
    for sender in (0, 7, 60):
        row, ids, lim, signal, clean = links.reception(sender, 0.0)
        assert row == sender and signal is None and not lim.flags.writeable
        mw = links.bank[sender].take(ids)
        assert lim.tolist() == sinr_limits(mw, links.noise_mw, links.threshold)[0].tolist()
        assert clean == tuple(ids.compress(lim >= 0.0).tolist())
        row, ids, lim, signal, clean = links.reception(sender, -9.5)
        assert lim is None and row >= len(ARENA_61)
        assert signal.tolist() == links.bank[row].take(ids).tolist()
        with np.errstate(divide="ignore"):
            assert clean == tuple(ids.compress(signal / links.noise_mw >= links.threshold)
                                  .tolist())
        assert links.reception(sender, -9.5) is links.reception(sender, -9.5)


def _oracle_ids(wanted, receivers, points, params):
    return [r for r in receivers
            if decode(points[r], wanted, wanted.interferers, params, points)]


def _on_air(links, sender, power, start, end):
    return Transmission(sender, power, start, end, "p",
                        reception=links.reception(sender, power))


def _at(params, points, wanted):
    """The link table of ``points`` at ``params``, which fix the SINR
    threshold, with ``wanted`` and its interferers on the air in it."""
    links = link_table(points, params)

    def moved(tr):
        return _on_air(links, tr.sender, tr.tx_power_dbm, tr.start, tr.end)
    wanted_there = moved(wanted)
    wanted_there.interferers = [moved(tr) for tr in wanted.interferers]
    return links, wanted_there


def _decoded(links, wanted, *ids):
    """The ids among ``ids`` that decode_batch decodes; each must hear
    ``wanted``."""
    assert set(ids) <= set(wanted.reception.ids.tolist())
    return [j for j in decode_batch(wanted, links) if j in ids]


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
    wanted = _on_air(links, 0, wanted_power, 10.0, 17.5)
    # interferers may be sent by a receiver itself (distance 0, below d_min_m)
    wanted.interferers = [_on_air(links, k % len(points), p, s, s + dur)
                          for k, p, s, dur in others]
    # every other node, above the default power too: hearers is the plain
    # sensitivity rule
    rest = list(range(1, len(points)))
    assert decode_batch(wanted, links) == \
        _oracle_ids(wanted, rest, points, params)


@pytest.mark.parametrize("power", [0.0, -6.0])
@pytest.mark.parametrize("interferer_dbm, expected", [
    (None, [1, 2, 3]),
    (0.0, [3]),
    # a transmission whose received mW underflows to 0.0 everywhere
    (-4000.0, [1, 2, 3]),
])
def test_decode_equals_decode_batch_at_a_zero_noise_floor(power, interferer_dbm, expected):
    # -4000 dBm is 0.0 mW: with nothing overlapping, or only a transmission
    # received at 0.0 mW, decode's denominator is zero, and a positive signal
    # over it passes as in numpy's division
    params = RadioParams(noise_floor_dbm=-4000.0)
    points = [(0.0, 0.0), (30.0, 0.0), (40.0, 0.0), (0.0, 0.05)]
    links = link_table(points, params)
    assert links.noise_mw == 0.0
    wanted = _on_air(links, 0, power, 10.0, 17.5)
    if interferer_dbm is not None:
        wanted.interferers = [_on_air(links, 2, interferer_dbm, 12.0, 14.0)]
    assert decode_batch(wanted, links) == \
        _oracle_ids(wanted, [1, 2, 3], points, params) == expected


def test_decode_batch_without_interferers_hands_out_a_fresh_list():
    links = link_table(ARENA_61, PARAMS)
    wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
    first = decode_batch(wanted, links)
    assert first == _oracle_ids(wanted, range(1, 61), ARENA_61, PARAMS) != []
    first.clear()
    assert decode_batch(wanted, links) == \
        _oracle_ids(wanted, range(1, 61), ARENA_61, PARAMS)


def test_decode_batch_boundary_cases():
    # receiver 1 survives either of the two interferers 42 m away, not both
    points = [(0.0, 0.0), (30.0, 0.0), (72.0, 0.0), (30.0, 42.0), (20.0, 20.0), (120.0, 0.0)]
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
    wanted.interferers = [
        _on_air(links, 2, 0.0, 13.5, 15.0),    # starts where the next one ends,
        _on_air(links, 3, 0.0, 8.0, 13.5),     # listed first: order by instant, then mW
        _on_air(links, 5, 0.0, 2.0, 10.0),     # ends exactly at the start
        _on_air(links, 5, -6.0, 4.0, 12.0),    # clamped to the start together
        _on_air(links, 5, -9.0, 9.0, 11.0),    # with this one
        _on_air(links, 4, -30.0, 16.0, 16.5),  # sent by receiver 4 itself
        _on_air(links, 3, 0.0, 17.5, 20.0),    # starts exactly at the end
    ]
    receivers = [1, 2, 3, 4, 5]
    assert decode_batch(wanted, links) == \
        _oracle_ids(wanted, receivers, points, PARAMS) == [1]
    wanted.interferers[0].start = 13.25   # now the two overlap
    assert decode_batch(wanted, links) == \
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
        wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, 2, 0.0, 9.0, 20.0)]
        at = _threshold_db_hitting(float(links.bank[0, 1]) / (noise + float(links.bank[2, 1])))
        if at is None:
            continue
        hits += 1
        above = at
        while 10.0 ** (above / 10.0) == 10.0 ** (at / 10.0):
            above = math.nextafter(above, math.inf)
        for thr_db, expected in ((at, [1]), (above, [])):
            params = RadioParams(sinr_threshold_db=thr_db)
            links, wanted = _at(params, points, wanted)
            assert _oracle_ids(wanted, [1], points, params) == expected
            assert _decoded(links, wanted, 1) == expected
    assert hits >= 10


# ---------------------------------------------------------------------------
# ties: marks at one instant, which decode orders by signed mW per receiver

def _agrees_near_ratio(wanted, receiver, points, ratio):
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
        links, wanted = _at(params, points, wanted)
        expected = _oracle_ids(wanted, [receiver], points, params)
        assert _decoded(links, wanted, receiver) == expected
        outcomes.add(bool(expected))
        x = math.nextafter(x, math.inf)
    return outcomes == {True, False}


def _sinr(links, wanted, receiver, interferers):
    noise = 10.0 ** (PARAMS.noise_floor_dbm / 10.0)
    peak = sum(float(links.bank[tr.reception.row, receiver]) for tr in interferers)
    return float(links.bank[wanted.reception.row, receiver]) / (noise + peak)


def test_decode_tie_of_two_interior_additions_ordered_per_receiver():
    # B is louder at receiver 1, C at receiver 2: both start at 13.0, so the
    # two receivers add them in opposite orders on top of A's level
    crossed = 0
    for k in range(40):
        points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0),
                  (-38.0 - 0.37 * k, -38.0), (62.0, -22.0), (-22.0, 62.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, 3, 0.0, 9.0, 20.0),
                              _on_air(links, 4, 0.0, 13.0, 20.5),
                              _on_air(links, 5, 0.0, 13.0, 20.5)]
        assert links.bank[4, 1] > links.bank[5, 1] and links.bank[5, 2] > links.bank[4, 2]
        for r in (1, 2):
            crossed += _agrees_near_ratio(wanted, r, points,
                                          _sinr(links, wanted, r, wanted.interferers))
    assert crossed >= 60


def test_decode_tie_of_an_addition_and_a_removal():
    # receiver 1 survives either interferer alone, not both: the removal at
    # 13.5 must come first although the addition is listed first
    points = [(0.0, 0.0), (30.0, 0.0), (72.0, 0.0), (30.0, 42.0)]
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
    wanted.interferers = [_on_air(links, 2, 0.0, 13.5, 15.0),
                          _on_air(links, 3, 0.0, 8.0, 13.5)]
    assert _decoded(links, wanted, 1) == \
        _oracle_ids(wanted, [1], points, PARAMS) == [1]


def test_decode_tie_of_clamped_starts_only():
    # every interferer began before the wanted packet and outlasts it: one
    # group of clamped starts at 10.0, whose removals at the end drop out
    crossed = 0
    for k in range(30):
        points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (-50.0 - 0.41 * k, -10.0),
                  (60.0, -30.0), (-30.0, 60.0), (20.0, -65.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, j, 0.0, s, s + 7.5)
                              for j, s in ((3, 4.0), (4, 9.5), (5, 6.0), (6, 10.0))]
        for r in (1, 2):
            crossed += _agrees_near_ratio(wanted, r, points,
                                          _sinr(links, wanted, r, wanted.interferers))
    assert crossed >= 40


def test_decode_tie_of_three_clamped_starts_adds_smallest_first():
    # three interferers on the air at the start, listed loudest first at
    # receiver 1, where adding them loudest first rounds differently from
    # decode's smallest first: a group of three is sorted
    crossed = 0
    for k in range(60):
        points = [(0.0, 0.0), (30.0, 0.0), (-18.0 - 0.13 * k, 8.0), (78.0, 14.0 + 0.07 * k),
                  (30.0, -48.0 - 0.05 * k)]
        links = link_table(points, PARAMS)
        loudest = sorted((2, 3, 4), key=lambda j: -links.bank[j, 1])
        mw = [float(links.bank[j, 1]) for j in loudest]
        if (mw[0] + mw[1]) + mw[2] == (mw[2] + mw[1]) + mw[0]:
            continue
        wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, j, 0.0, s, 20.0)
                              for j, s in zip(loudest, (9.0, 8.0, 7.0))]
        crossed += _agrees_near_ratio(wanted, 1, points,
                                      _sinr(links, wanted, 1, wanted.interferers))
    assert crossed >= 5


def test_decode_tie_of_removals_only_at_the_end():
    # distinct interior starts, every interferer still on the air at 17.5
    crossed = 0
    for k in range(30):
        points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (-50.0 - 0.41 * k, -10.0),
                  (60.0, -25.0), (-25.0, 60.0)]
        links = link_table(points, PARAMS)
        wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
        wanted.interferers = [_on_air(links, j, 0.0, s, 20.0)
                              for j, s in ((3, 11.0), (4, 12.5), (5, 14.0))]
        for r in (1, 2):
            crossed += _agrees_near_ratio(wanted, r, points,
                                          _sinr(links, wanted, r, wanted.interferers))
    assert crossed >= 40


def test_decode_mixed_airtimes():
    # a neighbour count (2.5 ms) ends before an advertisement (3.33 ms)
    # starts; data packets (7.5 ms) straddle both ends of the window
    ncnt, adv, data = (PARAMS.airtime_ms(n) for n in (PARAMS.ncnt_bytes, PARAMS.adv_bytes,
                                                     PARAMS.data_bytes))
    points = [(0.0, 0.0), (30.0, 0.0), (72.0, 0.0), (30.0, 42.0), (140.0, 0.0), (0.0, 150.0)]
    links = link_table(points, PARAMS)
    wanted = _on_air(links, 0, 0.0, 10.0, 10.0 + data)
    wanted.interferers = [_on_air(links, 2, 0.0, 10.5, 10.5 + ncnt),
                          _on_air(links, 3, 0.0, 13.5, 13.5 + adv),
                          _on_air(links, 4, 0.0, 10.0 - 3.0, 10.0 - 3.0 + data),
                          _on_air(links, 5, 0.0, 15.0, 15.0 + data)]
    receivers = [1, 2, 3, 4, 5]
    decoded = decode_batch(wanted, links)
    assert decoded == _oracle_ids(wanted, receivers, points, PARAMS)
    assert 1 in decoded


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
    wanted = _on_air(links, 0, 0.0, 10.0, 17.5)
    wanted.interferers = [_on_air(links, k % len(points), p, s, s + dur)
                          for k, p, s, dur in others]
    rest = list(range(1, len(points)))
    # a mis-ordered tie moves a peak by up to 3 dB: thresholds every 0.5 dB
    # turn most such moves into a different decision
    for half_db in range(-12, 29):
        params = RadioParams(sinr_threshold_db=0.5 * half_db)
        links, wanted = _at(params, points, wanted)
        assert decode_batch(wanted, links) == \
            _oracle_ids(wanted, rest, points, params)
