import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfc as scipy_erfc

from gradcast.config import default_config
from gradcast.costfield import CostState
from gradcast.policies import (Battery, DataPacket, PolicyParams,
                               UGrabState, bgb_decide, consume_energy, eligible,
                               energy_reward, erfc_forward_probability,
                               grab_decide, ladder_reward, note_overheard,
                               pgrab_decide, reach_power,
                               remaining_life_probability, rx_joules, stall_check,
                               strategy_payoff, ugrab_decide, upgrab_decide)


class StubNode:
    """Just enough node state for the pure decision functions."""

    def __init__(self, q=50.0, capacity=1.0, consumed=0.0, n_forwarded=0,
                 delta=0.0, bounds=(-12.0, 12.0), spread=2.0, is_sink=False,
                 pathloss=None):
        self.id = 1
        self.is_sink = is_sink
        self.cost = CostState(q=q)
        self.battery = Battery(capacity, consumed, n_forwarded)
        self.seen = set()
        self.delta = delta
        self.delta_bounds = bounds
        self.ugrab = UGrabState(spread=spread)
        self.neighbor_pathloss = pathloss if pathloss is not None else {2: 20.0, 3: 30.0, 4: 40.0, 5: 45.0}
        self.p_ia = (erfc_forward_probability(self.delta, spread, bounds)
                     if self.delta is not None else None)


class SeqRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def pkt(q_p=100.0, budget=math.inf, consumed=0.0):
    return DataPacket((0, 0), q_p, 0.0, budget=budget, consumed=consumed)


# ---------------------------------------------------------------------------
# eligibility


def test_eligibility_requires_strictly_lower_cost():
    node = StubNode(q=100.0)
    assert not eligible(node, pkt(q_p=100.0))
    assert eligible(node, pkt(q_p=100.1))


def test_duplicates_are_ineligible():
    node = StubNode(q=10.0)
    p = pkt()
    assert eligible(node, p)
    node.seen.add(p.msg_id)
    assert not eligible(node, p)


def test_sink_never_forwards():
    sink = StubNode(q=0.0, is_sink=True)
    assert not eligible(sink, pkt())


def test_bgb_always_forwards():
    assert bgb_decide(StubNode(), pkt()).forward


# ---------------------------------------------------------------------------
# credit policy


def test_grab_wide_when_slack_non_negative():
    params = PolicyParams()
    radio = default_config().phys
    node = StubNode(q=50.0)
    dec = grab_decide(node, pkt(budget=200.0, consumed=100.0), params, radio)
    assert dec.forward and dec.wide
    # power aimed at the 3rd nearest known neighbor, 40 dB of loss
    assert dec.tx_power_dbm == pytest.approx(
        min(radio.tx_power_dbm, radio.sensitivity_dbm + params.power_margin_db + 40.0))


def test_grab_narrow_when_budget_exhausted():
    params = PolicyParams()
    radio = default_config().phys
    node = StubNode(q=50.0)
    dec = grab_decide(node, pkt(budget=140.0, consumed=100.0), params, radio)
    assert dec.forward and not dec.wide
    assert dec.tx_power_dbm == pytest.approx(
        min(radio.tx_power_dbm, radio.sensitivity_dbm + params.power_margin_db + 20.0))


def test_grab_without_neighbors_drops():
    node = StubNode(pathloss={})
    assert not grab_decide(node, pkt(), PolicyParams(), default_config().phys).forward


def test_reach_power_with_fewer_neighbors_uses_farthest():
    params = PolicyParams()
    radio = default_config().phys
    node = StubNode(pathloss={7: 25.0})
    assert reach_power(node, 3, params, radio) == pytest.approx(
        min(radio.tx_power_dbm, radio.sensitivity_dbm + params.power_margin_db + 25.0))


def test_reach_power_never_exceeds_default():
    params = PolicyParams(power_margin_db=6.0)
    radio = default_config().phys
    node = StubNode(pathloss={7: 70.0})
    assert reach_power(node, 1, params, radio) == radio.tx_power_dbm


@given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=30),
       st.floats(min_value=0.0, max_value=50.0))
def test_grab_budget_safety(costs, f_alpha):
    """A packet's consumed cost never exceeds its budget on a wide decision."""
    params = PolicyParams(credit_factor=f_alpha)
    radio = default_config().phys
    q_source = 100.0
    budget = q_source * (1.0 + f_alpha)
    consumed = 0.0
    q = q_source
    for hop_cost in costs:
        consumed += hop_cost
        q = max(q - hop_cost, 0.0)
        node = StubNode(q=q)
        dec = grab_decide(node, pkt(q_p=q + 1.0, budget=budget, consumed=consumed),
                          params, radio)
        if dec.wide:
            assert consumed <= budget


def test_grab_slack_constant_on_an_exact_chain():
    """On a chain where consumed tracks the cost drop exactly, slack stays at
    the credit and every hop broadcasts wide."""
    params = PolicyParams(credit_factor=2.0)
    radio = default_config().phys
    q_source = 120.0
    budget = q_source * 3.0
    consumed = 0.0
    q = q_source
    for hop in (30.0, 30.0, 30.0):
        consumed += hop
        q -= hop
        dec = grab_decide(StubNode(q=q), pkt(q_p=q + hop, budget=budget,
                                             consumed=consumed), params, radio)
        slack = budget - (consumed + q)
        assert slack == pytest.approx(2.0 * q_source)
        assert dec.wide


# ---------------------------------------------------------------------------
# probability pieces


def test_life_probability_reference_points():
    fresh = Battery(1.0)
    assert remaining_life_probability(fresh) == 1.0
    empty = Battery(1.0, consumed_j=1.0, n_forwarded=3)
    assert remaining_life_probability(empty) == 0.0
    # half the energy gone over 5 broadcasts: five more expected, 5/6
    half = Battery(1.0, consumed_j=0.5, n_forwarded=5)
    assert remaining_life_probability(half) == pytest.approx(5.0 / 6.0, abs=1e-12)


@given(st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.integers(0, 100))
def test_life_probability_in_unit_interval(capacity, frac, n_fwd):
    b = Battery(capacity, consumed_j=capacity * frac, n_forwarded=n_fwd)
    p = remaining_life_probability(b)
    assert 0.0 <= p <= 1.0


def test_life_probability_monotone_in_remaining_energy():
    ps = [remaining_life_probability(Battery(1.0, consumed_j=c, n_forwarded=4))
          for c in (0.8, 0.5, 0.2)]
    assert ps == sorted(ps)


def test_erfc_probability_against_independent_oracle():
    for bounds in [(-60.0, 40.0), (-12.0, 12.0), (-6.8, 5.2)]:
        lo, hi = bounds
        c = (lo + hi) / 2.0
        for spread in (1.0, 2.0, 4.0, 8.0, 16.0):
            m = spread * (hi - lo) / 24.0
            for delta in np.linspace(lo - 5.0, hi + 5.0, 41):
                want = 0.5 * scipy_erfc((delta - c) / m)
                got = erfc_forward_probability(float(delta), spread, bounds)
                assert got == pytest.approx(want, abs=1e-12)


def test_erfc_probability_center_and_endpoints():
    bounds = (-60.0, 40.0)
    for spread in (1.0, 2.0, 4.0, 8.0, 16.0):
        assert abs(erfc_forward_probability(-10.0, spread, bounds) - 0.5) < 1e-12
    assert erfc_forward_probability(40.0, 1.0, bounds) < 1e-6
    assert erfc_forward_probability(-60.0, 1.0, bounds) > 1.0 - 1e-6


def test_erfc_probability_strictly_decreasing():
    # sampled inside the transition band, where doubles still resolve the
    # decrease (the far tails round to exactly 0 and 1)
    bounds = (-60.0, 40.0)
    xs = np.linspace(-30.0, 15.0, 1000)
    for spread in (1.0, 2.0, 16.0):
        values = [erfc_forward_probability(float(x), spread, bounds) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))


@given(st.floats(-55.0, 39.0))   # below -55 even spread 2 saturates in doubles
def test_larger_spread_flattens_toward_half(delta):
    bounds = (-60.0, 40.0)
    devs = [abs(erfc_forward_probability(delta, k, bounds) - 0.5)
            for k in (1.0, 2.0, 4.0, 8.0)]
    if delta == -10.0:
        assert all(d < 1e-12 for d in devs)
    else:
        assert all(a > b for a, b in zip(devs, devs[1:]))


def test_degenerate_bounds_guard():
    assert erfc_forward_probability(3.0, 2.0, (3.0, 3.0)) == 0.5
    assert erfc_forward_probability(2.0, 2.0, (3.0, 3.0)) == 1.0
    assert erfc_forward_probability(4.0, 2.0, (3.0, 3.0)) == 0.0


def test_ladder_reference_values():
    assert ladder_reward(0) == pytest.approx(0.25, abs=1e-12)
    assert ladder_reward(1) == pytest.approx(0.4375, abs=1e-12)
    assert ladder_reward(2) == pytest.approx(0.578125, abs=1e-12)


@given(st.integers(0, 60))
def test_ladder_monotone_bounded(k):
    # bounded to steps where doubles still resolve the geometric term
    assert 0.0 < ladder_reward(k) < 1.0
    assert ladder_reward(k + 1) > ladder_reward(k)


def test_payoff_table():
    assert strategy_payoff(False, False, 0.25, 0.3) == 0.3
    assert strategy_payoff(False, True, 0.25, 0.3) == 0.3
    assert strategy_payoff(True, False, 0.25, 0.3) == 0.25
    assert strategy_payoff(True, True, 0.25, 0.3) == pytest.approx(-0.75)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_congested_forwarding_never_beats_dropping(alpha, r):
    # with rewards in [0, 1] the congestion penalty makes dropping dominant
    if alpha < 1.0:
        assert strategy_payoff(True, True, alpha, r) < strategy_payoff(False, True, alpha, r) + 1e-12


# ---------------------------------------------------------------------------
# probabilistic decision


def test_pgrab_dead_battery_never_forwards():
    node = StubNode(delta=-12.0, consumed=1.0, n_forwarded=5)
    dec = pgrab_decide(node, SeqRng([0.0]))
    assert not dec.forward and dec.p_fw == 0.0


def test_pgrab_certain_forward():
    node = StubNode(delta=-100.0)   # far below the interval: p_ia ~ 1
    dec = pgrab_decide(node, SeqRng([0.999999]))
    assert dec.forward and dec.p_fw > 1.0 - 1e-9


def test_pgrab_matches_analytic_rate():
    node = StubNode(delta=-2.0, bounds=(-12.0, 12.0), spread=2.0,
                    consumed=0.25, n_forwarded=10)
    p = node.p_ia * remaining_life_probability(node.battery)
    rng = np.random.default_rng(1234)
    n = 10_000
    hits = sum(pgrab_decide(node, rng).forward for _ in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


# ---------------------------------------------------------------------------
# utility decisions


def test_ugrab_fresh_node_forwards_on_free_channel():
    node = StubNode()
    dec = ugrab_decide(node, c_n=0, limit=1, rng=SeqRng([]))
    assert dec.forward and dec.forward_reward == 0.25 and dec.energy_reward == 0.0


def test_ugrab_drops_when_energy_reward_wins():
    node = StubNode(consumed=0.5)
    dec = ugrab_decide(node, c_n=0, limit=1, rng=SeqRng([]))
    assert not dec.forward and dec.energy_reward == 0.5


def test_ugrab_busy_channel_drops_outright():
    node = StubNode()   # rewards would say forward
    dec = ugrab_decide(node, c_n=1, limit=1, rng=SeqRng([]))
    assert not dec.forward and dec.c_n == 1


def test_ugrab_tie_flips_fair_coin():
    node = StubNode(consumed=0.25)   # energy reward equals the initial ladder
    assert ugrab_decide(node, 0, 1, SeqRng([0.49])).forward
    assert not ugrab_decide(node, 0, 1, SeqRng([0.51])).forward


def test_energy_reward_is_consumed_fraction():
    assert energy_reward(Battery(2.0, consumed_j=0.5)) == 0.25


# ---------------------------------------------------------------------------
# hybrid decision


def test_upgrab_busy_channel_drops_and_still_adapts_spread():
    node = StubNode(delta=-5.0)
    before = node.ugrab.spread
    dec = upgrab_decide(node, c_n=2, limit=1, params=PolicyParams(), rng=SeqRng([]))
    assert not dec.forward
    assert node.ugrab.spread == before - 1


def test_upgrab_spread_moves_match_stated_rules():
    """Below-center nodes step the spread down, above-center nodes step it up,
    for busy and free channels alike; the probability therefore drifts up in
    both cases, which is pinned here rather than assumed."""
    params = PolicyParams()
    for c_n in (0, 1):
        node = StubNode(delta=-5.0, spread=4.0)
        p_before = erfc_forward_probability(node.delta, node.ugrab.spread, node.delta_bounds)
        upgrab_decide(node, c_n, 1, params, SeqRng([0.0, 0.0]))
        assert node.ugrab.spread == 3.0
        p_after = erfc_forward_probability(node.delta, node.ugrab.spread, node.delta_bounds)
        assert p_after > p_before

        node = StubNode(delta=5.0, spread=4.0)
        p_before = erfc_forward_probability(node.delta, node.ugrab.spread, node.delta_bounds)
        upgrab_decide(node, c_n, 1, params, SeqRng([0.0, 0.0]))
        assert node.ugrab.spread == 5.0
        p_after = erfc_forward_probability(node.delta, node.ugrab.spread, node.delta_bounds)
        assert p_after > p_before


def test_upgrab_spread_clamped():
    params = PolicyParams(spread_factor_max=4.0)
    node = StubNode(delta=-5.0, spread=1.0)
    upgrab_decide(node, 0, 1, params, SeqRng([0.0, 0.0]))
    assert node.ugrab.spread == 1.0
    node = StubNode(delta=5.0, spread=4.0)
    upgrab_decide(node, 0, 1, params, SeqRng([0.0, 0.0]))
    assert node.ugrab.spread == 4.0


def test_upgrab_center_discrepancy_is_spread_invariant():
    for spread in (1.0, 2.0, 16.0, 64.0):
        assert erfc_forward_probability(0.0, spread, (-12.0, 12.0)) == pytest.approx(0.5, abs=1e-12)


def test_upgrab_forward_probability_gates_the_action():
    params = PolicyParams()
    node = StubNode(delta=-100.0, spread=1.0)   # p_ia ~ 1
    dec = upgrab_decide(node, 0, 1, params, SeqRng([1.0 - 1e-9]))
    assert dec.forward and dec.p_fw > 1.0 - 1e-9
    node = StubNode(delta=100.0, spread=1.0)    # p_ia ~ 0
    dec = upgrab_decide(node, 0, 1, params, SeqRng([1e-12]))
    assert not dec.forward


def test_upgrab_energy_reward_can_refuse_action():
    node = StubNode(delta=-100.0, consumed=0.5)
    dec = upgrab_decide(node, 0, 1, PolicyParams(), rng=SeqRng([]))
    assert not dec.forward


# ---------------------------------------------------------------------------
# stall detection


def test_ema_updates():
    params = PolicyParams(ema_weight=0.1)
    node = StubNode(q=50.0)
    note_overheard(node, 80.0, params)
    assert node.ugrab.n_high == pytest.approx(0.1)
    assert node.ugrab.n_low == 0.0
    note_overheard(node, 20.0, params)
    assert node.ugrab.n_high == pytest.approx(0.09)
    assert node.ugrab.n_low == pytest.approx(0.1)
    note_overheard(node, 50.0, params)   # equal cost: no opinion
    assert node.ugrab.n_high == pytest.approx(0.09)


def test_ema_converges_geometrically():
    params = PolicyParams(ema_weight=0.1)
    node = StubNode(q=50.0)
    for _ in range(200):
        note_overheard(node, 80.0, params)
    assert node.ugrab.n_high == pytest.approx(1.0, abs=1e-6)


def test_no_traffic_no_step():
    node = StubNode()
    assert not stall_check(node, PolicyParams())
    assert node.ugrab.steps == 0


def test_stalled_node_climbs_ladder_and_resumes():
    """Scripted trace: a 30%-drained node keeps hearing upstream packets while
    nothing moves on below; one ladder step lifts its reward past the energy
    reward and it resumes forwarding."""
    params = PolicyParams()
    node = StubNode(q=50.0, consumed=0.30)
    assert not ugrab_decide(node, 0, 1, SeqRng([])).forward   # 0.25 < 0.30
    for _ in range(20):
        note_overheard(node, 90.0, params)
    assert stall_check(node, params)
    assert node.ugrab.forward_reward == pytest.approx(0.4375)
    assert ugrab_decide(node, 0, 1, SeqRng([])).forward


def test_downstream_traffic_suppresses_the_step():
    params = PolicyParams()
    node = StubNode(q=50.0)
    for _ in range(20):
        note_overheard(node, 90.0, params)
        note_overheard(node, 10.0, params)
    assert not stall_check(node, params)


# ---------------------------------------------------------------------------
# energy accounting


def test_zero_length_packet_costs_nothing():
    node = StubNode()
    radio = default_config().phys
    assert consume_energy(node, 0, 0.0, PolicyParams(), radio) == 0.0


def test_tx_draws_more_than_rx_for_equal_packets():
    radio = default_config().phys
    params = PolicyParams()
    a, b = StubNode(), StubNode()
    tx = consume_energy(a, 36, 0.0, params, radio)
    rx = b.battery.drain(rx_joules(36, params, radio))
    assert tx > rx > 0.0
    assert a.battery.n_forwarded == 1
    assert b.battery.n_forwarded == 0


def test_tx_energy_scales_with_radiated_power():
    radio = default_config().phys
    params = PolicyParams()
    hi = consume_energy(StubNode(), 36, 0.0, params, radio)
    lo = consume_energy(StubNode(), 36, -10.0, params, radio)
    assert lo == pytest.approx(hi / 10.0)


def test_battery_drain_clamps_at_empty():
    b = Battery(0.001)
    took = b.drain(5.0)
    assert took == pytest.approx(0.001)
    assert b.remaining_j == 0.0 and b.dead


def test_debits_accumulate_exactly():
    node = StubNode()
    radio = default_config().phys
    params = PolicyParams()
    debits = [node.battery.drain(rx_joules(36, params, radio)) for _ in range(50)]
    total = 0.0
    for d in debits:
        total += d
    assert total == node.battery.consumed_j
