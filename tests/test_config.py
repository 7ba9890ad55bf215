import dataclasses
import itertools
import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcast import policies
from gradcast.config import (ConfigError, apply_overrides, config_text, default_config,
                             load_config, parse_text, resolve_key, validate)
from gradcast.policies import PROTOCOLS
from gradcast.scenario import run_replication


def test_defaults_round_trip_through_text():
    cfg = default_config()
    again = parse_text(config_text(cfg))
    assert again == cfg


def test_shipped_desk_config_matches_defaults():
    cfg = load_config("configs/desk.cfg")
    assert cfg == default_config()


def test_unknown_key_is_named_in_the_error():
    with pytest.raises(ConfigError, match="phys.bogus"):
        parse_text("[phys]\nbogus = 3\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="radio"):
        parse_text("[radio]\ntx_power_dbm = 1\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_text("p_f = 0.4\n")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="scenario.p_f"):
        parse_text("[scenario]\np_f = often\n")


def test_bad_value_names_its_file_and_line():
    with pytest.raises(ConfigError, match=r"^x\.cfg:3: bad value for scenario\.p_f: 'often'$"):
        parse_text("[scenario]\nnode_count = 44\np_f = often\n", source="x.cfg")


def test_comments_and_blanks_ignored():
    cfg = parse_text("# top\n\n[scenario]\np_f = 0.4  # inline\n")
    assert cfg.scenario.p_f == 0.4


def test_types_coerced_from_field_declarations():
    cfg = parse_text("[scenario]\nnode_count = 44\nrequire_connected = true\n"
                     "protocol = U-GRAB\n[phys]\nperfect_decode = yes\n")
    assert cfg.scenario.node_count == 44
    assert cfg.scenario.require_connected is True
    assert cfg.scenario.protocol == "U-GRAB"
    assert cfg.phys.perfect_decode is True


def test_dotted_override():
    cfg = apply_overrides(default_config(), ["scenario.p_f=0.4"])
    assert cfg.scenario.p_f == 0.4


def test_bare_override_resolves_unique_key():
    cfg = apply_overrides(default_config(), ["protocol=GRAB"])
    assert cfg.scenario.protocol == "GRAB"


def test_bare_override_unknown_key():
    with pytest.raises(ConfigError, match="nope"):
        apply_overrides(default_config(), ["nope=1"])


def test_override_does_not_mutate_base():
    base = default_config()
    apply_overrides(base, ["scenario.p_f=0.8"])
    assert base.scenario.p_f == 0.0


def test_validation_catches_bad_ranges():
    for bad in ("p_f=1.5", "node_count=1", "protocol=FLOOD", "failure_side=maybe"):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), [bad])
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), ["phys.sensitivity_dbm=-120"])
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), ["mac.backoff_max_ms=-1", "mac.backoff_min_ms=0"])


@pytest.mark.parametrize("key", [
    f"{section}.{f.name}" for section in ("phys", "mac", "costfield", "policies", "scenario")
    for f in dataclasses.fields(getattr(default_config(), section)) if f.type == "float"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_every_float_key_must_be_finite(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        apply_overrides(default_config(), [f"{key}={value}"])


@pytest.mark.parametrize("pair", [
    "policies.initial_energy_j=0", "scenario.area_width_m=-5", "scenario.area_height_m=0",
    "scenario.data_window_ms=-1", "scenario.max_sim_time_ms=0", "scenario.base_seed=-1",
    "policies.stall_check_factor=0", "policies.ema_weight=1.5", "policies.tx_draw_w=-0.1",
    "costfield.ncnt_window_ms=-1", "mac.carrier_sense_offset_db=-3", "phys.data_bytes=0",
    "scenario.data_start_ms=26500", "scenario.data_start_ms=30000",
    "scenario.data_window_ms=21001",
    # the count stage runs to 6,522.5 ms, past the 5,500 ms data start
    "scenario.protocol=P-GRAB costfield.ncnt_start_ms=5400",
    # mW conversions that overflow, and a threshold that underflows to 0
    "phys.sinr_threshold_db=4000", "phys.sinr_threshold_db=-4000",
    "phys.tx_power_dbm=4000", "phys.d_min_m=1e-300", "phys.alpha_exp=1000",
    "phys.sensitivity_dbm=5000 phys.noise_floor_dbm=4000",
    # airtimes that overflow: a byte count too large for a float, and a
    # bitrate that makes every airtime inf
    f"phys.data_bytes={'9' * 400}", f"phys.adv_bytes={'9' * 400}", "phys.bitrate_bps=1e-310",
    # airtimes below the spacing of floats near the end of the run, where a
    # packet would end as it starts
    "phys.bitrate_bps=1e20", "scenario.max_sim_time_ms=1e15 phys.bitrate_bps=1e7",
])
def test_out_of_range_value_names_its_key(pair):
    """``pair`` is one or more overrides; the last one's key is named."""
    overrides = pair.split()
    with pytest.raises(ConfigError, match=overrides[-1].split("=")[0].replace(".", r"\.")):
        apply_overrides(default_config(), overrides)


@pytest.mark.parametrize("overrides", [
    # desk.cfg's U-GRAB with a 5e-7 ms stall period: about 8e12 stall checks
    # in 4e10 sweeps
    ["scenario.protocol=U-GRAB", "policies.stall_check_factor=1e-9"],
    ["scenario.protocol=UP-GRAB", "policies.stall_check_factor=0.008"],
    # 4e5 checks, but a 5e-11 ms period never moves a clock near 1e6 ms
    ["scenario.protocol=U-GRAB", "scenario.node_count=2", "scenario.event_count=1",
     "scenario.max_sim_time_ms=1e6", "scenario.data_start_ms=999999.99999",
     "scenario.data_window_ms=1e-5", "policies.stall_check_factor=5e-6"],
])
def test_stall_checks_without_end_name_the_factor(overrides):
    with pytest.raises(ConfigError, match=r"^policies\.stall_check_factor must give at most"):
        apply_overrides(default_config(), overrides)


def test_stall_check_bound_is_the_closed_form_count():
    # desk.cfg's ladder protocols: 200 sensors, 21,000 ms of data phase and
    # a period of stall_check_factor * 500 ms
    factor = 200 * 21000.0 / 500.0 / 1e6   # a million checks, the most allowed
    for protocol in ("U-GRAB", "UP-GRAB"):
        apply_overrides(default_config(), [f"scenario.protocol={protocol}",
                                           f"policies.stall_check_factor={factor}"])
    # protocols without the ladder run no stall sweep
    for protocol in ("BGB", "GRAB", "P-GRAB"):
        apply_overrides(default_config(), [f"scenario.protocol={protocol}",
                                           "policies.stall_check_factor=1e-9"])


def test_unconnectable_radio_names_require_connected():
    # the received power at d_min_m is +30 dBm: no two nodes can link
    overrides = ["scenario.node_count=2", "phys.sensitivity_dbm=50"]
    apply_overrides(default_config(), overrides)
    with pytest.raises(ConfigError, match=r"^scenario\.require_connected"):
        apply_overrides(default_config(), overrides + ["scenario.require_connected=true"])


def test_run_ending_before_the_data_phase_names_its_start():
    with pytest.raises(ConfigError, match=r"^scenario\.data_start_ms must be below "
                                          r"scenario\.max_sim_time_ms"):
        apply_overrides(default_config(), ["scenario.max_sim_time_ms=3000"])


def test_data_window_may_end_with_the_run():
    cfg = apply_overrides(default_config(), ["scenario.data_window_ms=21000"])
    assert cfg.scenario.data_start_ms + cfg.scenario.data_window_ms == \
        cfg.scenario.max_sim_time_ms


def test_every_design_default_has_a_key():
    text = config_text(default_config())
    for key in ("beta_adv_ms", "bounds_mode", "backoff_max_ms", "credit_factor",
                "wide_neighbor_count", "spread_factor", "ladder_ratio",
                "ema_weight", "stall_check_factor", "tx_draw_w", "rx_draw_w",
                "initial_energy_j", "sink_placement", "event_spread",
                "failure_side", "d_min_m", "carrier_sense_offset_db",
                "power_margin_db", "include_sink"):
        assert key in text, key


def test_config_copy_is_deep_enough():
    cfg = default_config()
    clone = cfg.copy()
    clone.scenario.p_f = 0.9
    assert cfg.scenario.p_f == 0.0
    assert dataclasses.asdict(cfg) != dataclasses.asdict(clone)


@st.composite
def _small_configs(draw):
    """Configs at 2-20 nodes and data phases under a second, each key drawn
    from the range ``validate`` accepts for it. Keys that a rule ties to
    another are drawn to keep it, but on one draw in ten on their own, so
    that the rules across keys also reject some. The stall check factor and
    the message count are held where a ladder protocol's stall checks stay
    in the thousands (``validate`` allows a million)."""
    cfg = default_config()
    p, m, c, pol, sc = cfg.phys, cfg.mac, cfg.costfield, cfg.policies, cfg.scenario
    loose = draw(st.integers(0, 9)) == 0

    def above(lo, free, extra):
        """A value from ``lo`` to ``lo + extra``, or ``free``'s on a loose draw."""
        return draw(free if loose else st.floats(0.0, extra).map(lambda x: lo + x))

    p.alpha_exp = draw(st.floats(2.0, 6.0))
    p.tx_power_dbm = draw(st.floats(-30.0, 30.0))
    p.noise_floor_dbm = draw(st.floats(-200.0, -60.0))
    p.sensitivity_dbm = above(math.nextafter(p.noise_floor_dbm, math.inf),
                              st.floats(-100.0, -20.0), 100.0)
    p.sinr_threshold_db = draw(st.floats(-20.0, 30.0))
    p.bitrate_bps = draw(st.floats(8000.0, 1e6))
    p.d_min_m = draw(st.floats(0.01, 5.0))
    p.adv_bytes, p.ncnt_bytes, p.data_bytes = draw(st.tuples(*[st.integers(1, 200)] * 3))
    p.perfect_decode = draw(st.booleans())
    m.backoff_min_ms = draw(st.floats(0.0, 20.0))
    m.backoff_max_ms = above(m.backoff_min_ms, st.floats(0.0, 70.0), 50.0)
    m.congestion_limit = draw(st.integers(1, 5))
    m.carrier_sense_offset_db = draw(st.floats(0.0, 40.0))
    c.beta_adv_ms = draw(st.floats(0.0, 20.0))
    c.bounds_mode = draw(st.sampled_from(["computed", "fixed"]))
    c.fixed_bounds_lo = draw(st.floats(-100.0, 100.0))
    c.fixed_bounds_hi = above(math.nextafter(c.fixed_bounds_lo, math.inf),
                              st.floats(-100.0, 100.0), 100.0)
    c.ncnt_start_ms = draw(st.floats(0.0, 200.0))
    c.ncnt_window_ms = draw(st.floats(0.0, 100.0))
    pol.credit_factor = draw(st.floats(0.0, 50.0))
    pol.wide_neighbor_count = draw(st.integers(1, 10))
    pol.power_margin_db = draw(st.floats(-10.0, 20.0))
    pol.spread_factor, pol.spread_factor_max = draw(st.tuples(*[st.floats(1.0, 100.0)] * 2))
    pol.ladder_scale = draw(st.floats(0.0, 1.0, exclude_min=True))
    pol.ladder_ratio = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    pol.ema_weight, pol.stall_high, pol.stall_low = draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))
    pol.stall_check_factor = draw(st.floats(0.5, 20.0))
    pol.tx_draw_w, pol.rx_draw_w = draw(st.tuples(*[st.floats(0.0, 1.0)] * 2))
    pol.initial_energy_j = draw(st.floats(1e-6, 1.0))
    sc.protocol = draw(st.sampled_from(sorted(PROTOCOLS)))
    sc.node_count = draw(st.integers(2, 20))
    sc.area_width_m, sc.area_height_m = draw(st.tuples(*[st.floats(1.0, 300.0)] * 2))
    sc.sink_placement = draw(st.sampled_from(["corner", "center"]))
    sc.event_count = draw(st.integers(0, 6))
    sc.event_spread = draw(st.integers(0, 3))
    sc.p_f = draw(st.floats(0.0, 1.0))
    sc.failure_side = draw(st.sampled_from(["rx", "tx"]))
    sc.require_connected = draw(st.booleans())
    sc.replications = 1
    sc.base_seed = draw(st.integers(0, 2 ** 31))
    # after the count stage's latest send leaves the air
    sc.data_start_ms = above(c.ncnt_start_ms + c.ncnt_window_ms + m.backoff_max_ms
                             + p.airtime_ms(p.ncnt_bytes), st.floats(0.0, 600.0), 300.0)
    sc.data_window_ms = draw(st.floats(20.0, 300.0))
    sc.max_sim_time_ms = sc.data_start_ms + sc.data_window_ms + draw(st.floats(0.0, 300.0))
    cfg.metrics.include_sink, cfg.metrics.energy_audit = draw(st.tuples(st.booleans(),
                                                                        st.booleans()))
    return cfg


# the most work one draw may do, counting each event played and each stall
# check: its adverts, counts and message floods take hundreds of events, its
# stall checks up to about 12,000 (one sweep event checks every alive sensor)
WORK_BUDGET = 20_000


@settings(max_examples=150, deadline=None)
@given(_small_configs())
def test_every_config_that_validates_runs_to_a_bounded_end(cfg):
    """A drawn config is rejected by a ``ConfigError`` that names a key, or
    plays a replication within the work budget, raising no warning (an
    energy audit re-checks the ledger when drawn)."""
    done = itertools.count(1)
    check = policies.stall_check

    def count(*_):
        assert next(done) <= WORK_BUDGET

    def counted_check(node, params):
        count()
        return check(node, params)

    with warnings.catch_warnings(), mock.patch.object(policies, "stall_check", counted_check):
        warnings.simplefilter("error")
        try:
            validate(cfg)
            run_replication(cfg, 0, event_trace=count)
        except ConfigError as err:
            # the message starts with the key, or an expression of keys
            resolve_key(str(err).split()[0].rstrip(":"))
