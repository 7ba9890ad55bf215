import dataclasses

import pytest

from gradcast.config import (ConfigError, apply_overrides, config_text,
                             default_config, load_config, parse_text)


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
    # desk.cfg's U-GRAB with a 5e-7 ms stall period: about 8e12 timer events
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
    # protocols without the ladder arm no stall timer
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
