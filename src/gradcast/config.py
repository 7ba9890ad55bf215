"""Configuration: section dataclasses, the key = value file format, overrides.

The file format is flat text sectioned by module name::

    [scenario]
    protocol = P-GRAB
    p_f = 0.4

Unknown sections or keys are an error (catches typos). Overrides take the
dotted form ``section.key=value``; a bare ``key=value`` works when the key is
unique across sections.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields, replace

from .costfield import CostfieldParams
from .mac import MacParams
from .phys import RadioParams, received_power_dbm
from .policies import PROTOCOLS, PolicyParams, stall_period


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioParams:
    protocol: str = "BGB"
    node_count: int = 200
    area_width_m: float = 250.0
    area_height_m: float = 250.0
    sink_placement: str = "corner"   # corner (0,0) or center
    event_count: int = 30
    event_spread: int = 5            # total messages uniform in count +/- spread
    p_f: float = 0.0
    failure_side: str = "rx"         # where the failure lottery is drawn: rx | tx
    require_connected: bool = False  # resample topology until all nodes reach the sink
    replications: int = 30
    base_seed: int = 1
    data_start_ms: float = 5500.0
    data_window_ms: float = 15000.0
    max_sim_time_ms: float = 26500.0


@dataclass
class MetricsParams:
    include_sink: bool = False   # count the sink in energy / dead statistics
    energy_audit: bool = False   # keep a per-debit log and re-check the ledger


@dataclass
class SimConfig:
    phys: RadioParams
    mac: MacParams
    costfield: CostfieldParams
    policies: PolicyParams
    scenario: ScenarioParams
    metrics: MetricsParams

    def copy(self) -> "SimConfig":
        return SimConfig(**{f.name: replace(getattr(self, f.name)) for f in fields(self)})


_SECTIONS = {
    "phys": RadioParams,
    "mac": MacParams,
    "costfield": CostfieldParams,
    "policies": PolicyParams,
    "scenario": ScenarioParams,
    "metrics": MetricsParams,
}


def default_config() -> SimConfig:
    return SimConfig(**{name: cls() for name, cls in _SECTIONS.items()})


def _coerce(section: str, key: str, ftype, raw: str):
    raw = raw.strip()
    try:
        if ftype is bool:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from None


def _field_types(cls) -> dict[str, type]:
    out = {}
    for f in fields(cls):
        t = f.type
        if isinstance(t, str):   # evaluated lazily under postponed annotations
            t = {"bool": bool, "int": int, "float": float, "str": str}.get(t, str)
        out[f.name] = t
    return out


def resolve_key(dotted: str) -> tuple[str, str]:
    """The (section, key) that ``section.key``, or a bare ``key`` unique
    across sections, names."""
    if "." in dotted:
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section: {section}")
        if key not in _field_types(_SECTIONS[section]):
            raise ConfigError(f"unknown config key: {section}.{key}")
        return section, key
    hits = [name for name, cls in _SECTIONS.items() if dotted in _field_types(cls)]
    if not hits:
        raise ConfigError(f"unknown config key: {dotted}")
    if len(hits) > 1:
        raise ConfigError(f"ambiguous config key {dotted}: sections {', '.join(hits)}")
    return hits[0], dotted


def set_value(cfg: SimConfig, dotted: str, raw: str) -> None:
    """Apply one ``section.key`` (or unique bare ``key``) assignment in place."""
    section, key = resolve_key(dotted)
    ftype = _field_types(_SECTIONS[section])[key]
    setattr(getattr(cfg, section), key, _coerce(section, key, ftype, raw))


def apply_overrides(cfg: SimConfig, pairs) -> SimConfig:
    out = cfg.copy()
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value: {pair!r}")
        dotted, raw = pair.split("=", 1)
        set_value(out, dotted.strip(), raw)
    validate(out)
    return out


def parse_text(text: str, source: str = "<config>") -> SimConfig:
    cfg = default_config()
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any section")
        key, raw = stripped.split("=", 1)
        try:
            set_value(cfg, f"{section}.{key.strip()}", raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    validate(cfg)
    return cfg


def load_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_text(text, source=path)


def config_text(cfg: SimConfig) -> str:
    """Render every key with its current value (the defaults file generator)."""
    lines = []
    for name in _SECTIONS:
        lines.append(f"[{name}]")
        section = getattr(cfg, name)
        for f in fields(section):
            lines.append(f"{f.name} = {getattr(section, f.name)}")
        lines.append("")
    return "\n".join(lines)


def _require(ok: bool, key: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{key} {rule}")


def _linear(db: float) -> float:
    """``10.0 ** (db / 10.0)``, the run's dB to linear conversion, with inf
    where Python's power overflows (it raises instead)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _airtime_ms(p: RadioParams, n_bytes: int) -> float:
    """``p.airtime_ms(n_bytes)``, with inf where the byte count is too large
    to convert to a float (Python raises instead)."""
    try:
        return p.airtime_ms(n_bytes)
    except OverflowError:
        return math.inf


def validate(cfg: SimConfig) -> None:
    """Reject every value the simulator cannot run meaningfully, naming the
    key: non-finite floats first, then each key's range."""
    for name, cls in _SECTIONS.items():
        section = getattr(cfg, name)
        for key, ftype in _field_types(cls).items():
            value = getattr(section, key)
            _require(ftype is not float or math.isfinite(value), f"{name}.{key}",
                     f"must be a finite number, got {value}")
    p, m, c, pol, sc = cfg.phys, cfg.mac, cfg.costfield, cfg.policies, cfg.scenario
    _require(p.alpha_exp >= 2.0, "phys.alpha_exp", "must be >= 2")
    _require(p.sensitivity_dbm > p.noise_floor_dbm, "phys.sensitivity_dbm",
             "must exceed phys.noise_floor_dbm")
    _require(p.bitrate_bps > 0, "phys.bitrate_bps", "must be positive")
    _require(p.d_min_m > 0, "phys.d_min_m", "must be positive")
    for key in ("adv_bytes", "ncnt_bytes", "data_bytes"):
        _require(getattr(p, key) >= 1, f"phys.{key}", "must be >= 1")
        # at least the ulp of the run's end, so every transmission ends after it starts
        airtime = _airtime_ms(p, getattr(p, key))
        _require(math.ulp(sc.max_sim_time_ms) <= airtime < math.inf,
                 f"phys.{key} * 8 / phys.bitrate_bps * 1000", f"(the airtime in ms) must be "
                 f"finite and at least the ulp of scenario.max_sim_time_ms, got {airtime}")
    # the run works in mW: each conversion it makes must come out finite
    for key in ("noise_floor_dbm", "tx_power_dbm"):
        _require(math.isfinite(_linear(getattr(p, key))), f"phys.{key}",
                 "must convert to a finite mW, 10 ** (dBm / 10)")
    _require(0.0 < _linear(p.sinr_threshold_db) < math.inf, "phys.sinr_threshold_db",
             "must convert to a positive, finite ratio, 10 ** (dB / 10)")
    peak_dbm = received_power_dbm(p.tx_power_dbm, 0.0, p.alpha_exp, p.d_min_m)
    _require(math.isfinite(_linear(peak_dbm)),
             "phys.tx_power_dbm - 10 * phys.alpha_exp * log10(phys.d_min_m)",
             f"(the received power at phys.d_min_m) must convert to a finite mW, "
             f"got {peak_dbm} dBm")
    _require(m.backoff_min_ms >= 0, "mac.backoff_min_ms", "must be >= 0")
    _require(m.backoff_max_ms >= m.backoff_min_ms, "mac.backoff_max_ms",
             "must be >= mac.backoff_min_ms")
    _require(m.congestion_limit >= 1, "mac.congestion_limit", "must be >= 1")
    _require(m.carrier_sense_offset_db >= 0, "mac.carrier_sense_offset_db", "must be >= 0")
    _require(c.beta_adv_ms >= 0, "costfield.beta_adv_ms", "must be >= 0")
    _require(c.bounds_mode in ("computed", "fixed"), "costfield.bounds_mode",
             "must be computed or fixed")
    _require(c.fixed_bounds_lo < c.fixed_bounds_hi, "costfield.fixed_bounds_lo",
             "must be below costfield.fixed_bounds_hi")
    _require(c.ncnt_start_ms >= 0, "costfield.ncnt_start_ms", "must be >= 0")
    _require(c.ncnt_window_ms >= 0, "costfield.ncnt_window_ms", "must be >= 0")
    _require(pol.credit_factor >= 0, "policies.credit_factor", "must be >= 0")
    _require(pol.wide_neighbor_count >= 1, "policies.wide_neighbor_count", "must be >= 1")
    for key in ("spread_factor", "spread_factor_max"):
        _require(getattr(pol, key) >= 1.0, f"policies.{key}", "must be >= 1")
    _require(0.0 < pol.ladder_scale <= 1.0, "policies.ladder_scale", "must lie in (0, 1]")
    _require(0.0 < pol.ladder_ratio < 1.0, "policies.ladder_ratio", "must lie in (0, 1)")
    for key in ("ema_weight", "stall_high", "stall_low"):
        _require(0.0 <= getattr(pol, key) <= 1.0, f"policies.{key}", "must lie in [0, 1]")
    # a zero period would re-arm the stall sweep at the same instant forever
    _require(pol.stall_check_factor > 0, "policies.stall_check_factor", "must be positive")
    for key in ("tx_draw_w", "rx_draw_w"):
        _require(getattr(pol, key) >= 0, f"policies.{key}", "must be >= 0")
    _require(pol.initial_energy_j > 0, "policies.initial_energy_j", "must be positive")
    _require(sc.protocol in PROTOCOLS, "scenario.protocol",
             f"must be one of {', '.join(PROTOCOLS)}, got {sc.protocol!r}")
    _require(sc.node_count >= 2, "scenario.node_count", "must be >= 2")
    for key in ("area_width_m", "area_height_m", "data_window_ms", "max_sim_time_ms"):
        _require(getattr(sc, key) > 0, f"scenario.{key}", "must be positive")
    _require(sc.data_start_ms >= 0, "scenario.data_start_ms", "must be >= 0")
    # a data phase that starts after the run ends injects nothing
    _require(sc.data_start_ms < sc.max_sim_time_ms, "scenario.data_start_ms",
             "must be below scenario.max_sim_time_ms")
    # injections past the end of the run would never fire
    _require(sc.data_start_ms + sc.data_window_ms <= sc.max_sim_time_ms,
             "scenario.data_window_ms",
             "plus scenario.data_start_ms must not exceed scenario.max_sim_time_ms")
    # the count stage's latest send, after its longest backoff, leaves the
    # air by the data start: a node settles its discrepancy once, at its
    # first decision, from the counts heard so far
    if PROTOCOLS[sc.protocol].counts:
        count_end = (c.ncnt_start_ms + c.ncnt_window_ms + m.backoff_max_ms
                     + p.airtime_ms(p.ncnt_bytes))
        _require(count_end <= sc.data_start_ms, "costfield.ncnt_start_ms",
                 "plus costfield.ncnt_window_ms, mac.backoff_max_ms and the airtime of "
                 f"phys.ncnt_bytes must not exceed scenario.data_start_ms, got {count_end}")
    # a ladder protocol's sweep checks every sensor each period until the
    # end (desk.cfg: 840 checks), and at a period below the end's ulp, forever
    if PROTOCOLS[sc.protocol].ladder:
        period = stall_period(pol, sc)
        checks = (sc.node_count * (sc.max_sim_time_ms - sc.data_start_ms) / period
                  if period >= math.ulp(sc.max_sim_time_ms) else math.inf)
        _require(checks <= 1e6, "policies.stall_check_factor", "must give at most 1e6 stall "
                 f"checks (node_count * data phase / period), got {checks:.3g}")
    _require(not sc.require_connected or peak_dbm > p.sensitivity_dbm, "scenario.require_connected",
             f"needs nodes phys.d_min_m apart to link: {peak_dbm} dBm must exceed sensitivity")
    _require(0.0 <= sc.p_f <= 1.0, "scenario.p_f", "must lie in [0, 1]")
    _require(sc.failure_side in ("rx", "tx"), "scenario.failure_side", "must be rx or tx")
    _require(sc.sink_placement in ("corner", "center"), "scenario.sink_placement",
             "must be corner or center")
    _require(sc.replications >= 1, "scenario.replications", "must be >= 1")
    _require(sc.base_seed >= 0, "scenario.base_seed", "must be >= 0")
    for key in ("event_count", "event_spread"):
        _require(getattr(sc, key) >= 0, f"scenario.{key}", "must be >= 0")
