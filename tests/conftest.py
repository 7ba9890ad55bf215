"""Shared fixtures: compact configurations and scripted topologies."""

import pytest
from numpy.random import PCG64, Generator, SeedSequence

from gradcast.config import default_config
from gradcast.engine import _NO_NODE, STREAM_PURPOSES

# acceptance criterion lines are echoed after the run summary so they stay
# visible without -s; the list rides on the pytest config object


def pytest_configure(config):
    config.criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "criterion_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def numpy_stream(seed: int, run_index: int, node: int | None, purpose: str) -> Generator:
    """numpy's own generator for ``engine.make_stream``'s key: the oracle the
    engine's PCG64 streams must match bit for bit."""
    node_key = _NO_NODE if node is None else node
    return Generator(PCG64(SeedSequence([seed ^ run_index, node_key,
                                         STREAM_PURPOSES[purpose]])))


def small_cfg(**scenario_overrides):
    """Desk defaults shrunk to a 60-node arena for fast integration tests."""
    cfg = default_config()
    cfg.scenario.node_count = 60
    cfg.scenario.area_width_m = 150.0
    cfg.scenario.area_height_m = 150.0
    cfg.scenario.replications = 2
    for key, value in scenario_overrides.items():
        setattr(cfg.scenario, key, value)
    return cfg


def line_cfg(n_sensors=4, spacing_m=40.0, **scenario_overrides):
    """A true chain: adjacent nodes in range, next-nearest out of range.

    Returns (cfg, positions, sink_pos); sensors sit at spacing*k for k=n..1,
    the sink at the origin, so positions[0] is the far end.
    """
    cfg = default_config()
    cfg.scenario.node_count = n_sensors
    cfg.scenario.area_width_m = spacing_m * n_sensors + 10.0
    cfg.scenario.area_height_m = 10.0
    cfg.mac.backoff_min_ms = 0.0
    cfg.mac.backoff_max_ms = 0.0
    cfg.scenario.event_count = 0
    cfg.scenario.event_spread = 0
    for key, value in scenario_overrides.items():
        setattr(cfg.scenario, key, value)
    positions = [(spacing_m * (n_sensors - i), 0.0) for i in range(n_sensors)]
    return cfg, positions, (0.0, 0.0)


@pytest.fixture
def cfg60():
    return small_cfg()
