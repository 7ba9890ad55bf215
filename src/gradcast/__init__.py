"""Discrete-event simulator for gradient-broadcast routing in sensor networks."""

from .config import (ConfigError, SimConfig, apply_overrides, default_config,
                     load_config)
from .metrics import CellAggregate, RunMetrics, aggregate
from .scenario import play, run_replication, sweep

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "SimConfig", "apply_overrides", "default_config", "load_config",
    "CellAggregate", "RunMetrics", "aggregate",
    "play", "run_replication", "sweep",
    "__version__",
]
