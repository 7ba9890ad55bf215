"""Every name the benchmark's span tracer wraps still exists.

``perfbench/tracing.install`` replaces module and class attributes of the
simulator by name, so deleting or renaming one of them breaks every traced
benchmark run. Installing it on freshly imported modules, in a process of
its own because the patching is process-wide, catches that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing
from gradcast import config, costfield, engine, mac, metrics, phys, policies, scenario
modules = dict(config=config, costfield=costfield, engine=engine, mac=mac,
               metrics=metrics, phys=phys, policies=policies, scenario=scenario)
tracing.install(tracing.SpanRecorder(), modules)
"""


def test_tracer_installs_on_fresh_modules():
    script = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
