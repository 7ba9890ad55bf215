"""Machine-speed calibration for the end-to-end times.

Shared two-core machines change speed by tens of percent within seconds and
over minutes, far more than the changes the benchmark must resolve. So the
benchmark times a short fixed interpreter loop next to the work it measures:
a Sampler interrupts a run every INTERVAL_S seconds of wall time to time the
loop, and the set-up measurement times it right before and after each build.
The loop shares no code with the simulator, allocates no container object and
runs with the garbage collector off, so neither the simulator's code nor the
size of its heap enters the loop's own work. The speed over a stretch of time
is the reference loop time divided by the loop times sampled in it: 1.0 at the
reference speed, above 1 when the machine runs faster. Host times multiplied
by it read in seconds of a machine at the reference speed. Time spent in the
samples is counted in ``spent`` so that callers can take it out of their own
timings.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time

# median loop time sampled during a desk-flood run on the machine that defined
# the benchmark (2 vCPUs,
# Python 3.11.7); it fixes only the scale of the calibrated metrics
REFERENCE_S = 0.008
INTERVAL_S = 0.2
MIN_SAMPLES = 5
POOL = 2048           # objects in the graph the loop walks
VISITS = 12288        # objects one loop visits


class _Node:
    __slots__ = ("x", "y", "q", "a", "b", "c")

    def __init__(self, x: float, y: float, q: float, a: int, b: int, c: int):
        self.x, self.y, self.q, self.a, self.b, self.c = x, y, q, a, b, c


class Sampler:
    """Times a fixed loop, on a wall-clock interval timer while the context is
    open, or on demand. The loop follows links through a scattered object
    graph and does float arithmetic, the simulator's kind of work, which makes
    it slow down with the machine the way the simulator does."""

    def __init__(self):
        rng = random.Random(1)
        self._nodes = [_Node(rng.random() * 250.0, rng.random() * 250.0, rng.random(),
                             rng.randrange(POOL), rng.randrange(POOL), rng.randrange(POOL))
                       for _ in range(POOL)]
        self._order = [rng.randrange(POOL) for _ in range(VISITS)]
        self.samples: list[float] = []
        self.spent = 0.0

    def loop(self) -> float:
        nodes = self._nodes
        hypot = math.hypot
        acc = 0.0
        for i in self._order:
            n = nodes[i]
            acc += hypot(n.x - 125.0, n.y - 125.0) * 1e-3
            acc += 10.0 ** (nodes[n.a].q - 1.0)
            acc += 10.0 ** (nodes[n.b].q - 1.0)
            acc += 10.0 ** (nodes[n.c].q - 1.0)
        return acc

    def measure(self) -> float:
        """Host seconds one loop takes now, with the garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.loop()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.spent += dt
        return dt

    def sample(self, *_signal_args) -> None:
        self.samples.append(self.measure())

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:
            self.sample()

    def speed(self, lo: int = 0, hi: int | None = None) -> float:
        """Median speed over samples ``lo:hi``, widened on both sides to at
        least MIN_SAMPLES samples."""
        hi = len(self.samples) if hi is None else hi
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        return statistics.median(REFERENCE_S / s for s in self.samples[lo:hi])
