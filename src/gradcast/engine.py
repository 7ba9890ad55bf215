"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

All times are virtual milliseconds. Events with equal fire times dequeue in
insertion order, which makes every run a total order and hence reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

import numpy as np


class EventKind(Enum):
    TX_START = "tx_start"
    TX_END = "tx_end"
    TIMER = "timer"
    INJECT = "inject"


@dataclass(frozen=True)
class Event:
    fire_at: float
    seq: int            # insertion number, breaks fire_at ties
    kind: EventKind
    node: int           # target node id (-1 for network-level events)
    payload: Any = None


class SchedulingInPastError(RuntimeError):
    """An event was scheduled before the current clock (programming error)."""


# Purpose tags keep the per-node random streams disjoint by construction.
STREAM_PURPOSES = {"topology": 0, "traffic": 1, "mac": 2, "policy": 3, "failure": 4}
_NO_NODE = 1 << 20


def make_stream(seed: int, run_index: int, node: int | None, purpose: str) -> np.random.Generator:
    """Independent generator keyed by (seed xor run, node, purpose).

    Identical keys always produce the identical draw sequence, so a protocol
    that draws more or fewer random numbers never perturbs another stream.
    """
    node_key = _NO_NODE if node is None else node
    return np.random.default_rng([seed ^ run_index, node_key, STREAM_PURPOSES[purpose]])


class Simulator:
    """Single-threaded event loop owning the state of one replication."""

    def __init__(self, seed: int, run_index: int = 0,
                 trace: Optional[Callable[[Event], None]] = None):
        self.seed = seed
        self.run_index = run_index
        self.clock = 0.0
        self.trace = trace
        self.handler: Optional[Callable[[Simulator, Event], None]] = None
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._streams: dict[tuple[int | None, str], np.random.Generator] = {}

    def stream(self, node: int | None, purpose: str) -> np.random.Generator:
        key = (node, purpose)
        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = make_stream(self.seed, self.run_index, node, purpose)
        return gen

    def schedule(self, fire_at: float, kind: EventKind, node: int = -1,
                 payload: Any = None) -> Event:
        if fire_at < self.clock:
            raise SchedulingInPastError(
                f"event scheduled at t={fire_at} behind clock t={self.clock}")
        ev = Event(fire_at, self._seq, kind, node, payload)
        self._seq += 1
        heapq.heappush(self._heap, (fire_at, ev.seq, ev))
        return ev

    def pending(self) -> int:
        return len(self._heap)

    def run_until_idle(self, max_time: float = float("inf")) -> float:
        """Process events in (fire_at, seq) order until the queue drains or the
        next event lies beyond max_time. Later events stay queued. Returns the
        clock after the last processed event."""
        heap = self._heap
        while heap and heap[0][0] <= max_time:
            _, _, ev = heapq.heappop(heap)
            self.clock = ev.fire_at
            if self.trace is not None:
                self.trace(ev)
            if self.handler is not None:
                self.handler(self, ev)
        return self.clock
