"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

All times are virtual milliseconds. Events with equal fire times dequeue in
insertion order, which makes every run a total order and hence reproducible.
"""

from __future__ import annotations

import heapq
from array import array
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


class Tape:
    """Every draw of one (seed, run, node, purpose) stream, for all the cells
    of a topology group to read. The generator is seeded at the first draw,
    through ``make_stream``, and the tape then grows in blocks: numpy fills
    ``random(k)`` with the same doubles as k scalar ``random()`` calls."""
    __slots__ = ("key", "gen", "draws")

    # a desk replication reads at most one block from a mac or policy stream
    # and at most four from a failure stream
    BLOCK = 64

    def __init__(self, seed: int, run_index: int, node: int, purpose: str):
        self.key = (seed, run_index, node, purpose)
        self.gen: np.random.Generator | None = None
        self.draws = array("d")

    def grow(self) -> None:
        if self.gen is None:
            self.gen = make_stream(*self.key)
        self.draws.frombytes(self.gen.random(self.BLOCK).tobytes())


class Cursor:
    """One cell's read position on a tape. It references only the tape: the
    group's tapes outlive each cell, and a reference back to the simulator
    or network would keep a played replication alive."""
    __slots__ = ("tape", "pos")

    def __init__(self, tape: Tape):
        self.tape = tape
        self.pos = 0

    def random(self) -> float:
        """The next uniform double in [0, 1)."""
        pos = self.pos
        draws = self.tape.draws
        if pos == len(draws):
            self.tape.grow()
        self.pos = pos + 1
        return draws[pos]

    def uniform(self, lo: float, hi: float) -> float:
        """numpy's scalar ``Generator.uniform(lo, hi)``, which computes
        ``lo + (hi - lo) * random()`` from the same double."""
        return lo + (hi - lo) * self.random()


class Simulator:
    """Single-threaded event loop owning the state of one replication.

    ``tapes`` maps (seed, run, node, purpose) to a ``Tape``; cells that share
    one dict replay the same draws without seeding them again."""

    def __init__(self, seed: int, run_index: int = 0,
                 trace: Optional[Callable[[Event], None]] = None,
                 tapes: dict | None = None):
        self.seed = seed
        self.run_index = run_index
        self.clock = 0.0
        self.trace = trace
        self.handler: Optional[Callable[[Simulator, Event], None]] = None
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.tapes = {} if tapes is None else tapes
        self._cursors: dict[tuple[int, str], Cursor] = {}

    def stream(self, node: int, purpose: str) -> Cursor:
        """This replication's cursor on the node's stream for ``purpose``."""
        key = (node, purpose)
        cursor = self._cursors.get(key)
        if cursor is None:
            tape_key = (self.seed, self.run_index, node, purpose)
            tape = self.tapes.get(tape_key)
            if tape is None:
                tape = self.tapes[tape_key] = Tape(*tape_key)
            cursor = self._cursors[key] = Cursor(tape)
        return cursor

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
