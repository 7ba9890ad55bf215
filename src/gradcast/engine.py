"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

All times are virtual milliseconds. Events with equal fire times dequeue in
insertion order, which makes every run a total order and hence reproducible.
"""

from __future__ import annotations

import functools
import heapq
from array import array
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional

import numpy as np


class EventKind(Enum):
    # members are singletons compared by identity: hash them in C, not Python
    __hash__ = object.__hash__

    TX_START = "tx_start"
    TX_END = "tx_end"
    TIMER = "timer"
    INJECT = "inject"


class Event(NamedTuple):
    """A queued event. It sits on the heap as it is: tuples order by
    (fire_at, seq), and seq is unique, so no comparison reaches the kind or
    the payload."""
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


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row t: xor h[t], multiply h[t + 1]."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ v >> 16


def seed_words(seed: int, run_index: int, purpose: str, nodes) -> np.ndarray:
    """Row i is ``SeedSequence([seed ^ run_index, nodes[i], STREAM_PURPOSES[purpose]])
    .generate_state(4, np.uint64)``, that ``make_stream``'s PCG64 seed, in one
    uint32 pass (numpy's hash, NEP 19): the entropy's first four words, zero-padded,
    fill a pool, mixed with itself and each later word, then hashed to eight."""
    key = seed ^ run_index   # >= 0, as SeedSequence requires
    words = [key >> s & 0xFFFFFFFF for s in range(0, max(key.bit_length(), 1), 32)]
    k = len(words)   # the node's word follows the key's
    words += [0, STREAM_PURPOSES[purpose]] + [0] * (2 - k)
    entropy = np.repeat(np.array(words, np.uint32)[:, None], len(nodes), axis=1)
    entropy[k] = nodes
    t = np.arange(4 * len(words) + 1, dtype=np.uint32)[:, None]   # 4 * len(words) hashmixes
    h = np.uint32(0x43B0D7E5) * np.uint32(0x931E8875) ** t
    pool = _hashmix(entropy[:4], h[:5])
    for s in range(4):
        dst = [d for d in range(4) if d != s]
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[s], h[4 + 3 * s:8 + 3 * s])
        pool[dst] = mixed ^ mixed >> 16
    for i, extra in enumerate(entropy[4:]):
        mixed = 0xCA01F9DD * pool - 0x4973F715 * _hashmix(extra, h[16 + 4 * i:21 + 4 * i])
        pool = mixed ^ mixed >> 16
    out = np.uint32(0x8B51F9DD) * np.uint32(0x58F38DED) ** t[:9]
    state = _hashmix(np.concatenate((pool, pool)), out)
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _row_seed_class() -> type:
    """A seed sequence handing PCG64 a precomputed row (see ``grow``), made at
    the first call: importing ``numpy.random`` costs about 5.4 MB on top of numpy."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a seed row is PCG64's 4 uint64 words, not {n_words} {dtype}")
            return self.row
    return RowSeed


# a desk replication reads at most one block from a mac or policy stream and
# at most four from a failure stream
BLOCK = 64


def grow(draws: array, row: np.ndarray) -> None:
    """Append the next ``BLOCK`` doubles of one (seed, run, node, purpose)
    stream to ``draws``, which holds its first ``len(draws)``. ``row`` is the
    node's row of its purpose's ``seed_words``, ``make_stream``'s PCG64 seed.
    PCG64 spends one 64-bit output per double, so a fresh ``PCG64(RowSeed(row))``
    advanced by ``len(draws)`` gives the doubles a kept generator would, and
    none is kept: a node's draws are all it holds between blocks."""
    bits = np.random.PCG64(_row_seed_class()(row))
    bits.advance(len(draws))
    draws.frombytes(np.random.Generator(bits).random(BLOCK).tobytes())


class Simulator:
    """Single-threaded event loop of one replication: the clock and the
    event queue."""

    def __init__(self, trace: Optional[Callable[[Event], None]] = None):
        self.clock = 0.0
        self.trace = trace
        self.handler: Optional[Callable[[Simulator, Event], None]] = None
        self._heap: list[Event] = []
        self.seq = 0   # the next event's sequence number

    def schedule(self, fire_at: float, kind: EventKind, node: int = -1,
                 payload: Any = None) -> Event:
        if fire_at < self.clock:
            raise SchedulingInPastError(
                f"event scheduled at t={fire_at} behind clock t={self.clock}")
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        ev = tuple.__new__(Event, (fire_at, self.seq, kind, node, payload))
        self.seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def pending(self) -> int:
        return len(self._heap)

    def run_until_idle(self, max_time: float = float("inf")) -> float:
        """Process events in (fire_at, seq) order until the queue drains or the
        next event lies beyond max_time. Later events stay queued. Returns the
        clock after the last processed event."""
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0].fire_at <= max_time:
            ev = pop(heap)
            self.clock = ev.fire_at
            if self.trace is not None:
                self.trace(ev)
            if self.handler is not None:
                self.handler(self, ev)
        return self.clock
