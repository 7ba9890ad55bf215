"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

All times are virtual milliseconds. Events with equal fire times dequeue in
insertion order, which makes every run a total order and hence reproducible.
"""

from __future__ import annotations

import functools
import heapq
import math
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


def make_stream(seed: int, run_index: int, node: int | None, purpose: str) -> Stream:
    """Independent stream keyed by (seed xor run, node, purpose): the draws
    of ``numpy.random.default_rng([seed ^ run_index, node, tag])``.

    Identical keys always produce the identical draw sequence, so a protocol
    that draws more or fewer random numbers never perturbs another stream.
    """
    node_key = _NO_NODE if node is None else node
    return Stream(seed_words(seed, run_index, purpose, [node_key])[0])


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row t: xor h[t], multiply h[t + 1]."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ v >> 16


def seed_words(seed: int, run_index: int, purpose: str, nodes) -> np.ndarray:
    """Row i is ``SeedSequence([seed ^ run_index, nodes[i], STREAM_PURPOSES[purpose]])
    .generate_state(4, np.uint64)``, that stream's PCG64 seed, in one
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


# PCG64 (O'Neill 2014) as numpy runs it: a 128-bit LCG, state -> A * state +
# inc mod 2**128, whose output after each step is the XSL-RR of the new state.
# A stream's seed row (s_hi, s_lo, i_hi, i_lo) gives inc = 2 * i + 1, and
# seeding steps twice from 0 with s added in between, so after j steps from
# pre = s + inc the state is A**j * pre + C_j * inc, C_j = 1 + A + ... + A**(j - 1),
# and the stream's output t comes from step t + 2. 128-bit words are held
# as (hi, lo) uint64 arrays; numpy wraps uint64 array arithmetic mod 2**64.
BLOCK = 64   # doubles per tape block: one output each
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK = (1 << 128) - 1
_LOW = 0xFFFFFFFF


def _words(values: list[int]) -> np.ndarray:
    """(4, len(values)) uint64: each 128-bit value's high and low word, then
    the low word's low and high 32 bits (``_mulhi``'s halves)."""
    hi = np.array([v >> 64 for v in values], np.uint64)
    lo = np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], np.uint64)
    return np.stack((hi, lo, lo & _LOW, lo >> 32))


def _steps() -> list[tuple[int, int]]:
    """(A**k, C_k) mod 2**128 for k = 1 ... BLOCK."""
    a, c, table = 1, 0, []
    for _ in range(BLOCK):
        a, c = a * _MULT & _MASK, (c * _MULT + 1) & _MASK
        table.append((a, c))
    return table


_STEPS = _steps()


@functools.cache
def _level(level: int) -> np.ndarray:
    """(8, BLOCK) uint64: ``_words`` of A**j, then of C_j, for the steps j
    from pre that give a stream's outputs BLOCK * level ... BLOCK * level + 63.
    Block ``level`` starts after step BLOCK * level + 1 (the jump); its
    output k comes k + 1 steps later (``_STEPS``)."""
    a, c = _STEPS[0]
    last_a, last_c = _STEPS[-1]
    for _ in range(level):
        a, c = last_a * a & _MASK, (last_a * c + last_c) & _MASK
    return np.concatenate((_words([sa * a & _MASK for sa, _ in _STEPS]),
                           _words([(sa * c + sc) & _MASK for sa, sc in _STEPS])))


def _mulhi(x: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit product of uint64 ``x`` and the word
    with 32-bit halves ``a0`` (low) and ``a1``, from four 32-by-32 products."""
    x0, x1 = x & _LOW, x >> 32
    mid = x0 * a0 >> 32
    cross = x0 * a1
    mid += cross & _LOW
    hi = cross >> 32
    cross = x1 * a0
    mid += cross & _LOW
    hi += cross >> 32
    hi += x1 * a1
    hi += mid >> 32
    return hi


def _outputs(rows: np.ndarray, levels) -> np.ndarray:
    """(len(rows), BLOCK) uint64: PCG64's 64-bit outputs, block ``levels[i]``
    of the stream whose seed row is ``rows[i]`` (``levels`` may be one int
    for all rows), in one pass of uint64 arithmetic."""
    inc_hi = (rows[:, 2] << 1 | rows[:, 3] >> 63)[:, None]
    inc_lo = (rows[:, 3] << 1 | 1)[:, None]
    pre_lo = rows[:, 1:2] + inc_lo
    pre_hi = rows[:, 0:1] + inc_hi + (pre_lo < inc_lo)
    coef = (_level(levels) if isinstance(levels, int)
            else np.stack([_level(b) for b in levels], axis=1))
    a_hi, a_lo, a0, a1, c_hi, c_lo, c0, c1 = coef
    # state = a * pre + c * inc mod 2**128
    hi = _mulhi(pre_lo, a0, a1)
    hi += _mulhi(inc_lo, c0, c1)
    hi += pre_lo * a_hi
    hi += pre_hi * a_lo
    hi += inc_lo * c_hi
    hi += inc_hi * c_lo
    lo = pre_lo * a_lo
    tail = inc_lo * c_lo
    lo += tail
    hi += lo < tail   # the carry out of the low word
    # XSL-RR: the xor of the two words, rotated right by the top six bits
    rot = hi >> 58
    lo ^= hi
    return lo >> rot | lo << (64 - rot & 63)


def _doubles(outputs: np.ndarray) -> np.ndarray:
    """numpy's ``Generator.random`` doubles of PCG64 outputs: the top 53 bits
    scaled to [0, 1)."""
    return (outputs >> 11) * 2.0**-53


def grow(tapes: dict, key: tuple, node: int) -> None:
    """Append the next ``BLOCK`` doubles of one (seed, run, node, purpose)
    stream to the node's draws in ``tapes[key]``, ``[rows, draws]``: the
    purpose's ``seed_words`` rows over every node id (None until a level
    pass hashes them) and one ``array('d')`` of draws per node id. A block
    that no node holds yet is made for this node alone, from its own seed
    row; a block another node already holds is made in one pass for every
    node holding exactly as many draws as this one, so the nodes that read
    a purpose level by level share one pass per level."""
    tape = tapes[key]
    rows, draws = tape
    held = len(draws[node])
    if max(map(len, draws)) == held:
        nodes = [node]
        rows = seed_words(*key, nodes) if rows is None else rows[nodes]
    else:
        if rows is None:
            rows = tape[0] = seed_words(*key, np.arange(len(draws)))
        nodes = [i for i, d in enumerate(draws) if len(d) == held]
        rows = rows[nodes]
    # BLOCK rows at a time: a pass's temporaries stay a few (BLOCK, BLOCK)
    # arrays, whatever the node count
    for a in range(0, len(nodes), BLOCK):
        blocks = _doubles(_outputs(rows[a:a + BLOCK], held // BLOCK))
        for i, block in zip(nodes[a:a + BLOCK], blocks):
            draws[i].frombytes(block.tobytes())


class Stream:
    """The draws of ``numpy.random.Generator(PCG64(seed))`` that topology and
    traffic make, bit for bit, for a stream's ``seed_words`` row: doubles
    and Lemire's bounded integers. Each double takes one 64-bit output;
    a 32-bit draw takes half of one, and the other half waits for the next
    32-bit draw, as numpy's PCG64 buffers it."""

    def __init__(self, row: np.ndarray):
        self.row = row
        self.used = 0        # 64-bit outputs taken
        self.half = None     # the unread high half of the last 32-bit draw's output

    def _take(self, count: int) -> np.ndarray:
        """The stream's next ``count`` 64-bit outputs."""
        first = self.used
        self.used += count
        levels = range(first // BLOCK, -(-self.used // BLOCK))
        if not levels:
            return np.empty(0, np.uint64)
        out = _outputs(np.repeat(self.row[None], len(levels), axis=0), levels)
        return out.reshape(-1)[first % BLOCK:first % BLOCK + count]

    def random(self, size) -> np.ndarray:
        """``Generator.random(size)``: ``size`` an int or a shape tuple."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        return _doubles(self._take(math.prod(shape))).reshape(shape)

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``, one draw on [low, high), whose
        span must stay below 2**32 - 1: numpy's 32-bit path, Lemire's
        multiply-and-reject (Lemire 2019). An empty span draws nothing."""
        span = high - 1 - low
        if not 0 <= span < _LOW:
            raise ValueError(f"integers({low}, {high}) needs low < high < low + 2**32")
        if span == 0:
            return low
        m = self._uint32() * (span + 1)
        if m & _LOW <= span:
            threshold = (_LOW - span) % (span + 1)   # 2**32 mod (span + 1)
            while m & _LOW < threshold:
                m = self._uint32() * (span + 1)
        return low + (m >> 32)

    def _uint32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        out = int(self._take(1)[0])
        self.half = out >> 32
        return out & _LOW


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
