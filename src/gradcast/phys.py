"""Radio model: log-distance pathloss, neighborhood test, SINR packet decoding.

Powers are dBm end to end; interference sums happen in mW. The pathloss is the
bare exponent form 10*alpha*log10(d) with no reference-distance constant, so
the cost computed from geometry and the cost computed from (tx - rx) power are
the same number. Distances below ``d_min_m`` clamp rather than fault, which
also gives a node's own transmissions an effectively infinite self-interference
(the radio is half-duplex for free).

A replication's geometry never changes, so ``link_table`` computes every
pair's pathloss and default-power received mW and the neighbor lists once,
and keeps each sender's hearers per power as first asked for; ``decode_batch``
decodes one transmission for all its hearers from those rows. The scalar
``decode`` is the reference the batched path must equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

import numpy as np


@dataclass
class RadioParams:
    alpha_exp: float = 3.0           # pathloss exponent, >= 2
    tx_power_dbm: float = 0.0        # default transmission power
    sensitivity_dbm: float = -54.5   # decodable floor; ~66 m range at defaults
    noise_floor_dbm: float = -105.0
    sinr_threshold_db: float = 3.0
    bitrate_bps: float = 38400.0
    d_min_m: float = 0.1             # clamp below this distance (log singularity)
    adv_bytes: int = 16
    ncnt_bytes: int = 12
    data_bytes: int = 36
    perfect_decode: bool = False     # test hook: sensitivity-only reception

    def airtime_ms(self, n_bytes: int) -> float:
        return n_bytes * 8 / self.bitrate_bps * 1000.0


def pathloss_db(d_m: float, alpha_exp: float, d_min_m: float = 0.1) -> float:
    """Log-distance pathloss in dB; non-positive distances clamp to d_min_m."""
    d = d_m if d_m > d_min_m else d_min_m
    return 10.0 * alpha_exp * math.log10(d)


def received_power_dbm(tx_power_dbm: float, d_m: float, alpha_exp: float,
                       d_min_m: float = 0.1) -> float:
    return tx_power_dbm - pathloss_db(d_m, alpha_exp, d_min_m)


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def is_neighbor(pos_i: tuple[float, float], pos_j: tuple[float, float],
                params: RadioParams) -> bool:
    """True iff a default-power transmission from i arrives at j strictly above
    sensitivity. Symmetric whenever both ends use the same power."""
    pr = received_power_dbm(params.tx_power_dbm, distance(pos_i, pos_j),
                            params.alpha_exp, params.d_min_m)
    return pr > params.sensitivity_dbm


@dataclass
class Transmission:
    sender: int
    sender_pos: tuple[float, float]
    tx_power_dbm: float
    start: float
    end: float               # start + airtime
    packet: object
    # every other transmission overlapping [start, end]; maintained by the network
    interferers: list = field(default_factory=list)
    # received mW at every node id (LinkTable.rx_mw_row) and its negation, the
    # row of the removal marks; read by decode_batch
    rx_mw: np.ndarray | None = None
    rx_mw_neg: np.ndarray | None = None
    n_bytes: int = 0         # the packet's size, which sets airtime and energy


@dataclass
class LinkTable:
    """Pathloss and default-power received power of every ordered node pair.

    Entries come from the same scalar ``math`` arithmetic as
    ``pathloss_db(distance(a, b))`` and ``10.0 ** (received_power_dbm / 10.0)``:
    numpy's hypot, log10 and power ufuncs differ from ``math`` in the last
    bit on a few percent of inputs, and one ulp in a link cost moves the
    cost field and every backoff time derived from it.
    """
    pathloss_db: np.ndarray   # (n, n), symmetric
    rx_mw: np.ndarray         # (n, n), row = sender at params.tx_power_dbm
    tx_power_dbm: float
    sensitivity_dbm: float
    # per node, the ids receiving it at the default power strictly above
    # sensitivity, ascending, self excluded (``is_neighbor`` for every pair)
    neighbors: list[list[int]]
    # (sender, power) -> row at a non-default power, built on first use
    rows: dict = field(default_factory=dict, repr=False)
    # (sender, power) -> read-only hearer ids, built on first use
    hearer_arrays: dict = field(default_factory=dict, repr=False)

    def hearers(self, sender: int, tx_power_dbm: float) -> np.ndarray:
        """Ids other than ``sender`` that receive it at the given power
        strictly above sensitivity, ascending, as a read-only ``intp``
        array; every call with the same arguments returns the same array.
        At or below the default power this is ``neighbors[sender]`` cut by
        the same test at the lower power: subtraction rounds monotonically,
        so no id outside the neighbor list passes."""
        key = (sender, tx_power_dbm)
        ids = self.hearer_arrays.get(key)
        if ids is None:
            audible = tx_power_dbm - self.pathloss_db[sender] > self.sensitivity_dbm
            audible[sender] = False
            ids = self.hearer_arrays[key] = np.flatnonzero(audible)
            ids.flags.writeable = False
        return ids

    def rx_mw_row(self, sender: int, tx_power_dbm: float) -> np.ndarray:
        """Received mW at every node from ``sender`` transmitting at the given
        power: the shared table row at the default power, otherwise a row
        kept per (sender, power) for every later call. numpy's subtraction
        and division round like Python floats; only the power goes through
        ``math.pow``, the same libm call as ``10.0 ** x``."""
        if tx_power_dbm == self.tx_power_dbm:
            return self.rx_mw[sender]
        row = self.rows.get((sender, tx_power_dbm))
        if row is None:
            exps = ((tx_power_dbm - self.pathloss_db[sender]) / 10.0).tolist()
            row = self.rows[sender, tx_power_dbm] = np.array([math.pow(10.0, x) for x in exps])
        return row


def link_table(points: list, params: RadioParams) -> LinkTable:
    """Fill the i <= j half pair by pair in Python floats, mirror it, and
    list each node's neighbors at ``params``' power and sensitivity."""
    n = len(points)
    scale = 10.0 * params.alpha_exp
    d_min = params.d_min_m
    p0 = params.tx_power_dbm
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    pl = np.empty((n, n))
    mw = np.empty((n, n))
    for i in range(n):
        xi, yi = xs[i], ys[i]
        dists = map(math.hypot, [xi - x for x in xs[i:]], [yi - y for y in ys[i:]])
        row = [scale * math.log10(d if d > d_min else d_min) for d in dists]
        pl[i, i:] = row
        mw[i, i:] = [10.0 ** ((p0 - v) / 10.0) for v in row]
    lower = np.tri(n, k=-1, dtype=bool)
    pl[lower] = pl.T[lower]
    mw[lower] = mw.T[lower]
    audible = p0 - pl > params.sensitivity_dbm
    np.fill_diagonal(audible, False)
    return LinkTable(pl, mw, p0, params.sensitivity_dbm,
                     [np.flatnonzero(row).tolist() for row in audible])


def decode(rx_pos: tuple[float, float], wanted: Transmission,
           concurrent: Iterable[Transmission], params: RadioParams) -> bool:
    """Whether a receiver at rx_pos demodulates ``wanted`` among ``concurrent``.

    Decoding needs the received power above sensitivity and the
    signal-to-interference-plus-noise ratio at or above threshold at every
    instant of [wanted.start, wanted.end]. Interference is piecewise constant
    between interferer boundaries, so the worst instant is found exactly by
    sweeping those boundaries; nothing is sampled.
    """
    pr = received_power_dbm(wanted.tx_power_dbm, distance(rx_pos, wanted.sender_pos),
                            params.alpha_exp, params.d_min_m)
    if pr <= params.sensitivity_dbm:
        return False
    if params.perfect_decode:
        return True

    marks: list[tuple[float, float]] = []
    for other in concurrent:
        if other is wanted:
            continue
        s = other.start if other.start > wanted.start else wanted.start
        e = other.end if other.end < wanted.end else wanted.end
        if e <= s:
            continue
        p_mw = 10.0 ** (received_power_dbm(other.tx_power_dbm,
                                           distance(rx_pos, other.sender_pos),
                                           params.alpha_exp, params.d_min_m) / 10.0)
        marks.append((s, p_mw))
        marks.append((e, -p_mw))

    noise_mw = 10.0 ** (params.noise_floor_dbm / 10.0)
    signal_mw = 10.0 ** (pr / 10.0)
    threshold = 10.0 ** (params.sinr_threshold_db / 10.0)
    if not marks:
        return signal_mw / noise_mw >= threshold

    # Removals sort before additions at equal instants: back-to-back packets
    # never count as overlapping.
    marks.sort(key=lambda m: (m[0], m[1]))
    level = 0.0
    peak = 0.0
    for _, delta in marks:
        level += delta
        if level > peak:
            peak = level
    return signal_mw / (noise_mw + peak) >= threshold


def decode_batch(wanted: Transmission, hearers: np.ndarray,
                 params: RadioParams) -> list[int]:
    """The ``hearers`` (node ids, an ``intp`` array of ids that receive
    ``wanted`` above sensitivity, such as ``LinkTable.hearers``) that
    demodulate ``wanted`` among ``wanted.interferers``; ``decode`` for each
    of them, bit for bit.

    One signed mark list serves every receiver: (clamped start, row) per
    overlapping interferer and (end, negated row) where it ends inside the
    window. Sorting it by instant fixes the order everywhere except inside
    groups of marks at one instant, which ``decode`` orders by signed mW;
    each receiver's column of such a group is sorted on its own. A
    cumulative sum then adds the marks in ``decode``'s order, so every
    partial sum equals its loop's.

    Removals at ``wanted.end`` are left out. No addition falls on that
    instant (an overlap must have ``end > start``), so they come after every
    addition, and each one turns a level L into fl(L - x) <= L: no level
    after them can raise the peak.
    """
    if params.perfect_decode or not hearers.size:
        return hearers.tolist()

    marks = []
    ws, we = wanted.start, wanted.end
    for other in wanted.interferers:
        s = other.start if other.start > ws else ws
        e = other.end if other.end < we else we
        if e <= s:
            continue
        marks.append((s, other.rx_mw))
        if e < we:
            marks.append((e, other.rx_mw_neg))

    noise_mw = 10.0 ** (params.noise_floor_dbm / 10.0)
    threshold = 10.0 ** (params.sinr_threshold_db / 10.0)
    signal_mw = wanted.rx_mw.take(hearers)
    if not marks:
        return hearers.compress(signal_mw / noise_mw >= threshold).tolist()

    marks.sort(key=itemgetter(0))
    at, rows = zip(*marks)
    level = np.array(rows).take(hearers, axis=1)
    first = 0
    for i in range(1, len(at) + 1):
        if i == len(at) or at[i] != at[first]:
            if i - first > 1:
                level[first:i].sort(axis=0)
            first = i
    # the first mark is an addition of a non-negative power, so the peak is
    # never below decode's starting level of zero
    peak = level.cumsum(axis=0).max(axis=0)
    return hearers.compress(signal_mw / (noise_mw + peak) >= threshold).tolist()
