"""Radio model: log-distance pathloss, neighborhood test, SINR packet decoding.

Powers are dBm end to end; interference sums happen in mW. The pathloss is the
bare exponent form 10*alpha*log10(d) with no reference-distance constant, so
the cost computed from geometry and the cost computed from (tx - rx) power are
the same number. Distances below ``d_min_m`` clamp rather than fault, which
also gives a node's own transmissions an effectively infinite self-interference
(the radio is half-duplex for free).

A replication's geometry never changes, so ``link_table`` computes every
pair's pathloss and default-power received mW and the neighbor lists once.
The table keeps one ``Reception`` per (sender, power): its received-mW row
and what decoding it needs besides its interferers. A transmission carries
its reception, and ``decode_batch`` decodes it for all its hearers from
that, doing per call only the work that depends on the interferers. These
come from the network's channel mark log (see ``decode_batch``): a start or
end mark per transmission, in event order, read from a window's start to
its end; a start at the window's start played after it joins the clamped
group, an end there is dropped, and so is every mark at its end. The
scalar ``decode`` is the reference the batched path must equal bit for bit,
and two facts make it exact:

* The monotone limit. ``decode`` tests ``signal / (noise + peak) >=
  threshold``. The add and the divide each round monotonically, so the
  quotient never rises as the peak grows, and the test holds for every peak
  up to one float ``lim`` and fails above it. The table finds each
  default-power hearer's ``lim`` once (``sinr_limits``); a decode then
  compares ``peak <= lim``.
* The commuting two-row group. The interferers already on the air when the
  wanted packet starts are clamped to that one instant, and ``decode`` adds
  them smallest first at each receiver. Every addition raises the level, so
  the group's highest partial sum is its last, and with two rows that sum is
  a + b = b + a in either order. Only groups of three or more are sorted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, groupby, islice, repeat
from typing import Iterable, NamedTuple

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
    tx_power_dbm: float
    start: float
    end: float               # start + airtime
    packet: object
    reception: Reception | None = None   # LinkTable.reception(sender, tx_power_dbm)
    n_bytes: int = 0         # the packet's size, which sets airtime and energy
    first: int = 0           # the channel log's length just after its start mark
    group: list = field(default_factory=list)   # its clamped group's bank rows


_INF_BITS = 0x7FF0000000000000   # the bit pattern of +inf
_BELOW_MAX = math.nextafter(sys.float_info.max, 0.0)


def _largest_passing(passes, estimate: np.ndarray) -> tuple[np.ndarray, int]:
    """Per entry, the largest float >= 0 that ``passes``, a test that holds
    at 0, fails at inf and changes once in between; and the number of
    halvings taken. Non-negative floats order as their bit patterns, so this
    bisects integers. The bracket is the two floats on either side of the
    (non-negative) ``estimate``, or the rest of the range where the estimate
    is further off, so a good estimate costs two halvings and none costs
    more than 64."""
    est = estimate.view(np.int64)
    below = np.maximum(est - 2, 0)
    above = np.minimum(est + 2, _INF_BITS)
    below_ok = passes(below.view(np.float64))
    above_ok = passes(above.view(np.float64))
    lo = np.where(above_ok, above, np.where(below_ok, below, 0))
    hi = np.where(above_ok, _INF_BITS, np.where(below_ok, above, below))
    halvings = 0
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        ok = passes(mid.view(np.float64))
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
        halvings += 1
    return lo.view(np.float64), halvings


def sinr_limits(signal: np.ndarray, noise_mw: float,
                threshold: float) -> tuple[np.ndarray, int]:
    """Per received power in ``signal``, the largest float ``lim >= 0`` with
    ``signal / (noise_mw + lim) >= threshold`` in float arithmetic, or -1.0
    where no interference passes; and the number of halvings the searches
    took. The threshold must be positive and finite: at 0 the test would
    fail at a zero signal and noise yet pass any interference above them.

    Two searches find each limit. The first finds the largest denominator d
    that passes, near signal / threshold: the division and the rounding
    boundary below a normal threshold each lie within an ulp of it. The
    second finds the largest interference whose sum with the noise rounds to
    at most d, near (d - noise_mw) plus half an ulp of d, the midpoint above
    which the sum rounds past d. Both answers lie within two ulps of their
    estimates, so each search takes two halvings unless the threshold is
    subnormal. A single search near signal / threshold - noise_mw would miss
    by up to ~2**62 ulps: where the clean SINR sits at the threshold the
    limit is tiny beside the noise, yet up to half an ulp of the noise away
    from that estimate.
    """
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"SINR threshold {threshold} is not positive and finite")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        clean = signal / noise_mw >= threshold
        s = signal[clean]
        d, first = _largest_passing(lambda d: s / d >= threshold, s / threshold)
        # the largest double's spacing is its binade's, which np.spacing
        # reports as inf
        half_ulp = np.spacing(np.minimum(d, _BELOW_MAX)) / 2.0
        i, second = _largest_passing(lambda i: s / (noise_mw + i) >= threshold,
                                     (d - noise_mw) + half_ulp)
    lim = np.full(len(signal), -1.0)
    lim[clean] = i
    return lim, first + second


class Reception(NamedTuple):
    """Everything the table keeps for one (sender, power): its bank row, its
    hearers, and what decoding needs besides the interferers, at the default
    power each hearer's limit, at another power its signal."""
    row: int                   # LinkTable.bank[row]: the received mW at every node id
    ids: np.ndarray            # hearers: ascending, read-only intp
    hearers: list              # ids as a list: at the default power, neighbors[sender]
    losses: array              # per hearer, the pathloss in dB
    lim: np.ndarray | None     # per hearer, the largest peak it decodes under, or -1.0
    signal: np.ndarray | None  # per hearer, the received mW
    clean: tuple               # per hearer, whether it decodes with no interferer


@dataclass
class LinkTable:
    """Pathloss and received power of every ordered node pair, and one
    ``Reception`` per (sender, power) sent at.

    Entries come from the same scalar ``math`` arithmetic as
    ``pathloss_db(distance(a, b))`` and ``10.0 ** (received_power_dbm / 10.0)``:
    numpy's hypot, log10 and power ufuncs differ from ``math`` in the last
    bit on a few percent of inputs, and one ulp in a link cost moves the
    cost field and every backoff time derived from it.

    ``bank`` holds every received-mW row a decode reads, row r at ``bank[r]``
    and its negation, written with its reception, at ``bank[~r]``, so that one
    gather by signed row id serves all starts and ends. The first n rows are
    the default-power rows, row = sender; each other power's row follows as
    first asked for. Sized for 3n rows (untouched capacity costs no resident
    memory), the bank grows past that by moving both halves to a larger
    array, so ``bank`` is read after ``reception``, never before.
    """
    pathloss_db: np.ndarray   # (n, n), symmetric
    bank: np.ndarray          # (2 * capacity, n); rows [0, filled) and their negations
    tx_power_dbm: float
    sensitivity_dbm: float
    noise_mw: float
    threshold: float          # the SINR threshold, linear
    perfect_decode: bool      # every hearer decodes: each limit is inf
    # per node, the ids receiving it at the default power strictly above
    # sensitivity, ascending, self excluded (``is_neighbor`` for every pair)
    neighbors: list[list[int]]
    filled: int               # bank rows written: n, then one per other power's key
    # (sender, power) -> Reception
    receptions: dict = field(default_factory=dict, repr=False)

    def reception(self, sender: int, tx_power_dbm: float) -> Reception:
        """The reception of ``sender`` at the given power, built at the first
        call and the same object at every later one. Its hearers are the ids
        other than ``sender`` receiving it strictly above sensitivity: at or
        below the default power, ``neighbors[sender]`` cut at the lower power.

        The first default-power call builds every sender's default-power
        reception, limits included, in one pass from the neighbor lists.
        Another power's appends its row and its negation to the bank, and
        keeps its hearers' signal in place of limits: a limit costs a search of a dozen numpy
        calls, and such a key is decoded about five times (desk GRAB family),
        too few to repay it. Only the power goes through ``math.pow``, the
        same libm call as ``10.0 ** x``; numpy's subtraction and division
        round like Python floats."""
        rec = self.receptions.get((sender, tx_power_dbm))
        if rec is None:
            if tx_power_dbm == self.tx_power_dbm:
                self._receive_default()
            else:
                r = self.filled
                if 2 * r == len(self.bank):
                    # room for two more rows per node: the r rows at each end move
                    n = len(self.neighbors)
                    grown = np.empty((len(self.bank) + 4 * n, n))
                    grown[:r], grown[::-1][:r] = self.bank[:r], self.bank[::-1][:r]
                    self.bank = grown
                received = tx_power_dbm - self.pathloss_db[sender]
                self.bank[r] = _pow10(received / 10.0)
                np.negative(self.bank[r], out=self.bank[~r])
                self.filled = r + 1
                audible = received > self.sensitivity_dbm
                audible[sender] = False
                ids = np.flatnonzero(audible)
                ids.flags.writeable = False
                signal = self.bank[r].take(ids)
                self.receptions[sender, tx_power_dbm] = Reception(
                    r, ids, ids.tolist(), array("d", self.pathloss_db[sender].take(ids).tobytes()),
                    None, signal, tuple(self.decodes(signal).tolist()))
            rec = self.receptions[sender, tx_power_dbm]
        return rec

    def decodes(self, signal: np.ndarray, peak=0.0) -> np.ndarray:
        """Whether each ``signal`` passes decode's SINR test over the noise
        plus ``peak``. At a zero noise floor, as in decode, x / 0 = inf passes
        and 0 / 0 = nan fails; only then is numpy's warning state entered."""
        if self.noise_mw > 0.0:
            sinr = signal / (self.noise_mw + peak)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                sinr = signal / (self.noise_mw + peak)
        return self.perfect_decode | (sinr >= self.threshold)

    def _receive_default(self) -> None:
        """Build and keep every sender's default-power reception, and write
        the default rows' negations, with one limit pass over every (sender,
        hearer) pair in blocks of ``_LIMIT_PAIRS``: blocks keep the search's
        temporaries small."""
        nbrs = self.neighbors
        np.negative(self.bank[:len(nbrs)], out=self.bank[::-1][:len(nbrs)])
        counts = [len(row) for row in nbrs]
        flat = np.fromiter(chain.from_iterable(nbrs), dtype=np.intp, count=sum(counts))
        flat.flags.writeable = False
        senders = np.repeat(np.arange(len(nbrs)), counts)
        lim = np.full(len(flat), np.inf)
        if not self.perfect_decode:
            for a in range(0, len(flat), _LIMIT_PAIRS):
                b = a + _LIMIT_PAIRS
                lim[a:b], _ = sinr_limits(self.bank[senders[a:b], flat[a:b]], self.noise_mw,
                                          self.threshold)
        lim.flags.writeable = False
        ok = (lim >= 0.0).tolist()
        losses = self.pathloss_db[senders, flat]
        b = 0
        for sender, count in enumerate(counts):
            a, b = b, b + count
            self.receptions[sender, self.tx_power_dbm] = Reception(
                sender, flat[a:b], nbrs[sender], array("d", losses[a:b].tobytes()),
                lim[a:b], None, tuple(ok[a:b]))


def _pow10(exps: np.ndarray) -> np.ndarray:
    """``10.0 ** x`` per entry of the contiguous ``exps`` through
    ``math.pow``, the same libm call, read through a ``memoryview``."""
    return np.fromiter(map(math.pow, repeat(10.0), memoryview(exps)), float, len(exps))


# (sender, hearer) pairs per block of the default-power limit pass: a desk
# topology's ~7,000 pairs in one block raised the peak memory by ~0.5 MB
_LIMIT_PAIRS = 1024

# rows of the j > i half filled per pass of link_table: the pass's
# temporaries stay a few rows long beside the two n x n arrays
_BLOCK_ROWS = 16


def link_table(points: list, params: RadioParams) -> LinkTable:
    """Fill the j > i half in blocks of rows, mirror it, write the diagonal
    (every node's clamped distance to itself, one constant), and list each
    node's neighbors at ``params``' power and sensitivity. The bank starts
    with the default-power rows alone written.

    A block's pairs take a few C-level passes and no Python bytecode per
    pair. numpy does the steps IEEE rounds as Python floats do: the
    coordinate differences, the ``d_min_m`` clamp, ``* scale``,
    ``p0 - v`` and ``/ 10.0``. Only ``math.hypot``, ``math.log10`` and
    ``math.pow`` run per pair, as chained ``map``s over ``memoryview``s of
    the block's arrays. The computed hypot is never a full ulp below
    ``max(|dx|, |dy|)``, so the clamp can only bite in a block holding a
    pair under ``2 * d_min_m`` apart on both axes; only such a block goes
    through it."""
    n = len(points)
    scale = 10.0 * params.alpha_exp
    p0 = params.tx_power_dbm
    d_min = params.d_min_m
    xs, ys = np.array(points, dtype=float).reshape(n, 2).T
    pl = np.empty((n, n))
    bank = np.empty((6 * n, n))   # room for 3n rows and their negations
    mw = bank[:n]
    to_self = scale * math.log10(d_min)   # a node's distance to itself, 0, clamps
    np.fill_diagonal(pl, to_self)
    np.fill_diagonal(mw, math.pow(10.0, (p0 - to_self) / 10.0))
    audible = np.empty((n, n), dtype=bool)
    for a in range(0, n, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, n)
        upper = np.arange(a, n) > np.arange(a, b)[:, None]   # j > i
        dx = (xs[a:b, None] - xs[a:])[upper]
        dy = (ys[a:b, None] - ys[a:])[upper]
        d = map(math.hypot, memoryview(dx), memoryview(dy))
        if (np.maximum(abs(dx), abs(dy)) < 2.0 * d_min).any():
            d = np.maximum(np.fromiter(d, float, len(dx)), d_min).data
        v = np.fromiter(map(math.log10, d), float, len(dx))
        v *= scale
        e = p0 - v
        e /= 10.0
        for table, half in ((pl, v), (mw, _pow10(e))):
            table[a:b, a:][upper] = half
            table[a:, a:b].T[upper] = half
        # rows [a, b) are complete: every earlier block mirrored its columns
        np.greater(p0 - pl[a:b], params.sensitivity_dbm, out=audible[a:b])
    np.fill_diagonal(audible, False)
    ids = iter(np.nonzero(audible)[1].tolist())
    neighbors = [list(islice(ids, k)) for k in np.count_nonzero(audible, axis=1).tolist()]
    return LinkTable(pl, bank, p0, params.sensitivity_dbm,
                     10.0 ** (params.noise_floor_dbm / 10.0),
                     10.0 ** (params.sinr_threshold_db / 10.0), params.perfect_decode,
                     neighbors, n)


def decode(rx_pos: tuple[float, float], wanted: Transmission,
           concurrent: Iterable[Transmission], params: RadioParams,
           positions) -> bool:
    """Whether a receiver at rx_pos demodulates ``wanted`` among ``concurrent``;
    ``positions[i]`` is the position of node id i, the senders' included.

    Decoding needs the received power above sensitivity and the
    signal-to-interference-plus-noise ratio at or above threshold at every
    instant of [wanted.start, wanted.end]. Interference is piecewise constant
    between interferer boundaries, so the worst instant is found exactly by
    sweeping those boundaries; nothing is sampled.
    """
    pr = received_power_dbm(wanted.tx_power_dbm, distance(rx_pos, positions[wanted.sender]),
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
                                           distance(rx_pos, positions[other.sender]),
                                           params.alpha_exp, params.d_min_m) / 10.0)
        marks.append((s, p_mw))
        marks.append((e, -p_mw))

    # Removals sort before additions at equal instants: back-to-back packets
    # never count as overlapping.
    marks.sort(key=lambda m: (m[0], m[1]))
    level = 0.0
    peak = 0.0
    for _, delta in marks:
        level += delta
        if level > peak:
            peak = level
    signal_mw = 10.0 ** (pr / 10.0)
    denominator = 10.0 ** (params.noise_floor_dbm / 10.0) + peak
    if denominator == 0.0:
        # IEEE division, as numpy's: a positive signal over zero is inf,
        # which passes, and a zero one is nan, which fails
        return signal_mw > 0.0
    return signal_mw / denominator >= 10.0 ** (params.sinr_threshold_db / 10.0)


def decode_batch(wanted: Transmission, marks: tuple, links: LinkTable) -> list | tuple:
    """Per hearer of ``wanted`` (``wanted.reception``, which ``links`` made),
    in hearer order, whether it demodulates ``wanted`` on the channel
    ``marks`` records; ``decode`` for each of them, bit for bit.

    ``marks`` is the channel log by column: the instant and signed bank row
    (``row`` a start, ``~row`` an end, which reads the row's negation) of
    each start and end since the channel idled, in event order, so its
    instants never decrease. The window holds the clamped group,
    ``wanted.group`` (the rows on the air at its start that end after it),
    and the marks from ``wanted.first`` up to the first at or after
    ``wanted.end`` (an overlap must have ``end > start``), found by
    bisection. A start at ``wanted.start`` played after it joins the group;
    an end there, of a transmission that never overlapped, is dropped.
    Removals after the last addition's instant are left out: each turns a
    level L into fl(L - x) <= L, so none can raise the peak.

    A hearer decodes when the peak interference over the window is at most
    its limit, or at a non-default power when ``decode``'s own test passes
    on its signal (``LinkTable.reception``). With no interferer in the
    window the verdicts are the reception's clean tuple. Otherwise one
    gather by signed row, then at the hearers, makes a marks x hearers
    matrix of exactly signed levels, and a cumulative sum down each column
    adds them in ``decode``'s order: the log's, but marks of one instant,
    which ``decode`` orders by signed mW per receiver, are sorted by column
    (the clamped group from three rows up: module docstring).
    """
    _, ids, _, _, lim, signal, clean = wanted.reception
    instants, rows = marks
    ws, first, group = wanted.start, wanted.first, wanted.group
    end = bisect_left(instants, wanted.end, first)
    k = bisect_right(instants, ws, first, end)   # the marks before k lie at the start
    if k > first:
        group = group + [r for r in rows[first:k] if r >= 0]
    j = end   # just after the last addition, then after the removals tied with it
    while j > k and rows[j - 1] < 0:
        j -= 1
    end = bisect_right(instants, instants[j - 1], j, end) if j > k else k
    if not group and end == k:
        return clean
    at = instants[k:end]
    level = links.bank.take(group + rows[k:end], axis=0).take(ids, axis=1)
    g = len(group)
    if g > 2:
        level[:g].sort(axis=0)
    if len(set(at)) < len(at):
        i = g
        for _, tied in groupby(at):
            n = len(list(tied))
            if n > 1:
                level[i:i + n].sort(axis=0)
            i += n
    # the first mark is an addition of a non-negative power, so the peak is
    # never below decode's starting level of zero; a single row is its own peak
    peak = (level[0] if len(level) == 1 else
            np.maximum.reduce(np.add.accumulate(level, axis=0, out=level), axis=0))
    if lim is None:
        # another power's reception keeps decode's own test
        return links.decodes(signal, peak).tolist()
    return (peak <= lim).tolist()
