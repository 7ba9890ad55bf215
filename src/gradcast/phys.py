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
that, doing per call only the work that depends on the interferers. The
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
from itertools import chain, islice, repeat
from operator import itemgetter
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
    # every other transmission overlapping [start, end]; maintained by the network
    interferers: list = field(default_factory=list)
    reception: Reception | None = None   # LinkTable.reception(sender, tx_power_dbm)
    n_bytes: int = 0         # the packet's size, which sets airtime and energy


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
    """Everything the table keeps for one (sender, power): the bank row of
    its received mW and what decoding it needs besides its interferers, at
    the default power each hearer's limit, at another power its signal."""
    row: int                   # LinkTable.bank[row]: the received mW at every node id
    ids: np.ndarray            # hearers: ascending, read-only intp
    lim: np.ndarray | None     # per hearer, the largest peak it decodes under, or -1.0
    signal: np.ndarray | None  # per hearer, the received mW
    clean: tuple               # the ids that decode with no interferer


@dataclass
class LinkTable:
    """Pathloss and received power of every ordered node pair, and one
    ``Reception`` per (sender, power) sent at.

    Entries come from the same scalar ``math`` arithmetic as
    ``pathloss_db(distance(a, b))`` and ``10.0 ** (received_power_dbm / 10.0)``:
    numpy's hypot, log10 and power ufuncs differ from ``math`` in the last
    bit on a few percent of inputs, and one ulp in a link cost moves the
    cost field and every backoff time derived from it.

    ``bank`` holds every received-mW row a decode reads, so that one gather
    by row id serves all interferers: its first n rows are the default-power
    rows, row = sender, and each other power's row follows as first asked
    for. Rows never change once written; growing the bank moves them to a
    larger array, so ``bank`` is read after ``reception``, never before.
    """
    pathloss_db: np.ndarray   # (n, n), symmetric
    bank: np.ndarray          # (capacity, n); the first ``filled`` rows are written
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
        Another power's appends its row to the bank and keeps its hearers'
        signal in place of limits: a limit costs a search of a dozen numpy
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
                if r == len(self.bank):
                    # room for two more rows per node: a desk GRAB-family
                    # replication writes about one (206 to 213 for 201 nodes)
                    grown = np.empty((r + 2 * len(self.neighbors), self.bank.shape[1]))
                    grown[:r] = self.bank
                    self.bank = grown
                received = tx_power_dbm - self.pathloss_db[sender]
                self.bank[r] = _pow10(received / 10.0)
                self.filled = r + 1
                audible = received > self.sensitivity_dbm
                audible[sender] = False
                ids = np.flatnonzero(audible)
                ids.flags.writeable = False
                signal = self.bank[r].take(ids)
                with np.errstate(divide="ignore", invalid="ignore"):
                    clean = ids.compress(self.perfect_decode
                                         | (signal / self.noise_mw >= self.threshold))
                self.receptions[sender, tx_power_dbm] = Reception(
                    r, ids, None, signal, tuple(clean.tolist()))
            rec = self.receptions[sender, tx_power_dbm]
        return rec

    def _receive_default(self) -> None:
        """Build and keep every sender's default-power reception, with one
        limit pass over each block of senders' (sender, hearer) pairs: blocks
        keep the pass's temporaries small beside the table."""
        nbrs = self.neighbors
        for first in range(0, len(nbrs), 32):
            senders = range(first, min(first + 32, len(nbrs)))
            counts = [len(nbrs[i]) for i in senders]
            flat = np.fromiter(chain.from_iterable(nbrs[i] for i in senders), dtype=np.intp,
                               count=sum(counts))
            flat.flags.writeable = False
            if self.perfect_decode:
                lim = np.full(len(flat), np.inf)
            else:
                signal = self.bank[np.repeat(senders, counts), flat]
                lim, _ = sinr_limits(signal, self.noise_mw, self.threshold)
            lim.flags.writeable = False
            ok = (lim >= 0.0).tolist()
            b = 0
            for sender, count in zip(senders, counts):
                a, b = b, b + count
                clean = tuple(j for j, good in zip(nbrs[sender], ok[a:b]) if good)
                self.receptions[sender, self.tx_power_dbm] = Reception(
                    sender, flat[a:b], lim[a:b], None, clean)


def _pow10(exps: np.ndarray) -> np.ndarray:
    """``10.0 ** x`` per entry through ``math.pow``, the same libm call."""
    return np.fromiter(map(math.pow, repeat(10.0), exps.tolist()), float, len(exps))


# rows of the i <= j half filled per pass of link_table: the pass's
# temporaries stay a few rows long beside the two n x n arrays
_BLOCK_ROWS = 16


def link_table(points: list, params: RadioParams) -> LinkTable:
    """Fill the i <= j half in blocks of rows, mirror it, and list each
    node's neighbors at ``params``' power and sensitivity. The bank starts
    as the default-power rows alone: a replication that sends at no other
    power never grows it.

    A block's pairs take a few C-level passes and no Python bytecode per
    pair. numpy does the steps IEEE rounds as Python floats do: the
    coordinate differences, the ``d_min_m`` clamp, ``* scale``,
    ``p0 - v`` and ``/ 10.0``. Only ``math.hypot``, ``math.log10`` and
    ``math.pow`` run per pair, mapped over the block's values."""
    n = len(points)
    scale = 10.0 * params.alpha_exp
    p0 = params.tx_power_dbm
    xs, ys = np.array(points, dtype=float).reshape(n, 2).T
    pl = np.empty((n, n))
    mw = np.empty((n, n))
    for a in range(0, n, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, n)
        upper = np.arange(a, n) >= np.arange(a, b)[:, None]   # j >= i
        dx = (xs[a:b, None] - xs[a:])[upper]
        dy = (ys[a:b, None] - ys[a:])[upper]
        d = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx))
        d = np.maximum(d, params.d_min_m)
        v = scale * np.fromiter(map(math.log10, d.tolist()), float, len(d))
        for table, half in ((pl, v), (mw, _pow10((p0 - v) / 10.0))):
            table[a:b, a:][upper] = half
            table[a:, a:b].T[upper] = half
    audible = p0 - pl > params.sensitivity_dbm
    np.fill_diagonal(audible, False)
    ids = iter(np.nonzero(audible)[1].tolist())
    neighbors = [list(islice(ids, k)) for k in np.count_nonzero(audible, axis=1).tolist()]
    return LinkTable(pl, mw, p0, params.sensitivity_dbm,
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


def decode_batch(wanted: Transmission, links: LinkTable) -> list[int]:
    """The hearers of ``wanted`` (the ids of ``wanted.reception``, which
    ``links`` made) that demodulate it among ``wanted.interferers``,
    ascending; ``decode`` for each of them, bit for bit.

    A hearer decodes when the peak interference over the window is at most
    its limit, or at a non-default power when ``decode``'s own test passes
    on its signal (``LinkTable.reception``). With no interferer overlapping
    the window the peak is zero, and the decoded ids are the reception's
    clean list.

    Otherwise one signed mark list gives the peak. It holds the rows of the
    clamped group (the interferers on the air at ``wanted.start``), then an
    (instant, row) per later start and an (end, row) per end inside the
    window, sorted by instant. The rows (each interferer's
    ``reception.row``) are gathered from the table's bank, then at the
    hearers, into one marks x hearers matrix, the removals' rows are
    negated (exactly), and a cumulative sum down each column adds them
    in ``decode``'s order, so every partial sum equals its loop's. Sorting
    by instant fixes that order everywhere except among marks of one
    instant, which ``decode`` orders by signed mW at each receiver: such a
    group is sorted column by column. The clamped group needs it only from
    three rows up (see the module docstring), and later marks only when two
    share an instant.

    Removals after the last addition are left out, those at ``wanted.end``
    among them (an overlap must have ``end > start``, so no addition falls
    on that instant). Each one turns a level L into fl(L - x) <= L, so no
    level after the last addition can raise the peak.
    """
    _, ids, lim, signal, clean = wanted.reception

    group = []   # rows of the interferers on the air at the start
    later = []   # (instant, row, sign) of the marks after it
    ws, we = wanted.start, wanted.end
    last = ws    # the last addition's instant
    for other in wanted.interferers:
        s, e = other.start, other.end
        end = e if e < we else we
        if s > ws:
            if end <= s:
                continue
            later.append((s, other.reception.row, 1.0))
            if s > last:
                last = s
        elif end > ws:
            group.append(other.reception.row)
        else:
            continue
        if e < we:
            later.append((e, other.reception.row, -1.0))
    if not group and not later:
        return list(clean)
    later.sort(key=itemgetter(0))
    while later and later[-1][0] > last:
        later.pop()
    if later:
        at, after, signs = zip(*later)
        rows = group + list(after)
    else:
        rows = group

    level = links.bank.take(rows, axis=0).take(ids, axis=1)
    g = len(group)
    if later and -1.0 in signs:
        # negation is exact, and decode orders a tie by the signed value
        level[g:] *= np.array(signs)[:, None]
    if g > 2:
        level[:g].sort(axis=0)
    if later and len(set(at)) < len(at):
        first = 0
        for i in range(1, len(at) + 1):
            if i == len(at) or at[i] != at[first]:
                if i - first > 1:
                    level[g + first:g + i].sort(axis=0)
                first = i
    # the first mark is an addition of a non-negative power, so the peak is
    # never below decode's starting level of zero
    peak = np.maximum.reduce(np.add.accumulate(level, axis=0), axis=0)
    if lim is None:
        # another power's reception keeps decode's own test
        noise = links.noise_mw
        if noise > 0.0:
            sinr = signal / (noise + peak)
        else:
            # a zero noise floor: as in decode, x / 0 = inf passes and
            # 0 / 0 = nan fails
            with np.errstate(divide="ignore", invalid="ignore"):
                sinr = signal / (noise + peak)
        return ids.compress(links.perfect_decode | (sinr >= links.threshold)).tolist()
    return ids.compress(peak <= lim).tolist()
