"""Rebuild the bounded-weight tail-biting codeword list from an IEE database.

Every nonzero tail-biting path of length N that touches state sigma_i but
none of sigma_0..sigma_{i-1} decomposes uniquely, read circularly, into
IEEs of sigma_i. Grouping the zero-weight self-loops (state 0 only, one
per non-catastrophic code) into gaps between the nonzero-weight events
gives the normal form used here:

    skeleton  = ordered tuple of nonzero-weight events, total weight < d_tilde
    gaps      = run of zero loops after each event, lengths g_1..g_j >= 0
    rotation  = start time t* of the first event, 0 <= t* < len_j + g_j

The (skeleton, gaps, t*) triple is in bijection with the paths of the
partition class: cutting any length-N word at the event block covering
time N-1 recovers exactly one triple, periodic words included. Expansion
therefore emits every path exactly once with no dedup hashing. States
other than 0 have no zero loop, so their skeletons must fill the length
budget exactly.

One frontier search, an event count at a time, finds the skeletons of
every state and keeps them in the database's layout: database event rows
(padded with -1), lengths and weights, grouped by the place of their
state in the ordering. Off the zero loop's place a prefix lives only
while an exact unbounded-knapsack bound, one dynamic programme over a
(places x lengths) table, can still take it to a target length.

Each (skeleton, gaps) pair gives one base word, the word with t* = 0, on
a row of ceil(N/64) uint64 limbs, built for all states at once: the
skeletons with j events and gap total G = N - length are crossed with
the weak compositions of G into j gaps, and each event's limbs are
shifted to its start and ORed into place. The path set keeps the base
words with their rotation counts len_j + g_j and weights, class by
class; the rows rot^r(base) stay implied (TBPathSet.words lists them).

The uniqueness guard never emits a row. Each base word sits on the cycle
of its necklace (its least rotation, of period p dividing N) and its
rotations fill an arc of that cycle; the rows are distinct iff no two
arcs on one cycle overlap and none is longer than p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .collector import IEEDatabase
from .errors import CoverageError

__all__ = [
    "WeightLengthTable",
    "ReconstructionTables",
    "TBPathSet",
    "build_tables",
    "expand_and_dedup",
    "growth_profile",
]

# uint64 limbs per block of the necklace guard's N - 1 rotations and of the
# per-row bit shifts (256 KiB): one block's rotating copy and scratch rows
# are held, not the path set's. A block stays in cache, so the guard at
# (13,17) N=70 d_tilde=22 took 0.85 s where rotating every base at once
# took 1.55 s (2-core host).
_BLOCK = 1 << 15


def _skeletons(
    db: IEEDatabase, d_tilde: int, targets: Sequence[int]
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every feasible event skeleton of every state: ReconstructionTables' zero and columns.

    targets are the trellis lengths the caller wants to reach. On the zero
    loop's place any skeleton no longer than max(targets) can be padded
    out; elsewhere a prefix is kept only if some target length is exactly
    reachable with the remaining weight budget (unbounded-knapsack bound,
    exact, so pruning loses nothing). Rows sort by (place, weight, length,
    event tuple).
    """
    l_max, places, zero = max(targets), len(db.ordering), db.ordering.index(0)
    # Each event's cell (place, length) of a places x width table, lengths
    # past l_max in the last column, in the narrowest dtype.
    width = l_max + 2
    cell = np.minimum(db.lengths, l_max + 1, dtype=np.min_scalar_type(places * width))
    cell += np.repeat(np.arange(0, places * width, width, dtype=cell.dtype), np.diff(db.offsets))
    # cheap[p, L]: the least weight of the events of place p of length L.
    cheap = np.full(places * width, d_tilde, dtype=db.weights.dtype)
    np.minimum.at(cheap, cell, db.weights)
    cheap = cheap.reshape(places, width).astype(np.int64)
    # best[p, l]: the least weight of events of place p whose lengths take
    # l to a target, d_tilde or more for none; the zero loop pads any prefix.
    best = np.full((places, width), d_tilde, dtype=np.int64)
    best[:, targets] = 0
    for l in range(l_max - 1, -1, -1):
        step = cheap[:, 1 : l_max + 1 - l] + best[:, l + 1 : l_max + 1]
        np.minimum(best[:, l], step.min(axis=1), out=best[:, l])
    best[zero, : l_max + 1] = 0

    # The events kept pass the bound as one-event prefixes; in file order,
    # they sort by (place, weight).
    room = (d_tilde - best).astype(db.weights.dtype)
    keep = db.weights < room.ravel()[cell]
    del cell
    keep &= db.weights > 0
    rows = np.flatnonzero(keep)
    # Columns in the narrowest types that cannot wrap. A kept event is no
    # longer than l_max and lighter than d_tilde, and so is a kept prefix,
    # so a child is shorter than 2 * l_max and lighter than 2 * d_tilde.
    pos_t, length_t = np.min_scalar_type(len(rows)), np.min_scalar_type(2 * l_max)
    place_t, weight_t = np.min_scalar_type(places - 1), np.min_scalar_type(2 * d_tilde)
    ev_place = np.searchsorted(db.offsets, rows, side="right") - 1
    ev_weight, ev_length = db.weights[rows].astype(weight_t), db.lengths[rows].astype(length_t)
    # A prefix's children are its place's events under its remaining budget:
    # a run of ev_key, which ends before ends[place] - weight.
    ev_key = ev_place * d_tilde + ev_weight
    ends = np.arange(1, places + 1) * d_tilde
    first = np.searchsorted(ev_place, np.arange(places))
    del ev_place

    # One block per event count: positions into the kept events, then
    # place, length and weight, one row per skeleton. The search starts
    # from every place's empty prefix, and its last block is empty.
    blocks = []
    pos, place = np.zeros((places, 0), dtype=pos_t), np.arange(places, dtype=place_t)
    length, weight = np.zeros(places, dtype=length_t), np.zeros(places, dtype=weight_t)
    while len(pos):
        fits = np.searchsorted(ev_key, ends[place] - weight) - first[place]
        parent = np.repeat(np.arange(len(pos), dtype=np.min_scalar_type(len(pos))), fits)
        child = np.arange(len(parent))
        child -= np.repeat(np.cumsum(fits) - fits - first[place], fits)
        child = child.astype(pos_t)
        del fits
        length, weight = length[parent] + ev_length[child], weight[parent] + ev_weight[child]
        keep = np.flatnonzero(weight < room[place[parent], np.minimum(length, l_max + 1)])
        parent, child = parent[keep], child[keep]
        pos = np.column_stack((pos[parent], child))
        place, length, weight = place[parent], length[keep], weight[keep]
        del parent, child, keep
        blocks.append((pos, place, length, weight))
    # Database row -1 pads each skeleton to the most events. The last block,
    # which is empty, is one event wider.
    events = np.full((sum(len(p) for p, *_ in blocks), len(blocks) - 1), -1, dtype=np.int32)
    lo = 0
    for block, *_ in blocks[:-1]:
        events[lo : lo + len(block), : block.shape[1]] = rows[block]
        lo += len(block)
    place, length, weight = (np.concatenate(column) for column in list(zip(*blocks))[1:])
    del blocks, rows, ev_key, ev_weight, ev_length
    order = np.lexsort((*events.T[::-1], length, weight, place))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(place, minlength=places))))
    # The returned lengths and weights are signed, so a caller's difference cannot wrap.
    return zero, offsets, events[order], length[order].astype(np.int64), weight[order].astype(np.int64)


class WeightLengthTable(NamedTuple):
    """One state's skeletons: its rows of the ReconstructionTables columns."""

    skeletons: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray


@dataclass(eq=False)
class ReconstructionTables:
    """The skeletons of every state for one (N, d_tilde) reconstruction run.

    The columns are in the database's layout: skeletons holds database
    event rows (int32), padded with -1, with lengths and weights (int64)
    alongside, and the skeletons of db.ordering[i] are rows
    offsets[i]:offsets[i + 1].
    zero is the place of state 0, which owns the zero loop. Iterating
    gives the states in the ordering, and tables[state] the state's rows.
    """

    db: IEEDatabase
    N: int
    d_tilde: int
    zero: int
    offsets: np.ndarray
    skeletons: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray

    def __getitem__(self, state: int) -> WeightLengthTable:
        i = self.db.ordering.index(state)
        rows = slice(int(self.offsets[i]), int(self.offsets[i + 1]))
        return WeightLengthTable(self.skeletons[rows], self.lengths[rows], self.weights[rows])

    def __iter__(self) -> Iterator[int]:
        return iter(self.db.ordering)

    def __repr__(self) -> str:
        return f"ReconstructionTables(N={self.N}, d_tilde={self.d_tilde}, skeletons={len(self.lengths)})"


def _covered_bound(db: IEEDatabase, d_tilde: int, length: int, name: str) -> int:
    """Refuse a weight bound or a length (called name) the database does not cover.

    Returns the bound to search with: no word of that length weighs more
    than n * length, so a larger bound finds the same words as n * length + 1.
    """
    if d_tilde > db.d_tilde:
        raise CoverageError(
            f"database only covers weights < {db.d_tilde}, need d_tilde={d_tilde}; "
            f"re-collect with d_tilde >= {d_tilde}"
        )
    if length > db.max_len:
        raise CoverageError(
            f"database only covers event lengths <= {db.max_len}, need {name}={length}; "
            f"re-collect with max_len >= {length}"
        )
    return min(d_tilde, db.n * length + 1)


def build_tables(db: IEEDatabase, N: int, d_tilde: int) -> ReconstructionTables:
    """Prepare expansion tables, checking the database actually covers the ask.

    A d_tilde above n*N + 1 is lowered to it: the same words come out.
    """
    if d_tilde < 1:
        raise ValueError(f"d_tilde must be >= 1, got {d_tilde}")
    d_tilde = _covered_bound(db, d_tilde, N, "N")
    if N < db.v:
        raise ValueError(f"N={N} is degenerate for a memory-{db.v} code; need N >= {db.v}")
    return ReconstructionTables(db, N, d_tilde, *_skeletons(db, d_tilde, [N]))


def _count_dtype(N: int) -> np.dtype:
    """The narrowest signed integer type that holds -N..N.

    Every per-base column bounded by the length (rotation counts, necklace
    offsets, periods and arc starts, bit lengths and shifts) is held in it.
    It is signed so that a difference of two such values, or a count
    stepped by one, cannot wrap.
    """
    return np.min_scalar_type(-N - 1)


def _rotate(words: np.ndarray, N: int, spare: np.ndarray) -> None:
    """Rotate every N-bit word one step later in time, in place.

    words holds one contiguous row per uint64 limb, low limb first, one
    column per word; each word becomes (w << 1) | (w >> (N-1)). spare is
    a scratch row of the same length and the only one used: each limb
    first turns one place within itself (the top limb within its own
    N - 64*top bits), which puts its top bit in bit 0, and then bit 0 of
    every limb moves one limb up, the top limb's round to limb 0.
    """
    top = len(words) - 1
    for i, row in enumerate(words):
        np.right_shift(row, (N - 1) % 64 if i == top else 63, out=spare)
        np.left_shift(row, 1, out=row)
        row |= spare
    if N % 64:
        words[top] &= np.uint64((1 << (N % 64)) - 1)
    for i in range(top, 0, -1):
        # Swap bit 0 of limbs i and i - 1.
        np.bitwise_xor(words[i], words[i - 1], out=spare)
        spare &= np.uint64(1)
        words[i] ^= spare
        words[i - 1] ^= spare


def _necklaces(bases: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(least rotation, its offset k, period p) of every base word.

    rot^k(b) is the least of the N rotations of b, the first on ties. The
    period p, the least p > 0 with rot^p(b) == b, divides N, and the least
    rotation comes round N/p times in N steps; so k < p. The least
    rotations come back one row per limb, low limb first (shape
    (limbs, bases)); k and p in _count_dtype(N); bases itself is left as
    it is. The N - 1 rotations run over _BLOCK limbs of bases at a time,
    so beyond the output only one block's rotating copy and scratch rows
    are held.
    """
    limbs = bases.shape[1]
    top = limbs - 1
    least = np.empty((limbs, len(bases)), dtype=np.uint64)
    offset = np.zeros(len(bases), dtype=_count_dtype(N))
    repeats = np.ones(len(bases), dtype=offset.dtype)
    rows = max(1, min(len(bases), _BLOCK // limbs))
    scratch = (np.empty((limbs, rows), dtype=np.uint64), np.empty(rows, dtype=np.uint64),
               *(np.empty(rows, dtype=bool) for _ in range(3)))
    for lo in range(0, len(bases), rows):
        hi = min(lo + rows, len(bases))
        cur, spare, less, same, step = (a[..., : hi - lo] for a in scratch)
        low, k, repeat = least[:, lo:hi], offset[lo:hi], repeats[lo:hi]
        cur[...] = bases[lo:hi].T
        low[...] = cur
        for r in range(1, N):
            _rotate(cur, N, spare)
            # less, same: cur < low, cur == low, the high limb deciding first.
            np.less(cur[top], low[top], out=less)
            np.equal(cur[top], low[top], out=same)
            for i in range(top - 1, -1, -1):
                np.less(cur[i], low[i], out=step)
                step &= same
                less |= step
                np.equal(cur[i], low[i], out=step)
                same &= step
            np.copyto(low, cur, where=less)
            np.copyto(k, r, where=less)
            repeat += same
            np.copyto(repeat, 1, where=less)
    return least, offset, np.floor_divide(N, repeats, out=repeats)


def _overlapping_arcs(bases: np.ndarray, counts: np.ndarray, N: int) -> int:
    """How many rotation arcs run into the next arc on their necklace.

    Base b with least rotation c = rot^k(b) and period p puts its row
    rot^r(b) at position (r - k) mod p on the cycle of c, so its rows fill
    the arc [(-k) mod p, +counts[b]). Rows of different necklaces differ, so
    all rows are distinct iff, with the arcs of each necklace sorted by
    start, every arc ends no later than the next one starts (the last
    against the first, one turn later). A lone arc must then fit in p.

    Beyond the bases, the least rotations (one copy of the base words),
    the sort order (one index per base) and one limb row are held at once;
    the starts, periods and rooms are in _count_dtype(N).
    """
    if len(bases) == 0:
        return 0
    least, offset, period = _necklaces(bases, N)
    start = (period - offset) % period
    order = np.lexsort((start, *least))
    for row in least:
        row[...] = row[order]
    start, period, counts = start[order], period[order], counts[order]
    del order
    # new[i]: arc i opens its necklace's run, new[i + 1]: arc i closes it.
    new = np.ones(len(start) + 1, dtype=bool)
    np.not_equal(least[0, 1:], least[0, :-1], out=new[1:-1])
    for row in least[1:]:
        new[1:-1] |= row[1:] != row[:-1]
    del least
    # room[i]: how far arc i may run, to the next start or one turn round to the first.
    room = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=room[:-1])
    last = np.flatnonzero(new[1:])
    room[last] = start[np.flatnonzero(new[:-1])] + period[last] - start[last]
    return int(np.count_nonzero(counts > room))


@dataclass(eq=False)
class TBPathSet:
    """All tail-biting paths of weight < d_tilde at one length, held as base words.

    Base b is a row of ceil(N/64) little-endian uint64 limbs (bit i of the
    word = input at time i). It stands for its first counts[b] rotations
    rot^r(b), r < counts[b], each one step later in time and all of weight
    base_weights[b]. The bases of the partition class of ordering[i] are
    rows offsets[i]:offsets[i+1], as its events are in IEEDatabase. The
    paths of all bases are distinct.

    Only the base words are held at full width: counts is in the narrowest
    signed type that holds N (_count_dtype), base_weights in the narrowest
    unsigned type that holds d_tilde - 1, so at N < 128 and d_tilde <= 256
    a base costs 8 bytes per limb and 2 more.
    """

    N: int
    d_tilde: int
    offsets: np.ndarray
    bases: np.ndarray
    counts: np.ndarray
    base_weights: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())

    def words(self, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, int]]:
        """(word, weight) of each path of bases lo..hi-1 as Python ints, base by base, in rotation order."""
        N, mask = self.N, (1 << self.N) - 1
        rows = self.bases[lo:hi].astype("<u8", copy=False)
        for row, count, weight in zip(rows, self.counts[lo:hi].tolist(), self.base_weights[lo:hi].tolist()):
            word = int.from_bytes(row.tobytes(), "little")
            for _ in range(count):
                yield word, weight
                word = ((word << 1) | (word >> (N - 1))) & mask

    def counts_by_weight(self) -> dict[int, int]:
        """{weight: number of paths}, zero weights omitted."""
        binc = np.bincount(self.base_weights, weights=self.counts)
        return {int(w): int(c) for w, c in enumerate(binc) if c}

    def __repr__(self) -> str:
        return f"TBPathSet(N={self.N}, d_tilde={self.d_tilde}, paths={len(self)})"


def _composition_table(total: int, parts: int) -> np.ndarray:
    """The weak compositions of total into `parts` ordered parts, in lexicographic order, one per row."""
    table = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        # Each prefix is followed by every head 0..left in turn.
        width = left + 1
        head = np.arange(int(width.sum())) - np.repeat(np.cumsum(width) - width, width)
        table = np.column_stack((np.repeat(table, width, axis=0), head))
        left = np.repeat(left, width) - head
    return np.column_stack((table, left))


def _shift_left(limbs: np.ndarray, shift: np.ndarray) -> None:
    """limbs <<= shift row by row, in place, on rows of little-endian uint64
    limbs, for shifts below the row's width; bits pushed past the last limb
    are lost. The bit shifts run over _BLOCK limbs of rows at a time."""
    width = limbs.shape[1]
    whole = shift >> 6
    for w in range(1, width):
        rows = np.flatnonzero(whole == w)
        limbs[rows, w:] = limbs[rows, : width - w]
        limbs[rows, :w] = 0
    rows = max(1, _BLOCK // width)
    for lo in range(0, len(limbs), rows):
        block = limbs[lo : lo + rows]
        bits = (shift[lo : lo + rows] & 63).astype(np.uint64)[:, None]
        # The carry from the limb below is w >> (64 - bits), in two steps, as
        # numpy leaves a shift by 64 undefined; both give 0 at bits = 0.
        carry = (block[:, :-1] >> np.uint64(1)) >> (np.uint64(63) - bits)
        block <<= bits
        block[:, 1:] |= carry


def _build_bases(tables: ReconstructionTables) -> TBPathSet:
    """The path set of the tables' skeletons, unchecked.

    The skeletons used (all of the zero loop's place, those of length N
    elsewhere) are grouped by (event count j, gap total G = N - length);
    a group crosses its skeletons with the weak compositions of G into j
    gaps and places each event after the events and gaps before it. Each
    base word starts its first event at time 0, and its rotation count is
    len_j + g_j. Rows come in skeleton order, then composition order.
    """
    db, N, limbs = tables.db, tables.N, (tables.N + 63) // 64
    width = min(limbs, db.inputs.shape[1])  # events longer than N sit in no skeleton
    used = tables.lengths == N
    used[tables.offsets[tables.zero] : tables.offsets[tables.zero + 1]] = True
    parts = np.count_nonzero(tables.skeletons >= 0, axis=1)
    gap_total = N - tables.lengths
    key = parts * (N + 1) + gap_total
    by_key = np.flatnonzero(used)[np.argsort(key[used], kind="stable")]
    groups = np.split(by_key, np.flatnonzero(np.diff(key[by_key])) + 1) if len(by_key) else []
    comps = [_composition_table(int(gap_total[g[0]]), int(parts[g[0]])) for g in groups]
    sizes = np.zeros(len(used), dtype=np.int64)
    for members, comp in zip(groups, comps):
        sizes[members] = len(comp)
    first = np.cumsum(sizes) - sizes
    bases = np.empty((int(sizes.sum()), limbs), dtype=np.uint64)
    counts = np.empty(len(bases), dtype=_count_dtype(N))
    weights = np.repeat(tables.weights.astype(np.min_scalar_type(tables.d_tilde - 1)), sizes)

    for members, comp in zip(groups, comps):
        sk_events = tables.skeletons[members, : comp.shape[1]]
        lens = db.lengths[sk_events].astype(np.int64)
        gaps = np.cumsum(comp, axis=1) - comp
        # Event k starts after the events and gaps before it; event 0 at time 0.
        start = ((np.cumsum(lens, axis=1) - lens)[:, None, :] + gaps).reshape(-1, comp.shape[1])
        word = np.zeros((len(start), limbs), dtype=np.uint64)
        event = np.empty_like(word)
        for k in range(comp.shape[1]):
            # The limbs above the event's hold the last event's shifted bits.
            event[:, width:] = 0
            event[:, :width] = db.inputs[np.repeat(sk_events[:, k], len(comp)), :width]
            _shift_left(event, start[:, k])
            word |= event
        rows = (first[members][:, None] + np.arange(len(comp))).ravel()
        bases[rows] = word
        counts[rows] = (lens[:, -1][:, None] + comp[:, -1]).ravel()
    return TBPathSet(N, tables.d_tilde, np.append(first, len(bases))[tables.offsets], bases, counts, weights)


def expand_and_dedup(tables: ReconstructionTables, N: int) -> TBPathSet:
    """Build one base word per gap composition and check the rows are distinct.

    The base order is deterministic (state ordering, then skeleton order,
    then gap compositions), and the path set's offsets mark where each
    state's bases begin. The uniqueness guard checks the rotation arcs of
    the bases on their necklaces (_overlapping_arcs), without emitting a row.
    """
    if N != tables.N:
        raise ValueError(f"tables were built for N={tables.N}, asked to expand N={N}")
    paths = _build_bases(tables)
    overlaps = _overlapping_arcs(paths.bases, paths.counts, N)
    if overlaps:
        raise RuntimeError(
            f"{len(paths.bases)} base words stand for {len(paths)} words, but {overlaps} "
            "of their rotation arcs overlap the next on their necklace; "
            "bijection invariant broken"
        )
    return paths


def growth_profile(db: IEEDatabase, d_tilde: int, l_range: range) -> list[tuple[int, int]]:
    """Number of weight < d_tilde tail-biting words at each length l of l_range.

    Lengths below 1, and lengths or a d_tilde the database does not cover,
    are refused from the range's two ends, before its lengths are listed.
    Counts come straight from the skeletons in closed form: a skeleton of
    j events, length L and last event length len_j, padded to length l
    with G = l - L zero loops, owns C(G+j-1, j-1) gap placements whose
    rotation counts sum to len_j*C(G+j-1, j-1) + G*C(G+j-1, j-1)/j. Off
    the zero loop's place only G = 0 is open.
    """
    if d_tilde < 1:
        raise ValueError(f"d_tilde must be >= 1, got {d_tilde}")
    if not l_range:
        return []
    lo, hi = min(l_range[0], l_range[-1]), max(l_range[0], l_range[-1])
    if lo < 1:
        raise ValueError(f"lengths must be >= 1, got {lo}")
    d_tilde = _covered_bound(db, d_tilde, hi, "l")
    targets = sorted(l_range)
    zero, offsets, events, lengths, _weights = _skeletons(db, d_tilde, targets)
    padded = np.repeat(np.arange(len(db.ordering)) == zero, np.diff(offsets))
    # Skeletons that agree on (padded, j, L, len_j) count alike; Python ints keep the sums exact.
    parts = np.count_nonzero(events >= 0, axis=1)
    last_len = db.lengths[events[np.arange(len(events)), parts - 1]]
    groups, sizes = np.unique(np.column_stack((padded, parts, lengths, last_len)), axis=0, return_counts=True)
    counts = {l: 0 for l in targets}
    for (pad, j, length, last), size in zip(groups.tolist(), sizes.tolist()):
        for l in (l for l in targets if l == length or (pad and l > length)):
            gap = l - length
            placements = math.comb(gap + j - 1, j - 1)
            counts[l] += size * (last * placements + (gap * placements) // j)
    return [(l, counts[l]) for l in targets]
