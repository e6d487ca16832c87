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
therefore emits every path exactly once with no dedup hashing. Each
(skeleton, gaps) pair gives one base word, the word with t* = 0, on a
row of ceil(N/64) uint64 limbs. numpy builds them a group at a time: the
skeletons of one state with j events and gap total G = N - length are
crossed with the weak compositions of G into j gaps, and each event's
limbs are shifted to its start and ORed into place. The path set keeps
the base words with their rotation counts len_j + g_j and weights, class
by class; the rows rot^r(base), r < len_j + g_j, stay implied, and verify
reads them from it as Python ints (TBPathSet.words). States other than 0
have no zero loop, so their skeletons must fill the length budget exactly.

The uniqueness guard never emits a row. Each base word sits on the cycle
of its necklace (its least rotation, of period p dividing N) and its
rotations fill an arc of that cycle; the rows are distinct iff no two
arcs on one cycle overlap and none is longer than p.

A state's table holds its skeletons as numpy columns: event indices into
the state's event columns (padded with -1), length and weight, grown one
event count at a time by a frontier search. The weight/length cells of
the classic recurrence are never materialized, which keeps N=70 in tens
of megabytes instead of gigabytes.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .collector import EventColumns, IEEDatabase
from .errors import CoverageError

__all__ = [
    "WeightLengthTable",
    "ReconstructionTables",
    "TBPathSet",
    "build_tables",
    "expand_and_dedup",
    "growth_profile",
]


def _skeletons_for_state(
    iees: EventColumns, d_tilde: int, targets: Sequence[int]
) -> tuple[int | None, np.ndarray, np.ndarray, np.ndarray]:
    """Enumerate feasible event skeletons for one state, as columns.

    targets are the trellis lengths the caller wants to reach. For the
    state owning the zero loop any skeleton no longer than max(targets)
    can be padded out; for the others a prefix is kept only if some
    target length is exactly reachable with the remaining weight budget
    (unbounded-knapsack bound, exact, so pruning loses nothing).
    Returns zero_index and WeightLengthTable's skeleton columns, sorted by
    (weight, length, event tuple).
    """
    l_max = max(targets)
    d_tilde = min(d_tilde, int(np.iinfo(np.int32).max))  # weights stay far below it; 2^63 overflows int64
    weight_of, length_of = iees.weights.astype(np.int64), iees.lengths.astype(np.int64)
    zeros = np.flatnonzero(weight_of == 0)
    if len(zeros) > 1:
        raise RuntimeError("two zero-weight loops; encoder should have been refused")
    zero_index = int(zeros[0]) if len(zeros) else None
    index = np.flatnonzero((weight_of > 0) & (weight_of < d_tilde) & (length_of <= l_max))
    # Ascending weight makes the children of a row a prefix of the events.
    index = index[np.lexsort((index, length_of[index], weight_of[index]))]
    ev_weight, ev_length = weight_of[index], length_of[index]

    best_fill = None
    if zero_index is None:
        inf = float("inf")
        # The fill only takes minima, so the cheapest event of each length
        # stands for all events of that length: the first, as weight ascends.
        fill_lengths, first = np.unique(ev_length, return_index=True)
        # fill[r]: the least weight of events whose lengths sum to r. Pass k
        # settles the sums of k events, and none has more than l_max // shortest.
        back = np.arange(l_max + 1)[:, None] - fill_lengths
        step = np.where(back >= 0, ev_weight[first], inf)
        fill = np.where(np.arange(l_max + 1) == 0, 0.0, inf)
        for _ in range(l_max // int(fill_lengths[0]) if len(fill_lengths) else 0):
            fill = np.minimum(fill, (fill[np.maximum(back, 0)] + step).min(axis=1, initial=inf))
        # best_fill[l]: the least weight that takes a length-l prefix to a target.
        best_fill = np.full(l_max + 1, inf)
        for t in targets:
            np.minimum(best_fill[: t + 1], fill[t::-1], out=best_fill[: t + 1])

    # One block per event count: positions into the sorted events, then
    # length and weight, one row per skeleton. The first block, of no
    # events, is empty, so a state with no skeleton needs no special case.
    empty = np.zeros(0, dtype=np.int64)
    blocks = [(np.zeros((0, 0), dtype=np.int64), empty, empty)]
    pos = np.zeros((1, 0), dtype=np.int64)
    length = weight = np.zeros(1, dtype=np.int64)
    while len(pos):
        fits = np.searchsorted(ev_weight, d_tilde - weight)
        parent = np.repeat(np.arange(len(pos)), fits)
        child = np.arange(len(parent)) - np.repeat(np.cumsum(fits) - fits, fits)
        length = length[parent] + ev_length[child]
        weight = weight[parent] + ev_weight[child]
        fit = length <= l_max
        if best_fill is not None:
            fit &= weight + best_fill[np.minimum(length, l_max)] < d_tilde
        keep = np.flatnonzero(fit)
        pos, length, weight = np.column_stack((pos[parent[keep]], child[keep])), length[keep], weight[keep]
        if len(pos):
            blocks.append((pos, length, weight))
    events = np.full((sum(len(b[0]) for b in blocks), len(blocks) - 1), -1, dtype=np.int32)
    row = 0
    for block_pos, *_ in blocks:
        events[row : row + len(block_pos), : block_pos.shape[1]] = index[block_pos]
        row += len(block_pos)
    length, weight = (np.concatenate(column) for column in list(zip(*blocks))[1:])
    order = np.lexsort((*events.T[::-1], length, weight))
    return zero_index, events[order], length[order], weight[order]


class WeightLengthTable(NamedTuple):
    """Anchored-path table of one state, stored in skeleton normal form.

    Expansion walks the skeletons directly; iees are the state's event
    columns, and zero_index is the row of the zero loop in them, or None
    for states without one. Skeleton a is row a of skeletons (event rows,
    padded with -1) with its length and weight in the columns of the same
    names.
    """

    iees: EventColumns
    zero_index: int | None
    skeletons: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray


class ReconstructionTables:
    """Per-state tables for one (N, d_tilde) reconstruction run, in the database's state ordering."""

    __slots__ = ("ordering", "N", "d_tilde", "per_state")

    def __init__(self, ordering: tuple[int, ...], N: int, d_tilde: int, per_state: dict[int, WeightLengthTable]):
        self.ordering = ordering
        self.N = N
        self.d_tilde = d_tilde
        self.per_state = per_state

    def __getitem__(self, state: int) -> WeightLengthTable:
        return self.per_state[state]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ordering)

    def __repr__(self) -> str:
        return f"ReconstructionTables(N={self.N}, d_tilde={self.d_tilde}, states={len(self.per_state)})"


def _check_coverage(db: IEEDatabase, d_tilde: int, length: int, name: str) -> None:
    """Refuse a weight bound or a length (called name) the database does not cover."""
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


def build_tables(db: IEEDatabase, N: int, d_tilde: int) -> ReconstructionTables:
    """Prepare expansion tables, checking the database actually covers the ask."""
    if d_tilde < 1:
        raise ValueError(f"d_tilde must be >= 1, got {d_tilde}")
    _check_coverage(db, d_tilde, N, "N")
    if N < db.v:
        raise ValueError(f"N={N} is degenerate for a memory-{db.v} code; need N >= {db.v}")
    per_state: dict[int, WeightLengthTable] = {}
    for sigma in db.ordering:
        iees = db.events(sigma)
        per_state[sigma] = WeightLengthTable(iees, *_skeletons_for_state(iees, d_tilde, [N]))
    return ReconstructionTables(db.ordering, N, d_tilde, per_state)


def _rotate(words: np.ndarray, N: int, spare: np.ndarray) -> None:
    """Rotate every N-bit word one step later in time, in place.

    words holds one contiguous row per uint64 limb, low limb first, one
    column per word; each word becomes (w << 1) | (w >> (N-1)). spare is
    a scratch row of the same length.
    """
    top = len(words) - 1
    np.right_shift(words[top], (N - 1) % 64, out=spare)  # bit N-1, the wrap
    for i in range(top, 0, -1):
        np.left_shift(words[i], 1, out=words[i])
        words[i] |= words[i - 1] >> np.uint64(63)
    np.left_shift(words[0], 1, out=words[0])
    words[0] |= spare
    if N % 64:
        words[top] &= np.uint64((1 << (N % 64)) - 1)


def _necklaces(bases: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(least rotation, its offset k, period p) of every base word.

    rot^k(b) is the least of the N rotations of b, the first on ties. The
    period p, the least p > 0 with rot^p(b) == b, divides N, and the least
    rotation comes round N/p times in N steps; so k < p. The least
    rotations come back one row per limb, low limb first (shape
    (limbs, bases)); bases itself is left as it is.
    """
    cur = bases.T.copy()
    least = cur.copy()
    top = len(cur) - 1
    offset = np.zeros(len(bases), dtype=np.int64)
    repeats = np.ones(len(bases), dtype=np.int64)
    spare = np.empty(len(bases), dtype=np.uint64)
    less = np.empty(len(bases), dtype=bool)
    same = np.empty(len(bases), dtype=bool)
    step = np.empty(len(bases), dtype=bool)
    for r in range(1, N):
        _rotate(cur, N, spare)
        # less, same: cur < least, cur == least, the high limb deciding first.
        np.less(cur[top], least[top], out=less)
        np.equal(cur[top], least[top], out=same)
        for i in range(top - 1, -1, -1):
            np.less(cur[i], least[i], out=step)
            step &= same
            less |= step
            np.equal(cur[i], least[i], out=step)
            same &= step
        np.copyto(least, cur, where=less)
        np.copyto(offset, r, where=less)
        repeats += same
        np.copyto(repeats, 1, where=less)
    return least, offset, N // repeats


def _overlapping_arcs(bases: np.ndarray, counts: np.ndarray, N: int) -> int:
    """How many rotation arcs run into the next arc on their necklace.

    Base b with least rotation c = rot^k(b) and period p puts its row
    rot^r(b) at position (r - k) mod p on the cycle of c, so its rows fill
    the arc [(-k) mod p, +counts[b]). Rows of different necklaces differ, so
    all rows are distinct iff, with the arcs of each necklace sorted by
    start, every arc ends no later than the next one starts (the last
    against the first, one turn later). A lone arc must then fit in p.
    """
    if len(bases) == 0:
        return 0
    least, offset, period = _necklaces(bases, N)
    start = -offset % period
    order = np.lexsort((start, *least))
    least, start, period = least[:, order], start[order], period[order]
    end = start + counts[order]
    # new[i]: arc i opens its necklace's run, new[i + 1]: arc i closes it.
    new = np.ones(len(order) + 1, dtype=bool)
    new[1:-1] = (least[:, 1:] != least[:, :-1]).any(axis=0)
    first = np.maximum.accumulate(np.where(new[:-1], np.arange(len(order)), 0))
    nxt = np.empty_like(start)
    nxt[:-1] = start[1:]
    last = new[1:]
    nxt[last] = start[first[last]] + period[last]
    return int(np.count_nonzero(end > nxt))


class TBPathSet:
    """All tail-biting paths of weight < d_tilde at one length, held as base words.

    Base b is a row of ceil(N/64) little-endian uint64 limbs (bit i of the
    word = input at time i). It stands for its first counts[b] rotations
    rot^r(b), r < counts[b], each one step later in time and all of weight
    base_weights[b]. The bases of the partition class of ordering[i] are
    rows offsets[i]:offsets[i+1], as its events are in IEEDatabase. The
    paths of all bases are distinct.
    """

    __slots__ = ("N", "d_tilde", "offsets", "bases", "counts", "base_weights")

    def __init__(
        self, N: int, d_tilde: int, offsets: np.ndarray, bases: np.ndarray, counts: np.ndarray,
        base_weights: np.ndarray,
    ):
        self.N = N
        self.d_tilde = d_tilde
        self.offsets = offsets
        self.bases = bases
        self.counts = counts
        self.base_weights = base_weights

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


def _shift_left(words: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """words << shift row by row, on rows of little-endian uint64 limbs.

    Each row has its own shift; bits pushed past the last limb are lost.
    """
    limbs = words.shape[1]
    whole = shift >> 6
    if whole.any():
        src = np.arange(limbs) - whole[:, None]
        words = np.take_along_axis(words, np.maximum(src, 0), axis=1)
        words[src < 0] = 0
    bits = (shift & 63).astype(np.uint64)[:, None]
    out = words << bits
    # The carry from the limb below is w >> (64 - bits). numpy leaves a
    # shift by 64 undefined, so it takes two steps, which give 0 at bits = 0.
    out[:, 1:] |= (words[:, :-1] >> np.uint64(1)) >> (np.uint64(63) - bits)
    return out


def _state_bases(table: WeightLengthTable, N: int, limbs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bases, rotation counts, weights) of one state's partition class.

    The skeletons are grouped by (event count j, gap total G = N - length).
    A group crosses its skeletons with the weak compositions of G into j
    gaps and places each event after the events and gaps before it. Each
    base word starts its first event at time 0, and its rotation count is
    len_j + g_j. Rows come in skeleton order, then composition order.
    """
    keep = slice(None) if table.zero_index is not None else table.lengths == N
    events, sk_lengths = table.skeletons[keep], table.lengths[keep]
    if not len(events):
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros((0, limbs), dtype=np.uint64), empty, empty.astype(np.uint32)
    parts = np.count_nonzero(events >= 0, axis=1)
    gap_total = N - sk_lengths
    key = parts * (N + 1) + gap_total
    by_key = np.argsort(key, kind="stable")
    groups = np.split(by_key, np.flatnonzero(np.diff(key[by_key])) + 1)
    comps = [_composition_table(int(gap_total[g[0]]), int(parts[g[0]])) for g in groups]
    sizes = np.empty(len(events), dtype=np.int64)
    for members, comp in zip(groups, comps):
        sizes[members] = len(comp)
    first = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    bases = np.empty((total, limbs), dtype=np.uint64)
    counts = np.empty(total, dtype=np.int64)
    weights = np.repeat(table.weights[keep].astype(np.uint32), sizes)

    lengths, inputs = table.iees.lengths.astype(np.int32), table.iees.inputs
    # Events longer than N sit in no skeleton; their high limbs are cut off.
    bits = np.zeros((len(inputs), limbs), dtype=np.uint64)
    bits[:, : inputs.shape[1]] = inputs[:, :limbs]

    for members, comp in zip(groups, comps):
        sk_events = events[members, : comp.shape[1]]
        lens = lengths[sk_events]
        gaps = (np.cumsum(comp, axis=1) - comp).astype(np.int32)
        # Event k starts after the events and gaps before it; event 0 at time 0.
        start = ((np.cumsum(lens, axis=1) - lens)[:, None, :] + gaps).reshape(-1, comp.shape[1])
        word = bits[np.repeat(sk_events[:, 0], len(comp))]
        for k in range(1, comp.shape[1]):
            word |= _shift_left(bits[np.repeat(sk_events[:, k], len(comp))], start[:, k])
        rows = (first[members][:, None] + np.arange(len(comp))).ravel()
        bases[rows] = word
        counts[rows] = (lens[:, -1][:, None] + comp[:, -1]).ravel()
    return bases, counts, weights


def expand_and_dedup(tables: ReconstructionTables, N: int) -> TBPathSet:
    """Build one base word per gap composition and check the rows are distinct.

    The base order is deterministic (state ordering, then skeleton order,
    then gap compositions), and the path set's offsets mark where each
    state's bases begin. The uniqueness guard checks the rotation arcs of
    the bases on their necklaces (_overlapping_arcs), without emitting a row.
    """
    if N != tables.N:
        raise ValueError(f"tables were built for N={tables.N}, asked to expand N={N}")
    limbs = (N + 63) // 64
    parts = [_state_bases(tables.per_state[sigma], N, limbs) for sigma in tables.ordering]
    offsets = np.cumsum([0] + [len(part[0]) for part in parts])
    bases, counts, weights = (np.concatenate(column) for column in zip(*parts))
    overlaps = _overlapping_arcs(bases, counts, N)
    if overlaps:
        raise RuntimeError(
            f"{len(bases)} base words stand for {int(counts.sum())} words, but {overlaps} "
            "of their rotation arcs overlap the next on their necklace; "
            "bijection invariant broken"
        )
    return TBPathSet(N, tables.d_tilde, offsets, bases, counts, weights)


def growth_profile(db: IEEDatabase, d_tilde: int, l_range: range) -> list[tuple[int, int]]:
    """Number of weight < d_tilde tail-biting words at each length l of l_range.

    Lengths below 1, and lengths or a d_tilde the database does not cover,
    are refused from the range's two ends, before its lengths are listed.
    Counts come straight from the skeletons in closed form: a skeleton of
    j events, length L and last event length len_j (read from the event
    columns), padded to length l with G = l - L zero loops, owns
    C(G+j-1, j-1) gap placements whose rotation counts sum to
    len_j*C(G+j-1, j-1) + G*C(G+j-1, j-1)/j. States without the zero
    loop contribute len_j once when L == l.
    """
    if d_tilde < 1:
        raise ValueError(f"d_tilde must be >= 1, got {d_tilde}")
    if not l_range:
        return []
    lo, hi = min(l_range[0], l_range[-1]), max(l_range[0], l_range[-1])
    if lo < 1:
        raise ValueError(f"lengths must be >= 1, got {lo}")
    _check_coverage(db, d_tilde, hi, "l")
    targets = sorted(l_range)
    counts = {l: 0 for l in targets}
    for sigma in db.ordering:
        iees = db.events(sigma)
        zero_index, events, lengths, _weights = _skeletons_for_state(iees, d_tilde, targets)
        # Skeletons that agree on (j, L, len_j) count alike; Python ints keep the sums exact.
        parts = np.count_nonzero(events >= 0, axis=1)
        last_len = iees.lengths[events[np.arange(len(events)), parts - 1]]
        groups, sizes = np.unique(np.column_stack((parts, lengths, last_len)), axis=0, return_counts=True)
        for (j, length, last), size in zip(groups.tolist(), sizes.tolist()):
            if zero_index is None:
                if length in counts:
                    counts[length] += size * last
                continue
            for l in targets:
                gap = l - length
                if gap < 0:
                    continue
                placements = math.comb(gap + j - 1, j - 1)
                counts[l] += size * (last * placements + (gap * placements) // j)
    return [(l, counts[l]) for l in targets]
