"""CRC screening over a reconstructed path set.

A degree-m CRC leaves an input word undetected exactly when it divides
the word's polynomial, so the undetected-error spectrum of a candidate
counts, by weight, the paths whose residue mod the CRC is zero. The path
set holds base words, each standing for its first few rotations, so
residues are taken in the rotation domain: precomputed tables
T_k[b] = (b(x) * x^(4k)) mod p, for the 16 nibbles b, give each base
word's residue in two XOR folds per byte column, and the linear rule

    res(rot w) = (x * res(w) mod p) ^ w_{N-1} * ((x^N + 1) mod p)

steps every base to its next rotation at once. With the bases sorted by
weight, then by rotations left, most first, each weight is a slice whose
bases still rotating at any step are a prefix, and a matrix of (bases,
candidates) residues advances all candidates together.
Each residue is held in the narrowest unsigned type that holds a degree-m
residue (uint8 up to m=8, uint16 up to 16, uint32 up to 31), tables
included. The search feeds that matrix one slice of bases at a time, of
at most _CELLS residues (one row when more candidates survive), so beyond
the tables its memory grows neither with 2^m nor with the path set.

Most rotations are scored without the recurrence. Take a base b whose t top
bits (bits N-1 down to N-t) are zero. Its rotations r = 0..t are x^r * b,
as no bit wraps round. Every candidate has a constant term, so it is prime
to x, and it divides x^r * b exactly when it divides b. So each base is
shifted up by s = min(t, count - 1) before the screen: rotation 0 of
x^s * b counts s + 1 times, each later rotation once, and only the
count - s - 1 rotations past it run the recurrence. At (13,17) N=70
d_tilde=18 that is 16% of the rotations: at most 23 steps per base, not 69.

The design search is the distance-ordered elimination of Lou, Daneshrad
and Wesel: at d = 1, 2, ... it screens the surviving candidates on the
weight-d slice only and keeps those with the fewest undetected paths,
stopping once one survivor is left or d reaches d_tilde. A round longer
than one slice is pruned: a candidate counted over every row bounds the
least count C*, and A_d only grows as rows are added, so a candidate
whose count over part of the rows is already above that bound is dropped
before the rest. Only a unique winner's full spectrum is computed: a tie
lasts through every d below d_tilde, so each tied survivor's A_d is round
d's C*. Everything runs on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bound import DistanceSpectrum
from .errors import InvalidCrcError
from .gf2 import Crc
from .reconstructor import TBPathSet, _count_dtype, _shift_left

__all__ = [
    "EliminationRound",
    "DsoSearchResult",
    "candidate_list",
    "undetected_spectrum",
    "search_dso",
]

# The widest lane is uint32, which holds residues up to degree 31.
_MAX_DEGREE = 31
# The most residues a search round holds at once: 1, 2 or 4 MiB as the
# lane is 8, 16 or 32 bits wide.
_CELLS = 1 << 20
# Bases per block of the shift-first fold's bit-length scan.
_BLOCK = 1 << 12


def candidate_list(m: int) -> list[int]:
    """All degree-m polynomials with a constant term, ascending.

    Both end taps are forced (x^m for the degree, 1 so the CRC detects
    trailing-bit errors), leaving 2^(m-1) candidates. Degrees the residue
    tables cannot hold are refused before any candidate is built.
    """
    if not 1 <= m <= _MAX_DEGREE:
        raise InvalidCrcError(f"CRC degree must be in [1, {_MAX_DEGREE}], got {m}")
    return list(range((1 << m) | 1, 2 << m, 2))


def _check_crc(crc: int) -> None:
    if crc < 3 or not crc & 1:
        raise InvalidCrcError(f"{hex(crc)} is not a CRC generator (need degree >= 1 and a constant term)")
    if crc.bit_length() - 1 > _MAX_DEGREE:
        raise InvalidCrcError(f"CRC degree {crc.bit_length() - 1} exceeds the 31-bit residue tables")


class _Crcs(NamedTuple):
    """CRC generators of one degree as arrays, one entry per CRC on the last axis."""

    polys: np.ndarray  # coefficient bits, truncated to the lane
    degree: int
    tables: np.ndarray  # (2 * width, 16, crcs): tables[k][b] = (b(x) * x^(4k)) mod p

    def pick(self, idx) -> "_Crcs":
        return _Crcs(self.polys[idx], self.degree, np.take(self.tables, idx, axis=-1))


def _times_x(res: np.ndarray, polys: np.ndarray, degree: int) -> None:
    """res = x * res mod p, in place, for residues of degree below p's.

    polys are truncated to the residues' lane. The top bit is read before
    the shift, which drops bit `degree` when the degree fills the lane; the
    XOR clears it otherwise.
    """
    top = res >> (degree - 1)
    res <<= 1
    top *= polys
    res ^= top


def _residue_tables(crcs: Sequence[int], degree: int, width: int) -> _Crcs:
    """The nibble tables of the degree-`degree` CRCs `crcs`, for words of `width` bytes.

    Reduction is linear, so tables[k][b] is the XOR of x^(4k+j) mod p over
    the set bits j of the nibble b: 8 * width shift-reduce steps, taken for
    all CRCs at once, and 4 doubling steps build every table.
    """
    # The lane: the narrowest unsigned type that holds a degree-`degree` residue.
    lane = np.min_scalar_type((1 << degree) - 1)
    polys = np.array(crcs, dtype=np.uint64).astype(lane)
    powers = np.empty((8 * width, len(polys)), dtype=lane)
    r = np.ones(len(polys), dtype=lane)
    for i in range(8 * width):
        powers[i] = r
        _times_x(r, polys, degree)
    tables = np.zeros((2 * width, 16, len(polys)), dtype=lane)
    for j in range(4):
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ powers[j::4, None]
    return _Crcs(polys, degree, tables)


def _residues(data: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """res[row, i] = (word of the row) mod crc i, for little-endian byte rows."""
    out = np.zeros((len(data), tables.shape[2]), dtype=tables.dtype)
    for k in range(data.shape[1]):
        out ^= tables[2 * k][data[:, k] & 15]
        out ^= tables[2 * k + 1][data[:, k] >> 4]
    return out


class _Bases(NamedTuple):
    """A path set's base words, each shifted up past its unwrapped
    rotations, sorted by weight, then by rotations left, most first, so
    that in each weight's slice the bases with more than r rotations left
    are a prefix, for every r."""

    data: np.ndarray  # (bases, ceil(N/8)) little-endian bytes
    counts: np.ndarray  # rotations left to step, rotation 0 included
    first: np.ndarray  # the rotations of the path set that rotation 0 stands for
    weights: np.ndarray

    def select(self, rows: slice) -> "_Bases":
        return _Bases._make(field[rows] for field in self)

    def of_weight(self, d: int) -> "_Bases":
        """The bases of weight d, a slice of views."""
        # d in the weights' own type, or searchsorted casts the whole column.
        d = self.weights.dtype.type(d)
        return self.select(slice(np.searchsorted(self.weights, d), np.searchsorted(self.weights, d, side="right")))


def _bit_lengths(bases: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The bit length of each base word, 0 for the zero word.

    float64 holds each 32-bit half of a limb exactly, and its exponent is
    the half's bit length; the halves are read one column of _BLOCK rows
    at a time.
    """
    length = np.zeros(len(bases), dtype=dtype)
    halves = bases.view(np.uint32)
    for lo in range(0, len(bases), _BLOCK):
        out = length[lo : lo + _BLOCK]
        for j, half in enumerate(halves[lo : lo + _BLOCK].T):
            exponent = np.frexp(half.astype(np.float64))[1]
            np.copyto(out, exponent + 32 * j, where=exponent > 0)
    return length


def _by_rotation_count(paths: TBPathSet) -> _Bases:
    """The bases with their unwrapped rotations folded into rotation 0.

    A base b with t zero bits at the top is shifted up by
    s = min(t, count - 1), in place on the sorted copy; rotation 0 of
    x^s * b stands for s + 1 rotations, and count - s rotations are left.
    The copy is sorted by weight, then by rotations left, most first.
    Beyond the path set, the sorted copy of the base words, the sort order
    (one index per base) and a block of scratch rows are held at once; the
    counts, shifts and firsts are in _count_dtype(N).
    """
    N = paths.N
    counts = paths.counts.astype(_count_dtype(N))
    shift = np.minimum(N - _bit_lengths(paths.bases, counts.dtype), counts - 1)
    counts -= shift
    order = np.lexsort((-counts, paths.base_weights))
    limbs = paths.bases[order]
    shift, counts, weights = shift[order], counts[order], paths.base_weights[order]
    del order
    _shift_left(limbs, shift)
    data = limbs.view(np.uint8)[:, : (N + 7) // 8]
    return _Bases(data, counts, shift + 1, weights)


def _rotation_residues(
    data: np.ndarray, counts: np.ndarray, N: int, crcs: _Crcs
) -> Iterator[np.ndarray]:
    """For r = 0, 1, ...: res[b, i] = rot^r(b) mod crc i, a row per base with counts[b] > r.

    counts must be descending. Each yielded matrix is advanced in place by
    the next step. A rotation multiplies by x and wraps bit N-1 round to
    bit 0, rot(w) = x*w + w_{N-1}*(x^N + 1), so
    res(rot w) = (x*res(w) mod p) ^ w_{N-1}*((x^N + 1) mod p),
    and bit N-1 of rot^r(b) is bit N-1-r of b.
    """
    # (x^N + 1) mod p: one step on from x^(N-1) mod p, a table entry.
    wrap = crcs.tables[(N - 1) >> 2, 1 << ((N - 1) & 3)].copy()
    _times_x(wrap, crcs.polys, crcs.degree)
    wrap ^= 1
    res = _residues(data, crcs.tables)
    live = np.searchsorted(-counts, -np.arange(int(counts.max(initial=0))))
    for r, n in enumerate(live):
        yield res[:n]
        if r + 1 == len(live):
            break
        nxt = res[: live[r + 1]]
        top = (data[: len(nxt), (N - 1 - r) >> 3] >> ((N - 1 - r) & 7)) & 1
        _times_x(nxt, crcs.polys, crcs.degree)
        nxt ^= top[:, None] * wrap


def _undetected_counts(bases: _Bases, N: int, crcs: _Crcs) -> np.ndarray:
    """For each CRC, the number of the bases' paths it divides.

    The bases' counts must be descending, as in a weight slice; the bases go
    through in slices of at most _CELLS residues, whose counts descend too.
    """
    step = max(1, _CELLS // len(crcs.polys))
    values = np.zeros(len(crcs.polys), dtype=np.int64)
    for lo in range(0, len(bases.counts), step):
        block = slice(lo, lo + step)
        first = bases.first[block]
        for r, res in enumerate(_rotation_residues(bases.data[block], bases.counts[block], N, crcs)):
            # Zeros are rare (about 2^-m), so they are counted from their
            # flat indices; rotation 0 counts with its multiplicity.
            rows, cols = np.divmod(np.flatnonzero(res == 0), len(crcs.polys))
            values += np.bincount(cols, first[rows] if r == 0 else None, len(crcs.polys)).astype(np.int64)
    return values


def _spectrum(paths: TBPathSet, bases: _Bases, crc: int, tables: _Crcs) -> DistanceSpectrum:
    """The paths the one CRC of `tables` divides, counted one weight slice at a time."""
    counts = (int(_undetected_counts(bases.of_weight(d), paths.N, tables)[0]) for d in range(paths.d_tilde))
    return DistanceSpectrum(crc, paths.N, paths.d_tilde, tuple(counts))


def undetected_spectrum(paths: TBPathSet, crc: int) -> DistanceSpectrum:
    """Histogram the paths whose input polynomial the CRC divides."""
    _check_crc(crc)
    tables = _residue_tables([crc], crc.bit_length() - 1, (paths.N + 7) // 8)
    return _spectrum(paths, _by_rotation_count(paths), crc, tables)


@dataclass(frozen=True)
class EliminationRound:
    """One distance step of the search: the minimum A_d and who had it."""

    d: int
    c_star: int
    survivors_hex: tuple[str, ...]


@dataclass(frozen=True)
class DsoSearchResult:
    """Search outcome: the winner and its spectrum, both None when candidates stay tied at d_tilde.

    The winner and survivors are Crc ints. A tie lasts through a round at
    every d below d_tilde, so each tied survivor's A_d is
    rounds[d - 1].c_star.
    """

    winner: Crc | None
    survivors: tuple[Crc, ...]
    rounds: tuple[EliminationRound, ...]
    spectrum: DistanceSpectrum | None


def search_dso(paths: TBPathSet, m: int, threads: int = 1) -> DsoSearchResult:
    """Pick the degree-m CRC with the best undetected spectrum over the path set.

    Candidates are eliminated distance by distance: at each d below the
    path set's d_tilde the survivors are screened on the weight-d paths
    alone and the argmin set of A_d is kept, until one survivor is left.
    Ties at exhaustion are reported as a full survivor set, never broken
    silently; each tied survivor's A_d is round d's c_star. Only a unique
    winner's spectrum is counted in full. ``threads`` is accepted for
    compatibility and ignored; the search runs on one thread.

    A round that fits one block of _CELLS // survivors rows is counted
    whole. A longer one is pruned. Before each later block, the survivor
    with the least running count not yet counted in full is counted over
    the rows left, while that running count is below U, the least full
    count so far; U bounds C* from above. One such count is not enough:
    most survivors share the first block's least count, and the first of
    them (x^m + 1 and its neighbours) can count far above C*, 187 where C*
    is 0 in round 16 of the degree-16 screen at (13,17) N=70. Counts only
    grow as rows are added, so a survivor whose running count is above U
    is out. Once the residues the survivors that are out would still take
    fill a block, they are dropped, tables included, and the rows left are
    re-blocked at _CELLS // survivors.
    """
    crcs = candidate_list(m)
    tables = _residue_tables(crcs, m, (paths.N + 7) // 8)
    bases = _by_rotation_count(paths)
    alive = np.arange(len(crcs))  # survivors, with their tables in `tables`
    hexes = np.array([hex(c) for c in crcs], dtype=object)
    rounds: list[EliminationRound] = []
    for d in range(1, paths.d_tilde):
        if len(alive) == 1:
            break
        rows = bases.of_weight(d)
        step = max(1, _CELLS // len(alive))
        values = _undetected_counts(rows.select(slice(0, step)), paths.N, tables)
        bound, counted = np.iinfo(np.int64).max, np.zeros(len(alive), dtype=bool)
        lo = step
        while lo < len(rows.counts):
            running = np.where(counted, bound, values)
            lead = int(np.argmin(running))
            if running[lead] < bound:
                counted[lead] = True
                rest = _undetected_counts(rows.select(slice(lo, None)), paths.N, tables.pick([lead]))
                bound = min(bound, int(values[lead] + rest[0]))
            keep = np.flatnonzero(values <= bound)
            if (len(alive) - len(keep)) * (len(rows.counts) - lo) >= _CELLS:
                alive, values, counted, tables = alive[keep], values[keep], counted[keep], tables.pick(keep)
            step = max(1, _CELLS // len(alive))
            values += _undetected_counts(rows.select(slice(lo, lo + step)), paths.N, tables)
            lo += step
        c_star = int(values.min())
        keep = np.flatnonzero(values == c_star)
        if len(keep) < len(alive):
            alive, tables = alive[keep], tables.pick(keep)
        rounds.append(EliminationRound(d, c_star, tuple(hexes[alive])))
    survivors = tuple(Crc(crcs[i]) for i in alive)
    winner = survivors[0] if len(survivors) == 1 else None
    spectrum = None if winner is None else _spectrum(paths, bases, winner, tables)
    return DsoSearchResult(winner, survivors, tuple(rounds), spectrum)
