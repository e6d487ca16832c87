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
rotation count, the ones still rotating at any step are a prefix, and a
matrix of (bases, candidates) residues advances all candidates together.
The search feeds that matrix one slice of bases at a time, of at most
_CELLS residues (one row when more candidates survive), so beyond the
tables its memory grows neither with 2^m nor with the path set.

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
weight-d bases only and keeps those with the fewest undetected paths,
stopping once one survivor is left or d reaches d_tilde. Only a unique
winner's full spectrum is computed: a tie lasts through every d below
d_tilde, so each tied survivor's A_d is round d's C*. Everything runs on
one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bound import DistanceSpectrum
from .errors import InvalidCrcError
from .gf2 import Crc
from .reconstructor import TBPathSet, _count_dtype

__all__ = [
    "EliminationRound",
    "DsoSearchResult",
    "candidate_list",
    "undetected_spectrum",
    "search_dso",
]

# Residues are held in uint32 table entries.
_MAX_DEGREE = 31
# The most residues a search round holds at once: 4 MiB of uint32.
_CELLS = 1 << 20
# Bases per block of the shift-first fold's bit-length scan and shifts.
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

    polys: np.ndarray  # packed coefficient bits
    degree: int
    tables: np.ndarray  # (2 * width, 16, crcs): tables[k][b] = (b(x) * x^(4k)) mod p

    def pick(self, idx) -> "_Crcs":
        return _Crcs(self.polys[idx], self.degree, np.take(self.tables, idx, axis=-1))


def _times_x(res: np.ndarray, polys: np.ndarray, degree: int) -> None:
    """res = x * res mod p, in place, for residues of degree below p's."""
    res <<= np.uint32(1)
    top = res >> degree
    top *= polys
    res ^= top


def _residue_tables(crcs: Sequence[int], degree: int, width: int) -> _Crcs:
    """The nibble tables of the degree-`degree` CRCs `crcs`, for words of `width` bytes.

    Reduction is linear, so tables[k][b] is the XOR of x^(4k+j) mod p over
    the set bits j of the nibble b: 8 * width shift-reduce steps, taken for
    all CRCs at once, and 4 doubling steps build every table.
    """
    polys = np.array(crcs, dtype=np.uint32)
    powers = np.empty((8 * width, len(polys)), dtype=np.uint32)
    r = np.ones(len(polys), dtype=np.uint32)
    for i in range(8 * width):
        powers[i] = r
        _times_x(r, polys, degree)
    tables = np.zeros((2 * width, 16, len(polys)), dtype=np.uint32)
    for j in range(4):
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ powers[j::4, None]
    return _Crcs(polys, degree, tables)


def _residues(data: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """res[row, i] = (word of the row) mod crc i, for little-endian byte rows."""
    out = np.zeros((len(data), tables.shape[2]), dtype=np.uint32)
    for k in range(data.shape[1]):
        out ^= tables[2 * k][data[:, k] & 15]
        out ^= tables[2 * k + 1][data[:, k] >> 4]
    return out


class _Bases(NamedTuple):
    """A path set's base words, each shifted up past its unwrapped
    rotations, most remaining rotations first, so that the bases with more
    than r rotations left are a prefix, for every r."""

    data: np.ndarray  # (bases, ceil(N/8)) little-endian bytes
    counts: np.ndarray  # rotations left to step, rotation 0 included
    first: np.ndarray  # the rotations of the path set that rotation 0 stands for
    weights: np.ndarray

    def select(self, mask) -> "_Bases":
        return _Bases._make(field[mask] for field in self)


def _shift_left(limbs: np.ndarray, shift: np.ndarray) -> None:
    """limbs <<= shift row by row, in place, on rows of little-endian uint64
    limbs, for shifts below the row's width, _BLOCK rows at a time."""
    width = limbs.shape[1]
    whole = shift >> 6
    for w in range(1, width):
        rows = np.flatnonzero(whole == w)
        limbs[rows, w:] = limbs[rows, : width - w]
        limbs[rows, :w] = 0
    for lo in range(0, len(limbs), _BLOCK):
        block = limbs[lo : lo + _BLOCK]
        bits = (shift[lo : lo + _BLOCK] & 63).astype(np.uint64)[:, None]
        # The carry from the limb below is w >> (64 - bits), in two steps, as
        # numpy leaves a shift by 64 undefined; both give 0 at bits = 0.
        carry = (block[:, :-1] >> np.uint64(1)) >> (np.uint64(63) - bits)
        block <<= bits
        block[:, 1:] |= carry


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
    Beyond the path set, the sorted copy of the base words, the sort order
    (one index per base) and _BLOCK rows of scratch are held at once; the
    counts, shifts and firsts are in _count_dtype(N).
    """
    N = paths.N
    counts = paths.counts.astype(_count_dtype(N))
    shift = np.minimum(N - _bit_lengths(paths.bases, counts.dtype), counts - 1)
    counts -= shift
    order = np.argsort(-counts, kind="stable")
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
    wrap ^= np.uint32(1)
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

    The bases go through in slices of at most _CELLS residues; slices of
    the descending counts are descending too.
    """
    step = max(1, _CELLS // len(crcs.polys))
    values = np.zeros(len(crcs.polys), dtype=np.int64)
    for lo in range(0, len(bases.counts), step):
        block = slice(lo, lo + step)
        for r, res in enumerate(_rotation_residues(bases.data[block], bases.counts[block], N, crcs)):
            if r:
                values += np.count_nonzero(res == 0, axis=0)
            else:
                # Rotation 0 counts with its multiplicity. Zeros are rare
                # (about 2^-m), so they are weighted from their indices.
                rows, cols = np.nonzero(res == 0)
                values += np.bincount(cols, bases.first[block][rows], len(crcs.polys)).astype(np.int64)
    return values


def _spectrum(paths: TBPathSet, bases: _Bases, crc: int, tables: _Crcs) -> DistanceSpectrum:
    """The rotations the CRC divides, counted by weight from the indices of their zero residues."""
    hist = np.zeros(paths.d_tilde, dtype=np.int64)
    for r, res in enumerate(_rotation_residues(bases.data, bases.counts, paths.N, tables)):
        rows = np.flatnonzero(res[:, 0] == 0)
        # Rotation 0 counts with its multiplicity.
        weights = bases.first[rows] if r == 0 else None
        hist += np.bincount(bases.weights[rows], weights, paths.d_tilde).astype(np.int64)
    return DistanceSpectrum(crc, paths.N, paths.d_tilde, tuple(int(c) for c in hist))


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
        values = _undetected_counts(bases.select(bases.weights == d), paths.N, tables)
        c_star = int(values.min())
        if (values > c_star).any():
            keep = np.flatnonzero(values == c_star)
            alive, tables = alive[keep], tables.pick(keep)
        rounds.append(EliminationRound(d, c_star, tuple(hexes[alive])))
    survivors = tuple(Crc(crcs[i]) for i in alive)
    winner = survivors[0] if len(survivors) == 1 else None
    spectrum = None if winner is None else _spectrum(paths, bases, winner, tables)
    return DsoSearchResult(winner, survivors, tuple(rounds), spectrum)
