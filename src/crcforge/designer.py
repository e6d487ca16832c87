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

The design search is the distance-ordered elimination of Lou, Daneshrad
and Wesel: at d = 1, 2, ... it screens the surviving candidates on the
weight-d bases only and keeps those with the fewest undetected paths,
stopping once one survivor is left or d reaches d_tilde. Only a unique
winner's full spectrum is computed: a tie lasts through every d below
d_tilde, so each tied survivor's A_d is round d's C*. Everything runs on
one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidCrcError
from .gf2 import GF2Poly
from .reconstructor import TBPathSet

__all__ = [
    "DistanceSpectrum",
    "EliminationRound",
    "DsoSearchResult",
    "candidate_list",
    "undetected_spectrum",
    "search_dso",
    "q_function",
    "db_to_linear",
    "truncated_union_bound",
    "bound_sweep",
    "write_bound_csv",
]

# Residues are held in uint32 table entries.
_MAX_DEGREE = 31
# The most residues a search round holds at once: 4 MiB of uint32.
_CELLS = 1 << 20


def candidate_list(m: int) -> list[GF2Poly]:
    """All degree-m polynomials with a constant term, ascending.

    Both end taps are forced (x^m for the degree, 1 so the CRC detects
    trailing-bit errors), leaving 2^(m-1) candidates. Degrees the residue
    tables cannot hold are refused before any candidate is built.
    """
    if not 1 <= m <= _MAX_DEGREE:
        raise InvalidCrcError(f"CRC degree must be in [1, {_MAX_DEGREE}], got {m}")
    return [GF2Poly((1 << m) | (mid << 1) | 1) for mid in range(1 << (m - 1))]


def _check_crc(p: GF2Poly) -> None:
    if p.is_zero or p.degree < 1 or not (p.bits & 1):
        raise InvalidCrcError(f"{p!r} is not a CRC generator (need degree >= 1 and a constant term)")
    if p.degree > _MAX_DEGREE:
        raise InvalidCrcError(f"CRC degree {p.degree} exceeds the 31-bit residue tables")


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
    res ^= (res >> degree) * polys


def _residue_tables(bits: Sequence[int], degree: int, width: int) -> _Crcs:
    """The nibble tables of the degree-`degree` CRCs with coefficients `bits`, for words of `width` bytes.

    Reduction is linear, so tables[k][b] is the XOR of x^(4k+j) mod p over
    the set bits j of the nibble b: 8 * width shift-reduce steps, taken for
    all CRCs at once, and 4 doubling steps build every table.
    """
    polys = np.array(bits, dtype=np.uint32)
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
    """A path set's base words, most rotations first, so that the bases
    with more than r rotations are a prefix, for every r."""

    data: np.ndarray  # (bases, ceil(N/8)) little-endian bytes
    counts: np.ndarray
    weights: np.ndarray


def _by_rotation_count(paths: TBPathSet) -> _Bases:
    order = np.argsort(-paths.counts, kind="stable")
    data = paths.bases.view(np.uint8)[order, : (paths.N + 7) // 8]
    return _Bases(data, paths.counts[order], paths.base_weights[order])


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


@dataclass(frozen=True)
class DistanceSpectrum:
    """Undetected-path counts A_d of one CRC, dense over d in [0, d_tilde)."""

    crc: GF2Poly
    N: int
    d_tilde: int
    counts: tuple[int, ...]

    def nonzero(self) -> dict[int, int]:
        return {d: c for d, c in enumerate(self.counts) if c}

    def rows(self) -> list[tuple[int, int]]:
        return [(d, self.counts[d]) for d in range(1, self.d_tilde)]

    def csv_filename(self) -> str:
        return f"spectrum_{self.crc.to_hex()}_N{self.N}_dt{self.d_tilde}.csv"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("d,A_d\n")
            for d, c in self.rows():
                fh.write(f"{d},{c}\n")

    @classmethod
    def from_csv(cls, path) -> "DistanceSpectrum":
        """Rebuild a spectrum from what to_csv writes; CRC, N and d_tilde come from the filename.

        Only the canonical csv_filename() form, spectrum_0x<crc>_N<n>_dt<d>.csv,
        is accepted; any other name raises ValueError. So do a negative
        count, a distance outside 1..d_tilde-1 or given on two rows, and a
        file without a row for every distance in 1..d_tilde-1, refused
        before the dense counts are built.
        """
        import os
        import re

        name = os.path.basename(str(path))
        match = re.fullmatch(r"spectrum_0x([0-9a-f]+)_N(\d+)_dt(\d+)\.csv", name)
        if not match:
            raise ValueError(f"{name}: not a spectrum_0x<crc>_N<n>_dt<d>.csv file name")
        crc = GF2Poly(int(match.group(1), 16))
        N = int(match.group(2))
        d_tilde = int(match.group(3))
        rows: dict[int, int] = {}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "d,A_d":
                raise ValueError(f"{name}: bad header {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d_text, c_text = line.split(",")
                d, c = int(d_text), int(c_text)
                if not (1 <= d < d_tilde):
                    raise ValueError(f"{name}: row distance {d} outside [1, {d_tilde})")
                if d in rows:
                    raise ValueError(f"{name}: distance {d} appears twice")
                if c < 0:
                    raise ValueError(f"{name}: negative count A_{d}={c}")
                rows[d] = c
        if len(rows) < d_tilde - 1:
            raise ValueError(f"{name}: needs one row for each d in 1..{d_tilde - 1}, has {len(rows)}")
        return cls(crc, N, d_tilde, tuple(rows.get(d, 0) for d in range(d_tilde)))


def _spectrum(paths: TBPathSet, bases: _Bases, crc: GF2Poly, tables: _Crcs) -> DistanceSpectrum:
    """Each base's count of rotations the CRC divides, summed by weight."""
    hits = np.zeros(len(bases.counts), dtype=np.int64)
    for res in _rotation_residues(bases.data, bases.counts, paths.N, tables):
        hits[: len(res)] += res[:, 0] == 0
    hist = np.bincount(bases.weights, weights=hits, minlength=paths.d_tilde)
    return DistanceSpectrum(crc, paths.N, paths.d_tilde, tuple(int(c) for c in hist[: paths.d_tilde]))


def undetected_spectrum(paths: TBPathSet, crc: GF2Poly) -> DistanceSpectrum:
    """Histogram the paths whose input polynomial the CRC divides."""
    _check_crc(crc)
    tables = _residue_tables([crc.bits], crc.degree, (paths.N + 7) // 8)
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

    A tie lasts through a round at every d below d_tilde, so each tied
    survivor's A_d is rounds[d - 1].c_star.
    """

    winner: GF2Poly | None
    survivors: tuple[GF2Poly, ...]
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
    tables = _residue_tables([c.bits for c in crcs], m, (paths.N + 7) // 8)
    bases = _by_rotation_count(paths)
    alive = np.arange(len(crcs))  # survivors, with their tables in `tables`
    rounds: list[EliminationRound] = []
    for d in range(1, paths.d_tilde):
        if len(alive) == 1:
            break
        sel = bases.weights == d
        data, counts = bases.data[sel], bases.counts[sel]
        # Slices of the descending counts are descending too.
        step = max(1, _CELLS // len(alive))
        values = np.zeros(len(alive), dtype=np.int64)
        for lo in range(0, len(counts), step):
            for res in _rotation_residues(data[lo : lo + step], counts[lo : lo + step], paths.N, tables):
                values += np.count_nonzero(res == 0, axis=0)
        c_star = int(values.min())
        if (values > c_star).any():
            keep = np.flatnonzero(values == c_star)
            alive, tables = alive[keep], tables.pick(keep)
        rounds.append(EliminationRound(d, c_star, tuple(crcs[i].to_hex() for i in alive)))
    winner = crcs[alive[0]] if len(alive) == 1 else None
    spectrum = None if winner is None else _spectrum(paths, bases, winner, tables)
    return DsoSearchResult(winner, tuple(crcs[i] for i in alive), tuple(rounds), spectrum)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def truncated_union_bound(spectrum: DistanceSpectrum, snr_linear: float) -> float:
    """Union bound over the stored distances: sum A_d * Q(sqrt(d * SNR))."""
    if snr_linear <= 0:
        raise ValueError(f"SNR must be positive on the linear scale, got {snr_linear}")
    return sum(
        count * q_function(math.sqrt(d * snr_linear))
        for d, count in enumerate(spectrum.counts)
        if count
    )


def bound_sweep(
    spectra: Sequence[DistanceSpectrum], snr_db_grid: Sequence[float]
) -> list[tuple[float, tuple[float, ...]]]:
    """Evaluate every spectrum's bound across an ascending SNR (dB) grid."""
    if not spectra:
        raise ValueError("need at least one spectrum")
    grid = [float(s) for s in snr_db_grid]
    if not grid:
        raise ValueError("empty SNR grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly ascending")
    rows: list[tuple[float, tuple[float, ...]]] = []
    for snr_db in grid:
        linear = db_to_linear(snr_db)
        rows.append((snr_db, tuple(truncated_union_bound(s, linear) for s in spectra)))
    return rows


def write_bound_csv(path, spectra: Sequence[DistanceSpectrum], rows) -> None:
    """One column per CRC, fixed float formatting so reruns are byte-identical."""
    with open(path, "w", newline="\n") as fh:
        fh.write("snr_db," + ",".join(s.crc.to_hex() for s in spectra) + "\n")
        for snr_db, values in rows:
            fh.write(f"{snr_db:g}," + ",".join(f"{v:.12e}" for v in values) + "\n")
