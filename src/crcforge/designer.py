"""CRC screening over a reconstructed path set.

A degree-m CRC leaves an input word undetected exactly when it divides
the word's polynomial, so the undetected-error spectrum of a candidate
is a divisibility filter over the packed path matrix followed by a
weight histogram. Residues are computed bytewise: precomputed tables
T_k[b] = (b(x) * x^(8k)) mod p turn the whole matrix into one XOR fold
per byte column, no per-word Python loop.

The design search is the distance-ordered elimination of Lou, Daneshrad
and Wesel: at d = 1, 2, ... it screens the surviving candidates on the
paths of weight d only and keeps those with the fewest undetected paths,
stopping once one survivor is left or d reaches d_tilde. Full spectra
are computed for the final survivors only. Everything runs on one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoverageError, InvalidCrcError
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


def _residue_tables(p: GF2Poly, width: int) -> np.ndarray:
    """tables[k][b] = (b(x) * x^(8k)) mod p, as packed residue bits.

    Reduction is linear, so tables[k][b] is the XOR of x^(8k+j) mod p over
    the set bits j of b: 8 * width shift-reduce steps build every table.
    """
    powers = np.zeros(8 * width, dtype=np.uint32)
    r = 1
    for i in range(8 * width):
        powers[i] = r
        r <<= 1
        if r >> p.degree:
            r ^= p.bits
    tables = np.zeros((width, 256), dtype=np.uint32)
    for j in range(8):
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ powers[j::8, None]
    return tables


def _divisible_rows(packed: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Mask of the packed rows whose word the tables' CRC divides."""
    residues = np.zeros(packed.shape[0], dtype=np.uint32)
    for k in range(packed.shape[1]):
        residues ^= tables[k][packed[:, k]]
    return residues == 0


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
        """Rebuild a spectrum from CSV; CRC, N and d_tilde come from the filename.

        Only the canonical csv_filename() form, spectrum_0x<crc>_N<n>_dt<d>.csv,
        is accepted; any other name raises ValueError.
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
        rows: list[tuple[int, int]] = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "d,A_d":
                raise ValueError(f"{name}: bad header {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d_text, c_text = line.split(",")
                rows.append((int(d_text), int(c_text)))
        counts = [0] * d_tilde
        for d, c in rows:
            if not (0 <= d < d_tilde):
                raise ValueError(f"{name}: row distance {d} outside [0, {d_tilde})")
            counts[d] = c
        return cls(crc, N, d_tilde, tuple(counts))


def _spectrum(paths: TBPathSet, crc: GF2Poly, tables: np.ndarray) -> DistanceSpectrum:
    d_tilde = paths.d_tilde
    hits = paths.weights[_divisible_rows(paths.packed, tables)]
    hist = np.bincount(hits, minlength=d_tilde)
    return DistanceSpectrum(crc, paths.N, d_tilde, tuple(int(c) for c in hist[:d_tilde]))


def undetected_spectrum(paths: TBPathSet, crc: GF2Poly) -> DistanceSpectrum:
    """Histogram the paths whose input polynomial the CRC divides."""
    _check_crc(crc)
    return _spectrum(paths, crc, _residue_tables(crc, paths.packed.shape[1]))


@dataclass(frozen=True)
class EliminationRound:
    """One distance step of the search: who had the minimum and who is left."""

    d: int
    c_star: int
    survivors_remaining: int
    survivors_hex: tuple[str, ...]


@dataclass(frozen=True)
class DsoSearchResult:
    """Search outcome; winner is None when candidates stay tied at d_tilde.

    spectra maps each final survivor (the winner or the tied set) to its
    full spectrum; eliminated candidates have none.
    """

    winner: GF2Poly | None
    survivors: tuple[GF2Poly, ...]
    rounds: tuple[EliminationRound, ...]
    spectra: dict[str, DistanceSpectrum]
    m: int
    d_tilde: int

    @property
    def is_tie(self) -> bool:
        return self.winner is None


def search_dso(
    paths: TBPathSet, m: int, d_tilde: int | None = None, threads: int = 1
) -> DsoSearchResult:
    """Pick the degree-m CRC with the best undetected spectrum.

    Candidates are eliminated distance by distance: at each d < d_tilde
    the survivors are screened on the weight-d paths alone and the argmin
    set of A_d is kept, until one survivor is left. Ties at exhaustion are
    reported as a full survivor set, never broken silently. ``spectra``
    holds the full spectrum of each final survivor only. ``threads`` is
    accepted for compatibility and ignored; the search runs on one thread.
    """
    if d_tilde is None:
        d_tilde = paths.d_tilde
    if d_tilde > paths.d_tilde:
        raise CoverageError(
            f"path set covers weights < {paths.d_tilde}, cannot screen at d_tilde={d_tilde}"
        )
    width = paths.packed.shape[1]
    survivors = [(c, _residue_tables(c, width)) for c in candidate_list(m)]
    rounds: list[EliminationRound] = []
    for d in range(1, d_tilde):
        if len(survivors) == 1:
            break
        rows = paths.packed[paths.weights == d]
        values = [int(np.count_nonzero(_divisible_rows(rows, t))) for _c, t in survivors]
        c_star = min(values)
        survivors = [s for s, a_d in zip(survivors, values) if a_d == c_star]
        rounds.append(
            EliminationRound(d, c_star, len(survivors), tuple(c.to_hex() for c, _t in survivors))
        )
    spectra = {c.to_hex(): _spectrum(paths, c, t) for c, t in survivors}
    winner = survivors[0][0] if len(survivors) == 1 else None
    return DsoSearchResult(
        winner, tuple(c for c, _t in survivors), tuple(rounds), spectra, m, d_tilde
    )


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
