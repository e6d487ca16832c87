"""CRC screening over a reconstructed path set.

A degree-m CRC leaves an input word undetected exactly when it divides
the word's polynomial, so the undetected-error spectrum of a candidate
is a divisibility filter over the packed path matrix followed by a
weight histogram. Residues are computed bytewise: precomputed tables
T_k[b] = (b(x) * x^(8k)) mod p turn the whole matrix into one XOR fold
per byte column, no per-word Python loop.

The design search scans distances upward and keeps, at each distance,
the candidates with the fewest undetected paths; the survivor left when
the scan hits d_tilde (or the survivor set collapses to one) is the
distance-spectrum-optimal CRC at that horizon.
"""

from __future__ import annotations

import concurrent.futures
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


def _check_crc(p: GF2Poly) -> int:
    if p.is_zero or p.degree < 1 or not (p.bits & 1):
        raise InvalidCrcError(f"{p!r} is not a CRC generator (need degree >= 1 and a constant term)")
    if p.degree > _MAX_DEGREE:
        raise InvalidCrcError(f"CRC degree {p.degree} exceeds the 31-bit residue tables")
    return p.degree


def _residue_tables(p: GF2Poly, width: int) -> np.ndarray:
    """tables[k][b] = (b(x) * x^(8k)) mod p, as packed residue bits."""
    tables = np.zeros((width, 256), dtype=np.uint32)
    prev = [(GF2Poly(b) % p).bits for b in range(256)]
    tables[0] = prev
    for k in range(1, width):
        prev = [(GF2Poly(r << 8) % p).bits for r in prev]
        tables[k] = prev
    return tables


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


def undetected_spectrum(paths: TBPathSet, crc: GF2Poly) -> DistanceSpectrum:
    """Histogram the paths whose input polynomial the CRC divides."""
    _check_crc(crc)
    d_tilde = paths.d_tilde
    if len(paths) == 0:
        return DistanceSpectrum(crc, paths.N, d_tilde, (0,) * d_tilde)
    tables = _residue_tables(crc, paths.packed.shape[1])
    residues = np.zeros(len(paths), dtype=np.uint32)
    for k in range(paths.packed.shape[1]):
        residues ^= tables[k][paths.packed[:, k]]
    hits = paths.weights[residues == 0]
    hist = np.bincount(hits, minlength=d_tilde)
    return DistanceSpectrum(crc, paths.N, d_tilde, tuple(int(c) for c in hist[:d_tilde]))


@dataclass(frozen=True)
class EliminationRound:
    """One distance step of the search: who had the minimum and who is left."""

    d: int
    c_star: int
    survivors_remaining: int
    survivors_hex: tuple[str, ...]


@dataclass(frozen=True)
class DsoSearchResult:
    """Search outcome; winner is None when candidates stay tied at d_tilde."""

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

    Candidates are eliminated distance by distance, keeping the argmin
    set of A_d at each d < d_tilde; ties at exhaustion are reported as a
    full survivor set, never broken silently.
    """
    if d_tilde is None:
        d_tilde = paths.d_tilde
    if d_tilde > paths.d_tilde:
        raise CoverageError(
            f"path set covers weights < {paths.d_tilde}, cannot screen at d_tilde={d_tilde}"
        )
    candidates = candidate_list(m)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            all_spectra = list(pool.map(lambda c: undetected_spectrum(paths, c), candidates))
    else:
        all_spectra = [undetected_spectrum(paths, c) for c in candidates]
    spectra = {c.to_hex(): s for c, s in zip(candidates, all_spectra)}

    survivors = list(candidates)
    rounds: list[EliminationRound] = []
    for d in range(1, d_tilde):
        if len(survivors) == 1:
            break
        values = [spectra[c.to_hex()].counts[d] for c in survivors]
        c_star = min(values)
        survivors = [c for c, a_d in zip(survivors, values) if a_d == c_star]
        rounds.append(
            EliminationRound(d, c_star, len(survivors), tuple(c.to_hex() for c in survivors))
        )
    winner = survivors[0] if len(survivors) == 1 else None
    return DsoSearchResult(winner, tuple(survivors), tuple(rounds), spectra, m, d_tilde)


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
