"""Distance spectra and the truncated union bound, in pure Python.

A DistanceSpectrum holds one CRC's undetected-path counts A_d and reads
and writes the canonical spectrum CSV. The bound sums A_d * Q(sqrt(d * SNR))
over the stored distances. Nothing here imports numpy, so `crcforge bound`
starts without it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Sequence

from .gf2 import parse_hex_crc

__all__ = [
    "DistanceSpectrum",
    "q_function",
    "db_to_linear",
    "truncated_union_bound",
    "bound_sweep",
    "write_bound_csv",
]


@dataclass(frozen=True)
class DistanceSpectrum:
    """Undetected-path counts A_d of one CRC, dense over d in [0, d_tilde)."""

    crc: int
    N: int
    d_tilde: int
    counts: tuple[int, ...]

    def nonzero(self) -> dict[int, int]:
        return {d: c for d, c in enumerate(self.counts) if c}

    def rows(self) -> list[tuple[int, int]]:
        return [(d, self.counts[d]) for d in range(1, self.d_tilde)]

    def csv_filename(self) -> str:
        return f"spectrum_{hex(self.crc)}_N{self.N}_dt{self.d_tilde}.csv"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("d,A_d\n")
            for d, c in self.rows():
                fh.write(f"{d},{c}\n")

    @classmethod
    def from_csv(cls, path) -> "DistanceSpectrum":
        """Rebuild a spectrum from what to_csv writes; CRC, N and d_tilde come from the filename.

        Only the canonical csv_filename() form, spectrum_0x<crc>_N<n>_dt<d>.csv,
        with N >= 1 and d_tilde >= 2, is accepted; any other name raises
        ValueError, and a <crc> that parse_hex_crc refuses raises its error.
        So do a row that is not two integers, a negative count, a distance
        outside 1..d_tilde-1 or given on two rows, and a file without a row
        for every distance in 1..d_tilde-1, refused before the dense counts
        are built; a bad row's error names its line.
        """
        name = os.path.basename(str(path))
        match = re.fullmatch(r"spectrum_(0x[0-9a-f]+)_N(\d+)_dt(\d+)\.csv", name)
        if not match:
            raise ValueError(f"{name}: not a spectrum_0x<crc>_N<n>_dt<d>.csv file name")
        crc = parse_hex_crc(match.group(1))
        N = int(match.group(2))
        d_tilde = int(match.group(3))
        if N < 1 or d_tilde < 2:
            raise ValueError(f"{name}: needs N >= 1 and d_tilde >= 2, got N={N} and d_tilde={d_tilde}")
        rows: dict[int, int] = {}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "d,A_d":
                raise ValueError(f"{name}: bad header {header!r}")
            for number, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    d, c = (int(field) for field in line.split(","))
                except ValueError:
                    raise ValueError(f"{name}: line {number} {line!r} is not two integers d,A_d") from None
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
        fh.write("snr_db," + ",".join(hex(s.crc) for s in spectra) + "\n")
        for snr_db, values in rows:
            fh.write(f"{snr_db:g}," + ",".join(f"{v:.12e}" for v in values) + "\n")
