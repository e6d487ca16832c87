"""Brute-force reference implementations for small instances.

Everything here enumerates exhaustively and is deliberately naive: the
spectrum oracle encodes all 2^N inputs one by one through encode_tb, the
IEE oracle is a plain recursive walk, and the closure predicate rotates
Python ints. None shares search logic with the production collector or
reconstructor, so agreement between the two sides is meaningful evidence.
Hard guards refuse instance sizes where exhaustive enumeration stops
being a reasonable test fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .collector import IEE
from .encoder import ConvCode, encode_tb
from .errors import EnumerationGuardError
from .gf2 import GF2Poly

__all__ = [
    "MAX_ORACLE_N",
    "MAX_ORACLE_V",
    "MAX_ORACLE_LEN",
    "OracleReport",
    "brute_force_spectrum",
    "brute_force_iees",
    "brute_force_partition",
    "is_cyclic_closed",
    "oracle_report",
]

MAX_ORACLE_N = 24
MAX_ORACLE_V = 4
MAX_ORACLE_LEN = 16


def _check_n(N: int) -> None:
    if N > MAX_ORACLE_N:
        raise EnumerationGuardError(
            f"oracle would enumerate 2^{N} inputs; refusing N > {MAX_ORACLE_N}"
        )


def brute_force_spectrum(code: ConvCode, N: int, crc: GF2Poly | None = None) -> dict[int, int]:
    """Weight histogram of all nonzero tail-biting paths of length N.

    With a crc, only inputs whose polynomial the crc divides are counted
    (the undetectable errors). Keys with zero count are omitted.
    """
    _check_n(N)
    if N < code.v:
        raise ValueError(f"need at least v={code.v} input bits, got {N}")
    counts: dict[int, int] = {}
    for u in range(1, 1 << N):
        if crc is not None and not crc.divides(GF2Poly(u)):
            continue
        inputs = tuple((u >> i) & 1 for i in range(N))
        path = encode_tb(code, inputs)
        counts[path.weight] = counts.get(path.weight, 0) + 1
    return counts


def brute_force_iees(
    code: ConvCode,
    state: int,
    d_tilde: int,
    max_len: int,
    ordering: Sequence[int] | None = None,
) -> list[IEE]:
    """All IEEs at one state by direct recursive walking.

    Sorted by (weight, length, packed input bits) to be comparable with
    collector output.
    """
    if code.v > MAX_ORACLE_V:
        raise EnumerationGuardError(
            f"oracle walks all paths; refusing v > {MAX_ORACLE_V} (got {code.v})"
        )
    if max_len > MAX_ORACLE_LEN:
        raise EnumerationGuardError(
            f"oracle walks all paths; refusing max_len > {MAX_ORACLE_LEN} (got {max_len})"
        )
    if ordering is None:
        ordering = range(code.num_states)
    ordering = tuple(ordering)
    position = ordering.index(state)
    blocked = frozenset(ordering[: position + 1])

    found: list[IEE] = []

    def walk(s: int, inputs: tuple[int, ...]) -> None:
        for b in (0, 1):
            t = code.next_state(s, b)
            longer = inputs + (b,)
            if t == state:
                weight = _weight_of(code, state, longer)
                if weight < d_tilde:
                    bits = sum(bit << i for i, bit in enumerate(longer))
                    found.append(IEE(weight, len(longer), bits, state))
            elif t not in blocked and len(longer) < max_len:
                walk(t, longer)

    walk(state, ())
    return sorted(found)


def _weight_of(code: ConvCode, state: int, inputs: tuple[int, ...]) -> int:
    w = 0
    s = state
    for b in inputs:
        w += code.branch_weight(s, b)
        s = code.next_state(s, b)
    return w


def brute_force_partition(
    code: ConvCode, N: int, d_tilde: int, ordering: Sequence[int]
) -> dict[int, set[int]]:
    """Input words of weight < d_tilde, grouped by anchor state.

    A word's anchor is the state of its tail-biting path that comes first
    in the ordering, so the classes are disjoint and together hold every
    nonzero word of weight < d_tilde. The reconstructor's per-state
    expansion must reproduce them exactly.
    """
    _check_n(N)
    position = {s: i for i, s in enumerate(ordering)}
    classes: dict[int, set[int]] = {s: set() for s in ordering}
    for u in range(1, 1 << N):
        path = encode_tb(code, tuple((u >> i) & 1 for i in range(N)))
        if path.weight < d_tilde:
            classes[min(path.states[:N], key=position.__getitem__)].add(u)
    return classes


def is_cyclic_closed(words: Iterable[int], N: int) -> bool:
    """True iff no word repeats and the words map onto themselves under one shift.

    Words are N-bit ints, bit i = input at time i; the shift moves every
    input one step later in time, bit N-1 wrapping to bit 0. Closure under
    one shift implies closure under all.
    """
    words = list(words)
    distinct = set(words)
    if len(distinct) != len(words):
        return False
    mask = (1 << N) - 1
    return {((w << 1) | (w >> (N - 1))) & mask for w in distinct} == distinct


@dataclass
class OracleReport:
    """Everything the exhaustive pass learned about one (code, N) pair."""

    code_octal: tuple[str, ...]
    N: int
    total_paths: int
    weight_counts: dict[int, int]
    crc_counts: dict[str, dict[int, int]] = field(default_factory=dict)

    def counts_below(self, d_tilde: int) -> dict[int, int]:
        return {w: c for w, c in self.weight_counts.items() if w < d_tilde}


def oracle_report(
    code: ConvCode,
    N: int,
    crcs: Sequence[GF2Poly] = (),
) -> OracleReport:
    """Single exhaustive pass; one encode per input, residues per crc."""
    _check_n(N)
    if N < code.v:
        raise ValueError(f"need at least v={code.v} input bits, got {N}")
    weight_counts: dict[int, int] = {}
    crc_counts: dict[str, dict[int, int]] = {c.to_hex(): {} for c in crcs}
    crc_pairs = [(c.to_hex(), c) for c in crcs]
    for u in range(1, 1 << N):
        inputs = tuple((u >> i) & 1 for i in range(N))
        w = encode_tb(code, inputs).weight
        weight_counts[w] = weight_counts.get(w, 0) + 1
        for name, c in crc_pairs:
            if c.divides(GF2Poly(u)):
                crc_counts[name][w] = crc_counts[name].get(w, 0) + 1
    return OracleReport(
        code_octal=code.generators_octal,
        N=N,
        total_paths=(1 << N) - 1,
        weight_counts=weight_counts,
        crc_counts=crc_counts,
    )
