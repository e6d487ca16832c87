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

from typing import Iterable, Sequence

import numpy as np

from .collector import EventColumns
from .encoder import ConvCode, encode_tb
from .errors import EnumerationGuardError
from .gf2 import _divmod

__all__ = [
    "MAX_ORACLE_N",
    "MAX_ORACLE_V",
    "MAX_ORACLE_LEN",
    "brute_force_spectrum",
    "brute_force_iees",
    "brute_force_partition",
    "is_cyclic_closed",
]

MAX_ORACLE_N = 24
MAX_ORACLE_V = 4
MAX_ORACLE_LEN = 16


def _check_n(N: int) -> None:
    if N > MAX_ORACLE_N:
        raise EnumerationGuardError(
            f"oracle would enumerate 2^{N} inputs; refusing N > {MAX_ORACLE_N}"
        )


def brute_force_spectrum(
    code: ConvCode, N: int, crcs: Sequence[int] = ()
) -> tuple[dict[int, int], list[dict[int, int]]]:
    """Weight histograms of the nonzero tail-biting paths of length N.

    One exhaustive pass encodes each nonzero input once. Returns the
    histogram of all paths and, for each crc in order, that of the paths
    whose input polynomial the crc divides (its undetected errors). Keys
    with zero count are omitted.
    """
    _check_n(N)
    if N < code.v:
        raise ValueError(f"need at least v={code.v} input bits, got {N}")
    counts: dict[int, int] = {}
    undetected: list[dict[int, int]] = [{} for _ in crcs]
    for u in range(1, 1 << N):
        w = encode_tb(code, tuple((u >> i) & 1 for i in range(N))).weight
        counts[w] = counts.get(w, 0) + 1
        for crc, hist in zip(crcs, undetected):
            if _divmod(u, crc)[1] == 0:
                hist[w] = hist.get(w, 0) + 1
    return counts, undetected


def brute_force_iees(
    code: ConvCode,
    state: int,
    d_tilde: int,
    max_len: int,
    ordering: Sequence[int] | None = None,
) -> EventColumns:
    """All IEEs at one state by direct recursive walking.

    Returned as the columns db.events(state) holds, sorted the same way by
    (weight, length, input bits): weights, lengths, and an (events, 1)
    uint64 input matrix, one limb being enough under MAX_ORACLE_LEN.
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

    found: list[tuple[int, int, int]] = []

    def walk(s: int, length: int, bits: int, weight: int) -> None:
        # bits holds the inputs so far, bit i = input at step i.
        for b in (0, 1):
            t, w, longer = code.next_state(s, b), weight + code.branch_weight(s, b), bits | b << length
            if t == state:
                if w < d_tilde:
                    found.append((w, length + 1, longer))
            elif t not in blocked and length + 1 < max_len:
                walk(t, length + 1, longer, w)

    walk(state, 0, 0, 0)
    rows = np.array(sorted(found), dtype=np.int64).reshape(-1, 3)
    return EventColumns(state, rows[:, 0], rows[:, 1], rows[:, 2:].astype(np.uint64))


def brute_force_partition(
    code: ConvCode, N: int, d_tilde: int, ordering: Sequence[int]
) -> dict[int, dict[int, int]]:
    """{anchor state: {input word: weight}} of the words of weight < d_tilde.

    A word's anchor is the state of its tail-biting path that comes first
    in the ordering, so the classes are disjoint and together hold every
    nonzero word of weight < d_tilde. The reconstructor's per-state
    expansion must reproduce them exactly.
    """
    _check_n(N)
    position = {s: i for i, s in enumerate(ordering)}
    classes: dict[int, dict[int, int]] = {s: {} for s in ordering}
    for u in range(1, 1 << N):
        path = encode_tb(code, tuple((u >> i) & 1 for i in range(N)))
        if path.weight < d_tilde:
            classes[min(path.states[:N], key=position.__getitem__)][u] = path.weight
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
