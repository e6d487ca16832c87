"""Collection of irreducible error events (IEEs).

For a chosen ordering sigma_0, sigma_1, ... of the trellis states, the
IEEs of sigma_i are the closed paths that start and end at sigma_i while
their interior avoids sigma_0..sigma_i (including sigma_i itself). Every
tail-biting path is a cyclic shift of a concatenation of IEEs of exactly
one state, so collecting every IEE of output weight below a threshold
d_tilde and length up to max_len once is enough to rebuild the complete
bounded-weight codeword list for any trellis length N <= max_len.

Collection is one exhaustive array search over the reduced state
diagram from all start states at once, pruned on accumulated weight >=
d_tilde and length > max_len. Two admissible lower bounds (cheapest
remaining weight and shortest remaining length back to the start state,
from a Dijkstra / BFS pass over the reduced diagram, held as (start state
x state) tables) cut provably dead branches early; they never change the
collected set. Frontier rows are numpy columns (start state, state,
weight, and the inputs so far as uint64 limbs, as many as the depth
needs), expanded one depth step at a time in blocks of at most _BLOCK
rows, deepest block first. The rows waiting at any one depth are then at
most two blocks, so the search's memory is bounded by max_len times the
block size, not by the widest level of the search. Closures are sorted per
start state by (weight, length, input bits) and become IEE tuples one
state at a time. Catastrophic encoders are refused: they have zero-weight
cycles away from state 0, so weight pruning alone would not bound the
search.

The collector is the one source of truth for a code's events. A saved
database is JSON with a checksum; loading it re-runs the collection its
header describes and refuses the file unless the stored records are
exactly that collection.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .encoder import ConvCode
from .errors import CatastrophicEncoderError, DatabaseFormatError

__all__ = [
    "IEE",
    "IEEDatabase",
    "collect_iees",
    "save_database",
    "load_database",
]

DB_FORMAT_VERSION = 1
# Frontier rows the collector expands per numpy step; it bounds the
# search's memory to about max_len * 2 * _BLOCK rows.
_BLOCK = 1 << 16
# Array items per piece of the checksummed text.
_CHECKSUM_SLICE = 1024
# JSON type of each database field, in the order load_database unpacks them.
_FIELD_TYPES = {
    "generators_octal": list,
    "v": int,
    "n": int,
    "ordering": list,
    "d_tilde": int,
    "max_len": int,
    "iees": list,
}


class IEE(NamedTuple):
    """One irreducible error event.

    Inputs are held packed (bit i = input at step i). The field order is
    the per-state sort key, so plain sorting orders a state's events by
    (weight, length, input bits).
    """

    weight: int
    length: int
    input_bits: int
    start_state: int

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple((self.input_bits >> i) & 1 for i in range(self.length))


def _return_bounds(
    code: ConvCode, sigma: int, blocked: frozenset[int]
) -> tuple[list[float], list[float]]:
    """Cheapest weight and shortest length from each state back to sigma.

    Interior states must avoid ``blocked`` and sigma itself. Unreachable
    states get inf, which prunes them outright.
    """
    inf = float("inf")
    preds: list[list[tuple[int, int]]] = [[] for _ in range(code.num_states)]
    for s in range(code.num_states):
        if s in blocked or s == sigma:
            continue
        for b in (0, 1):
            preds[code.next_state(s, b)].append((s, code.branch_weight(s, b)))

    def dijkstra(edge_cost_is_weight: bool) -> list[float]:
        dist = [inf] * code.num_states
        heap: list[tuple[float, int]] = []
        for s, w in preds[sigma]:
            cost = w if edge_cost_is_weight else 1
            if cost < dist[s]:
                dist[s] = cost
                heapq.heappush(heap, (cost, s))
        while heap:
            d, s = heapq.heappop(heap)
            if d > dist[s]:
                continue
            for t, w in preds[s]:
                cost = d + (w if edge_cost_is_weight else 1)
                if cost < dist[t]:
                    dist[t] = cost
                    heapq.heappush(heap, (cost, t))
        return dist

    return dijkstra(True), dijkstra(False)


def _bound_tables(
    code: ConvCode, ordering: tuple[int, ...], d_tilde: int, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (start state x state) limits on a live frontier row.

    A row of the search from sigma that has just stepped to state t, with
    weight w at depth d, stays live iff w < allow_w[sigma * S + t] and
    d <= allow_len[sigma * S + t]: only then can it still close under
    d_tilde within max_len. Where _return_bounds gives inf (t is sigma,
    blocked, or cannot get back) both limits are 0, which no row meets.
    """
    inf = float("inf")
    num = code.num_states
    allow_w = np.zeros((num, num), dtype=np.int32)
    allow_len = np.zeros((num, num), dtype=np.int32)
    for i, sigma in enumerate(ordering):
        ret_w, ret_len = _return_bounds(code, sigma, frozenset(ordering[:i]))
        allow_w[sigma] = [0 if w == inf else d_tilde - w for w in ret_w]
        allow_len[sigma] = [0 if n == inf else max_len - n for n in ret_len]
    return allow_w.ravel(), allow_len.ravel()


def _closures(
    code: ConvCode, ordering: tuple[int, ...], d_tilde: int, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every event of every state: (counts per start state, order, weight, length, limbs).

    One search runs from all start states at once. A frontier block holds
    rows of one depth as columns [start, state, weight, limb 0, ...]: int32
    for the first three, and one uint64 limb per 64 input steps taken so
    far (bit i of limb k = input at step 64k + i), so the limb width grows
    with depth, not with max_len. Blocks are expanded depth first, at most
    _BLOCK rows at a time, so no more than two blocks' worth of rows wait
    at any depth. A row is recorded when it steps back to its start state
    under d_tilde, and expanded further only while the return bounds leave
    room for a closure. The zero loop of state 0 always closes, so there is
    at least one event. The event columns come back unsorted, with the
    order that sorts them by (start state, weight, length, input bits).
    """
    num = code.num_states
    cap = int(np.iinfo(np.int32).max)  # weights and depths stay far below it
    d_tilde, max_len = min(d_tilde, cap), min(max_len, cap)
    allow_w, allow_len = _bound_tables(code, ordering, d_tilde, max_len)
    steps = [
        (
            np.array([code.next_state(s, b) for s in range(num)], dtype=np.int32),
            np.array([code.branch_weight(s, b) for s in range(num)], dtype=np.int32),
        )
        for b in (0, 1)
    ]
    roots = np.array(ordering, dtype=np.int32)
    # Blocks (depth, columns); depth rises from the bottom of the stack to its top.
    stack = [(0, [roots, roots, np.zeros(num, dtype=np.int32)])]
    # Closures, one list of blocks per field, held in the narrowest dtypes
    # that fit; a block's limbs are one list, its length one int.
    narrow = [np.min_scalar_type(bound) for bound in (num - 1, d_tilde, max_len)]
    starts: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    lengths: list[int] = []
    bits: list[list[np.ndarray]] = []
    while stack:
        depth, cols = stack.pop()
        if len(cols[0]) > _BLOCK:
            stack.append((depth, [col[_BLOCK:] for col in cols]))
            cols = [col[:_BLOCK] for col in cols]
        if depth % 64 == 0:
            cols = cols + [np.zeros(len(cols[0]), dtype=np.uint64)]
        start, state, weight, *limbs = cols
        bit = np.uint64(1 << depth % 64)
        children = []
        for b, (next_state, branch_weight) in enumerate(steps):
            t = next_state[state]
            w = weight + branch_weight[state]
            key = start * num + t
            closed = np.flatnonzero((t == start) & (w < d_tilde))
            live = np.flatnonzero((w < allow_w[key]) & (allow_len[key] > depth))
            for rows in (closed, live):
                if not len(rows):
                    continue
                taken = [limb[rows] for limb in limbs]
                if b:
                    taken[-1] |= bit
                if rows is live:
                    children.append([start[rows], t[rows], w[rows], *taken])
                else:
                    starts.append(start[rows].astype(narrow[0]))
                    weights.append(w[rows].astype(narrow[1]))
                    lengths.append(depth + 1)
                    bits.append(taken)
        if children:
            stack.append((depth + 1, [np.concatenate(parts) for parts in zip(*children)]))

    # Each list of blocks is dropped once joined, so the blocks and the
    # joined columns are not both held through the sort.
    sizes = [len(part) for part in starts]
    start, weight = np.concatenate(starts), np.concatenate(weights)
    del starts, weights
    length = np.repeat(np.array(lengths, dtype=narrow[2]), sizes)
    limbs = [
        np.concatenate([block[k] if k < len(block) else np.zeros(len(block[0]), np.uint64) for block in bits])
        for k in range(max(map(len, bits)))
    ]
    del bits
    order = np.lexsort((*limbs, length, weight, start))
    return np.bincount(start, minlength=num), order, weight, length, limbs


def _per_state(
    ordering: tuple[int, ...],
    counts: np.ndarray,
    order: np.ndarray,
    weight: np.ndarray,
    length: np.ndarray,
    limbs: list[np.ndarray],
) -> dict[int, tuple[IEE, ...]]:
    """Each state's events as IEE tuples, from _closures' columns.

    State s owns the counts[s] rows of order after those of the
    lower-numbered states. They are read _BLOCK rows at a time, so no
    Python list of a whole state's fields is held beside its tuples.
    """
    ends = np.cumsum(counts)
    per_state = {}
    for sigma in ordering:
        begin, end = int(ends[sigma] - counts[sigma]), int(ends[sigma])
        events: list[IEE] = []
        for lo in range(begin, end, _BLOCK):
            rows = order[lo : min(lo + _BLOCK, end)]
            inputs = limbs[0][rows].tolist()
            for k, limb in enumerate(limbs[1:], 1):
                high = limb[rows]
                nonzero = np.flatnonzero(high)
                for i, h in zip(nonzero.tolist(), high[nonzero].tolist()):
                    inputs[i] |= h << 64 * k
            events += map(IEE._make, zip(weight[rows].tolist(), length[rows].tolist(), inputs, repeat(sigma)))
        per_state[sigma] = tuple(events)
    return per_state


class IEEDatabase:
    """The collected IEEs of one code under one ordering.

    per_state maps each state to its IEE tuple sorted by
    (weight, length, input bits); max_len is also the largest trellis
    length N the database provably covers (no IEE longer than max_len can
    take part in a length <= max_len tail-biting path).
    """

    __slots__ = ("generators_octal", "v", "n", "ordering", "d_tilde", "max_len", "per_state", "_code")

    def __init__(
        self,
        generators_octal: Sequence[str],
        v: int,
        ordering: Sequence[int],
        d_tilde: int,
        max_len: int,
        per_state: dict[int, tuple[IEE, ...]],
    ):
        self.generators_octal = tuple(generators_octal)
        self.v = v
        self.ordering = tuple(ordering)
        self.d_tilde = d_tilde
        self.max_len = max_len
        self.per_state = per_state
        self.n = len(self.generators_octal)
        self._code: ConvCode | None = None

    @property
    def code(self) -> ConvCode:
        if self._code is None:
            self._code = ConvCode(list(self.generators_octal), self.v)
        return self._code

    @property
    def num_iees(self) -> int:
        return sum(len(lst) for lst in self.per_state.values())

    def iees(self) -> Iterator[IEE]:
        for sigma in self.ordering:
            yield from self.per_state.get(sigma, ())

    def state_counts(self) -> dict[int, int]:
        return {sigma: len(self.per_state.get(sigma, ())) for sigma in self.ordering}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IEEDatabase):
            return NotImplemented
        return (
            self.generators_octal == other.generators_octal
            and self.v == other.v
            and self.ordering == other.ordering
            and self.d_tilde == other.d_tilde
            and self.max_len == other.max_len
            and self.per_state == other.per_state
        )

    def __repr__(self) -> str:
        gens = ",".join(self.generators_octal)
        return (
            f"IEEDatabase(({gens}) octal, v={self.v}, d_tilde={self.d_tilde}, "
            f"max_len={self.max_len}, {self.num_iees} events)"
        )


def collect_iees(
    code: ConvCode,
    d_tilde: int,
    max_len: int,
    ordering: Sequence[int] | None = None,
    threads: int = 1,
) -> IEEDatabase:
    """Collect every IEE of weight < d_tilde and length <= max_len.

    ``ordering`` defaults to natural state order 0..2^v-1, which keeps the
    zero-weight self-loop (state 0, input 0) as the padding event of the
    first partition class. One array search covers every start state;
    ``threads`` is accepted for compatibility and ignored.
    """
    if code.is_catastrophic:
        gens = ",".join(code.generators_octal)
        raise CatastrophicEncoderError(
            f"generators ({gens}) share a non-x factor; a zero-output cycle off "
            "state 0 exists and weight-pruned collection would not terminate"
        )
    if d_tilde < 1:
        raise ValueError(f"d_tilde must be >= 1, got {d_tilde}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if ordering is None:
        ordering = range(code.num_states)
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(code.num_states)):
        raise ValueError("ordering must be a permutation of all states")

    columns = _closures(code, ordering, d_tilde, max_len)
    # The tuples hold no references, yet building them in bulk would set off
    # full collections that walk every tuple built so far (and, in a load,
    # the parsed file).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        per_state = _per_state(ordering, *columns)
    finally:
        if was_enabled:
            gc.enable()
    return IEEDatabase(code.generators_octal, code.v, ordering, d_tilde, max_len, per_state)


def _record(e: IEE) -> dict:
    """The JSON record save_database writes for one event."""
    return {"state": e.start_state, "inputs": f"{e.input_bits:0{e.length}b}"[::-1], "weight": e.weight}


def _canonical_pieces(value) -> Iterator[str]:
    """json.dumps(value, sort_keys=True, separators=(",", ":")), in pieces.

    Objects are written key by key in sorted order and long arrays
    _CHECKSUM_SLICE items at a time, so no piece is the whole text of a
    large database. Object keys must be strings, as in any parsed file.
    """
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _canonical_pieces(value[key])
        yield "}"
    elif isinstance(value, list) and len(value) > _CHECKSUM_SLICE:
        yield "["
        for i in range(0, len(value), _CHECKSUM_SLICE):
            text = json.dumps(value[i : i + _CHECKSUM_SLICE], sort_keys=True, separators=(",", ":"))
            yield ("," if i else "") + text[1:-1]
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    """sha256 of the payload's compact, key-sorted JSON text."""
    digest = hashlib.sha256()
    for piece in _canonical_pieces(payload):
        digest.update(piece.encode())
    return digest.hexdigest()


def save_database(db: IEEDatabase, path) -> None:
    """Write the database as self-describing JSON with an integrity hash.

    The text is what json.dump(payload, fh, indent=1) writes, plus a
    newline, for the header fields, the "iees" records and the checksum.
    Only the header goes through json. Each event's inputs, a 0/1 string
    that needs no escaping, go into two format strings: the record as
    written, and as _checksum's compact text has it, between the header's
    text before and after "iees".
    """
    header = {
        "format_version": DB_FORMAT_VERSION,
        "generators_octal": list(db.generators_octal),
        "v": db.v,
        "n": db.n,
        "ordering": list(db.ordering),
        "d_tilde": db.d_tilde,
        "max_len": db.max_len,
    }
    canonical = json.dumps({**header, "iees": []}, sort_keys=True, separators=(",", ":"))
    before, after = canonical.split('"iees":[]')
    digest = hashlib.sha256(f'{before}"iees":['.encode())
    events = list(db.iees())
    with open(path, "w", newline="\n") as fh:
        for i, (key, value) in enumerate(header.items()):
            text = json.dumps(value, indent=1).replace("\n", "\n ")
            fh.write(("," if i else "{") + f"\n {json.dumps(key)}: {text}")
        fh.write(',\n "iees": [')
        for lo in range(0, len(events), _CHECKSUM_SLICE):
            chunk = events[lo : lo + _CHECKSUM_SLICE]
            rows = [(e.start_state, f"{e.input_bits:0{e.length}b}"[::-1], e.weight) for e in chunk]
            lines = "".join(
                f',\n  {{\n   "state": {s},\n   "inputs": "{x}",\n   "weight": {w}\n  }}' for s, x, w in rows
            )
            records = "".join(f',{{"inputs":"{x}","state":{s},"weight":{w}}}' for s, x, w in rows)
            # The first record of the list has no comma before it.
            fh.write(lines if lo else lines[1:])
            digest.update((records if lo else records[1:]).encode())
        digest.update(f"]{after}".encode())
        fh.write("\n ]" if events else "]")
        fh.write(f',\n "checksum": {json.dumps(digest.hexdigest())}\n}}\n')


def load_database(path) -> IEEDatabase:
    """Read a database file and check it against a fresh collection.

    After the version, checksum and header type checks, the collection
    the header describes is run again, and the stored records must equal
    what save_database writes for it, record for record and in order. A
    changed, missing, extra or reordered event marks the file as corrupt,
    and so does a header collect_iees refuses. A load costs what the same
    collect costs, and returns that collection.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatabaseFormatError(f"cannot read database {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DatabaseFormatError(f"{path}: not a database object")
    version = payload.get("format_version")
    if version != DB_FORMAT_VERSION:
        raise DatabaseFormatError(
            f"{path}: format version {version!r}, supported {DB_FORMAT_VERSION}"
        )
    declared = payload.pop("checksum", None)
    if declared != _checksum(payload):
        raise DatabaseFormatError(f"{path}: checksum mismatch, file corrupt")
    for key, kind in _FIELD_TYPES.items():
        if key not in payload:
            raise DatabaseFormatError(f"{path}: missing field {key!r}")
        if type(payload[key]) is not kind:
            raise DatabaseFormatError(f"{path}: field {key!r} is not a JSON {kind.__name__}")
    gens, v, n, ordering, d_tilde, max_len, stored = (payload[key] for key in _FIELD_TYPES)
    if not all(type(g) is str for g in gens) or not all(type(s) is int for s in ordering):
        raise DatabaseFormatError(f"{path}: generators must be strings and states ints")

    code = ConvCode(list(gens), v)  # raises if v and tap degrees disagree
    if code.n != n:
        raise DatabaseFormatError(f"{path}: n={n} but {code.n} generators given")
    try:
        db = collect_iees(code, d_tilde, max_len, ordering)
    except (ValueError, CatastrophicEncoderError) as exc:
        raise DatabaseFormatError(f"{path}: {exc}") from exc
    if len(stored) != db.num_iees:
        raise DatabaseFormatError(f"{path}: {len(stored)} IEE records stored, {db.num_iees} collected")
    for i, (rec, event) in enumerate(zip(stored, db.iees())):
        if rec != _record(event):
            raise DatabaseFormatError(
                f"{path}: IEE record {i} {rec!r} is not the collected {_record(event)!r}"
            )
    return db


def verify_iee(db: IEEDatabase, event: IEE) -> bool:
    """Check the irreducibility predicate of one database entry.

    Re-encoded from its start state, the walk must close there, every
    interior state must avoid the start state and all states earlier in
    the ordering, and its weight must equal the stored one, below d_tilde.
    """
    position = db.ordering.index(event.start_state)
    blocked = frozenset(db.ordering[: position + 1])
    code = db.code
    s, weight = event.start_state, 0
    for i in range(event.length):
        if i and s in blocked:
            return False
        b = (event.input_bits >> i) & 1
        weight += code.branch_weight(s, b)
        s = code.next_state(s, b)
    return s == event.start_state and weight == event.weight < db.d_tilde
