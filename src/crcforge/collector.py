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
remaining weight and fewest remaining steps back to the start state,
from one array relaxation over the reduced diagram, held as (start state
x state) tables) cut provably dead branches early; they never change the
collected set. Frontier rows are numpy columns (start state, state,
weight, and the inputs so far as uint64 limbs, as many as the depth
needs), expanded one depth step at a time in blocks of at most _BLOCK
rows, deepest block first. The rows waiting at any one depth are then at
most two blocks, so the search's memory is bounded by max_len times the
block size, not by the widest level of the search. Closures are sorted
into file order (start state by its place in the ordering, then weight,
length and input bits) and kept as the database's columns, the only form
the events take; verify_events checks them as columns too. Catastrophic
encoders are refused: they have zero-weight cycles away from state 0, so
weight pruning alone would not bound the search. So are memories above
MAX_MEMORY, whose pruning tables grow as 4^v.

The collector is the one source of truth for a code's events. A saved
database is indented JSON: a header of what the collection needs, then
the events as records, rendered from the columns with numpy. Loading it
parses only the header, re-runs the collection it describes, and refuses
the file unless its text is exactly what save_database writes for that.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .encoder import ConvCode
from .errors import CatastrophicEncoderError, DatabaseFormatError

__all__ = [
    "EventColumns",
    "IEEDatabase",
    "collect_iees",
    "save_database",
    "load_database",
    "verify_events",
]

DB_FORMAT_VERSION = 2
# Largest encoder memory collect_iees accepts. The pruning tables take
# O(4^v) memory and O(8^v) time: on a 2-core host, collects at v = 9, 10
# and 11 took 0.1, 0.35 and 2.6 s at 40, 71 and 194 MiB peak.
MAX_MEMORY = 11
# Frontier rows the collector expands per numpy step; it bounds the
# search's memory to about max_len * 2 * _BLOCK rows.
_BLOCK = 1 << 16
# int32 distance of a state that cannot get back, far above any real one.
_FAR = 1 << 30
# Events per record piece of a database's text.
_PIECE_EVENTS = 1024
# JSON type of each header field after the version, in file order.
_FIELD_TYPES = {
    "generators_octal": list,
    "v": int,
    "ordering": list,
    "d_tilde": int,
    "max_len": int,
}


class EventColumns(NamedTuple):
    """One state's events: its rows of the database's columns.

    The arrays are views into the database, in file order. Row r has
    weight weights[r], length lengths[r] and input bits inputs[r], as
    little-endian uint64 limbs (bit i of limb k = input at step 64k + i).
    """

    state: int
    weights: np.ndarray
    lengths: np.ndarray
    inputs: np.ndarray


def _step_tables(code: ConvCode) -> tuple[np.ndarray, np.ndarray]:
    """(next_state, branch_weight): int32 (states, 2) arrays indexed [state, input bit]."""
    return tuple(
        np.array([[step(s, b) for b in (0, 1)] for s in range(code.num_states)], dtype=np.int32)
        for step in (code.next_state, code.branch_weight)
    )


def _bound_tables(
    next_state: np.ndarray, branch_weight: np.ndarray, ordering: tuple[int, ...], d_tilde: int, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (start state x state) limits on a live frontier row.

    A row of the search from sigma that has just stepped to state t, with
    weight w after d steps, stays live iff w < allow_w[sigma * S + t] and
    d <= allow_len[sigma * S + t]: only then can it still close under
    d_tilde within max_len. The limits are d_tilde and max_len less the
    least weight and the fewest steps from t back to sigma through states
    after sigma in the ordering. Both come from one int32 relaxation by
    whole rows, dist[t] = min over b of cost(t, b) + dist[next(t, b)] with
    dist[sigma, sigma] = 0, run until nothing changes (at most S rounds).
    Where t is not after sigma or cannot get back, dist is _FAR and both
    limits are 0, which no row meets. The length table is the search's only
    length check: it carries the max_len cap, so no closure is longer than
    max_len.
    """
    num = len(next_state)
    rank = np.empty(num, dtype=np.int64)
    rank[list(ordering)] = np.arange(num)
    # after[t, sigma]: t may be on a path back to sigma.
    after = rank[:, None] > rank[None, :]
    start = np.where(np.eye(num, dtype=bool), 0, _FAR).astype(np.int32)
    # cost[:, t, b]: the weight and the one step of input b from state t.
    cost = np.stack([branch_weight, np.ones_like(branch_weight)])
    dist = np.stack([start, start])
    for _ in range(num):
        relaxed, taken = (dist[:, next_state[:, b]] for b in (0, 1))
        relaxed += cost[:, :, 0, None]
        taken += cost[:, :, 1, None]
        np.minimum(relaxed, np.minimum(taken, _FAR, out=taken), out=relaxed)
        del taken
        np.copyto(relaxed, start, where=~after)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    bounds = np.array([d_tilde, max_len], dtype=np.int32)[:, None, None]
    allow_w, allow_len = np.where(after & (dist < _FAR), bounds - dist, 0).transpose(0, 2, 1).reshape(2, -1)
    return allow_w, allow_len


def _closures(
    code: ConvCode, ordering: tuple[int, ...], d_tilde: int, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every event of every state, in file order: (offsets, weights, lengths, inputs).

    One search runs from all start states at once. A frontier block holds
    rows of one depth as columns [start, state, weight, limb 0, ...]: int32
    for the first three, and one uint64 limb per 64 input steps taken so
    far (bit i of limb k = input at step 64k + i), so the limb width grows
    with depth, not with max_len. Blocks are expanded depth first, at most
    _BLOCK rows at a time, so no more than two blocks' worth of rows wait
    at any depth. A row is recorded when it steps back to its start state
    under d_tilde, and expanded further only while the return bounds leave
    room for a closure. The zero loop of state 0 always closes, so there is
    at least one event and one limb. The events come back sorted by (place
    of the start state in the ordering, weight, length, input bits), those
    of ordering[i] in rows offsets[i]:offsets[i + 1], with the inputs as an
    (events, limbs) matrix.
    """
    num = code.num_states
    cap = int(np.iinfo(np.int32).max)  # weights and depths stay far below it
    d_tilde, max_len = min(d_tilde, cap), min(max_len, cap)
    next_state, branch_weight = _step_tables(code)
    allow_w, allow_len = _bound_tables(next_state, branch_weight, ordering, d_tilde, max_len)
    steps = list(zip(next_state.T, branch_weight.T))
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
        for b, (next_b, weight_b) in enumerate(steps):
            t = next_b[state]
            w = weight + weight_b[state]
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
    rank = np.empty(num, dtype=narrow[0])
    rank[list(ordering)] = np.arange(num)
    start, weight = rank[np.concatenate(starts)], np.concatenate(weights)
    del starts, weights
    length = np.repeat(np.array(lengths, dtype=narrow[2]), sizes)
    limbs = [
        np.concatenate([block[k] if k < len(block) else np.zeros(len(block[0]), np.uint64) for block in bits])
        for k in range(max(map(len, bits)))
    ]
    del bits
    order = np.lexsort((*limbs, length, weight, start))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(start, minlength=num))))
    inputs = np.empty((len(order), len(limbs)), dtype=np.uint64)
    for k in range(len(limbs)):
        inputs[:, k] = limbs[k][order]
        limbs[k] = None
    return offsets, weight[order], length[order], inputs


class IEEDatabase:
    """The collected IEEs of one code under one ordering, held as columns.

    The events are rows in file order: by the place of their start state
    in the ordering, then by (weight, length, input bits). The events of
    ordering[i] are rows offsets[i]:offsets[i + 1] of weights and lengths
    (narrow unsigned dtypes) and of inputs, an (events, limbs) uint64
    matrix; events(state) slices them out, and verify_events checks them.
    max_len is also the largest trellis length N the database provably
    covers (no IEE longer than max_len can take part in a length <=
    max_len tail-biting path).
    """

    __slots__ = (
        "generators_octal", "v", "n", "ordering", "d_tilde", "max_len",
        "offsets", "weights", "lengths", "inputs",
    )

    def __init__(
        self,
        generators_octal: Sequence[str],
        v: int,
        ordering: Sequence[int],
        d_tilde: int,
        max_len: int,
        offsets: np.ndarray,
        weights: np.ndarray,
        lengths: np.ndarray,
        inputs: np.ndarray,
    ):
        self.generators_octal = tuple(generators_octal)
        self.v = v
        self.ordering = tuple(ordering)
        self.d_tilde = d_tilde
        self.max_len = max_len
        self.offsets = offsets
        self.weights = weights
        self.lengths = lengths
        self.inputs = inputs
        self.n = len(self.generators_octal)

    @property
    def num_iees(self) -> int:
        return len(self.weights)

    def events(self, state: int) -> EventColumns:
        """The events of one state, sorted by (weight, length, input bits)."""
        i = self.ordering.index(state)
        rows = slice(int(self.offsets[i]), int(self.offsets[i + 1]))
        return EventColumns(state, self.weights[rows], self.lengths[rows], self.inputs[rows])

    def state_counts(self) -> dict[int, int]:
        return dict(zip(self.ordering, np.diff(self.offsets).tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IEEDatabase):
            return NotImplemented
        return (
            self.generators_octal == other.generators_octal
            and self.v == other.v
            and self.ordering == other.ordering
            and self.d_tilde == other.d_tilde
            and self.max_len == other.max_len
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("offsets", "weights", "lengths", "inputs")
            )
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
    ``threads`` is accepted for compatibility and ignored. Codes of memory
    above MAX_MEMORY are refused before anything is allocated.
    """
    if code.v > MAX_MEMORY:
        raise ValueError(f"encoder memory v={code.v} is above MAX_MEMORY={MAX_MEMORY}, the largest the collector holds")
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
    return IEEDatabase(code.generators_octal, code.v, ordering, d_tilde, max_len, *columns)


def _render(fields: Sequence, rows: int) -> bytes:
    """Text rows, each its fields end to end, as one run of bytes.

    A field is a str, the same in every row, or (chars, widths): a uint8
    matrix with one row per text row, of which row r uses its first
    widths[r] bytes. One mask drops the padding of every field at once.
    """
    chars, keep = [], []
    for field in fields:
        if isinstance(field, str):
            const = np.frombuffer(field.encode(), dtype=np.uint8)
            chars.append(np.broadcast_to(const, (rows, len(const))))
            keep.append(np.ones((rows, len(const)), dtype=bool))
        else:
            matrix, widths = field
            chars.append(matrix)
            keep.append(np.arange(matrix.shape[1]) < widths[:, None])
    return np.hstack(chars)[np.hstack(keep)].tobytes()


def _pieces(db: IEEDatabase) -> Iterator[str]:
    """The text save_database writes for db, in pieces.

    The text is what json.dump(payload, fh, indent=1) writes, plus a
    newline, for the format version, the header fields of _FIELD_TYPES
    and the "iees" records. The pieces are the header up to '"iees": [',
    the records _PIECE_EVENTS at a time, and the closing brackets. Only
    the header goes through json. A slice's records are rendered from the
    columns as rows of fields: states and weights from a table of decimal
    digits, and each event's inputs, a 0/1 string that needs no escaping,
    from its unpacked limbs.
    """
    header = {"format_version": DB_FORMAT_VERSION, **{key: getattr(db, key) for key in _FIELD_TYPES}}
    yield "".join(
        ("," if i else "{") + f"\n {json.dumps(key)}: " + json.dumps(value, indent=1).replace("\n", "\n ")
        for i, (key, value) in enumerate(header.items())
    ) + ',\n "iees": ['
    events = db.num_iees
    # Row i of digits holds str(i), for every state and weight, in its first widths[i] bytes.
    numbers = np.array([str(i) for i in range(max(len(db.ordering), int(db.weights.max(initial=0)) + 1))], "S")
    digits, widths = numbers.view(np.uint8).reshape(len(numbers), -1), np.char.str_len(numbers)
    ordering = np.array(db.ordering)
    for lo in range(0, events, _PIECE_EVENTS):
        hi = min(lo + _PIECE_EVENTS, events)
        state = ordering[np.searchsorted(db.offsets, np.arange(lo, hi), side="right") - 1]
        weight, length = db.weights[lo:hi], db.lengths[lo:hi]
        top = int(length.max())
        limbs = np.ascontiguousarray(db.inputs[lo:hi, : -(-top // 64)], dtype="<u8")
        bits = np.unpackbits(limbs.view(np.uint8), axis=1, count=top, bitorder="little")
        s = (digits[state], widths[state])
        x = (bits + ord("0"), length)
        w = (digits[weight], widths[weight])
        lines = _render([',\n  {\n   "state": ', s, ',\n   "inputs": "', x, '",\n   "weight": ', w, "\n  }"], hi - lo)
        # The first record of the list has no comma before it.
        yield (lines[1:] if lo == 0 else lines).decode()
    yield ("\n ]" if events else "]") + "\n}\n"


def save_database(db: IEEDatabase, path) -> None:
    """Write the database as indented JSON: the header a load reads, then the events."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_pieces(db))


def load_database(path) -> IEEDatabase:
    """Read a database file and check it against a fresh collection.

    Only the header, the text before '"iees": [', is parsed. A file of
    another format version, version 1 included, is refused; re-running
    collect writes it anew. After the field type checks, the collection
    the header describes is run again, and the file's text must be exactly
    what save_database writes for it, piece by piece, up to its last byte
    (line endings aside). Each piece is compared with the next stretch of
    the file, so the file's whole text is never held. A changed, missing,
    extra or reordered event, trailing text, and a file another JSON
    writer laid out differently are all refused, and so is a header that
    ConvCode or collect_iees refuses. A load costs what the same collect
    costs plus one rendering of the records, and returns that collection.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [fh.readline()]
            while lines[-1] and '"iees": [' not in lines[-1]:
                lines.append(fh.readline())
            text = "".join(lines)
            # A file without records is all header.
            end = text.find('"iees": [')
            header = json.loads(text if end < 0 else text[:end].rstrip().removesuffix(",") + "}")
            if not isinstance(header, dict):
                raise DatabaseFormatError(f"{path}: not a database object")
            version = header.get("format_version")
            if version != DB_FORMAT_VERSION:
                found = f"format version {version!r}, supported {DB_FORMAT_VERSION}"
                raise DatabaseFormatError(f"{path}: {found}; re-run collect")
            for key, kind in _FIELD_TYPES.items():
                if key not in header:
                    raise DatabaseFormatError(f"{path}: missing field {key!r}")
                if type(header[key]) is not kind:
                    raise DatabaseFormatError(f"{path}: field {key!r} is not a JSON {kind.__name__}")
            gens, v, ordering, d_tilde, max_len = (header[key] for key in _FIELD_TYPES)
            if not all(type(g) is str for g in gens) or not all(type(s) is int for s in ordering):
                raise DatabaseFormatError(f"{path}: generators must be strings and states ints")
            try:
                # ConvCode raises unless x^v is the generators' highest tap.
                db = collect_iees(ConvCode(list(gens), v), d_tilde, max_len, ordering)
            except (ValueError, CatastrophicEncoderError) as exc:
                raise DatabaseFormatError(f"{path}: {exc}") from exc

            fh.seek(0)  # the pieces are compared from the file's first byte
            line = ""  # the text after the last newline of the pieces that match
            # The empty piece last: past the end of the database, the file must end too.
            for matched, piece in enumerate(itertools.chain(_pieces(db), [""])):
                got = fh.read(len(piece) or 1)
                if got != piece:
                    break
                line = line + piece if (cut := piece.rfind("\n")) < 0 else piece[cut + 1 :]
            else:
                return db
            at = len(os.path.commonprefix([piece, got]))
            # Counted only for the message, in the matched pieces rendered again.
            newlines = sum(p.count("\n") for p in itertools.islice(_pieces(db), matched)) + got.count("\n", 0, at)
            line = (line + got[:at]).rsplit("\n", 1)[-1] + got[at:] + fh.read(80)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatabaseFormatError(f"cannot read database {path}: {exc}") from exc
    line = line[:80].split("\n")[0]
    raise DatabaseFormatError(f"{path}: line {newlines + 1} {line!r} is not what save_database writes for this header")


def verify_events(db: IEEDatabase) -> np.ndarray:
    """One bool per event, in file order: True where the row is an IEE of its state.

    An event passes when, re-encoded from its start state, it closes there,
    no interior state is its start state or an earlier state in the
    ordering, and its weight equals the stored weight, which is below
    d_tilde; and its length is in 1..max_len, with no input bit set at or
    past it. The walk takes one time step for all events at once, on the
    states' places in the ordering, _BLOCK events at a time, each block
    longest event first, so the events still walking are a prefix.
    """
    next_state, branch_weight = _step_tables(ConvCode(list(db.generators_octal), db.v))
    ordering = list(db.ordering)
    rank = np.argsort(ordering).astype(np.int32)
    # From the state of rank r on input b: rank next_rank[2r + b], weight rank_weight[2r + b].
    next_rank, rank_weight = rank[next_state[ordering]].ravel(), branch_weight[ordering].ravel()
    ok = np.empty(db.num_iees, dtype=bool)
    for lo in range(0, db.num_iees, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        lengths, stored, inputs = db.lengths[rows].astype(np.int64), db.weights[rows], db.inputs[rows]
        passed = (lengths >= 1) & (lengths <= db.max_len) & (stored < db.d_tilde)
        for k in range(inputs.shape[1]):
            used = np.clip(lengths - 64 * k, 0, 64)  # steps read from limb k
            passed &= (used == 64) | (inputs[:, k] >> np.minimum(used, 63).astype(np.uint64) == 0)
        order = np.argsort(lengths, kind="stable")[::-1]
        # walking[i]: how many events take more than i steps, a prefix of order.
        walking = len(order) - np.cumsum(np.bincount(lengths, minlength=1))
        start = (np.searchsorted(db.offsets, lo + order, side="right") - 1).astype(np.int32)
        state, weight = start.copy(), np.zeros_like(start)
        lowest = np.full_like(start, len(ordering))  # the lowest rank entered before the last step
        # bits[i, j]: the input of event order[j] at step i, 0 past its limbs.
        bits = np.unpackbits(inputs.astype("<u8").view(np.uint8), axis=1, count=len(walking) - 1, bitorder="little")
        bits = bits.T[:, order]
        for i, now in enumerate(map(slice, walking[:-1])):
            if i:
                lowest[now] = np.minimum(lowest[now], state[now])
            index = 2 * state[now] + bits[i, now]
            weight[now] += rank_weight[index]
            state[now] = next_rank[index]
        passed[order] &= (state == start) & (lowest > start) & (weight == stored[order])
        ok[rows] = passed
    return ok
