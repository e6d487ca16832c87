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
length and input bits) and kept as the database's columns; an IEE object
is built only where a caller asks for one. Catastrophic encoders are
refused: they have zero-weight cycles away from state 0, so weight
pruning alone would not bound the search.

The collector is the one source of truth for a code's events. A saved
database is JSON with a checksum, written by one generator of text
pieces, which renders each slice of events from the columns with numpy.
Loading it parses only the header, re-runs the collection the header
describes, and refuses the file unless its text is exactly what that
generator writes for that collection.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .encoder import ConvCode
from .errors import CatastrophicEncoderError, DatabaseFormatError

__all__ = [
    "IEE",
    "EventColumns",
    "IEEDatabase",
    "collect_iees",
    "save_database",
    "load_database",
]

DB_FORMAT_VERSION = 1
# Frontier rows the collector expands per numpy step; it bounds the
# search's memory to about max_len * 2 * _BLOCK rows.
_BLOCK = 1 << 16
# Events per record piece of a database's text.
_CHECKSUM_SLICE = 1024
# JSON type of each database field, in the order load_database unpacks them.
_FIELD_TYPES = {
    "generators_octal": list,
    "v": int,
    "n": int,
    "ordering": list,
    "d_tilde": int,
    "max_len": int,
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

    def iees(self) -> list[IEE]:
        """The events as IEE objects, built on demand."""
        width = 8 * self.inputs.shape[1]
        blob = self.inputs.astype("<u8", copy=False).tobytes()
        bits = [int.from_bytes(blob[i : i + width], "little") for i in range(0, len(blob), width)]
        return [IEE(w, n, b, self.state) for w, n, b in zip(self.weights.tolist(), self.lengths.tolist(), bits)]


def _bound_tables(
    next_state: np.ndarray, branch_weight: np.ndarray, ordering: tuple[int, ...], d_tilde: int, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (start state x state) limits on a live frontier row.

    A row of the search from sigma that has just stepped to state t, with
    weight w after d steps, stays live iff w < allow_w[sigma * S + t] and
    d <= allow_len[sigma * S + t]: only then can it still close under
    d_tilde within max_len. The limits are d_tilde and max_len less the
    least weight and the fewest steps from t back to sigma through states
    after sigma in the ordering. Both come from one relaxation, dist[sigma,
    t] = min over b of cost(t, b) + dist[sigma, next(t, b)] with
    dist[sigma, sigma] = 0, run until nothing changes (at most S rounds).
    Where t is not after sigma or cannot get back, both limits are 0, which
    no row meets. The length table is the search's only length check: it
    carries the max_len cap, so no closure is longer than max_len.
    """
    num = len(next_state)
    rank = np.empty(num, dtype=np.int64)
    rank[list(ordering)] = np.arange(num)
    # after[sigma, t]: t may be on a path back to sigma.
    after = rank[None, :] > rank[:, None]
    start = np.where(np.eye(num, dtype=bool), 0.0, np.inf)
    cost = np.stack([branch_weight, np.ones_like(branch_weight)])[:, None]
    dist = np.stack([start, start])
    for _ in range(num):
        relaxed = np.where(after, (cost + dist[:, :, next_state]).min(axis=-1), start)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    bounds = np.array([d_tilde, max_len], dtype=float)[:, None, None]
    allow_w, allow_len = np.where(after & np.isfinite(dist), bounds - dist, 0).astype(np.int32).reshape(2, -1)
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
    next_state, branch_weight = (
        np.array([[step(s, b) for b in (0, 1)] for s in range(num)], dtype=np.int32)
        for step in (code.next_state, code.branch_weight)
    )
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
    matrix; events(state) slices them out and iees() builds IEE objects
    from them. max_len is also the largest trellis length N the database
    provably covers (no IEE longer than max_len can take part in a length
    <= max_len tail-biting path).
    """

    __slots__ = (
        "generators_octal", "v", "n", "ordering", "d_tilde", "max_len",
        "offsets", "weights", "lengths", "inputs", "_code",
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
        self._code: ConvCode | None = None

    @property
    def code(self) -> ConvCode:
        if self._code is None:
            self._code = ConvCode(list(self.generators_octal), self.v)
        return self._code

    @property
    def num_iees(self) -> int:
        return len(self.weights)

    def events(self, state: int) -> EventColumns:
        """The events of one state, sorted by (weight, length, input bits)."""
        i = self.ordering.index(state)
        rows = slice(int(self.offsets[i]), int(self.offsets[i + 1]))
        return EventColumns(state, self.weights[rows], self.lengths[rows], self.inputs[rows])

    def iees(self) -> Iterator[IEE]:
        for sigma in self.ordering:
            yield from self.events(sigma).iees()

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
    newline, for the header fields, the "iees" records and the checksum:
    the sha256 of the payload's compact, key-sorted JSON text. The pieces
    are the header up to '"iees": [', the records _CHECKSUM_SLICE at a
    time, and the tail with the checksum. Only the header goes through
    json. A slice's records are rendered from the columns as rows of
    fields, twice: as written, and as the checksum's text has it, between
    the header's compact text before and after "iees". States and weights
    come from a table of decimal digits, and each event's inputs, a 0/1
    string that needs no escaping, from its unpacked limbs.
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
    yield "".join(
        ("," if i else "{") + f"\n {json.dumps(key)}: " + json.dumps(value, indent=1).replace("\n", "\n ")
        for i, (key, value) in enumerate(header.items())
    ) + ',\n "iees": ['
    events = db.num_iees
    # Row i of digits holds str(i), for every state and weight, in its first widths[i] bytes.
    numbers = np.array([str(i) for i in range(max(len(db.ordering), int(db.weights.max(initial=0)) + 1))], "S")
    digits, widths = numbers.view(np.uint8).reshape(len(numbers), -1), np.char.str_len(numbers)
    ordering = np.array(db.ordering)
    for lo in range(0, events, _CHECKSUM_SLICE):
        hi = min(lo + _CHECKSUM_SLICE, events)
        state = ordering[np.searchsorted(db.offsets, np.arange(lo, hi), side="right") - 1]
        weight, length = db.weights[lo:hi], db.lengths[lo:hi]
        top = int(length.max())
        limbs = np.ascontiguousarray(db.inputs[lo:hi, : -(-top // 64)], dtype="<u8")
        bits = np.unpackbits(limbs.view(np.uint8), axis=1, count=top, bitorder="little")
        s = (digits[state], widths[state])
        x = (bits + ord("0"), length)
        w = (digits[weight], widths[weight])
        lines = _render([',\n  {\n   "state": ', s, ',\n   "inputs": "', x, '",\n   "weight": ', w, "\n  }"], hi - lo)
        records = _render([',{"inputs":"', x, '","state":', s, ',"weight":', w, "}"], hi - lo)
        # The first record of the list has no comma before it.
        digest.update(records[1:] if lo == 0 else records)
        yield (lines[1:] if lo == 0 else lines).decode()
    digest.update(f"]{after}".encode())
    yield ("\n ]" if events else "]") + f',\n "checksum": {json.dumps(digest.hexdigest())}\n}}\n'


def save_database(db: IEEDatabase, path) -> None:
    """Write the database as self-describing JSON with an integrity hash."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_pieces(db))


def load_database(path) -> IEEDatabase:
    """Read a database file and check it against a fresh collection.

    Only the header, the text before '"iees": [', is parsed. After the
    version and field type checks, the collection the header describes is
    run again, and the file's text must be exactly what save_database
    writes for it, piece by piece, up to its last byte (line endings
    aside). A changed, missing, extra or reordered event, a changed
    checksum, trailing text, and a file another JSON writer laid out
    differently are all refused, and so is a header that ConvCode or
    collect_iees refuses. A load costs what the same collect costs, and
    returns that collection.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # A file without records is all header.
        end = text.find('"iees": [')
        header = json.loads(text if end < 0 else text[:end].rstrip().removesuffix(",") + "}")
    except (OSError, ValueError) as exc:
        raise DatabaseFormatError(f"cannot read database {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise DatabaseFormatError(f"{path}: not a database object")
    version = header.get("format_version")
    if version != DB_FORMAT_VERSION:
        raise DatabaseFormatError(
            f"{path}: format version {version!r}, supported {DB_FORMAT_VERSION}"
        )
    for key, kind in _FIELD_TYPES.items():
        if key not in header:
            raise DatabaseFormatError(f"{path}: missing field {key!r}")
        if type(header[key]) is not kind:
            raise DatabaseFormatError(f"{path}: field {key!r} is not a JSON {kind.__name__}")
    gens, v, n, ordering, d_tilde, max_len = (header[key] for key in _FIELD_TYPES)
    if not all(type(g) is str for g in gens) or not all(type(s) is int for s in ordering):
        raise DatabaseFormatError(f"{path}: generators must be strings and states ints")
    try:
        code = ConvCode(list(gens), v)  # raises if v and tap degrees disagree
        if code.n != n:
            raise DatabaseFormatError(f"{path}: n={n} but {code.n} generators given")
        db = collect_iees(code, d_tilde, max_len, ordering)
    except (ValueError, CatastrophicEncoderError) as exc:
        raise DatabaseFormatError(f"{path}: {exc}") from exc

    pos = 0
    for piece in _pieces(db):
        if not text.startswith(piece, pos):
            break
        pos += len(piece)
    else:
        if pos == len(text):
            return db
        piece = ""  # the file goes on past the end of the database
    at = pos + len(os.path.commonprefix([piece, text[pos : pos + len(piece)]]))
    start = text.rfind("\n", 0, at) + 1
    number, line = text.count("\n", 0, start) + 1, text[start : start + 80].split("\n")[0]
    raise DatabaseFormatError(f"{path}: line {number} {line!r} is not what save_database writes for this header")


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
