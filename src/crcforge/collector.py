"""Collection of irreducible error events (IEEs).

For a chosen ordering sigma_0, sigma_1, ... of the trellis states, the
IEEs of sigma_i are the closed paths that start and end at sigma_i while
their interior avoids sigma_0..sigma_i (including sigma_i itself). Every
tail-biting path is a cyclic shift of a concatenation of IEEs of exactly
one state, so collecting every IEE of output weight below a threshold
d_tilde and length up to max_len once is enough to rebuild the complete
bounded-weight codeword list for any trellis length N <= max_len.

Collection is an exhaustive depth-first search per start state on the
reduced state diagram, pruned on accumulated weight >= d_tilde and length
> max_len. Two admissible lower bounds (cheapest remaining weight and
shortest remaining length back to the start state, from a Dijkstra /
BFS pass over the reduced diagram) cut provably dead branches early; they
never change the collected set. The states are searched one after
another on one thread. Catastrophic encoders are refused: they have
zero-weight cycles away from state 0, so weight pruning alone would not
bound the search.

The collector is the one source of truth for a code's events. A saved
database is JSON with a checksum; loading it re-runs the collection its
header describes and refuses the file unless the stored records are
exactly that collection.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Iterator, NamedTuple, Sequence

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


def _search_state(
    code: ConvCode, sigma: int, blocked: frozenset[int], d_tilde: int, max_len: int
) -> list[IEE]:
    """All IEEs at sigma, sorted by (weight, length, input bits).

    Iterative DFS with an explicit stack; partial paths are carried as
    packed ints so no undo bookkeeping is needed. An event is recorded
    only when the walk returns to sigma, so it closes by construction.
    """
    ret_w, ret_len = _return_bounds(code, sigma, blocked)
    found: list[IEE] = []
    # Stack frames: (state, depth, weight, packed input bits so far).
    stack: list[tuple[int, int, int, int]] = [(sigma, 0, 0, 0)]
    next_state = code.next_state
    branch_weight = code.branch_weight
    while stack:
        s, depth, weight, bits = stack.pop()
        for b in (0, 1):
            t = next_state(s, b)
            w2 = weight + branch_weight(s, b)
            if w2 >= d_tilde:
                continue
            d2 = depth + 1
            if t == sigma:
                if d2 <= max_len:
                    found.append(IEE(w2, d2, bits | (b << depth), sigma))
                continue
            if t in blocked:
                continue
            if w2 + ret_w[t] >= d_tilde or d2 + ret_len[t] > max_len:
                continue
            stack.append((t, d2, w2, bits | (b << depth)))
    return sorted(found)


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
    first partition class. The per-state searches run one after another;
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

    per_state = {
        sigma: tuple(_search_state(code, sigma, frozenset(ordering[:i]), d_tilde, max_len))
        for i, sigma in enumerate(ordering)
    }
    return IEEDatabase(code.generators_octal, code.v, ordering, d_tilde, max_len, per_state)


def _record(e: IEE) -> dict:
    """The JSON record save_database writes for one event."""
    return {"state": e.start_state, "inputs": f"{e.input_bits:0{e.length}b}"[::-1], "weight": e.weight}


def _payload(db: IEEDatabase) -> dict:
    return {
        "format_version": DB_FORMAT_VERSION,
        "generators_octal": list(db.generators_octal),
        "v": db.v,
        "n": db.n,
        "ordering": list(db.ordering),
        "d_tilde": db.d_tilde,
        "max_len": db.max_len,
        "iees": [_record(e) for e in db.iees()],
    }


def _checksum(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_database(db: IEEDatabase, path) -> None:
    """Write the database as self-describing JSON with an integrity hash."""
    payload = _payload(db)
    payload["checksum"] = _checksum({k: v for k, v in payload.items()})
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


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
