import gc
import hashlib
import json
import random
import re

import numpy as np
import pytest
from conftest import Event, event_list, path_words, rate_half_codes
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge import collector
from crcforge.cli import main
from crcforge.collector import (
    IEEDatabase,
    collect_iees,
    load_database,
    save_database,
    verify_events,
)
from crcforge.encoder import ConvCode, encode_tb
from crcforge.errors import CatastrophicEncoderError, DatabaseFormatError
from crcforge.gf2 import GF2Poly
from crcforge.oracle import brute_force_iees
from crcforge.reconstructor import build_tables, expand_and_dedup


def _inputs(event):
    """An event's inputs, one 0/1 per step."""
    return tuple((event.input_bits >> i) & 1 for i in range(event.length))


@pytest.fixture(scope="module")
def code():
    return ConvCode(["13", "17"], 3)


@pytest.fixture(scope="module")
def db7(code):
    return collect_iees(code, 7, 8)


class TestCollectedSet:
    def test_zero_loop_always_stored(self, db7):
        zero = event_list(db7.events(0))[0]
        assert _inputs(zero) == (0,)
        assert zero.weight == 0
        assert zero.length == 1

    def test_minimum_nonzero_event(self, db7):
        nonzero = [e for e in event_list(db7.events(0)) if e.weight > 0]
        first = nonzero[0]
        assert first.weight == 6
        assert first.length == 5
        assert _inputs(first) == (1, 1, 0, 0, 0)

    def test_no_short_light_event(self, db7):
        # The zero-terminated detour 1000 weighs 7, so nothing of length 4
        # gets under this d_tilde.
        assert all(e.length != 4 for e in event_list(db7.events(0)))

    def test_sorted_by_weight_length_bits(self, db7):
        for s in db7.ordering:
            keys = [(e.weight, e.length, e.input_bits) for e in event_list(db7.events(s))]
            assert keys == sorted(keys)

    def test_memory_six_events_reencode(self):
        # brute_force_iees refuses v > 4, so each (133,171) event is checked
        # on its own: repeated up to v bits, its inputs tail-bite from its
        # state with its weight per copy, touch no earlier state in between,
        # and verify_events accepts it.
        code = ConvCode(["133", "171"], 6)
        db = collect_iees(code, 12, 40)
        assert db.num_iees > 1000
        assert verify_events(db).all()
        for i, sigma in enumerate(db.ordering):
            events = event_list(db.events(sigma))
            assert events == sorted(set(events))
            for e in events:
                assert e.start_state == sigma and 1 <= e.length <= 40 and e.weight < 12
                copies = -(-code.v // e.length)
                path = encode_tb(code, _inputs(e) * copies)
                assert path.states[0] == sigma and path.weight == copies * e.weight, e
                assert set(path.states[1 : e.length]).isdisjoint(db.ordering[: i + 1]), e

    def test_irreducibility_predicate(self, code):
        # Each mutation changes one row of a copy of the columns, or adds
        # one, and the check flags that row alone.
        db = collect_iees(code, 8, 8)
        assert verify_events(db).all()
        zero, six, two = 0, 1, int(db.offsets[2])
        events = event_list(db)
        assert events[:2] == [Event(0, 1, 0, 0), Event(6, 5, 0b00011, 0)] and events[two] == Event(1, 2, 0b01, 2)
        # Its last input flipped, the state-2 event keeps its weight but ends at state 6.
        flipped = db.inputs.copy()
        flipped[two, 0] ^= np.uint64(0b10)
        lighter = db.weights.copy()
        lighter[six] -= 1
        # Bit 63 of the length-1 zero loop lies past its length.
        stray = db.inputs.copy()
        stray[zero, 0] |= np.uint64(1 << 63)
        # IEEs of weight d_tilde and of length max_len + 1, from collections one up.
        heavy = next(e for e in event_list(collect_iees(code, 9, 8)) if e.weight == 8)
        long = next(e for e in event_list(collect_iees(code, 8, 9)) if e.length == 9)
        cases = [
            (_with(db, inputs=flipped), two),
            (_with(db, weights=lighter), six),
            (_with(db, inputs=stray), zero),
            # A loop at state 1 that dips through state 0 is not irreducible.
            _appended(db, Event(weight=7, length=4, input_bits=0b0010, start_state=1)),
            _appended(db, heavy),
            _appended(db, long),
        ]
        for mutated, row in cases:
            assert np.flatnonzero(~verify_events(mutated)).tolist() == [row]

    @pytest.mark.parametrize("gens,v", [(["5", "7"], 2), (["13", "17"], 3)])
    @pytest.mark.parametrize("d_tilde,max_len", [(5, 8), (7, 10), (8, 12)])
    def test_matches_brute_force(self, gens, v, d_tilde, max_len):
        code = ConvCode(gens, v)
        db = collect_iees(code, d_tilde, max_len)
        for s in range(code.num_states):
            ref = brute_force_iees(code, s, d_tilde, max_len)
            assert all(map(np.array_equal, db.events(s), ref)), f"state {s}"

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_codes_match_brute_force(self, data):
        code = data.draw(rate_half_codes(4), label="code")
        ordering = data.draw(st.permutations(range(code.num_states)), label="ordering")
        d_tilde = data.draw(st.integers(1, 10), label="d_tilde")
        max_len = data.draw(st.integers(1, 14), label="max_len")
        db = collect_iees(code, d_tilde, max_len, ordering)
        for s in ordering:
            ref = brute_force_iees(code, s, d_tilde, max_len, ordering)
            assert all(map(np.array_equal, db.events(s), ref)), s

    def test_events_longer_than_two_limbs(self, tmp_path):
        # Input bits take a second uint64 limb past 64 steps and a third past 128.
        db = collect_iees(ConvCode(["3", "2"], 1), 140, 200)
        lengths = [e.length for e in event_list(db)]
        assert (len(lengths), sum(n > 64 for n in lengths), sum(n > 128 for n in lengths)) == (139, 74, 10)
        assert verify_events(db).all()
        # A bit in the third limb of the first, short event lies past its length.
        stray = db.inputs.copy()
        stray[0, 2] |= np.uint64(1)
        assert lengths[0] < 128 and np.flatnonzero(~verify_events(_with(db, inputs=stray))).tolist() == [0]
        path = tmp_path / "db.json"
        save_database(db, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a80df929c9610427930613cedfe500ad6dbe7053eb79bb39abb23bb77b1750a1"
        )
        assert load_database(path) == db

    @pytest.mark.parametrize(
        "gens,v,d_tilde,max_len,ordering,events",
        [
            (["13", "17"], 3, 16, 70, [0, 1, 6, 2, 7, 5, 3, 4], 4053),
            (["133", "171"], 6, 14, 74, list(range(16)) + [
                55, 49, 30, 31, 26, 62, 27, 32, 47, 52, 56, 58, 44, 24, 16, 38, 35, 28, 61, 40, 37, 63, 45, 54,
                34, 17, 51, 33, 46, 23, 60, 42, 43, 21, 18, 29, 48, 59, 53, 39, 22, 50, 20, 19, 57, 41, 25, 36,
            ], 6779),
        ],
    )
    def test_small_blocks_change_nothing(self, monkeypatch, gens, v, d_tilde, max_len, ordering, events):
        # The orderings are the benchmark's seed-7 ones.
        code = ConvCode(gens, v)
        default = collect_iees(code, d_tilde, max_len, ordering)
        monkeypatch.setattr(collector, "_BLOCK", 7)
        assert collect_iees(code, d_tilde, max_len, ordering) == default
        assert default.num_iees == events

    def test_huge_max_len(self, code):
        # Limbs follow the depth reached, not max_len; every event here is short.
        db = collect_iees(code, 12, 100_000)
        assert db.num_iees == 357
        assert event_list(db) == event_list(collect_iees(code, 12, 22))

    def test_threads_do_not_change_result(self, code):
        serial = collect_iees(code, 7, 10, threads=1)
        parallel = collect_iees(code, 7, 10, threads=2)
        assert serial == parallel

    def test_custom_ordering_same_spectrum(self, code):
        natural = collect_iees(code, 7, 10)
        reversed_ = collect_iees(code, 7, 10, ordering=range(7, -1, -1))
        a = expand_and_dedup(build_tables(natural, 10, 7), 10)
        b = expand_and_dedup(build_tables(reversed_, 10, 7), 10)
        assert a.counts_by_weight() == b.counts_by_weight()
        assert set(path_words(a)) == set(path_words(b))

    def test_max_len_headroom_changes_nothing(self, code):
        tight = collect_iees(code, 7, 10)
        loose = collect_iees(code, 7, 13)
        a = expand_and_dedup(build_tables(tight, 10, 7), 10)
        b = expand_and_dedup(build_tables(loose, 10, 7), 10)
        assert set(path_words(a)) == set(path_words(b))

    def test_catastrophic_refused(self):
        with pytest.raises(CatastrophicEncoderError):
            collect_iees(ConvCode(["3", "5"], 2), 7, 10)

    def test_memory_above_cap_refused(self, monkeypatch, db7, tmp_path, capsys):
        # (200001,377777) is a non-catastrophic memory-16 code whose pruning
        # tables alone would take 4 GiB. The search is stubbed out, so a
        # collector without the cap fails here instead of allocating.
        def search(*args):
            raise AssertionError("searched a code above MAX_MEMORY")

        monkeypatch.setattr(collector, "_closures", search)
        refusal = f"MAX_MEMORY={collector.MAX_MEMORY}"
        with pytest.raises(ValueError, match=refusal):
            collect_iees(ConvCode(["200001", "377777"], 16), 10, 40)
        path = tmp_path / "db.json"
        save_database(db7, path)
        path.write_bytes(_redump(lambda p: p.update(generators_octal=["200001", "377777"], v=16))(path.read_bytes()))
        with pytest.raises(DatabaseFormatError, match=refusal):
            load_database(path)
        out = tmp_path / "big.json"
        for args in (
            ["collect", "--gens", "200001,377777", "--v", "16", "--dtilde", "10", "--max-len", "40", "--out", str(out)],
            ["verify", "--gens", "200001,377777", "--v", "16", "--n", "16", "--dtilde", "10"],
        ):
            assert main(args) == 1
            assert refusal in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ordering(self, code):
        with pytest.raises(ValueError):
            collect_iees(code, 7, 10, ordering=[0, 1, 2])

    def test_d_tilde_one_keeps_only_zero_loop(self, code):
        db = collect_iees(code, 1, 10)
        assert db.num_iees == 1
        assert event_list(db.events(0))[0].weight == 0


def _walked_limits(code, ordering, d_tilde, max_len):
    """Reference pruning limits, from every simple path walked one by one.

    For each start state sigma and each state t after it in the ordering,
    every simple path from t that stays on states after sigma until a step
    lands on sigma is walked; the limits are d_tilde and max_len less the
    least weight and the fewest steps among them, and 0 with no such path.
    """
    num = code.num_states
    allow_w = [[0] * num for _ in range(num)]
    allow_len = [[0] * num for _ in range(num)]
    for i, sigma in enumerate(ordering):
        later = set(ordering[i + 1 :])
        for t in later:
            ends = []
            todo = [(t, {t}, 0, 0)]
            while todo:
                s, seen, weight, steps = todo.pop()
                for b in (0, 1):
                    nxt, w = code.next_state(s, b), weight + code.branch_weight(s, b)
                    if nxt == sigma:
                        ends.append((w, steps + 1))
                    elif nxt in later and nxt not in seen:
                        todo.append((nxt, seen | {nxt}, w, steps + 1))
            if ends:
                allow_w[sigma][t] = d_tilde - min(w for w, _ in ends)
                allow_len[sigma][t] = max_len - min(n for _, n in ends)
    return allow_w, allow_len


class TestBoundTables:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_limits_are_tight(self, data):
        # Looser limits would still collect the same events, only slower, so
        # the tables are pinned to the exact distances, not just checked safe.
        v = data.draw(st.integers(1, 3), label="v")
        n = data.draw(st.sampled_from([2, 3]), label="n")
        taps = data.draw(
            st.lists(st.integers(1, (2 << v) - 1), min_size=n, max_size=n).filter(
                lambda g: max(g).bit_length() == v + 1
            ),
            label="taps",
        )
        code = ConvCode([GF2Poly(g) for g in taps], v)
        ordering = tuple(data.draw(st.permutations(range(code.num_states)), label="ordering"))
        d_tilde = data.draw(st.integers(1, 30), label="d_tilde")
        max_len = data.draw(st.integers(1, 30), label="max_len")
        tables = collector._bound_tables(*collector._step_tables(code), ordering, d_tilde, max_len)
        for got, want in zip(tables, _walked_limits(code, ordering, d_tilde, max_len)):
            assert got.dtype == np.int32
            assert got.tolist() == [x for row in want for x in row]


class TestSaveLoad:
    @pytest.mark.parametrize("d_tilde,max_len", [(7, 8), (1, 10), (12, 70), (16, 70)])
    def test_text_is_indented_json(self, code, tmp_path, d_tilde, max_len):
        # The records are written without the json encoder, byte for byte
        # as it would write this reference payload.
        db = collect_iees(code, d_tilde, max_len)
        payload = {
            "format_version": collector.DB_FORMAT_VERSION,
            "generators_octal": list(db.generators_octal),
            "v": db.v,
            "ordering": list(db.ordering),
            "d_tilde": db.d_tilde,
            "max_len": db.max_len,
            "iees": [
                {"state": e.start_state, "inputs": "".join(map(str, _inputs(e))), "weight": e.weight}
                for e in event_list(db)
            ],
        }
        path = tmp_path / "db.json"
        save_database(db, path)
        assert path.read_bytes() == (json.dumps(payload, indent=1) + "\n").encode()
        assert load_database(path) == db

    @pytest.mark.parametrize(
        "gens,v,d_tilde,max_len,digest",
        [
            (["13", "17"], 3, 18, 70, "4b52b173ad8a117923dbde104b46e3118aa68fb3847a8573c83dab3fc60e2f6d"),
            (["133", "171"], 6, 16, 74, "6a5f181e357b20592ad948d7d0e87acee9a50b1b11f918c0d8fadef8cefcc9b7"),
        ],
    )
    def test_saved_bytes_are_pinned(self, tmp_path, gens, v, d_tilde, max_len, digest):
        # A load accepts only these bytes, so a file saved by an earlier
        # version must still be what save_database writes today.
        path = tmp_path / "db.json"
        save_database(collect_iees(ConvCode(gens, v), d_tilde, max_len), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_roundtrip(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        again = load_database(path)
        assert again == db7
        assert again.d_tilde == 7 and again.max_len == 8

    def test_equality_compares_every_column(self, db7):
        # Each copy differs from db7 in one place; a truth test of an
        # array comparison would raise instead of answering.
        bit = db7.inputs.copy()
        bit[-1, 0] ^= np.uint64(1 << 3)
        weight = db7.weights.copy()
        weight[1] += 1
        fewer = db7.offsets.copy()
        fewer[-1] -= 1
        changed = [
            _with(db7, inputs=bit),
            _with(db7, weights=weight),
            _with(db7, ordering=db7.ordering[::-1]),
            _with(db7, offsets=fewer, weights=db7.weights[:-1], lengths=db7.lengths[:-1], inputs=db7.inputs[:-1]),
        ]
        assert _with(db7) == db7
        for other in changed:
            assert (db7 == other, other == db7) == (False, False)

    def test_checksum_detects_tampering(self, db7, tmp_path):
        # A record changed in place, nothing else rewritten.
        path = tmp_path / "db.json"
        save_database(db7, path)
        path.write_text(path.read_text().replace('"inputs": "0"', '"inputs": "1"', 1))
        line = '   "inputs": "1",'
        with pytest.raises(DatabaseFormatError, match=rf"line \d+ '{re.escape(line)}.*' is not what save_database writes"):
            load_database(path)

    def test_errors_past_the_first_piece(self, tmp_path):
        # 1,624 events, so the records run into a second piece of the text,
        # and the line that closes record 1,023 spans the two. A record line
        # in the second piece, that line, and one character appended after
        # the last line are each named by their line number in the file.
        db = collect_iees(ConvCode(["133", "171"], 6), 12, 40, range(63, -1, -1))
        assert db.num_iees == 1624 > collector._PIECE_EVENTS
        path = tmp_path / "db.json"
        save_database(db, path)
        lines = path.read_text().split("\n")
        assert (len(lines), lines[75]) == (8199, ' "iees": [')
        cases = [
            (5580, '   "weight": 10', '   "weight": 11'),
            (5196, "  },", "  }]"),
            (8199, "", "x"),
        ]
        for number, old, new in cases:
            assert lines[number - 1] == old
            path.write_text("\n".join(lines[: number - 1] + [new] + lines[number:]))
            with pytest.raises(DatabaseFormatError, match=f"line {number} '{re.escape(new)}' is not what"):
                load_database(path)

    def test_version_mismatch(self, db7, tmp_path):
        # A version-1 file also held n and a checksum; it is refused by its
        # version, like an unknown one, before anything is collected.
        cases = [
            (1, lambda p: p.update(format_version=1, n=2, checksum="0" * 64)),
            (99, lambda p: p.update(format_version=99)),
        ]
        path = tmp_path / "db.json"
        for version, edit in cases:
            save_database(db7, path)
            path.write_bytes(_redump(edit)(path.read_bytes()))
            with pytest.raises(DatabaseFormatError, match=f"format version {version}, supported 2; re-run collect"):
                load_database(path)

    def test_wrong_stored_weight(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        path.write_bytes(_set_field("weight", 1, record=1)(path.read_bytes()))
        with pytest.raises(DatabaseFormatError, match="""line 29 '   "weight": 1' is not what"""):
            load_database(path)

    def test_v_generator_mismatch(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        path.write_bytes(_set_field("v", 5)(path.read_bytes()))
        with pytest.raises(DatabaseFormatError, match=f"^{re.escape(str(path))}: "):
            load_database(path)

    def test_crlf_line_endings_load(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_database(path) == db7

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not a database")
        with pytest.raises(DatabaseFormatError):
            load_database(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatabaseFormatError):
            load_database(tmp_path / "nope.json")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_kept(self, db7, tmp_path, enabled):
        good, corrupt = tmp_path / "good.json", tmp_path / "corrupt.json"
        save_database(db7, good)
        corrupt.write_bytes(_set_field("d_tilde", 0)(good.read_bytes()))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert load_database(good) == db7
            assert gc.isenabled() is enabled
            with pytest.raises(DatabaseFormatError):
                load_database(corrupt)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestRenderer:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_reference_writer(self, data):
        # Memory up to 5 gives two-digit states, d_tilde up to 12 two-digit weights.
        code = data.draw(rate_half_codes(5), label="code")
        ordering = data.draw(st.permutations(range(code.num_states)), label="ordering")
        d_tilde = data.draw(st.integers(1, 12), label="d_tilde")
        max_len = data.draw(st.integers(1, 30), label="max_len")
        db = collect_iees(code, d_tilde, max_len, ordering)
        assert "".join(collector._pieces(db)) == _reference_text(db, event_list(db))

    def test_records_cross_a_slice(self):
        db = collect_iees(ConvCode(["133", "171"], 6), 12, 40, range(63, -1, -1))
        assert db.num_iees == 1624 > collector._PIECE_EVENTS
        assert "".join(collector._pieces(db)) == _reference_text(db, event_list(db))

    def test_events_of_two_and_three_limbs(self):
        # No collected event in the suite is this long, so the columns are
        # built by hand: every length is a limb edge, bits at random.
        rng = random.Random(0)
        lengths = [1, 63, 64, 65, 128, 129]
        events = sorted(
            Event(rng.randrange(12), n, rng.getrandbits(n) | 1 << (n - 1), state)
            for state in (0, 3, 7) for n in lengths
        )
        events.sort(key=lambda e: e.start_state)
        state_of = np.array([e.start_state for e in events])
        db = IEEDatabase(
            ["13", "17"], 3, range(8), 12, 129,
            np.searchsorted(state_of, np.arange(9)),
            np.array([e.weight for e in events], dtype=np.uint8),
            np.array([e.length for e in events], dtype=np.uint8),
            np.array([[e.input_bits >> 64 * k & (2**64 - 1) for k in range(3)] for e in events], dtype=np.uint64),
        )
        assert event_list(db) == events
        assert "".join(collector._pieces(db)) == _reference_text(db, events)


def _reference_text(db, events) -> str:
    """What save_database writes for db's header and these events, one f-string per record."""
    header = {
        "format_version": collector.DB_FORMAT_VERSION,
        "generators_octal": list(db.generators_octal),
        "v": db.v,
        "ordering": list(db.ordering),
        "d_tilde": db.d_tilde,
        "max_len": db.max_len,
    }
    rows = [(e.start_state, f"{e.input_bits:0{e.length}b}"[::-1], e.weight) for e in events]
    lines = "".join(f',\n  {{\n   "state": {s},\n   "inputs": "{x}",\n   "weight": {w}\n  }}' for s, x, w in rows)
    text = "".join(
        ("," if i else "{") + f"\n {json.dumps(key)}: " + json.dumps(value, indent=1).replace("\n", "\n ")
        for i, (key, value) in enumerate(header.items())
    )
    return text + ',\n "iees": [' + lines[1:] + ("\n ]" if rows else "]") + "\n}\n"


def _with(db, **changes):
    """A database with db's fields but those in changes."""
    names = ["generators_octal", "v", "ordering", "d_tilde", "max_len", "offsets", "weights", "lengths", "inputs"]
    return IEEDatabase(*(changes.get(name, getattr(db, name)) for name in names))


def _appended(db, event):
    """A copy of db with event added after its state's events, and the event's row."""
    i = db.ordering.index(event.start_state)
    row = int(db.offsets[i + 1])
    offsets = db.offsets.copy()
    offsets[i + 1 :] += 1
    inputs = np.insert(db.inputs, row, 0, axis=0)
    inputs[row, 0] = event.input_bits
    columns = {
        "offsets": offsets,
        "weights": np.insert(db.weights, row, event.weight),
        "lengths": np.insert(db.lengths, row, event.length),
        "inputs": inputs,
    }
    return _with(db, **columns), row


def _flip_high_bit(blob: bytes) -> bytes:
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] | 0x80]) + blob[mid + 1:]


def _redump(edit):
    """Apply edit(payload) to the file's JSON, then write it again in save's layout."""

    def tamper(blob: bytes) -> bytes:
        payload = json.loads(blob)
        edit(payload)
        return (json.dumps(payload, indent=1) + "\n").encode()

    return tamper


def _set_field(key, value, record=None):
    """Change one field (of IEE record `record` if given), then re-dump the file."""

    def edit(payload):
        target = payload if record is None else payload["iees"][record]
        target[key] = value

    return _redump(edit)


def _replace_record(value):
    return _redump(lambda p: p["iees"].__setitem__(0, value))


def _append_record(pick):
    """Append the record pick(stored records) returns, then re-dump the file."""
    return _redump(lambda p: p["iees"].append(pick(p["iees"])))


# A (1+x)^2 code: generators 3 and 5 share the factor 1+x.
_CATASTROPHIC = {"generators_octal": ["3", "5"], "v": 2, "ordering": [0, 1, 2, 3]}


CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "not-an-object": lambda blob: b"[1, 2]\n",
    "high-bit-flipped": _flip_high_bit,
    "wrong-version": lambda blob: blob.replace(b'"format_version": 2', b'"format_version": 1'),
    "gens-not-list": _set_field("generators_octal", "13,17"),
    "gen-not-string": _set_field("generators_octal", [13, 17]),
    "gen-empty": _set_field("generators_octal", ["13", ""]),
    "v-string": _set_field("v", "3"),
    "ordering-string": _set_field("ordering", "01234567"),
    "ordering-state-string": _set_field("ordering", [0, 1, 2, 3, 4, 5, 6, "7"]),
    "d_tilde-string": _set_field("d_tilde", "7"),
    "max_len-float": _set_field("max_len", 8.0),
    "iees-int": _set_field("iees", 5),
    "record-list": _replace_record([0, "0", 0]),
    "record-state-string": _set_field("state", "0", record=0),
    "record-inputs-int": _set_field("inputs", 1, record=0),
    "record-weight-string": _set_field("weight", "0", record=0),
    "record-repeated": _append_record(lambda iees: iees[1]),
    # The zero loop then the weight-6 event: it passes through state 0 mid-event.
    "record-reducible": _append_record(lambda iees: {"state": 0, "inputs": "011000", "weight": 6}),
    "record-dropped": _redump(lambda p: p["iees"].pop(1)),
    "d_tilde-zero": _set_field("d_tilde", 0),
    # Below the stored events' lengths.
    "max_len-short": _set_field("max_len", 5),
    "catastrophic-header": _redump(lambda p: p.update(_CATASTROPHIC, iees=p["iees"][:1])),
    "records-swapped": _redump(lambda p: p["iees"].insert(2, p["iees"].pop(3))),
    "trailing-text": lambda blob: blob + b"{}\n",
    "re-indented": lambda blob: (json.dumps(json.loads(blob), indent=2) + "\n").encode(),
    "cut-at-iees": lambda blob: blob[: blob.index(b'"iees": [') + len(b'"iees": [\n')],
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_database_is_refused(db7, tmp_path, capsys, name):
    path = tmp_path / "db.json"
    save_database(db7, path)
    path.write_bytes(CORRUPTIONS[name](path.read_bytes()))
    with pytest.raises(DatabaseFormatError):
        load_database(path)
    rc = main(["design", "--iee", str(path), "--n", "8", "--m", "3", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert main(["growth", "--iee", str(path), "--l-range", "8:8"]) == 1
    assert "error:" in capsys.readouterr().err
