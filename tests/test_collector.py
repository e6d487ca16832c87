import gc
import hashlib
import json
import math
from unittest import mock

import pytest
from conftest import path_words, rate_half_codes
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge import collector
from crcforge.cli import main
from crcforge.collector import (
    IEE,
    _canonical_pieces,
    _checksum,
    collect_iees,
    load_database,
    save_database,
    verify_iee,
)
from crcforge.encoder import ConvCode, encode_tb
from crcforge.errors import (
    CatastrophicEncoderError,
    CrcforgeError,
    DatabaseFormatError,
)
from crcforge.oracle import brute_force_iees
from crcforge.reconstructor import build_tables, expand_and_dedup


@pytest.fixture(scope="module")
def code():
    return ConvCode(["13", "17"], 3)


@pytest.fixture(scope="module")
def db7(code):
    return collect_iees(code, 7, 8)


class TestCollectedSet:
    def test_zero_loop_always_stored(self, db7):
        zero = db7.per_state[0][0]
        assert zero.inputs == (0,)
        assert zero.weight == 0
        assert zero.length == 1

    def test_minimum_nonzero_event(self, db7):
        nonzero = [e for e in db7.per_state[0] if e.weight > 0]
        first = nonzero[0]
        assert first.weight == 6
        assert first.length == 5
        assert first.inputs == (1, 1, 0, 0, 0)

    def test_no_short_light_event(self, db7):
        # The zero-terminated detour 1000 weighs 7, so nothing of length 4
        # gets under this d_tilde.
        assert all(e.length != 4 for e in db7.per_state[0])

    def test_sorted_by_weight_length_bits(self, db7):
        for events in db7.per_state.values():
            keys = [(e.weight, e.length, e.input_bits) for e in events]
            assert keys == sorted(keys)

    def test_memory_six_events_reencode(self):
        # brute_force_iees refuses v > 4, so each (133,171) event is checked
        # on its own: repeated up to v bits, its inputs tail-bite from its
        # state with its weight per copy, touch no earlier state in between,
        # and verify_iee accepts it.
        code = ConvCode(["133", "171"], 6)
        db = collect_iees(code, 12, 40)
        assert db.num_iees > 1000
        for i, sigma in enumerate(db.ordering):
            events = db.per_state[sigma]
            assert list(events) == sorted(set(events))
            for e in events:
                assert e.start_state == sigma and 1 <= e.length <= 40 and e.weight < 12
                copies = -(-code.v // e.length)
                path = encode_tb(code, e.inputs * copies)
                assert path.states[0] == sigma and path.weight == copies * e.weight, e
                assert set(path.states[1 : e.length]).isdisjoint(db.ordering[: i + 1]), e
                assert verify_iee(db, e)

    def test_irreducibility_predicate(self, db7, code):
        assert all(verify_iee(db7, e) for e in db7.iees())
        # A loop at state 1 that dips through state 0 is not irreducible.
        fake = IEE(weight=3, length=4, input_bits=0b0010, start_state=1)
        assert fake.inputs == (0, 1, 0, 0)
        assert not verify_iee(db7, fake)

    @pytest.mark.parametrize("gens,v", [(["5", "7"], 2), (["13", "17"], 3)])
    @pytest.mark.parametrize("d_tilde,max_len", [(5, 8), (7, 10), (8, 12)])
    def test_matches_brute_force(self, gens, v, d_tilde, max_len):
        code = ConvCode(gens, v)
        db = collect_iees(code, d_tilde, max_len)
        for s in range(code.num_states):
            ref = brute_force_iees(code, s, d_tilde, max_len)
            assert list(db.per_state[s]) == ref, f"state {s}"

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_codes_match_brute_force(self, data):
        code = data.draw(rate_half_codes(4), label="code")
        ordering = data.draw(st.permutations(range(code.num_states)), label="ordering")
        d_tilde = data.draw(st.integers(1, 10), label="d_tilde")
        max_len = data.draw(st.integers(1, 14), label="max_len")
        db = collect_iees(code, d_tilde, max_len, ordering)
        for s in ordering:
            assert list(db.per_state[s]) == brute_force_iees(code, s, d_tilde, max_len, ordering), s

    def test_events_longer_than_two_limbs(self, tmp_path):
        # Input bits take a second uint64 limb past 64 steps and a third past 128.
        db = collect_iees(ConvCode(["3", "2"], 1), 140, 200)
        lengths = [e.length for e in db.iees()]
        assert (len(lengths), sum(n > 64 for n in lengths), sum(n > 128 for n in lengths)) == (139, 74, 10)
        assert all(verify_iee(db, e) for e in db.iees())
        path = tmp_path / "db.json"
        save_database(db, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c5ebd3b6948be7a12761c57f7a5b515b5dca696ca41b5603df385a7186ca5286"
        )

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
        assert db.per_state == collect_iees(code, 12, 22).per_state

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

    def test_bad_ordering(self, code):
        with pytest.raises(ValueError):
            collect_iees(code, 7, 10, ordering=[0, 1, 2])

    def test_d_tilde_one_keeps_only_zero_loop(self, code):
        db = collect_iees(code, 1, 10)
        assert db.num_iees == 1
        assert db.per_state[0][0].weight == 0


class TestSaveLoad:
    @pytest.mark.parametrize("d_tilde,max_len", [(7, 8), (1, 10), (12, 70), (16, 70)])
    def test_text_is_indented_json(self, code, tmp_path, d_tilde, max_len):
        # The records and their checksum are written without the json
        # encoder, byte for byte as it would write this reference payload.
        db = collect_iees(code, d_tilde, max_len)
        payload = {
            "format_version": collector.DB_FORMAT_VERSION,
            "generators_octal": list(db.generators_octal),
            "v": db.v,
            "n": db.n,
            "ordering": list(db.ordering),
            "d_tilde": db.d_tilde,
            "max_len": db.max_len,
            "iees": [
                {"state": e.start_state, "inputs": "".join(map(str, e.inputs)), "weight": e.weight}
                for e in db.iees()
            ],
        }
        payload["checksum"] = _checksum(payload)
        path = tmp_path / "db.json"
        save_database(db, path)
        assert path.read_bytes() == (json.dumps(payload, indent=1) + "\n").encode()

    def test_roundtrip(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        again = load_database(path)
        assert again == db7
        assert again.d_tilde == 7 and again.max_len == 8

    def test_checksum_detects_tampering(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        payload = json.loads(path.read_text())
        payload["iees"][0]["inputs"] = "1"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatabaseFormatError, match="checksum"):
            load_database(path)

    def test_version_mismatch(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DatabaseFormatError, match="version"):
            load_database(path)

    def test_wrong_stored_weight(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        payload = json.loads(path.read_text())
        payload["iees"][1]["weight"] = 1
        del payload["checksum"]
        payload["checksum"] = _checksum(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DatabaseFormatError, match="IEE record 1 .* is not the collected"):
            load_database(path)

    def test_v_generator_mismatch(self, db7, tmp_path):
        path = tmp_path / "db.json"
        save_database(db7, path)
        payload = json.loads(path.read_text())
        payload["v"] = 5
        del payload["checksum"]
        payload["checksum"] = _checksum(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CrcforgeError):
            load_database(path)

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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(), inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(_JSON, st.integers(1, 4))
def test_canonical_pieces_join_to_dumps(value, slice_items):
    # Slices of 1 to 4 items make most lists longer than one slice.
    with mock.patch.object(collector, "_CHECKSUM_SLICE", slice_items):
        joined = "".join(_canonical_pieces(value))
    assert joined == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_canonical_pieces_at_full_slice():
    value = {"é": [math.nan, -0.0, {}, []], "iees": [{"w": i, "s": "x" * (i % 3)} for i in range(2500)]}
    pieces = list(_canonical_pieces(value))
    assert "".join(pieces) == json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert max(map(len, pieces)) < len("".join(pieces)) // 2


def _flip_high_bit(blob: bytes) -> bytes:
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] | 0x80]) + blob[mid + 1:]


def _resign(edit):
    """Apply edit(payload) to the file's JSON, then re-sign the file."""

    def tamper(blob: bytes) -> bytes:
        payload = json.loads(blob)
        del payload["checksum"]
        edit(payload)
        payload["checksum"] = _checksum(payload)
        return json.dumps(payload).encode()

    return tamper


def _set_field(key, value, record=None):
    """Change one field (of IEE record `record` if given), then re-sign the file."""

    def edit(payload):
        target = payload if record is None else payload["iees"][record]
        target[key] = value

    return _resign(edit)


def _replace_record(value):
    return _resign(lambda p: p["iees"].__setitem__(0, value))


def _append_record(pick):
    """Append the record pick(stored records) returns, then re-sign the file."""
    return _resign(lambda p: p["iees"].append(pick(p["iees"])))


# A (1+x)^2 code: generators 3 and 5 share the factor 1+x.
_CATASTROPHIC = {"generators_octal": ["3", "5"], "v": 2, "ordering": [0, 1, 2, 3]}


CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "high-bit-flipped": _flip_high_bit,
    "wrong-version": lambda blob: blob.replace(b'"format_version": 1', b'"format_version": 2'),
    "gens-not-list": _set_field("generators_octal", "13,17"),
    "gen-not-string": _set_field("generators_octal", [13, 17]),
    "v-string": _set_field("v", "3"),
    "n-string": _set_field("n", "2"),
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
    "record-dropped": _resign(lambda p: p["iees"].pop(1)),
    "d_tilde-zero": _set_field("d_tilde", 0),
    # Below the stored events' lengths.
    "max_len-short": _set_field("max_len", 5),
    "catastrophic-header": _resign(lambda p: p.update(_CATASTROPHIC, iees=p["iees"][:1])),
    "records-swapped": _resign(lambda p: p["iees"].insert(2, p["iees"].pop(3))),
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
