import itertools
import random

import numpy as np
import pytest
from conftest import event_list, path_words, rate_half_codes, rotations, state_classes, traced_growth
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcforge import reconstructor
from crcforge.collector import collect_iees
from crcforge.encoder import ConvCode, encode_tb
from crcforge.errors import CoverageError
from crcforge.oracle import brute_force_partition, brute_force_spectrum, is_cyclic_closed
from crcforge.reconstructor import build_tables, expand_and_dedup, growth_profile


@st.composite
def _expansions(draw):
    """(code, N, d_tilde, ordering): a random rate-1/2 code of memory <= 4
    at a length of one to three limbs, the limb boundaries included."""
    code = draw(rate_half_codes(4))
    N = draw(st.sampled_from([n for n in (*range(1, 13), 63, 64, 65, 127, 128, 129) if n >= code.v]))
    d_tilde = draw(st.integers(1, 9))
    ordering = draw(st.permutations(range(code.num_states)))
    return code, N, d_tilde, ordering


@st.composite
def _skeleton_cases(draw):
    """(code, N, d_tilde, ordering): a random rate-1/2 code of memory <= 3
    at N <= 12, small enough to list every event sequence."""
    code = draw(rate_half_codes(3))
    N = draw(st.integers(code.v, 12))
    d_tilde = draw(st.integers(1, 9))
    ordering = draw(st.permutations(range(code.num_states)))
    return code, N, d_tilde, ordering


def _naive_skeletons(iees, d_tilde, N):
    """(events, length, weight) of every nonzero-event sequence of weight
    < d_tilde and length <= N, sorted by (weight, length, events)."""
    events = [(i, e.length, e.weight) for i, e in enumerate(iees) if e.weight > 0]
    found, level = [], [((), 0, 0)]
    while level:
        level = [
            (seq + (i,), length + el, weight + ew)
            for (seq, length, weight), (i, el, ew) in itertools.product(level, events)
            if weight + ew < d_tilde and length + el <= N
        ]
        found += level
    return sorted(found, key=lambda sk: (sk[2], sk[1], sk[0]))


def _compositions(total, parts):
    """Weak compositions of total into exactly `parts` ordered parts."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _base_words(tables):
    """{state: (base word, rotation count, weight) for every gap composition}.

    The per-class reference for the numpy build, one Python-int word at a
    time: each skeleton of a state, padded where the state owns the zero
    loop, crossed with the weak compositions of its gap total, its events
    placed after the events and gaps before them. The base word starts its
    first event at time 0 and stands for its first len_j + g_j rotations.
    """
    N, iees = tables.N, event_list(tables.db)
    out = {}
    for place, state in enumerate(tables):
        table, out[state] = tables[state], []
        columns = (table.skeletons.tolist(), table.lengths.tolist(), table.weights.tolist())
        for events, length, weight in zip(*columns):
            if place != tables.zero and length != N:
                continue
            evs = [iees[i] for i in events if i >= 0]
            bits = [e.input_bits for e in evs]
            lens = [e.length for e in evs]
            j = len(evs)
            for gaps in _compositions(N - length, j):
                base = 0
                pos = 0
                for k in range(j):
                    base |= bits[k] << pos
                    pos += lens[k] + gaps[k]
                out[state].append((base, lens[-1] + gaps[-1], weight))
    return out


def class_paths(tables):
    """{state: (input word, weight) pairs of its partition class}, from _base_words."""
    N = tables.N
    mask = (1 << N) - 1
    classes = {}
    for state, bases in _base_words(tables).items():
        classes[state] = []
        for word, count, w in bases:
            for _ in range(count):
                classes[state].append((word, w))
                word = ((word << 1) | (word >> (N - 1))) & mask
    return classes


@pytest.fixture(scope="module")
def code():
    return ConvCode(["13", "17"], 3)


@pytest.fixture(scope="module")
def db7(code):
    return collect_iees(code, 7, 12)


class TestBuildTables:
    def test_zero_cell_holds_empty_composition(self, db7):
        # The (0, 0) cell holds only the empty composition, the recurrence
        # seed. It is the all-zero word, which is no error, so no skeleton
        # is empty and no class emits the zero word.
        tables = build_tables(db7, 8, 7)
        for s in tables:
            assert (tables[s].skeletons >= 0).any(axis=1).all()
        assert 0 not in {word for word, _w in expand_and_dedup(tables, 8).words()}

    def test_zero_weight_cells_are_pure_padding(self, db7):
        # Only state 0 owns the zero loop, and it appears in no skeleton:
        # zero-weight steps enter a word only as gap padding.
        tables = build_tables(db7, 8, 7)
        assert tables.zero == db7.ordering.index(0)
        (zero,) = [e for e in event_list(db7) if e.weight == 0]
        assert (zero.start_state, zero.weight, zero.length) == (0, 0, 1)
        for s in tables:
            events = tables[s].skeletons
            assert (db7.weights[events[events >= 0]] > 0).all()

    def test_weight6_length8_cell(self, db7):
        # One weight-6 event of length 5 (inputs 11000) plus three zero
        # loops: the cell's 4 placements start the event at times 0..3,
        # and the rotations that wrap past time 7 add 4 more words.
        paths = expand_and_dedup(build_tables(db7, 8, 7), 8)
        words = {word for word, w in state_classes(paths, db7.ordering)[0] if w == 6}
        assert words == {((0b11 << t) | (0b11 >> (8 - t))) & 0xFF for t in range(8)}
        assert {0b11 << t for t in range(4)} <= words

    @settings(max_examples=60, deadline=None)
    @given(_skeleton_cases())
    @example((ConvCode(["13", "17"], 3), 12, 9, [0, 1, 2, 3, 4, 5, 6, 7]))
    @example((ConvCode(["7", "5"], 2), 12, 9, [3, 2, 1, 0]))
    def test_skeletons_match_naive_enumeration(self, case):
        # Every sequence of nonzero events under d_tilde and N, built one
        # event at a time, against the frontier search. The zero-loop state
        # keeps them all; the others keep exactly those of length N, plus
        # prefixes that can still reach N.
        code, N, d_tilde, ordering = case
        db = collect_iees(code, d_tilde, N, ordering)
        tables = build_tables(db, N, d_tilde)
        for place, s in enumerate(tables):
            t, lo = tables[s], int(db.offsets[place])
            want = _naive_skeletons(event_list(db.events(s)), d_tilde, N)
            # Skeleton rows hold database rows; the state's events start at row lo.
            rows = [tuple(i - lo for i in row if i >= 0) for row in t.skeletons.tolist()]
            assert t.skeletons.dtype == np.int32
            assert [[i + lo for i in r] + [-1] * (t.skeletons.shape[1] - len(r)) for r in rows] == t.skeletons.tolist()
            got = list(zip(rows, t.lengths.tolist(), t.weights.tolist()))
            assert got == sorted(got, key=lambda sk: (sk[2], sk[1], sk[0]))
            if place == tables.zero:
                assert got == want, s
            else:
                assert set(got) <= set(want), s
                assert [sk for sk in got if sk[1] == N] == [sk for sk in want if sk[1] == N], s

    def test_working_memory_at_n70(self, code1317):
        # The frontier search at (13,17) N=70 d_tilde=22 holds its positions,
        # places, lengths and weights in the narrowest types that cannot
        # wrap, and writes each block of skeletons into one padded event
        # table before the lexsort: 1.9 times the tables' bytes is measured;
        # 6.2 times when those columns were int64 and every block was
        # padded and concatenated whole. The returned lengths and weights
        # are int64, so a difference taken from them cannot wrap.
        db = collect_iees(code1317, 22, 70)
        tables, growth = traced_growth(build_tables, db, 70, 22)
        assert len(tables.lengths) == 297697
        assert tables.lengths.dtype == tables.weights.dtype == np.int64
        out = sum(a.nbytes for a in (tables.offsets, tables.skeletons, tables.lengths, tables.weights))
        assert growth <= 2.5 * out

    def test_requested_bounds_must_be_covered(self, db7):
        with pytest.raises(CoverageError, match="re-collect"):
            build_tables(db7, 8, 9)
        with pytest.raises(CoverageError, match="re-collect"):
            build_tables(db7, 13, 7)

    def test_degenerate_length_rejected(self, db7):
        with pytest.raises(ValueError, match="degenerate"):
            build_tables(db7, 2, 7)

    def test_zero_bound_rejected(self, db7):
        with pytest.raises(ValueError, match="^d_tilde must be >= 1, got 0$"):
            build_tables(db7, 10, 0)


class TestExpansion:
    def test_every_word_once_at_full_weight(self, code):
        db = collect_iees(code, 2**31, 8)
        paths = expand_and_dedup(build_tables(db, 8, 2**31), 8)
        assert len(paths) == 255
        assert {word for word, _w in path_words(paths)} == set(range(1, 256))

    @pytest.mark.parametrize("N", [4, 7, 9, 12])
    def test_matches_oracle(self, code, db7, N):
        paths = expand_and_dedup(build_tables(db7, N, 7), N)
        ref = {w: c for w, c in brute_force_spectrum(code, N)[0].items() if w < 7}
        assert paths.counts_by_weight() == ref

    def test_mismatched_length_rejected(self, db7):
        tables = build_tables(db7, 8, 7)
        with pytest.raises(ValueError):
            expand_and_dedup(tables, 9)

    def test_partition_classes_disjoint_and_complete(self, code, db7):
        N = 12
        tables = build_tables(db7, N, 7)
        ours = state_classes(expand_and_dedup(tables, N), db7.ordering)
        oracle = brute_force_partition(code, N, 7, db7.ordering)
        assert {s: dict(pairs) for s, pairs in ours.items()} == oracle
        assert sum(map(len, ours.values())) == sum(map(len, oracle.values()))

    def test_paths_reencode_to_stored_weights(self, code, db7):
        paths = expand_and_dedup(build_tables(db7, 8, 7), 8)
        for word, w in path_words(paths):
            assert encode_tb(code, tuple((word >> i) & 1 for i in range(8))).weight == w

    def test_cyclic_closure(self, db7):
        # Each partition class is closed on its own, and so is their union.
        tables = build_tables(db7, 11, 7)
        paths = expand_and_dedup(tables, 11)
        for s, pairs in state_classes(paths, db7.ordering).items():
            assert is_cyclic_closed((word for word, _w in pairs), 11), s
        assert is_cyclic_closed((word for word, _w in path_words(paths)), 11)

    @pytest.mark.parametrize("N", [11, 64, 65])
    def test_open_sets_are_not_closed(self, code, N):
        # Dropping the last rotation of one base leaves a word whose shift is
        # missing; adding one more repeats the base word itself.
        db = collect_iees(code, 9, N)
        paths = expand_and_dedup(build_tables(db, N, 9), N)
        assert is_cyclic_closed(rotations(paths.bases, paths.counts, N), N)
        for b in (0, len(paths.counts) // 2, len(paths.counts) - 1):
            for step in (-1, 1):
                counts = paths.counts.copy()
                counts[b] += step
                assert not is_cyclic_closed(rotations(paths.bases, counts, N), N), (b, step)

    def test_rotation_helper_against_int_rotation(self):
        # One step later in time is ((w << 1) | (w >> (N-1))) & mask, with
        # the carries across limb boundaries and the wrap of bit N-1; the
        # words rotate in place, three steps in a row.
        for N in (1, 11, 63, 64, 65, 128, 129):
            rng = random.Random(N)
            mask = (1 << N) - 1
            words = [1, 1 << (N - 1), mask, 0] + [rng.getrandbits(N) for _ in range(200)]
            limbs = _limb_rows(words, N).T.copy()
            for step in range(1, 4):
                reconstructor._rotate(limbs, N, np.empty(len(words), dtype=np.uint64))
                words = [((w << 1) | (w >> (N - 1))) & mask for w in words]
                assert _row_words(limbs.T) == words, (N, step)

    @pytest.mark.parametrize("N", [5, 64, 65, 128, 129, 192])
    def test_shift_left_against_int_shift(self, N, monkeypatch):
        # Per-row shifts, whole-limb shifts included, where numpy leaves a
        # shift by 64 undefined; the word stays within N bits. The rows
        # shift in place, in blocks of 30 limbs, the last one short.
        rng = random.Random(N)
        words, shifts = [], []
        for shift in list(range(0, N, 64)) + list(range(N)) + [rng.randrange(N) for _ in range(100)]:
            words.append(rng.getrandbits(N - shift) | (1 << (N - shift - 1)))
            shifts.append(shift)
        monkeypatch.setattr(reconstructor, "_BLOCK", 30)
        limbs = _limb_rows(words, N)
        reconstructor._shift_left(limbs, np.array(shifts, dtype=np.int32))
        assert _row_words(limbs) == [w << s for w, s in zip(words, shifts)]

    @pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (0, 3), (4, 2), (3, 4), (7, 3)])
    def test_composition_table(self, total, parts):
        table = reconstructor._composition_table(total, parts)
        assert [tuple(row) for row in table.tolist()] == list(_compositions(total, parts))

    @settings(max_examples=60, deadline=None)
    @given(_expansions())
    @example((ConvCode(["3", "2"], 1), 129, 6, [1, 0]))
    @example((ConvCode(["3", "2"], 1), 129, 9, [0, 1]))
    @example((ConvCode(["13", "17"], 3), 65, 9, [3, 1, 0, 2, 4, 5, 6, 7]))
    @example((ConvCode(["5", "7"], 2), 130, 16, [0, 1, 2, 3]))
    def test_builder_matches_base_words(self, case):
        # The numpy build against the per-composition generator, one state
        # after another: the same bases, rotation counts and weights in the
        # same order, for words of one to three limbs. A state first in the
        # ordering other than 0 has no zero loop but long events through
        # state 0, so it fills lengths past a limb too. At (5,7) N=130
        # d_tilde=16 three-limb words are built from one-limb events, each
        # shifted in a scratch row whose upper limbs the event before it
        # left set.
        code, N, d_tilde, ordering = case
        tables = build_tables(collect_iees(code, d_tilde, N, ordering), N, d_tilde)
        paths = expand_and_dedup(tables, N)
        per_state = list(_base_words(tables).values())
        ref = [c for state in per_state for c in state]
        assert paths.offsets.tolist() == np.cumsum([0] + list(map(len, per_state))).tolist()
        assert _row_words(paths.bases) == [base for base, _c, _w in ref]
        assert paths.counts.tolist() == [c for _b, c, _w in ref]
        assert paths.base_weights.tolist() == [w for _b, _c, w in ref]
        assert paths.bases.shape == (len(ref), (N + 63) // 64) and paths.bases.dtype == np.uint64

    @pytest.mark.parametrize(
        "gens,v,d_tilde,max_len,N",
        [
            (["13", "17"], 3, 14, 65, 63),
            (["13", "17"], 3, 14, 65, 64),
            (["13", "17"], 3, 14, 65, 65),
            (["133", "171"], 6, 12, 130, 128),
            (["133", "171"], 6, 12, 130, 129),
        ],
    )
    def test_matches_iter_state_paths_across_limb_boundaries(self, gens, v, d_tilde, max_len, N):
        db = collect_iees(ConvCode(gens, v), d_tilde, max_len)
        tables = build_tables(db, N, d_tilde)
        paths = expand_and_dedup(tables, N)
        classes = class_paths(tables)
        ref = [pair for s in db.ordering for pair in classes[s]]
        assert len(ref) > 0
        assert path_words(paths) == ref
        assert state_classes(paths, db.ordering) == classes
        assert paths.bases.shape == (len(paths.counts), (N + 63) // 64)
        for s, pairs in classes.items():
            assert is_cyclic_closed((word for word, _w in pairs), N), s

    def test_empty_set(self, code):
        for N in (8, 64, 65):
            db = collect_iees(code, 1, N)
            paths = expand_and_dedup(build_tables(db, N, 1), N)
            assert len(paths) == 0
            assert paths.bases.shape == (0, (N + 63) // 64)
            assert paths.offsets.tolist() == [0] * (len(db.ordering) + 1)
            assert paths.bases.dtype == np.dtype("<u8") and paths.base_weights.shape == (0,)
            assert paths.counts_by_weight() == {}
            assert path_words(paths) == []
            assert is_cyclic_closed(rotations(paths.bases, paths.counts, N), N)

    def test_repeated_skeleton_breaks_uniqueness(self, db7):
        tables = build_tables(db7, 12, 7)
        # Every column gets the last row of state 0, the first place, once more.
        end = int(tables.offsets[1])
        again = np.insert(np.arange(len(tables.lengths)), end, end - 1)
        tables.skeletons, tables.lengths, tables.weights = (
            tables.skeletons[again], tables.lengths[again], tables.weights[again]
        )
        tables.offsets = tables.offsets + (np.arange(len(tables.offsets)) > 0)
        assert len(tables[0].skeletons) == end + 1
        with pytest.raises(RuntimeError, match="bijection invariant broken"):
            expand_and_dedup(tables, 12)

    def test_guard_compares_every_limb(self, paths70):
        # 539,971 of the N=70 rows repeat another row's low 64 bits, so a
        # guard reading the low limb alone would refuse this exact set.
        assert len(paths70) == 1940785
        low = {word & ((1 << 64) - 1) for word in rotations(paths70.bases, paths70.counts, 70)}
        assert len(paths70) - len(low) == 539971

    @pytest.mark.extended
    def test_reconstruction_at_d_tilde_22(self, code):
        # Pinned from the depth-first skeleton builder that the frontier search replaced.
        tables = build_tables(collect_iees(code, 22, 70), 70, 22)
        paths = expand_and_dedup(tables, 70)
        assert sum(len(tables[s].skeletons) for s in tables) == 297697
        assert len(paths.bases) == 1734010
        assert len(paths) == 66882375
        assert paths.counts_by_weight() == {
            6: 70, 7: 210, 8: 350, 9: 770, 10: 1750, 11: 3850, 12: 10605, 13: 31360,
            14: 80395, 15: 194880, 16: 474635, 17: 1141910, 18: 2745015, 19: 6687170,
            20: 16284205, 21: 39225200,
        }


def _limb_rows(words, N):
    """Python-int words as rows of ceil(N/64) little-endian uint64 limbs."""
    width = (N + 63) // 64
    blob = b"".join(w.to_bytes(8 * width, "little") for w in words)
    return np.frombuffer(blob, dtype="<u8").reshape(len(words), width).copy()


def _row_words(rows):
    """The limb rows of a (words, limbs) uint64 array as Python ints."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.ascontiguousarray(rows)]


def _rows_distinct(bases, counts, N):
    words = list(rotations(bases, counts, N))
    return len(set(words)) == len(words)


class TestArcGuard:
    CASES = (
        [(["5", "7"], 2, N) for N in range(4, 17)]
        + [(["13", "17"], 3, N) for N in list(range(4, 17)) + [63, 64, 65]]
        + [(["133", "171"], 6, N) for N in (8, 12, 16, 63, 64, 65, 128, 129)]
    )

    @pytest.fixture(scope="class")
    def dbs(self):
        return {
            tuple(gens): collect_iees(ConvCode(gens, v), 12 if v == 6 else 9, 129)
            for gens, v in ((["5", "7"], 2), (["13", "17"], 3), (["133", "171"], 6))
        }

    @pytest.mark.parametrize("gens,v,N", CASES)
    def test_agrees_with_row_uniqueness(self, dbs, gens, v, N):
        # Every real path set passes; a duplicated base and a rotation count
        # stretched by one must both fail, exactly when the emitted rows repeat.
        db = dbs[tuple(gens)]
        paths = expand_and_dedup(build_tables(db, N, db.d_tilde), N)
        bases, counts = paths.bases, paths.counts
        assert reconstructor._overlapping_arcs(bases, counts, N) == 0
        assert _rows_distinct(bases, counts, N)
        rng = random.Random(N)
        for b in rng.sample(range(len(bases)), min(8, len(bases))):
            doubled = np.concatenate([bases, bases[b : b + 1]])
            doubled_counts = np.concatenate([counts, counts[b : b + 1]])
            stretched = counts.copy()
            stretched[b] += 1
            for bs, cs in ((doubled, doubled_counts), (bases, stretched)):
                assert reconstructor._overlapping_arcs(bs, cs, N) > 0
                assert not _rows_distinct(bs, cs, N)

    def test_periodic_words(self, dbs):
        # (5,7) at N=4..6 has words of period below N, such as all-ones
        # (period 1) and 0101... (period 2); their arcs wrap their short cycle.
        db = dbs[("5", "7")]
        for N in (4, 5, 6):
            paths = expand_and_dedup(build_tables(db, N, db.d_tilde), N)
            _least, _offset, period = reconstructor._necklaces(paths.bases, N)
            assert (period < N).any(), N
            _check_necklaces(_row_words(paths.bases), N)
            assert _rows_distinct(paths.bases, paths.counts, N)
            for b in np.flatnonzero(period < N):
                stretched = paths.counts.copy()
                stretched[b] = period[b] + 1
                assert reconstructor._overlapping_arcs(paths.bases, stretched, N) > 0

    @pytest.mark.parametrize("N", [1, 2, 4, 5, 6, 11, 63, 64, 65, 127, 128, 129, 255, 256, 257])
    def test_necklaces_against_int_rotations(self, N):
        # Random words, words of every period dividing N, and the zero and
        # all-ones words, each against its N rotations as Python ints.
        rng = random.Random(N)
        words = [0, (1 << N) - 1] + [rng.getrandbits(N) for _ in range(100)]
        for p in (p for p in range(1, N) if N % p == 0):
            words += [rng.getrandbits(p) * ((1 << N) - 1) // ((1 << p) - 1) for _ in range(4)]
        _check_necklaces(words, N)

    def test_working_memory_at_n70(self, paths70):
        # Beyond the path set the guard holds the least rotations (one copy
        # of the base words), the lexsort's int64 order (half the words at
        # N=70's two limbs) and, while it puts the sorted rotations back one
        # limb at a time, one limb row: twice the words. The offsets,
        # periods and starts are one byte per base and the rotations run
        # in blocks, so 2.2 times is measured; 5.5 times when those
        # columns were int64 and every base rotated at once.
        overlaps, growth = traced_growth(reconstructor._overlapping_arcs, paths70.bases, paths70.counts, 70)
        assert overlaps == 0
        assert growth <= 2.5 * paths70.bases.nbytes

    @pytest.mark.parametrize("N", [1, 64, 65, 130])
    def test_blocks_change_nothing(self, monkeypatch, N):
        # Blocks of one and of three bases, the last one short, give the
        # necklaces of one block holding every base.
        rng = random.Random(N)
        bases = _limb_rows([rng.getrandbits(N) for _ in range(9)] + [0, (1 << N) - 1], N)
        whole = reconstructor._necklaces(bases, N)
        for limbs in (1, 3):
            monkeypatch.setattr(reconstructor, "_BLOCK", limbs * bases.shape[1])
            for got, expect in zip(reconstructor._necklaces(bases, N), whole):
                assert np.array_equal(got, expect)

    def test_raises_through_expansion(self, db7, monkeypatch):
        # Every rotation count stretched by one between the build and the guard.
        def stretched(tables):
            paths = build_bases(tables)
            paths.counts += 1
            return paths

        build_bases = reconstructor._build_bases
        monkeypatch.setattr(reconstructor, "_build_bases", stretched)
        with pytest.raises(RuntimeError, match="bijection invariant broken"):
            expand_and_dedup(build_tables(db7, 12, 7), 12)


def _check_necklaces(words, N):
    # The one-limb array is already contiguous per limb: rotating it in
    # place would rewrite the caller's bases, so they must come back as given.
    mask = (1 << N) - 1
    bases = _limb_rows(words, N)
    given_bases = bases.copy()
    least, offset, period = reconstructor._necklaces(bases, N)
    assert np.array_equal(bases, given_bases)
    assert least.shape == bases.T.shape
    for i, (word, got) in enumerate(zip(words, _row_words(least.T))):
        rots = [((word << r) | (word >> (N - r))) & mask for r in range(N)]
        lowest = min(rots)
        assert got == lowest, (N, word)
        assert offset[i] == rots.index(lowest), (N, word)
        assert period[i] == min(p for p in range(1, N + 1) if rots[p % N] == word), (N, word)


class TestGrowthProfile:
    def test_single_step_paths(self, db7):
        # Only the all-ones-state self-loop closes in one step.
        assert growth_profile(db7, 7, range(1, 2)) == [(1, 1)]

    @pytest.mark.parametrize("gens,v", [(["5", "7"], 2), (["13", "17"], 3)])
    def test_agrees_with_expansion(self, gens, v):
        code = ConvCode(gens, v)
        db = collect_iees(code, 8, 12)
        profile = dict(growth_profile(db, 8, range(v, 13)))
        for l in range(v, 13):
            paths = expand_and_dedup(build_tables(db, l, 8), l)
            assert profile[l] == len(paths), f"l={l}"

    def test_coverage_errors(self, db7):
        with pytest.raises(CoverageError):
            growth_profile(db7, 9, range(1, 5))
        with pytest.raises(CoverageError):
            growth_profile(db7, 7, range(1, 14))

    def test_empty_range(self, db7):
        assert growth_profile(db7, 7, range(1, 1)) == []

    def test_length_zero_rejected(self, db7):
        with pytest.raises(ValueError, match="^lengths must be >= 1, got 0$"):
            growth_profile(db7, 7, range(0, 3))

    @pytest.mark.parametrize("d_tilde", [0, -3])
    def test_nonpositive_d_tilde_rejected(self, db7, d_tilde):
        with pytest.raises(ValueError, match="d_tilde must be >= 1"):
            growth_profile(db7, d_tilde, range(1, 5))
