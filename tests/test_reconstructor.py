import random

import numpy as np
import pytest

from crcforge import reconstructor
from crcforge.collector import collect_iees
from crcforge.encoder import ConvCode, encode_tb
from crcforge.errors import CoverageError
from crcforge.oracle import brute_force_partition, brute_force_spectrum
from crcforge.reconstructor import (
    WeightLengthTable,
    build_tables,
    expand_and_dedup,
    growth_profile,
    iter_state_paths,
)


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
            assert all(sk.events for sk in tables[s].skeletons)
            assert 0 not in {word for word, _w in iter_state_paths(tables, s)}

    def test_zero_weight_cells_are_pure_padding(self, db7):
        # Only state 0 owns the zero loop, and it appears in no skeleton:
        # zero-weight steps enter a word only as gap padding.
        tables = build_tables(db7, 8, 7)
        assert [tables[s].zero_index is not None for s in tables] == [True] + [False] * 7
        zero = tables[0].iees[tables[0].zero_index]
        assert (zero.weight, zero.length) == (0, 1)
        for s in tables:
            for sk in tables[s].skeletons:
                assert all(tables[s].iees[i].weight > 0 for i in sk.events)

    def test_weight6_length8_cell(self, db7):
        # One weight-6 event of length 5 (inputs 11000) plus three zero
        # loops: the cell's 4 placements start the event at times 0..3,
        # and the rotations that wrap past time 7 add 4 more words.
        tables = build_tables(db7, 8, 7)
        words = {word for word, w in iter_state_paths(tables, 0) if w == 6}
        assert words == {((0b11 << t) | (0b11 >> (8 - t))) & 0xFF for t in range(8)}
        assert {0b11 << t for t in range(4)} <= words

    def test_requested_bounds_must_be_covered(self, db7):
        with pytest.raises(CoverageError, match="re-collect"):
            build_tables(db7, 8, 9)
        with pytest.raises(CoverageError, match="re-collect"):
            build_tables(db7, 13, 7)

    def test_degenerate_length_rejected(self, db7):
        with pytest.raises(ValueError, match="degenerate"):
            build_tables(db7, 2, 7)


class TestExpansion:
    def test_every_word_once_at_full_weight(self, code):
        db = collect_iees(code, 2**31, 8)
        paths = expand_and_dedup(build_tables(db, 8, 2**31), 8)
        assert len(paths) == 255
        assert set(paths.iter_inputs()) == set(range(1, 256))

    @pytest.mark.parametrize("N", [4, 7, 9, 12])
    def test_matches_oracle(self, code, db7, N):
        paths = expand_and_dedup(build_tables(db7, N, 7), N)
        ref = {w: c for w, c in brute_force_spectrum(code, N).items() if w < 7}
        assert paths.counts_by_weight() == ref

    def test_mismatched_length_rejected(self, db7):
        tables = build_tables(db7, 8, 7)
        with pytest.raises(ValueError):
            expand_and_dedup(tables, 9)

    def test_partition_classes_disjoint_and_complete(self, code, db7):
        N = 12
        tables = build_tables(db7, N, 7)
        ours = {s: [word for word, _w in iter_state_paths(tables, s)] for s in tables}
        oracle = brute_force_partition(code, N, 7, tables.ordering)
        assert {s: set(words) for s, words in ours.items()} == oracle
        assert sum(map(len, ours.values())) == sum(map(len, oracle.values()))

    def test_paths_reencode_to_stored_weights(self, code, db7):
        paths = expand_and_dedup(build_tables(db7, 8, 7), 8)
        for word, w in zip(paths.iter_inputs(), paths.weights):
            assert encode_tb(code, tuple((word >> i) & 1 for i in range(8))).weight == w

    def test_cyclic_closure(self, db7):
        paths = expand_and_dedup(build_tables(db7, 11, 7), 11)
        assert paths.is_cyclic_closed()

    def test_rotation_helper_against_int_rotation(self):
        # One step later in time is ((w << 1) | (w >> (N-1))) & mask, with
        # the carries across limb boundaries and the wrap of bit N-1.
        for N in (11, 64, 65):
            rng = random.Random(N)
            mask = (1 << N) - 1
            words = [1, 1 << (N - 1), mask, 0] + [rng.getrandbits(N) for _ in range(200)]
            packed = np.array([list(w.to_bytes((N + 7) // 8, "little")) for w in words], np.uint8)
            rotated = reconstructor._rotate_limbs(reconstructor._packed_limbs(packed), N)
            for word, row in zip(words, rotated):
                expect = ((word << 1) | (word >> (N - 1))) & mask
                assert int.from_bytes(row.tobytes(), "little") == expect, (N, word)

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
        ref = [pair for s in tables.ordering for pair in iter_state_paths(tables, s)]
        assert len(ref) > 0
        assert list(zip(paths.iter_inputs(), paths.weights.tolist())) == ref
        assert paths.packed.shape == (len(ref), (N + 7) // 8)
        assert paths.is_cyclic_closed()

    def test_empty_set(self, code):
        for N in (8, 64, 65):
            db = collect_iees(code, 1, N)
            paths = expand_and_dedup(build_tables(db, N, 1), N)
            assert len(paths) == 0
            assert paths.packed.shape == (0, (N + 7) // 8)
            assert paths.packed.dtype == np.uint8 and paths.weights.shape == (0,)
            assert paths.counts_by_weight() == {}
            assert paths.is_cyclic_closed()

    def test_repeated_skeleton_breaks_uniqueness(self, db7):
        tables = build_tables(db7, 12, 7)
        t = tables[0]
        tables.per_state[0] = WeightLengthTable(
            t.state, t.iees, t.N, t.d_tilde, t.zero_index, t.skeletons + t.skeletons[-1:]
        )
        with pytest.raises(RuntimeError, match="bijection invariant broken"):
            expand_and_dedup(tables, 12)

    def test_guard_compares_every_limb(self, paths70):
        # 539,971 of the N=70 rows repeat another row's low 64 bits, so a
        # guard reading the low limb alone would refuse this exact set.
        assert len(paths70) == 1940785
        low = reconstructor._packed_limbs(paths70.packed)[:, 0]
        assert len(paths70) - np.unique(low).size == 539971


class TestGrowthProfile:
    def test_single_step_paths(self, db7):
        # Only the all-ones-state self-loop closes in one step.
        assert growth_profile(db7, 7, [1]) == [(1, 1)]

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
        assert growth_profile(db7, 7, []) == []
