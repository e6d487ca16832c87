import functools
import hashlib
import math
import random

import numpy as np
import pytest
from conftest import rotations, traced_growth
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcforge import designer
from crcforge.bound import (
    DistanceSpectrum,
    bound_sweep,
    db_to_linear,
    q_function,
    truncated_union_bound,
    write_bound_csv,
)
from crcforge.collector import collect_iees
from crcforge.designer import (
    EliminationRound,
    _residue_tables,
    _residues,
    _rotation_residues,
    candidate_list,
    search_dso,
    undetected_spectrum,
)
from crcforge.encoder import ConvCode
from crcforge.errors import InvalidCrcError
from crcforge.gf2 import _divmod, _mul, parse_hex_crc
from crcforge.oracle import brute_force_spectrum
from crcforge.reconstructor import TBPathSet, build_tables, expand_and_dedup

GOLDEN_63 = {12: 735, 14: 2310, 16: 13965}


@pytest.fixture(scope="module")
def code():
    return ConvCode(["13", "17"], 3)


@pytest.fixture(scope="module")
def db12(code):
    return collect_iees(code, 9, 12)


@pytest.fixture(scope="module")
def paths12(db12):
    return expand_and_dedup(build_tables(db12, 12, 9), 12)


@pytest.fixture(scope="module")
def paths16(code):
    return expand_and_dedup(build_tables(collect_iees(code, 12, 16), 16, 12), 16)


class TestCandidates:
    def test_degree_six_count_and_ends(self):
        cands = candidate_list(6)
        assert len(cands) == 32
        assert cands[0] == 0x41
        assert cands[-1] == 0x7F
        assert all(c.bit_length() - 1 == 6 and c & 1 for c in cands)

    def test_degree_three(self):
        assert candidate_list(3) == [0x9, 0xB, 0xD, 0xF]

    def test_degree_one(self):
        assert candidate_list(1) == [0x3]

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidCrcError):
            candidate_list(0)

    def test_degree_above_residue_width_rejected(self):
        # Refused up front: building 2^(m-1) candidates first would not end.
        with pytest.raises(InvalidCrcError, match="31"):
            candidate_list(32)


class TestUndetectedSpectrum:
    @pytest.mark.parametrize("crc_bits", [0x9, 0xB, 0xD, 0xF, 0x13])
    def test_matches_oracle(self, code, paths12, crc_bits):
        spec = undetected_spectrum(paths12, crc_bits)
        ref = {w: c for w, c in brute_force_spectrum(code, 12, [crc_bits])[1][0].items() if w < 9}
        assert spec.nonzero() == ref

    def test_rejects_non_crc(self, paths12):
        with pytest.raises(InvalidCrcError):
            undetected_spectrum(paths12, 0b10)  # no constant term

    def test_rejects_degree_above_31(self, paths12):
        with pytest.raises(InvalidCrcError, match="^CRC degree 32 exceeds the 31-bit residue tables$"):
            undetected_spectrum(paths12, (1 << 32) | 1)

    @pytest.mark.parametrize("crc", [0x3, 0x107, 0x11021, 0xB4C11DB7])
    def test_divisible_rows_match_polynomial_division(self, crc):
        # Degrees 1, 8, 16 and 31; 31 is the widest residue a uint32 holds.
        degree = crc.bit_length() - 1
        tables = _residue_tables([crc], degree, 9).tables
        for k in range(2 * 9):
            expect = [_divmod(b << (4 * k), crc)[1] for b in range(16)]
            assert tables[k, :, 0].tolist() == expect, k
        rng = random.Random(crc)
        words = [_mul(rng.getrandbits(70 - degree), crc) for _ in range(40)]
        words += [rng.getrandbits(70) for _ in range(40)]
        packed = np.array([list(w.to_bytes(9, "little")) for w in words], dtype=np.uint8)
        mask = _residues(packed, tables)[:, 0] == 0
        assert mask.tolist() == [_divmod(w, crc)[1] == 0 for w in words]
        assert mask[:40].all()

    def test_working_memory_at_n70(self, paths70):
        # Beyond the path set the spectrum holds the base words sorted by
        # rotation count, and while it sorts them the int64 order (half the
        # words at N=70's two limbs); then one residue per base, a uint8 for
        # 0x63's degree 6, and its temporaries. The counts, shifts and
        # weights are one byte per base and the bit lengths and shifts run
        # in blocks, so 1.8 times the words is measured; 2.0 times with
        # uint32 residues, and 5.5 times when those columns were int64 or
        # float64 over every base at once.
        spectrum, growth = traced_growth(undetected_spectrum, paths70, 0x63)
        assert spectrum.nonzero() == GOLDEN_63
        assert growth <= 2.5 * paths70.bases.nbytes

    def test_parity_factor_kills_odd_distances(self, code):
        # Generators of odd+even tap weight preserve input parity, so any
        # CRC divisible by x+1 sees only even-weight paths.
        db = collect_iees(code, 10, 14)
        paths = expand_and_dedup(build_tables(db, 14, 10), 14)
        for crc_bits in (0x3, 0x9, 0xF, 0x63):
            if _divmod(crc_bits, 0b11)[1]:
                continue
            spec = undetected_spectrum(paths, crc_bits)
            assert all(d % 2 == 0 for d in spec.nonzero()), hex(crc_bits)


class TestRotationResidues:
    # Degrees 1, 8, 16 and 31, one table each.
    CRCS = [0x3, 0x107, 0x11021, 0xB4C11DB7]

    @pytest.mark.parametrize("N", [11, 64, 65, 70, 129])
    def test_every_rotation_matches_division(self, N):
        rng = random.Random(N)
        mask = (1 << N) - 1
        words = [0, 1, 1 << (N - 1), mask] + [rng.getrandbits(N) for _ in range(20)]
        # The special words rotate all the way round; the rest stop early, so
        # the live prefix shrinks step by step.
        counts = [N] * 4 + sorted((rng.randint(1, N) for _ in range(20)), reverse=True)
        width = (N + 7) // 8
        data = np.array([list(w.to_bytes(width, "little")) for w in words], dtype=np.uint8)
        for crc in self.CRCS:
            steps = _rotation_residues(
                data, np.array(counts), N, _residue_tables([crc], crc.bit_length() - 1, width)
            )
            for r, res in enumerate(steps):
                live = sum(c > r for c in counts)
                assert res.shape == (live, 1)
                for b, word in enumerate(words[:live]):
                    rotated = ((word << r) | (word >> (N - r))) & mask
                    assert res[b].tolist() == [_divmod(rotated, crc)[1]], (N, crc, r, b)
            assert r == N - 1

    @pytest.mark.parametrize("N", [4, 63, 64, 65, 70, 129])
    def test_every_degree_in_its_lane(self, N):
        # Every degree 1..31, both sides of 8 and 16 among them, in the
        # narrowest lane that holds its residues. Per degree: the CRC with
        # every tap set, whose top tap the lane drops at degrees 8 and 16,
        # and a random one.
        rng = random.Random(N)
        mask = (1 << N) - 1
        words = [1, 1 << (N - 1), mask] + [rng.getrandbits(N) for _ in range(4)]
        counts = [N] * 3 + sorted((rng.randint(1, N) for _ in range(4)), reverse=True)
        width = (N + 7) // 8
        data = np.array([list(w.to_bytes(width, "little")) for w in words], dtype=np.uint8)
        for degree in range(1, 32):
            lane = np.uint8 if degree <= 8 else np.uint16 if degree <= 16 else np.uint32
            crcs = [(2 << degree) - 1, (1 << degree) | rng.getrandbits(degree) | 1]
            tables = _residue_tables(crcs, degree, width)
            assert tables.polys.dtype == tables.tables.dtype == lane, degree
            for r, res in enumerate(_rotation_residues(data, np.array(counts), N, tables)):
                assert res.dtype == lane
                for b, word in enumerate(words[: len(res)]):
                    rotated = ((word << r) | (word >> (N - r))) & mask
                    assert res[b].tolist() == [_divmod(rotated, crc)[1] for crc in crcs], (degree, r, b)
            assert r == N - 1


@functools.lru_cache(maxsize=None)
def _byte_table(crc_bits, k):
    """(b(x) * x^(8k)) mod crc for every byte b, from polynomial long division."""
    powers = [_divmod(1 << (8 * k + j), crc_bits)[1] for j in range(8)]
    table = [0] * 256
    for b in range(1, 256):
        low = b & -b
        table[b] = table[b ^ low] ^ powers[low.bit_length() - 1]
    return np.array(table, dtype=np.int64)


def _rows(paths):
    """Every path as a little-endian byte row, with its weight; the words are
    the bases rotated as Python ints."""
    width = (paths.N + 7) // 8
    blob = b"".join(w.to_bytes(width, "little") for w in rotations(paths.bases, paths.counts, paths.N))
    rows = np.frombuffer(blob, dtype=np.uint8).reshape(len(paths), width)
    return rows, np.repeat(paths.base_weights, paths.counts)


def _row_spectrum(paths, rows, weights, crc):
    """Reference spectrum from the materialised rows: each row's residue as a
    bytewise fold over its bytes, then a histogram of the zero rows' weights."""
    residues = np.zeros(len(rows), dtype=np.int64)
    for k in range(rows.shape[1]):
        residues ^= _byte_table(crc, k)[rows[:, k]]
    hist = np.bincount(weights[residues == 0], minlength=paths.d_tilde)
    return DistanceSpectrum(crc, paths.N, paths.d_tilde, tuple(int(c) for c in hist))


@functools.lru_cache(maxsize=None)
def _exhaustive_spectra(paths, m):
    """Every degree-m candidate's spectrum from the materialised rows, kept per
    path set so that repeated checks of one instance fold its rows once."""
    rows, weights = _rows(paths)
    return {hex(c): _row_spectrum(paths, rows, weights, c) for c in candidate_list(m)}


def _path_set(N, d_tilde, bases):
    """A TBPathSet of (word, count, weight) bases; nothing checks that they are codewords."""
    limbs = (N + 63) // 64
    words = np.array([[(w >> (64 * j)) & (2**64 - 1) for j in range(limbs)] for w, _, _ in bases], dtype=np.uint64)
    counts = np.array([c for _, c, _ in bases], dtype=np.int64)
    weights = np.array([wt for _, _, wt in bases], dtype=np.uint32)
    return TBPathSet(N, d_tilde, np.array([0, len(bases)]), words, counts, weights)


@st.composite
def _random_path_sets(draw):
    """Path sets of random words, each with a run of t zero bits at the top
    and a count that is often at most t + 1, so that every rotation is unwrapped."""
    N = draw(st.sampled_from([63, 64, 65, 128, 129]) | st.integers(4, 140))
    d_tilde = draw(st.integers(2, 5))
    bases = []
    for _ in range(draw(st.integers(1, 8))):
        top = draw(st.integers(0, N - 1))
        word = draw(st.integers(0, (1 << (N - 1 - top)) - 1)) | (1 << (N - 1 - top))
        count = draw(st.integers(1, top + 1) | st.integers(1, N))
        bases.append((word, count, draw(st.integers(1, d_tilde - 1))))
    return _path_set(N, d_tilde, bases)


class TestShiftFirst:
    """The shift-first screen against every rotation divided on its own."""

    @settings(max_examples=150, deadline=None)
    @given(_random_path_sets(), st.integers(1, 6))
    # Shifts of 64 bits and more: all rotations unwrapped (shift 128, one
    # left), and a shift of 70 with 30 rotations left to step.
    @example(_path_set(129, 3, [(1, 129, 1), (0b1011 << 55, 100, 2), (1 << 128, 129, 2)]), 4)
    @example(_path_set(140, 2, [(1 << 70, 140, 1), (0b11, 70, 1)]), 5)
    # Both sides of a count type's limit: shifts of 254 and 255 past 128,
    # and counts of N whether all of them fold into rotation 0 or none do.
    @example(_path_set(255, 3, [(1, 255, 1), (1 << 100, 255, 2), (1 << 254, 255, 2)]), 3)
    @example(_path_set(256, 3, [(1, 256, 2), (0b1011 << 60, 200, 1), (1 << 255, 256, 1)]), 4)
    def test_counts_and_spectrum_match_every_rotation(self, paths, m):
        rows, weights = _rows(paths)
        bases = designer._by_rotation_count(paths)
        assert (bases.counts >= 1).all() and bases.first.sum() + (bases.counts - 1).sum() == len(paths)
        crcs = candidate_list(m) + [0x11021, 0xB4C11DB7]
        spectra = [_row_spectrum(paths, rows, weights, crc) for crc in crcs]
        cands = _residue_tables(candidate_list(m), m, (paths.N + 7) // 8)
        for d in range(1, paths.d_tilde):
            got = designer._undetected_counts(bases.select(bases.weights == d), paths.N, cands)
            assert got.tolist() == [s.counts[d] for s in spectra[: len(got)]], d
        for crc, expect in zip(crcs, spectra):
            tables = _residue_tables([crc], crc.bit_length() - 1, (paths.N + 7) // 8)
            assert designer._spectrum(paths, bases, crc, tables) == expect, hex(crc)


def _check_against_exhaustive(paths, m):
    """search_dso must match a lexicographic screen of every full spectrum.

    The reference folds every candidate over every materialised row
    (_row_spectrum); after round d the survivors are the candidates whose
    (A_1..A_d) is the lexicographic minimum over all of them.
    """
    result = search_dso(paths, m)
    spectra = _exhaustive_spectra(paths, m)
    alive = tuple(spectra)
    rounds = []
    for d in range(1, paths.d_tilde):
        if len(alive) == 1:
            break
        best = min(s.counts[1 : d + 1] for s in spectra.values())
        alive = tuple(h for h, s in spectra.items() if s.counts[1 : d + 1] == best)
        rounds.append(EliminationRound(d, best[-1], alive))
    assert result.rounds == tuple(rounds)
    assert tuple(c.to_hex() for c in result.survivors) == alive
    if len(alive) == 1:
        assert result.winner.to_hex() == alive[0]
        assert result.spectrum == spectra[alive[0]]
    else:
        # A tie had a round at every d, so the rounds are the tied spectrum.
        assert result.winner is None and result.spectrum is None
        assert all(spectra[h].counts == (0, *(r.c_star for r in result.rounds)) for h in alive)
    return result


def _loose_first_bounds(paths, m, result, cells):
    """The rounds of result that span more than one block of cells // survivors
    rows and whose first bound on C* is loose: the CRC with the fewest zeros
    in the first block (the first such) counts above C* over the round."""
    bases = designer._by_rotation_count(paths)
    spectra = _exhaustive_spectra(paths, m)
    alive, loose = tuple(spectra), []
    for row in result.rounds:
        rows = bases.select(bases.weights == row.d)
        step = max(1, cells // len(alive))
        if step < len(rows.counts):
            tables = _residue_tables([int(h, 16) for h in alive], m, (paths.N + 7) // 8)
            first = designer._undetected_counts(rows.select(slice(0, step)), paths.N, tables)
            if spectra[alive[int(np.argmin(first))]].counts[row.d] > row.c_star:
                loose.append((m, row.d))
        alive = row.survivors_hex
    return loose


class TestSearch:
    def test_winner_is_lexicographic_argmin(self):
        # Every (N, d_tilde) of the oracle-equivalence criterion, m = 3 and 4.
        for gens, v in ((["5", "7"], 2), (["13", "17"], 3)):
            db = collect_iees(ConvCode(gens, v), 10, 14)
            for N in range(4, 15):
                for d_tilde in range(3, 11):
                    paths = expand_and_dedup(build_tables(db, N, d_tilde), N)
                    for m in (3, 4):
                        _check_against_exhaustive(paths, m)

    def test_early_exit_equals_exhaustive_screen_at_n70(self, paths70):
        result = _check_against_exhaustive(paths70, 6)
        assert result.winner == 0x63
        assert result.spectrum.nonzero() == GOLDEN_63

    @pytest.mark.parametrize("m,d_tilde", [(4, 7), (5, 9)])
    def test_partial_tie_keeps_tied_set_and_their_spectra(self, db12, m, d_tilde):
        # Some candidates drop out, but more than one is left at d_tilde.
        paths = expand_and_dedup(build_tables(db12, 12, d_tilde), 12)
        result = _check_against_exhaustive(paths, m)
        assert result.winner is None
        assert 1 < len(result.survivors) < len(candidate_list(m))
        assert [r.d for r in result.rounds] == list(range(1, d_tilde))

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_small_base_blocks_change_nothing(self, paths12, paths16, paths70, monkeypatch, cells):
        # One-row blocks, and ragged last blocks once few candidates are left;
        # the shift-first fold's bit lengths and shifts in blocks of 1,000
        # bases, the last of paths70's blocks short. A round that spans
        # blocks is pruned, and in some of them, at every cells, the CRC
        # counted first to bound C* counts above it. At N=16 some CRCs
        # counted in full later already have zeros in the rows before, so
        # a bound that left those out would drop the least.
        cases = [(paths, m) for paths in (paths12, paths16) for m in range(3, 9)] + [(paths70, 6)]
        defaults = [search_dso(paths, m) for paths, m in cases]
        monkeypatch.setattr(designer, "_CELLS", cells)
        monkeypatch.setattr(designer, "_BLOCK", 1000)
        loose = []
        for (paths, m), default in zip(cases, defaults):
            result = _check_against_exhaustive(paths, m)
            assert (result.rounds, result.survivors, result.spectrum) == (
                default.rounds, default.survivors, default.spectrum
            ), m
            loose += _loose_first_bounds(paths, m, result, cells)
        assert loose

    def test_pruned_rounds_skip_dropped_candidates(self, paths16, monkeypatch):
        # In blocks of 64 residues every round of the degree-8 screen at N=16
        # spans blocks, and a candidate dropped mid-round is not counted over
        # the rest: 8,866 residues are taken, leads included, where the
        # rounds' rows times the candidates entering them are 13,356. The
        # bound is 70% of those.
        bases = designer._by_rotation_count(paths16)
        taken, count = [], designer._undetected_counts

        def counting(rows, N, crcs):
            taken.append(len(rows.counts) * len(crcs.polys))
            return count(rows, N, crcs)

        monkeypatch.setattr(designer, "_CELLS", 64)
        monkeypatch.setattr(designer, "_undetected_counts", counting)
        result = search_dso(paths16, 8)
        entering = [len(candidate_list(8))] + [len(r.survivors_hex) for r in result.rounds[:-1]]
        full = sum(n * np.count_nonzero(bases.weights == r.d) for n, r in zip(entering, result.rounds))
        assert full == 13356
        assert sum(taken) <= 0.7 * full

    def test_rounds_shrink_monotonically(self, paths12):
        result = search_dso(paths12, 4)
        sizes = [len(r.survivors_hex) for r in result.rounds]
        assert sizes == sorted(sizes, reverse=True)
        assert all(size >= 1 for size in sizes)

    def test_single_candidate_returns_immediately(self, paths12):
        result = search_dso(paths12, 1)
        assert result.winner == 0x3
        assert result.rounds == ()

    def test_tie_reported_not_broken(self, code):
        # Nothing weighs less than 2, so every candidate stays at zero.
        db = collect_iees(code, 2, 10)
        empty = expand_and_dedup(build_tables(db, 10, 2), 10)
        result = search_dso(empty, 6)
        assert result.winner is None
        assert result.spectrum is None
        assert len(result.survivors) == 32

    def test_bound_past_every_weight_screens_as_n_times_N(self, code):
        # No word of 8 steps weighs more than n*N = 16, so a bound of 2^31
        # screens as 17 does: 17 counts per spectrum, holding the 2^5 - 1
        # words a degree-3 CRC divides, and a tie ends after round 16
        # instead of screening up to 2^31 rounds.
        db = collect_iees(code, 2**31, 8)
        paths = expand_and_dedup(build_tables(db, 8, 2**31), 8)
        assert paths.d_tilde == 17 and len(paths) == 255
        spectrum = undetected_spectrum(paths, 0xB)
        assert len(spectrum.counts) == 17 and sum(spectrum.counts) == 2**5 - 1
        result = search_dso(paths, 3)
        assert len(result.spectrum.counts) == 17 and sum(result.spectrum.counts) == 2**5 - 1
        tied = search_dso(paths, 7)
        assert tied.winner is None
        assert [row.d for row in tied.rounds] == list(range(1, 17))

    def test_winner_and_survivors_write_their_hex(self, db12, paths70):
        # bench/traced.py and the README example read result.winner.to_hex().
        tied = search_dso(expand_and_dedup(build_tables(db12, 12, 7), 12), 4)
        unique = search_dso(paths70, 6)
        assert tied.winner is None and len(tied.survivors) > 1
        assert unique.winner.to_hex() == hex(int(unique.winner)) == "0x63"
        for result in (tied, unique):
            assert [c.to_hex() for c in result.survivors] == [hex(int(c)) for c in result.survivors]
        assert tuple(c.to_hex() for c in tied.survivors) == tied.rounds[-1].survivors_hex

    def test_threads_do_not_change_result(self, paths12):
        a = search_dso(paths12, 4, threads=1)
        b = search_dso(paths12, 4, threads=3)
        assert a.winner == b.winner
        assert a.rounds == b.rounds


def _round_pins(result):
    """(d, C*, survivor count) per round, and a sha256 over every round's survivor list."""
    text = "\n".join(";".join(r.survivors_hex) for r in result.rounds)
    return [(r.d, r.c_star, len(r.survivors_hex)) for r in result.rounds], hashlib.sha256(text.encode()).hexdigest()


class TestHighDegreePins:
    """Degree-12, 14 and 16 searches at (13,17) N=70 d_tilde=18, pinned from the
    code before any change to the screen, so a faster screen must give the same rounds."""

    def test_degree_12_winner_and_rounds(self, paths70):
        result = search_dso(paths70, 12)
        sizes, digest = _round_pins(result)
        counts = [2048] * 5 + [2046, 2045, 2033, 2024, 1949, 1894, 1264, 902, 48, 12, 1]
        assert sizes == [(d, 118 if d == 16 else 0, n) for d, n in enumerate(counts, 1)]
        assert digest == "2678cd880d2b8f968124a581217398aba507fe1164d5718d7d0a824bbd8b01ba"
        assert result.rounds[-2].survivors_hex == (
            "0x1385", "0x1433", "0x144d", "0x1589", "0x15cd", "0x17bb",
            "0x1871", "0x18cf", "0x192f", "0x1bf9", "0x1ea3", "0x1eed",
        )
        assert result.winner == 0x1EED
        assert result.spectrum.nonzero() == {16: 118}

    def test_degree_14_tie_and_rounds(self, paths70):
        # Under 1 s on a 2-core machine.
        result = search_dso(paths70, 14)
        sizes, digest = _round_pins(result)
        counts = [8192] * 5 + [8190, 8190, 8183, 8175, 8098, 8042, 7267, 6736, 3494, 1879, 23, 2]
        assert sizes == [(d, 0, n) for d, n in enumerate(counts, 1)]
        assert digest == "99fa3c494d7b8b2f1e5990a02d9ed2a9179c0ccf1087b6ec21d6287edc9261e3"
        assert result.winner is None
        assert [c.to_hex() for c in result.survivors] == ["0x52cd", "0x66f9"]
        assert result.spectrum is None

    @pytest.mark.extended
    def test_degree_16_tie_and_rounds(self, paths70):
        # About 8 s and 97 MiB on a 2-core machine.
        result = search_dso(paths70, 16)
        sizes, digest = _round_pins(result)
        counts = [32768] * 7 + [32762, 32761, 32680, 32612, 31662, 31098, 26323, 22546, 6678, 2764]
        assert sizes == [(d, 0, n) for d, n in enumerate(counts, 1)]
        assert digest == "e06dd4e9b7935781ac002241f216c12907dfbd74b5cc2ce94b71c4a48ee56204"
        assert result.winner is None
        assert result.spectrum is None
        # The digest covers the last round's 2,764 survivors.
        assert tuple(c.to_hex() for c in result.survivors) == result.rounds[-1].survivors_hex


Q_REFERENCE = {
    0.5: 0.3085375387259869,
    1.0: 0.1586552539314571,
    1.5: 0.06680720126885807,
    2.0: 0.02275013194817921,
    2.5: 0.006209665325776132,
    3.0: 0.001349898031630095,
    4.0: 3.167124183311998e-05,
    5.0: 2.866515718791939e-07,
    6.0: 9.865876450376946e-10,
    7.0: 1.279812543885835e-12,
    8.0: 6.22096057427178e-16,
}


class TestBounds:
    def test_q_function_reference_values(self):
        for x, ref in Q_REFERENCE.items():
            assert math.isclose(q_function(x), ref, rel_tol=1e-6), x

    def test_single_term_bound(self):
        spec = DistanceSpectrum(0x63, 70, 18, tuple(
            735 if d == 12 else 0 for d in range(18)
        ))
        snr = db_to_linear(6.5)
        expect = 735 * q_function(math.sqrt(12 * snr))
        assert math.isclose(truncated_union_bound(spec, snr), expect, rel_tol=1e-12)

    def test_nonpositive_snr_rejected(self):
        spec = DistanceSpectrum(0x63, 70, 18, (0,) * 18)
        with pytest.raises(ValueError):
            truncated_union_bound(spec, 0.0)

    def test_sweep_shape_and_monotonicity(self, paths12):
        specs = [undetected_spectrum(paths12, b) for b in (0x9, 0xB)]
        grid = [3 + 0.25 * i for i in range(17)]
        rows = bound_sweep(specs, grid)
        assert len(rows) == 17
        for (s1, v1), (s2, v2) in zip(rows, rows[1:]):
            assert s2 > s1
            assert all(b <= a for a, b in zip(v1, v2))  # bounds fall with SNR

    def test_sweep_grid_validation(self, paths12):
        spec = undetected_spectrum(paths12, 0x9)
        with pytest.raises(ValueError):
            bound_sweep([spec], [])
        with pytest.raises(ValueError):
            bound_sweep([spec], [3.0, 3.0])
        with pytest.raises(ValueError):
            bound_sweep([], [3.0])


class TestCsv:
    def test_roundtrip_canonical_name(self, paths12, tmp_path):
        spec = undetected_spectrum(paths12, 0x9)
        out = tmp_path / spec.csv_filename()
        spec.to_csv(out)
        again = DistanceSpectrum.from_csv(out)
        assert again == spec

    def test_filename_embeds_parameters(self, paths12):
        spec = undetected_spectrum(paths12, 0x9)
        assert spec.csv_filename() == "spectrum_0x9_N12_dt9.csv"

    def test_renamed_file_rejected(self, paths12, tmp_path):
        # A renamed file has lost N and d_tilde; it is refused, not guessed.
        spec = undetected_spectrum(paths12, 0x9)
        for name in ("spec_0x9.csv", "spectrum_0x9.csv", "spectrum_0x9_N12_dt9.txt"):
            spec.to_csv(tmp_path / name)
            with pytest.raises(ValueError, match="spectrum_0x<crc>_N<n>_dt<d>"):
                DistanceSpectrum.from_csv(tmp_path / name)

    @pytest.mark.parametrize("rows,message", [
        pytest.param("12,-735\n14,2310\n", "negative count A_12=-735", id="negative"),
        pytest.param("12,735\n14,2310\n12,735\n", "distance 12 appears twice", id="repeated"),
        pytest.param("0,1\n", r"row distance 0 outside \[1, 18\)", id="distance-0"),
        pytest.param("12,735\n18,1\n", r"row distance 18 outside \[1, 18\)", id="distance-d-tilde"),
    ])
    def test_bad_rows_rejected(self, tmp_path, rows, message):
        # A negative count would give negative bounds; a repeated row would
        # silently override the first.
        out = tmp_path / "spectrum_0x63_N70_dt18.csv"
        out.write_text("d,A_d\n" + rows)
        with pytest.raises(ValueError, match=message):
            DistanceSpectrum.from_csv(out)

    @pytest.mark.parametrize("rows,line", [
        pytest.param("1,2,3\n", "line 2 '1,2,3'", id="three-fields"),
        pytest.param("1,0\nx,1\n", "line 3 'x,1'", id="not-an-int"),
        pytest.param("1,0\n2\n", "line 3 '2'", id="one-field"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, rows, line):
        out = tmp_path / "spectrum_0x63_N70_dt3.csv"
        out.write_text("d,A_d\n" + rows)
        with pytest.raises(ValueError, match=f"^spectrum_0x63_N70_dt3.csv: {line} is not two integers d,A_d$"):
            DistanceSpectrum.from_csv(out)

    def test_bad_header_rejected(self, tmp_path):
        out = tmp_path / "spectrum_0x63_N70_dt3.csv"
        out.write_text("d,count\n1,0\n2,5\n")
        with pytest.raises(ValueError, match="^spectrum_0x63_N70_dt3.csv: bad header 'd,count'$"):
            DistanceSpectrum.from_csv(out)

    def test_blank_lines_are_skipped(self, tmp_path):
        out = tmp_path / "spectrum_0x63_N70_dt3.csv"
        out.write_text("d,A_d\n1,0\n\n2,5\n\n")
        assert DistanceSpectrum.from_csv(out) == DistanceSpectrum(0x63, 70, 3, (0, 0, 5))

    @pytest.mark.parametrize("name,rows", [
        pytest.param("spectrum_0x63_N70_dt0.csv", "", id="dt0"),
        pytest.param("spectrum_0x63_N70_dt1.csv", "", id="dt1"),
        pytest.param("spectrum_0x63_N0_dt2.csv", "1,0\n", id="N0"),
    ])
    def test_degenerate_name_rejected(self, tmp_path, name, rows):
        # No spectrum has d_tilde below 2 or N below 1; such a name would load
        # as an all-zero spectrum and bound would write a zero column for it.
        out = tmp_path / name
        out.write_text("d,A_d\n" + rows)
        with pytest.raises(ValueError, match="needs N >= 1 and d_tilde >= 2"):
            DistanceSpectrum.from_csv(out)

    @pytest.mark.parametrize("name,rows,message", [
        # The counts are dense over d, so a huge d_tilde would be a huge list.
        pytest.param("spectrum_0x63_N70_dt100000000000.csv", "1,0\n", "d in 1..99999999999, has 1", id="huge-dt"),
        pytest.param(
            "spectrum_0x63_N70_dt18.csv", "".join(f"{d},0\n" for d in range(1, 17)), "d in 1..17, has 16",
            id="row-missing",
        ),
    ])
    def test_incomplete_rows_rejected(self, tmp_path, name, rows, message):
        # to_csv writes a row for each d in 1..d_tilde-1, and only that is read back.
        out = tmp_path / name
        out.write_text("d,A_d\n" + rows)
        with pytest.raises(ValueError, match=f"needs one row for each {message}"):
            DistanceSpectrum.from_csv(out)

    @pytest.mark.parametrize("crc", ["0x62", "0x0", "0x1"])
    def test_non_crc_in_file_name_rejected(self, tmp_path, crc):
        # The name's CRC is read as --crc is: even or of degree below 1 is no CRC generator.
        out = tmp_path / f"spectrum_{crc}_N16_dt3.csv"
        out.write_text("d,A_d\n1,0\n2,0\n")
        with pytest.raises(InvalidCrcError, match=f"^{crc} has "):
            DistanceSpectrum.from_csv(out)

    def test_unlabeled_file_rejected(self, paths12, tmp_path):
        spec = undetected_spectrum(paths12, 0x9)
        out = tmp_path / "mystery.csv"
        spec.to_csv(out)
        with pytest.raises(ValueError):
            DistanceSpectrum.from_csv(out)

    def test_bound_csv_header_and_determinism(self, paths12, tmp_path):
        specs = [undetected_spectrum(paths12, parse_hex_crc(h)) for h in ("0x9", "0xb")]
        rows = bound_sweep(specs, [3.0, 3.5, 4.0])
        p1, p2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        write_bound_csv(p1, specs, rows)
        write_bound_csv(p2, specs, rows)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "snr_db,0x9,0xb"
        assert len(lines) == 4
