"""Acceptance checklist for the reference instances.

Each test is one acceptance criterion and prints a single PASS or FAIL
line, so a verbose run doubles as a sign-off report. Golden numbers are
the undetected spectra of the degree-6 CRCs 0x43 and 0x63 on the
(13,17) code at N=70, d_tilde=18.
"""

import contextlib
import time

import pytest

from crcforge import (
    ConvCode,
    build_tables,
    candidate_list,
    collect_iees,
    brute_force_partition,
    brute_force_spectrum,
    db_to_linear,
    expand_and_dedup,
    growth_profile,
    is_cyclic_closed,
    iter_state_paths,
    parse_hex_crc,
    search_dso,
    truncated_union_bound,
    undetected_spectrum,
    verify_iee,
)

GOLDEN_43 = {7: 1, 11: 8, 12: 198, 13: 758, 14: 1114, 15: 2814, 16: 7375, 17: 18473}
GOLDEN_63 = {12: 735, 14: 2310, 16: 13965}


@contextlib.contextmanager
def _criterion(capsys, num, label):
    # One human-readable verdict line per criterion, straight to the terminal.
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num}: {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS criterion {num}: {label}", flush=True)


def test_criterion_1_golden_spectra(paths70, capsys):
    with _criterion(capsys, 1, "N=70 spectra of 0x43 and 0x63 match the golden rows exactly"):
        for hex_text, golden in (("0x43", GOLDEN_43), ("0x63", GOLDEN_63)):
            spectrum = undetected_spectrum(paths70, parse_hex_crc(hex_text))
            assert spectrum.nonzero() == golden, hex_text


def test_criterion_2_dso_identification(paths70, capsys):
    with _criterion(capsys, 2, "degree-6 screening at N=70 keeps 0x63 as the unique survivor"):
        result = search_dso(paths70, 6)
        assert not result.is_tie
        assert result.winner.to_hex() == "0x63"
        assert tuple(c.to_hex() for c in result.survivors) == ("0x63",)


def test_criterion_3_bound_cross_check(paths70, capsys):
    with _criterion(capsys, 3, "union-bound bands at 6.5 dB and the 3 dB crossover hold"):
        s63 = undetected_spectrum(paths70, parse_hex_crc("0x63"))
        s43 = undetected_spectrum(paths70, parse_hex_crc("0x43"))
        high = db_to_linear(6.5)
        b63 = truncated_union_bound(s63, high)
        b43 = truncated_union_bound(s43, high)
        assert 5e-11 <= b63 <= 2e-10, b63
        assert 30.0 <= b43 / b63 <= 300.0, b43 / b63
        low = db_to_linear(3.0)
        assert truncated_union_bound(s63, low) > truncated_union_bound(s43, low)


def test_criterion_4_oracle_equivalence(capsys):
    label = "reconstruction is exhaustive-exact for N=4..14, d_tilde=3..10, all m=3,4 CRCs"
    with _criterion(capsys, 4, label):
        started = time.monotonic()
        crcs = candidate_list(3) + candidate_list(4)
        for gens, v in ((("5", "7"), 2), (("13", "17"), 3)):
            code = ConvCode(list(gens), v)
            db = collect_iees(code, 10, 14)
            for N in range(4, 15):
                counts, undetected = brute_force_spectrum(code, N, crcs)
                for d_tilde in range(3, 11):
                    paths = expand_and_dedup(build_tables(db, N, d_tilde), N)
                    assert paths.counts_by_weight() == {w: c for w, c in counts.items() if w < d_tilde}
                    for crc, hist in zip(crcs, undetected):
                        got = undetected_spectrum(paths, crc).nonzero()
                        want = {w: c for w, c in hist.items() if w < d_tilde}
                        assert got == want, (gens, N, d_tilde, crc.to_hex())
        assert time.monotonic() - started < 60.0


def test_criterion_5_invariants(code1317, db70, capsys):
    label = "cyclic closure, anchor-state partition, and irreducibility all hold"
    with _criterion(capsys, 5, label):
        for N in (4, 9, 12):
            for d_tilde in (5, 8):
                tables = build_tables(db70, N, d_tilde)
                for s in tables:
                    assert is_cyclic_closed((w for w, _ in iter_state_paths(tables, s)), N)

        # Partition check needs every weight, so collect past 2N for one N.
        N = 12
        db_full = collect_iees(code1317, 2 * N + 1, N)
        tables = build_tables(db_full, N, 2 * N + 1)
        ours = {s: [word for word, _ in iter_state_paths(tables, s)] for s in tables.ordering}
        assert sum(map(len, ours.values())) == (1 << N) - 1, "classes overlap or miss paths"
        oracle = brute_force_partition(code1317, N, 2 * N + 1, tables.ordering)
        assert {s: set(words) for s, words in ours.items()} == oracle

        for event in db70.iees():
            assert verify_iee(db70, event)


def test_criterion_6_database_reuse(code1317, db70, paths70, capsys):
    label = "one max_len=70 database is exhaustive-exact for all N<=14 and redoes N=70"
    with _criterion(capsys, 6, label):
        for N in range(3, 15):
            counts, _ = brute_force_spectrum(code1317, N)
            paths = expand_and_dedup(build_tables(db70, N, 18), N)
            assert paths.counts_by_weight() == {w: c for w, c in counts.items() if w < 18}
        assert undetected_spectrum(paths70, parse_hex_crc("0x63")).nonzero() == GOLDEN_63


@pytest.mark.extended
def test_criterion_7_growth_regime(capsys):
    label = "(133,171) d_tilde=22 low-weight word growth rate stabilizes for l>=66"
    with _criterion(capsys, 7, label):
        code = ConvCode(["133", "171"], 6)
        db = collect_iees(code, 22, 74)
        profile = dict(growth_profile(db, 22, range(60, 75)))
        rates = [profile[l + 1] / profile[l] for l in range(66, 74)]
        for earlier, later in zip(rates, rates[1:]):
            assert abs(later - earlier) < 0.01, rates
        assert all(1.0 < r < 2.0 for r in rates), rates
