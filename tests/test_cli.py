import time

import numpy as np
import pytest

from crcforge import cli, reconstructor
from crcforge.cli import _parse_snr_grid, main


class TestSnrGrid:
    def test_inclusive_grid(self):
        grid = _parse_snr_grid("3:0.25:7")
        assert len(grid) == 17
        assert grid[0] == 3.0 and grid[-1] == 7.0

    def test_single_point(self):
        assert _parse_snr_grid("4:1:4") == [4.0]

    def test_bad_grids(self):
        for text in ("3:0.25", "3:0:7", "7:1:3", "3:0.3:7", "3:1:inf", "0:1e-320:1", "nan:1:3", "0:1e-300:1"):
            with pytest.raises(ValueError):
                _parse_snr_grid(text)


_EXACTLY_ONE = "give exactly one of --k (message bits) or --n (block bits)"
_BOUND_ABOVE_N3 = "d_tilde=9 is above n*N + 1 = 7, the largest bound allowed at N=3"

# design and spectrum arguments the front end refuses, with its message;
# a degree of 32 is test_crc_degree_above_31_is_1.
EARLY_REFUSALS = [
    pytest.param(["design", "--m", "3", "--k", "8", "--n", "14"], _EXACTLY_ONE, id="design-k-and-n"),
    pytest.param(["spectrum", "--crc", "0xb", "--k", "8", "--n", "14"], _EXACTLY_ONE, id="spectrum-k-and-n"),
    pytest.param(["design", "--m", "3"], _EXACTLY_ONE, id="design-no-k-n"),
    pytest.param(["spectrum", "--crc", "0xb"], _EXACTLY_ONE, id="spectrum-no-k-n"),
    pytest.param(["design", "--m", "0", "--n", "14"], "CRC degree m must be in [1, 31], got 0", id="m0"),
    pytest.param(
        ["design", "--m", "3", "--n", "14", "--dtilde", "1"], "d_tilde must be >= 2, got 1", id="design-dtilde1"
    ),
    pytest.param(
        ["spectrum", "--crc", "0xb", "--n", "14", "--dtilde", "1"], "d_tilde must be >= 2, got 1",
        id="spectrum-dtilde1",
    ),
    # No word of 3 steps of a rate-1/2 code weighs more than 6, so the database's bound of 9 is above 7.
    pytest.param(["design", "--m", "3", "--n", "3"], _BOUND_ABOVE_N3, id="design-dtilde-above-nN"),
    pytest.param(["spectrum", "--crc", "0xb", "--n", "3"], _BOUND_ABOVE_N3, id="spectrum-dtilde-above-nN"),
]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["collect", "--gens", "13,17"])
        assert exc.value.code == 2

    def test_no_command_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_catastrophic_collect_is_1(self, tmp_path, capsys):
        rc = main([
            "collect", "--gens", "3,5", "--v", "2", "--dtilde", "8",
            "--max-len", "10", "--out", str(tmp_path / "db.json"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_degree_mismatch_collect_is_1(self, tmp_path, capsys):
        rc = main([
            "collect", "--gens", "6,4", "--v", "2", "--dtilde", "8",
            "--max-len", "10", "--out", str(tmp_path / "db.json"),
        ])
        assert rc == 1
        assert "degree" in capsys.readouterr().err

    def test_missing_database_is_1(self, tmp_path, capsys):
        rc = main(["design", "--iee", str(tmp_path / "nope.json"), "--k", "8", "--m", "3"])
        assert rc == 1

    def test_out_of_memory_is_1(self, small_db, tmp_path, capsys, monkeypatch):
        # A screen too large for the machine ends in a message, not a traceback.
        def search_dso(paths, m, threads=1):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(cli, "search_dso", search_dso)
        rc = main(["design", "--iee", str(small_db), "--n", "14", "--m", "3", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate 64.0 GiB")
        assert "--m" in err and "Traceback" not in err

    def test_crc_degree_above_31_is_1(self, small_db, tmp_path, capsys, monkeypatch):
        # Refused before any path is expanded: building tables would fail.
        monkeypatch.setattr(cli, "build_tables", None)
        for degree_args in (["design", "--m", "32"], ["spectrum", "--crc", "0x100000001"]):
            rc = main(degree_args + ["--iee", str(small_db), "--n", "14", "--out-dir", str(tmp_path)])
            assert rc == 1
            out, err = capsys.readouterr()
            assert "expanded" not in out
            assert "error: CRC degree m must be in [1, 31], got 32" in err

    @pytest.mark.parametrize("argv,message", EARLY_REFUSALS)
    def test_front_end_refuses_before_tables(self, small_db, tmp_path, capsys, monkeypatch, argv, message):
        # The command line's own checks come first: building tables would fail.
        monkeypatch.setattr(cli, "build_tables", None)
        rc = main(argv + ["--iee", str(small_db), "--out-dir", str(tmp_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "expanded" not in out
        assert f"error: {message}" in err

    @pytest.mark.parametrize(
        "command", [["design", "--m", "3"], ["spectrum", "--crc", "0xb"]], ids=["design", "spectrum"]
    )
    def test_degenerate_block_length_is_1(self, small_db, tmp_path, capsys, command):
        # N < v is left to build_tables, whose message names it.
        rc = main(command + ["--iee", str(small_db), "--n", "2", "--out-dir", str(tmp_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "expanded" not in out
        assert "error: N=2 is degenerate for a memory-3 code; need N >= 3" in err

    def test_nonfinite_snr_grid_is_1(self, tmp_path, capsys):
        spec = tmp_path / "spectrum_0x9_N14_dt9.csv"
        spec.write_text("d,A_d\n6,2\n")
        out_csv = tmp_path / "b.csv"
        rc = main(["bound", "--spectra", str(spec), "--snr", "3:1:inf", "--out", str(out_csv)])
        assert rc == 1
        assert "error: SNR grid '3:1:inf' needs a finite" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_huge_snr_grid_is_1(self, tmp_path, capsys):
        # 1e300 points: every other check passes, and listing them never ends.
        spec = tmp_path / "spectrum_0x9_N14_dt9.csv"
        spec.write_text("d,A_d\n6,2\n")
        out_csv = tmp_path / "b.csv"
        rc = main(["bound", "--spectra", str(spec), "--snr", "0:1e-300:1", "--out", str(out_csv)])
        assert rc == 1
        assert "error: SNR grid '0:1e-300:1' has 1e+300 points, more than 1,000,000" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("rows,message", [
        pytest.param("6,2\n8,-735\n", "negative count A_8=-735", id="negative"),
        pytest.param("6,2\n6,3\n", "distance 6 appears twice", id="repeated"),
    ])
    def test_bad_spectrum_rows_are_1(self, tmp_path, capsys, rows, message):
        spec = tmp_path / "spectrum_0x9_N14_dt9.csv"
        spec.write_text("d,A_d\n" + rows)
        out_csv = tmp_path / "b.csv"
        rc = main(["bound", "--spectra", str(spec), "--snr", "3:1:4", "--out", str(out_csv)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("d_tilde", ["0", "-3"])
    def test_growth_nonpositive_dtilde_is_1(self, small_db, capsys, d_tilde):
        rc = main(["growth", "--iee", str(small_db), "--l-range", "10:12", "--dtilde", d_tilde])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "count=" not in out
        assert f"error: d_tilde must be >= 1, got {d_tilde}" in err

    def test_growth_range_past_max_len_is_1_at_once(self, small_db, capsys):
        # The range's end is refused before its 10**12 lengths are listed.
        start = time.perf_counter()
        rc = main(["growth", "--iee", str(small_db), "--l-range", "1:1000000000000"])
        elapsed = time.perf_counter() - start
        assert rc == 1
        out, err = capsys.readouterr()
        assert "count=" not in out
        assert "error: database only covers event lengths <= 16, need l=1000000000000; " in err
        assert elapsed < 1.0

    def test_renamed_spectrum_is_1(self, small_db, tmp_path, capsys):
        assert main([
            "spectrum", "--iee", str(small_db), "--n", "14", "--crc", "0xb",
            "--out-dir", str(tmp_path),
        ]) == 0
        renamed = tmp_path / "crc_0xb.csv"
        (tmp_path / "spectrum_0xb_N14_dt9.csv").rename(renamed)
        rc = main(["bound", "--spectra", str(renamed), "--snr", "3:1:4", "--out", str(tmp_path / "b.csv")])
        assert rc == 1
        assert "spectrum_0x<crc>_N<n>_dt<d>" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "iee_1317_d9.json"
    rc = main([
        "collect", "--gens", "13,17", "--v", "3", "--dtilde", "9",
        "--max-len", "16", "--out", str(path), "--threads", "1",
    ])
    assert rc == 0
    return path


class TestPipeline:
    def test_collect_reports_counts(self, small_db, capsys):
        assert small_db.exists()

    def test_spectrum_writes_canonical_csv(self, small_db, tmp_path, capsys):
        rc = main([
            "spectrum", "--iee", str(small_db), "--n", "14", "--crc", "0xb",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        target = tmp_path / "spectrum_0xb_N14_dt9.csv"
        assert target.exists()
        assert target.read_text().startswith("d,A_d\n")

    def test_spectrum_reruns_byte_identical(self, small_db, tmp_path):
        args = [
            "spectrum", "--iee", str(small_db), "--n", "14", "--crc", "0xb",
            "--out-dir",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + [str(d1)]) == 0
        assert main(args + [str(d2)]) == 0
        f1 = d1 / "spectrum_0xb_N14_dt9.csv"
        f2 = d2 / "spectrum_0xb_N14_dt9.csv"
        assert f1.read_bytes() == f2.read_bytes()

    def test_design_tie_exits_1(self, small_db, tmp_path, capsys):
        rc = main([
            "design", "--iee", str(small_db), "--n", "14", "--m", "6",
            "--dtilde", "2", "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "indistinguishable" in capsys.readouterr().out

    def test_design_writes_log(self, small_db, tmp_path, capsys):
        rc = main([
            "design", "--iee", str(small_db), "--n", "14", "--m", "3",
            "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        log = tmp_path / "elimination_m3_N14_dt9.csv"
        assert log.exists()
        header = log.read_text().splitlines()[0]
        assert header == "d,c_star,survivors_remaining,survivor_list_hex"
        if rc == 0:
            assert "DSO CRC: 0x" in out
        else:
            assert "indistinguishable" in out

    def test_k_plus_m_gives_block_length(self, tmp_path, capsys):
        db = tmp_path / "iee_1317_d9_L70.json"
        assert main([
            "collect", "--gens", "13,17", "--v", "3", "--dtilde", "9",
            "--max-len", "70", "--out", str(db),
        ]) == 0
        # At d_tilde=9 the screen may end in a tie; the log is written either way.
        main(["design", "--iee", str(db), "--k", "64", "--m", "6", "--out-dir", str(tmp_path)])
        assert "at N=70" in capsys.readouterr().out
        assert (tmp_path / "elimination_m6_N70_dt9.csv").exists()

    def test_bound_from_spectra(self, small_db, tmp_path, capsys):
        for crc in ("0x9", "0xb"):
            assert main([
                "spectrum", "--iee", str(small_db), "--n", "14", "--crc", crc,
                "--out-dir", str(tmp_path),
            ]) == 0
        out_csv = tmp_path / "bounds.csv"
        rc = main([
            "bound",
            "--spectra",
            f"{tmp_path}/spectrum_0x9_N14_dt9.csv,{tmp_path}/spectrum_0xb_N14_dt9.csv",
            "--snr", "3:0.25:7",
            "--out", str(out_csv),
        ])
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "snr_db,0x9,0xb"
        assert len(lines) == 18

    def test_threads_flag_is_ignored(self, small_db, tmp_path, capsys):
        # Any value parses, 0 included, and the database is byte-identical.
        args = ["collect", "--gens", "13,17", "--v", "3", "--dtilde", "9", "--max-len", "16", "--out"]
        for threads in ("0", "2"):
            out = tmp_path / f"db{threads}.json"
            assert main(args + [str(out), "--threads", threads]) == 0
            assert out.read_bytes() == small_db.read_bytes()

    def test_growth_profile_output(self, small_db, capsys):
        rc = main(["growth", "--iee", str(small_db), "--dtilde", "7", "--l-range", "1:12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "l=1 count=1" in out

    def test_verify_passes(self, capsys):
        rc = main([
            "verify", "--gens", "13,17", "--v", "3", "--n", "12", "--dtilde", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS spectrum-match" in out
        assert "PASS cyclic-closure" in out
        assert "PASS partition" in out
        assert out.strip().endswith("PASS")

    def test_verify_fails_on_a_wrong_path_set(self, capsys, monkeypatch):
        # One bit of one base word flipped after the build, its weight and
        # rotation count kept: the counts by weight still agree with brute
        # force, so only the classes read from the path set can catch it.
        def flipped(table, N, limbs):
            bases, counts, weights = state_bases(table, N, limbs)
            if len(bases) > 3:
                bases[3, 0] ^= np.uint64(1 << 5)
            return bases, counts, weights

        state_bases = reconstructor._state_bases
        monkeypatch.setattr(reconstructor, "_state_bases", flipped)
        assert main(["verify", "--gens", "13,17", "--v", "3", "--n", "12", "--dtilde", "8"]) == 1
        out = capsys.readouterr().out
        assert "PASS spectrum-match" in out
        assert "FAIL partition" in out
        assert out.strip().endswith("FAIL")

    @pytest.mark.parametrize(
        "gens,n,d_tilde", [("133,171", "16", "10"), ("133,171,165", "14", "14")], ids=["rate-1/2", "rate-1/3"]
    )
    def test_verify_passes_at_memory_6(self, capsys, gens, n, d_tilde):
        # 63 of the 64 states have no zero loop, so their skeletons must fill
        # N exactly: the knapsack pruning is checked against brute force.
        assert main(["verify", "--gens", gens, "--v", "6", "--n", n, "--dtilde", d_tilde]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_verify_bound_past_int64(self, capsys):
        # A bound of 2^63 or more does not fit the int64 weight columns;
        # it is as good as no bound at all, and verify still passes.
        assert main(["verify", "--gens", "13,17", "--v", "3", "--n", "8", "--dtilde", str(2**63)]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_growth_bound_past_int64(self, tmp_path, capsys):
        db = tmp_path / "iee_1317_huge.json"
        args = ["--gens", "13,17", "--v", "3", "--dtilde", str(10**30), "--max-len", "12", "--out", str(db)]
        assert main(["collect", *args]) == 0
        capsys.readouterr()
        assert main(["growth", "--iee", str(db), "--l-range", "5:6"]) == 0
        assert capsys.readouterr().out.splitlines() == ["l=5 count=31", "l=6 count=63"]

    def test_verify_both_k_n_usage(self, small_db):
        rc = main(["design", "--iee", str(small_db), "--k", "8", "--n", "14", "--m", "3"])
        assert rc == 1
