"""Command line front end.

Subcommands mirror the library stages: collect (IEE database), design
(CRC search), spectrum (one CRC's undetected spectrum), bound (union
bound sweep), growth (codeword count vs length), verify (cross-check
against brute force on a small instance). design and spectrum share one
front end, _path_set, which decides the block length N (--n, or --k plus
the CRC degree) and the screening bound (--dtilde, or the database's)
and expands the path set; both read N and the bound back from it. Exit
codes: 0 success, 1 domain failure (catastrophic code, coverage, ties,
corrupt files, bad values), 2 usage errors (argparse's native behavior).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from .collector import collect_iees, load_database, save_database, verify_events
from .designer import (
    _MAX_DEGREE,
    DistanceSpectrum,
    bound_sweep,
    search_dso,
    undetected_spectrum,
    write_bound_csv,
)
from .encoder import ConvCode
from .errors import CrcforgeError
from .gf2 import parse_hex_crc, parse_octal
from .oracle import (
    MAX_ORACLE_LEN,
    MAX_ORACLE_V,
    brute_force_iees,
    brute_force_partition,
    is_cyclic_closed,
)
from .reconstructor import TBPathSet, build_tables, expand_and_dedup, growth_profile

__all__ = ["main"]

# Largest --snr grid accepted; a finite but huge point count would never finish.
MAX_SNR_POINTS = 1_000_000


def _parse_gens(text: str) -> list[str]:
    gens = [g.strip() for g in text.split(",") if g.strip()]
    if len(gens) < 1:
        raise ValueError(f"--gens needs octal generators, got {text!r}")
    return gens


def _parse_snr_grid(text: str) -> list[float]:
    """start:step:stop, inclusive on both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--snr expects start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"SNR step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"SNR range is empty: {text!r}")
    points = (stop - start) / step
    if not all(map(math.isfinite, (start, step, stop, points))):
        raise ValueError(f"SNR grid {text!r} needs a finite start, step, stop and point count")
    count = int(round(points))
    if count + 1 > MAX_SNR_POINTS:
        raise ValueError(f"SNR grid {text!r} has {count + 1:.3g} points, more than {MAX_SNR_POINTS:,}")
    if abs(start + count * step - stop) > 1e-9:
        raise ValueError(f"SNR step does not land on the endpoint: {text!r}")
    return [start + i * step for i in range(count + 1)]


def _parse_l_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--l-range expects lmin:lmax, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"bad length range {text!r}")
    return range(lo, hi + 1)


def cmd_collect(args) -> int:
    code = ConvCode(_parse_gens(args.gens), args.v)
    ordering = None
    if args.ordering:
        ordering = [int(s) for s in args.ordering.split(",")]
    start = time.perf_counter()
    db = collect_iees(code, args.dtilde, args.max_len, ordering=ordering)
    elapsed = time.perf_counter() - start
    for state, count in db.state_counts().items():
        print(f"state {state}: {count} events")
    print(f"collected {db.num_iees} events in {elapsed:.2f} s")
    save_database(db, args.out)
    print(f"saved {args.out}")
    return 0


def _path_set(args, m: int) -> TBPathSet:
    """The paths of weight < d_tilde at block length N, for design and spectrum.

    N is --n, or --k plus the CRC degree m; d_tilde is --dtilde, or the
    database's. No word of N steps weighs more than n*N, so a d_tilde
    above n*N + 1 is refused. build_tables checks N against the code and
    the database.
    """
    if (args.k is None) == (args.n is None):
        raise ValueError("give exactly one of --k (message bits) or --n (block bits)")
    if not 1 <= m <= _MAX_DEGREE:
        raise ValueError(f"CRC degree m must be in [1, {_MAX_DEGREE}], got {m}")
    db = load_database(args.iee)
    d_tilde = args.dtilde if args.dtilde is not None else db.d_tilde
    if d_tilde < 2:
        raise ValueError(f"d_tilde must be >= 2, got {d_tilde}")
    N = args.n if args.n is not None else args.k + m
    if N >= db.v and d_tilde > db.n * N + 1:  # N < v is left to build_tables
        raise ValueError(f"d_tilde={d_tilde} is above n*N + 1 = {db.n * N + 1}, the largest bound allowed at N={N}")
    return expand_and_dedup(build_tables(db, N, d_tilde), N)


def cmd_design(args) -> int:
    paths = _path_set(args, args.m)
    print(f"expanded {len(paths)} paths of weight < {paths.d_tilde} at N={paths.N}")
    result = search_dso(paths, args.m)
    for row in result.rounds:
        survivors = ",".join(row.survivors_hex)
        print(f"d={row.d} C*={row.c_star} survivors={len(row.survivors_hex)} [{survivors}]")

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, f"elimination_m{args.m}_N{paths.N}_dt{paths.d_tilde}.csv")
    with open(log_path, "w", newline="\n") as fh:
        fh.write("d,c_star,survivors_remaining,survivor_list_hex\n")
        for row in result.rounds:
            fh.write(
                f"{row.d},{row.c_star},{len(row.survivors_hex)},"
                + ";".join(row.survivors_hex)
                + "\n"
            )
    print(f"wrote {log_path}")

    if result.winner is None:
        tied = ",".join(c.to_hex() for c in result.survivors)
        print(
            f"candidates indistinguishable below d_tilde={paths.d_tilde}: {tied}; "
            "re-collect with a larger d_tilde to separate them"
        )
        return 1
    spec_path = os.path.join(out_dir, result.spectrum.csv_filename())
    result.spectrum.to_csv(spec_path)
    print(f"wrote {spec_path}")
    print(f"DSO CRC: {result.winner.to_hex()}")
    return 0


def cmd_spectrum(args) -> int:
    crc = parse_hex_crc(args.crc)
    spectrum = undetected_spectrum(_path_set(args, crc.degree), crc)
    for d, count in spectrum.nonzero().items():
        print(f"d={d} A_d={count}")
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, spectrum.csv_filename())
    spectrum.to_csv(path)
    print(f"wrote {path}")
    return 0


def cmd_bound(args) -> int:
    grid = _parse_snr_grid(args.snr)
    files = [f.strip() for f in args.spectra.split(",") if f.strip()]
    if not files:
        raise ValueError("--spectra needs at least one CSV file")
    spectra = [DistanceSpectrum.from_csv(f) for f in files]
    rows = bound_sweep(spectra, grid)
    write_bound_csv(args.out, spectra, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_growth(args) -> int:
    db = load_database(args.iee)
    d_tilde = args.dtilde if args.dtilde is not None else db.d_tilde
    profile = growth_profile(db, d_tilde, _parse_l_range(args.l_range))
    for l, count in profile:
        print(f"l={l} count={count}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("l,count\n")
            for l, count in profile:
                fh.write(f"{l},{count}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    code = ConvCode(_parse_gens(args.gens), args.v)
    N, d_tilde = args.n, args.dtilde
    if N > MAX_ORACLE_LEN:
        raise ValueError(f"verify enumerates all 2^N inputs; keep N <= {MAX_ORACLE_LEN} (got {N})")

    db = collect_iees(code, d_tilde, max_len=N)
    paths = expand_and_dedup(build_tables(db, N, d_tilde), N)
    # The one exhaustive pass: every word of weight < d_tilde and its weight, by anchor state.
    oracle_classes = brute_force_partition(code, N, d_tilde, db.ordering)

    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            failures += 1

    expect = Counter(w for words in oracle_classes.values() for w in words.values())
    got = paths.counts_by_weight()
    check("spectrum-match", got == expect, f"{len(paths)} paths below d_tilde={d_tilde}")

    # Each class is read from the path set design screens: the bases of ordering[i].
    ours = {s: list(paths.words(lo, hi)) for s, lo, hi in zip(db.ordering, paths.offsets, paths.offsets[1:])}
    classes = f"{len(ours)} classes, {sum(map(len, ours.values()))} paths"
    closed = all(is_cyclic_closed((word for word, _w in pairs), N) for pairs in ours.values())
    check("cyclic-closure", closed, classes)

    check("partition", {s: dict(pairs) for s, pairs in ours.items()} == oracle_classes, classes)

    check("irreducibility", verify_events(db).all(), f"{db.num_iees} events")

    if code.v <= MAX_ORACLE_V:
        agree = all(
            all(map(np.array_equal, db.events(s), brute_force_iees(code, s, d_tilde, N))) for s in db.ordering
        )
        check("iee-exhaustive", agree, f"{db.num_iees} events vs brute force")

    print("PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crcforge",
        description="Design distance-spectrum-optimal CRCs for tail-biting convolutional codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored; crcforge runs on one thread",
    )
    # The options of _path_set, shared by design and spectrum.
    path_set = argparse.ArgumentParser(add_help=False, parents=[threads])
    path_set.add_argument("--iee", required=True, help="IEE database from collect")
    path_set.add_argument("--k", type=int, default=None, help="message bits (N = k + m)")
    path_set.add_argument("--n", type=int, default=None, help="block bits")
    path_set.add_argument("--dtilde", type=int, default=None, help="screening bound (default: database's)")
    path_set.add_argument("--out-dir", default=".", help="where CSV outputs go")

    p = sub.add_parser("collect", help="collect the IEE database of a code", parents=[threads])
    p.add_argument("--gens", required=True, help="octal generators, comma separated (e.g. 13,17)")
    p.add_argument("--v", type=int, required=True, help="encoder memory")
    p.add_argument("--dtilde", type=int, required=True, help="exclusive weight bound")
    p.add_argument("--max-len", type=int, required=True, help="longest event to store")
    p.add_argument("--ordering", default=None, help="state ordering, comma separated")
    p.add_argument("--out", required=True, help="output JSON database")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("design", help="search the DSO CRC over a path set", parents=[path_set])
    p.add_argument("--m", type=int, required=True, help="CRC degree")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("spectrum", help="undetected spectrum of one CRC", parents=[path_set])
    p.add_argument("--crc", required=True, help="CRC in hex, e.g. 0x63")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bound", help="truncated union bound sweep")
    p.add_argument("--spectra", required=True, help="comma separated spectrum CSVs")
    p.add_argument("--snr", required=True, help="start:step:stop in dB, inclusive")
    p.add_argument("--out", default="bounds.csv")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("growth", help="codeword count vs trellis length")
    p.add_argument("--iee", required=True)
    p.add_argument("--dtilde", type=int, default=None)
    p.add_argument("--l-range", required=True, help="lmin:lmax, inclusive")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify", help="cross-check the pipeline against brute force")
    p.add_argument("--gens", required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dtilde", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrcforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}; try a lower --m, --dtilde or --max-len", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
