"""The benchmark's workloads: CLI command sequences, set-up, and output checks.

A workload is a fixed chain of `crcforge` commands. The seed only permutes
states 2^(v-2)..2^v-1 of the `collect --ordering`; the states below keep
their natural order, and seed 0 is natural order throughout. The collected
database differs per seed but every output the checks read (spectra,
elimination rounds, bounds, growth counts) is the same for every seed, so
the pinned values below hold for all of them.

Permuting all of states 1..2^v-1 moves the event count by up to 30%
(661k to 792k for (133,171) at d_tilde=20), and with it the time and
memory of every stage, which would swamp a regression of a few percent.
Leaving the first quarter in place keeps the count within 1% (15,758 to
15,852 events for (13,17); 787,716 to 792,166 for (133,171) at d_tilde=20;
32,735 to 32,886 at d_tilde=16) while the searches still differ.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass

# Reference rows, the same as GOLDEN_43 / GOLDEN_63 in tests/test_acceptance.py.
GOLDEN_43 = {7: 1, 11: 8, 12: 198, 13: 758, 14: 1114, 15: 2814, 16: 7375, 17: 18473}
GOLDEN_63 = {12: 735, 14: 2310, 16: 13965}

# Survivors after each elimination round of the m=10 screen, d = 1..14.
M10_SURVIVORS = [512] * 7 + [504, 497, 436, 387, 68, 24, 1]

# Weight < 16 word counts of (133,171) at l = 60..74, as crcforge 0.1.0 prints them.
V6_GROWTH = {
    60: 14520, 61: 14762, 62: 15004, 63: 15246, 64: 15488,
    65: 15730, 66: 15972, 67: 16214, 68: 16456, 69: 16698,
    70: 16940, 71: 17182, 72: 17424, 73: 17666, 74: 17908,
}

# Counts the traced run must reproduce at seed 0 (natural ordering).
SEED0_COUNTS = {
    "paper-m6": {
        "collector.events": 15852,
        "reconstructor.skeletons": 12149,
        "reconstructor.rows": 1940785,
        "designer.exit_d": 11,
    },
    "screen-m10": {"reconstructor.rows": 324240, "designer.exit_d": 14},
    "collect-v6": {"collector.events": 32886},
}

THREADS = 2


@dataclass(frozen=True)
class Step:
    """One CLI command; params map option names (underscored) to values."""

    command: str
    params: dict

    def argv(self) -> list[str]:
        out = [self.command]
        for key, value in self.params.items():
            out += ["--" + key.replace("_", "-"), str(value)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    ordering: tuple[int, ...]
    # Steps run once per set-up; their files stay for every timed pass.
    setup: tuple[Step, ...]
    # The timed command sequence, run in a fresh directory per pass.
    steps: tuple[Step, ...]
    # The command a user repeats per query on a stored database.
    query: str


def ordering(v: int, seed: int) -> list[int]:
    fixed = 1 << (v - 2)
    moved = list(range(fixed, 1 << v))
    if seed:
        random.Random(seed).shuffle(moved)
    return list(range(fixed)) + moved


def _collect(gens: str, v: int, d_tilde: int, max_len: int, order: list[int], out: str) -> Step:
    return Step("collect", {
        "gens": gens, "v": v, "dtilde": d_tilde, "max_len": max_len,
        "ordering": ",".join(map(str, order)), "out": out, "threads": THREADS,
    })


def build(name: str, seed: int, setup_dir: str) -> Workload:
    """Workload `name` with its seeded ordering; set-up files go in setup_dir."""
    if name == "paper-m6":
        order = ordering(3, seed)
        return Workload(
            name, tuple(order), (),
            (
                _collect("13,17", 3, 18, 70, order, "db.json"),
                Step("design", {"iee": "db.json", "k": 64, "m": 6, "out_dir": "out", "threads": THREADS}),
                Step("spectrum", {"iee": "db.json", "n": 70, "crc": "0x43", "out_dir": "out", "threads": THREADS}),
                Step("bound", {
                    "spectra": "out/spectrum_0x43_N70_dt18.csv,out/spectrum_0x63_N70_dt18.csv",
                    "snr": "3:0.25:7", "out": "out/bounds.csv",
                }),
            ),
            "design",
        )
    if name == "screen-m10":
        order = ordering(3, seed)
        db = os.path.join(setup_dir, "db.json")
        return Workload(
            name, tuple(order),
            (_collect("13,17", 3, 16, 70, order, db),),
            (Step("design", {"iee": db, "n": 70, "m": 10, "out_dir": "out", "threads": THREADS}),),
            "design",
        )
    if name == "collect-v6":
        order = ordering(6, seed)
        return Workload(
            name, tuple(order), (),
            (
                _collect("133,171", 6, 16, 74, order, "db.json"),
                Step("growth", {"iee": "db.json", "l_range": "60:74", "out": "growth.csv"}),
            ),
            "growth",
        )
    raise KeyError(name)


NAMES = ("paper-m6", "screen-m10", "collect-v6")


def _read_spectrum(path: str, d_tilde: int) -> dict[int, int]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["d", "A_d"]:
        raise ValueError(f"{path}: bad header {rows[0]}")
    ds = [int(r[0]) for r in rows[1:]]
    if ds != list(range(1, d_tilde)):
        raise ValueError(f"{path}: distances {ds[:3]}... are not 1..{d_tilde - 1}")
    return {int(d): int(c) for d, c in rows[1:] if int(c)}


def _stdout(workdir: str, index: int) -> str:
    with open(os.path.join(workdir, f"step{index}.out")) as fh:
        return fh.read()


def _winner(text: str) -> str | None:
    lines = [ln for ln in text.splitlines() if ln.startswith("DSO CRC: ")]
    return lines[-1].split(": ", 1)[1].strip() if len(lines) == 1 else None


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def check(name: str, workdir: str) -> list[str]:
    """Compare a finished pass's outputs with the pinned values; [] means correct."""
    problems: list[str] = []
    try:
        if name == "paper-m6":
            design = _stdout(workdir, 1)
            _expect(problems, "design winner", _winner(design), "0x63")
            out = os.path.join(workdir, "out")
            s63 = _read_spectrum(os.path.join(out, "spectrum_0x63_N70_dt18.csv"), 18)
            s43 = _read_spectrum(os.path.join(out, "spectrum_0x43_N70_dt18.csv"), 18)
            _expect(problems, "0x63 spectrum", s63, GOLDEN_63)
            _expect(problems, "0x43 spectrum", s43, GOLDEN_43)
            with open(os.path.join(out, "bounds.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            _expect(problems, "bounds header", rows[0], ["snr_db", "0x43", "0x63"])
            at = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
            _expect(problems, "bound grid", sorted(at), [3 + 0.25 * i for i in range(17)])
            b43, b63 = at[6.5]
            if not 5e-11 <= b63 <= 2e-10:
                problems.append(f"bound(0x63, 6.5 dB) = {b63} outside [5e-11, 2e-10]")
            if not 30 <= b43 / b63 <= 300:
                problems.append(f"bound ratio 0x43/0x63 = {b43 / b63} outside [30, 300]")
        elif name == "screen-m10":
            design = _stdout(workdir, 0)
            _expect(problems, "design winner", _winner(design), "0x7a3")
            out = os.path.join(workdir, "out")
            spec = _read_spectrum(os.path.join(out, "spectrum_0x7a3_N70_dt16.csv"), 16)
            _expect(problems, "0x7a3 spectrum", spec, {15: 210})
            with open(os.path.join(out, "elimination_m10_N70_dt16.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            _expect(problems, "elimination header", rows[0][:3], ["d", "c_star", "survivors_remaining"])
            _expect(problems, "elimination rounds", [int(r[0]) for r in rows[1:]], list(range(1, 15)))
            _expect(problems, "elimination survivors", [int(r[2]) for r in rows[1:]], M10_SURVIVORS)
            _expect(problems, "last survivor", rows[-1][3], "0x7a3")
        elif name == "collect-v6":
            with open(os.path.join(workdir, "growth.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            _expect(problems, "growth header", rows[0], ["l", "count"])
            _expect(problems, "growth counts", {int(l): int(c) for l, c in rows[1:]}, V6_GROWTH)
        else:
            raise KeyError(name)
    except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def checked_files(name: str) -> list[str]:
    """Output files the checks read, relative to a pass directory."""
    return {
        "paper-m6": ["out/spectrum_0x63_N70_dt18.csv", "out/spectrum_0x43_N70_dt18.csv",
                     "out/elimination_m6_N70_dt18.csv", "out/bounds.csv"],
        "screen-m10": ["out/spectrum_0x7a3_N70_dt16.csv", "out/elimination_m10_N70_dt16.csv"],
        "collect-v6": ["growth.csv"],
    }[name]
