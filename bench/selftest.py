"""Self-test of the benchmark: broken outputs must raise failed_frac.

    python3 bench/selftest.py

From the root of a checkout; takes about a minute. Runs real passes of
paper-m6 and screen-m10 through run.measure, clean and with a tamper hook
that corrupts a file or the printed winner right after a CLI step, and
checks the collect-v6 growth check on a hand-made file. Exits 0 when every
clean pass has failed_frac 0 and every tampered one has failed_frac 1.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads


def edit(step: int, rel: str, old: str, new: str):
    """A tamper hook replacing `old` by `new` in pass file `rel` after `step`."""

    def tamper(index: int, pass_dir: str) -> None:
        if index != step:
            return
        path = os.path.join(pass_dir, rel)
        with open(path) as fh:
            text = fh.read()
        if old not in text:
            raise AssertionError(f"{rel} has no {old!r} to corrupt")
        with open(path, "w") as fh:
            fh.write(text.replace(old, new, 1))

    return tamper


CASES = [
    ("paper-m6", "clean", None, 0.0),
    ("paper-m6", "corrupt database", edit(0, "db.json", '"weight": 5', '"weight": 6'), 1.0),
    ("paper-m6", "corrupt 0x63 spectrum", edit(1, "out/spectrum_0x63_N70_dt18.csv", "12,735", "12,734"), 1.0),
    ("paper-m6", "wrong winner", edit(1, "step1.out", "DSO CRC: 0x63", "DSO CRC: 0x43"), 1.0),
    ("screen-m10", "clean", None, 0.0),
    ("screen-m10", "wrong winner", edit(0, "step0.out", "DSO CRC: 0x7a3", "DSO CRC: 0x7a5"), 1.0),
    ("screen-m10", "corrupt elimination log", edit(0, "out/elimination_m10_N70_dt16.csv", ",68,", ",69,"), 1.0),
]


def growth_check_cases(work_dir: str) -> list[tuple[str, float, float]]:
    """(label, failed, want) for the collect-v6 check on hand-made files."""
    verdicts = []
    for label, delta in (("growth clean", 0), ("growth off by one at l=74", 1)):
        rows = dict(workloads.V6_GROWTH)
        rows[74] += delta
        pass_dir = run.fresh_dir(os.path.join(work_dir, "growth"))
        with open(os.path.join(pass_dir, "growth.csv"), "w") as fh:
            fh.write("l,count\n" + "".join(f"{l},{c}\n" for l, c in rows.items()))
        failed = 1.0 if workloads.check("collect-v6", pass_dir) else 0.0
        verdicts.append((label, failed, float(delta)))
    return verdicts


def main() -> int:
    work_dir = run.fresh_dir(os.path.join(run.BENCH, ".runs", "selftest"))
    bad = 0
    set_up = {}
    for name, label, tamper, want in CASES:
        if name not in set_up:
            set_up[name], _ = run.set_up(name, 0, os.path.join(work_dir, name, "setup"))
        samples = run.measure(set_up[name], os.path.join(work_dir, name), 0, tamper)
        got = run.failed_frac(samples)
        bad += got != want
        print(f"{'ok  ' if got == want else 'BAD '} {name}: {label}: failed_frac={got:g} (want {want:g})")
        for problem in samples[0]["problems"]:
            print(f"       {problem}")
    for label, got, want in growth_check_cases(work_dir):
        bad += got != want
        print(f"{'ok  ' if got == want else 'BAD '} collect-v6: {label}: failed={got:g} (want {want:g})")
    shutil.rmtree(work_dir, ignore_errors=True)
    print("PASS" if not bad else f"FAIL ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
