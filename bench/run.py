"""Benchmark of the `crcforge` CLI, run as a user runs it.

    python3 bench/run.py --workload paper-m6 --seed 0 --seconds 40 --trace 0

From the root of a checkout. One CLI process at a time (closed loop, one
client), `--threads 2` on every command that takes it, CRCFORGE_THREADS
cleared. A pass runs the workload's whole command sequence in a fresh
directory and checks every output against pinned values (workloads.py);
passes repeat while they fit in `--seconds`, at least one.

--trace 0 prints the end-to-end metrics. --trace 1 makes one traced pass
instead: each command runs under traced.py, which puts a span around every
library call the CLI makes, and then one process repeats the workload's
collect and screen with one thread. It prints the per-layer metrics. Each
run writes its record (environment, seed, ordering, passes, spans) to
bench/.runs/. The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TRACED = os.path.join(BENCH, "traced.py")
MIN_SETUPS = 5
COMMAND_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CRCFORGE_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: str, stdout_path: str) -> dict:
    """Run one process to its end and report its exit code, time and peak RSS.

    wait4 reports the child's own peak RSS, or that of the largest of the
    children it reaped (the CLI's worker pool), whichever is larger.
    """
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "start": start,
        "seconds": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }


def cli(step: workloads.Step) -> list[str]:
    return [sys.executable, "-m", "crcforge.cli"] + step.argv()


def traced_cli(step: workloads.Step, label: str) -> list[str]:
    return [sys.executable, TRACED, "--spans", f"{label}.spans.json", "--label", label,
            "--"] + step.argv()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def set_up(name: str, seed: int, setup_dir: str) -> tuple[workloads.Workload, float]:
    """Warm the interpreter and import cache, then make the workload's inputs.

    Returns the workload, whose set-up files are in setup_dir, and the time taken.
    """
    start = time.perf_counter()
    fresh_dir(setup_dir)
    work = workloads.build(name, seed, setup_dir)
    warm = [sys.executable, "-m", "crcforge.cli", "--help"]
    for i, argv in enumerate([warm] + [cli(s) for s in work.setup]):
        if spawn(argv, setup_dir, os.path.join(setup_dir, f"setup{i}.out"))["exit"] != 0:
            raise RuntimeError(f"set-up command failed: {' '.join(argv)}")
    return work, time.perf_counter() - start


def run_pass(work: workloads.Workload, pass_dir: str, traced: bool = False, tamper=None) -> dict:
    """One full command sequence; tamper(step_index, pass_dir) is a test hook."""
    fresh_dir(pass_dir)
    steps = []
    for i, step in enumerate(work.steps):
        label = f"{i}-{step.command}"
        argv = traced_cli(step, label) if traced else cli(step)
        steps.append(dict(spawn(argv, pass_dir, os.path.join(pass_dir, f"step{i}.out")),
                          command=step.command, label=label))
        if tamper is not None:
            tamper(i, pass_dir)
        if steps[-1]["exit"] != 0:
            break
    problems = [f"{s['command']} exited {s['exit']}" for s in steps if s["exit"] != 0]
    printed = {}
    if not problems:
        problems = workloads.check(work.name, pass_dir)
        try:
            printed = printed_counts(work, pass_dir)
        except (OSError, IndexError, ValueError) as exc:
            problems.append(f"unreadable CLI output: {type(exc).__name__}: {exc}")
    digest = hashlib.sha256()
    for rel in workloads.checked_files(work.name):
        path = os.path.join(pass_dir, rel)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(rel.encode() + b"\0" + fh.read())
    return {
        "wall_s": sum(s["seconds"] for s in steps),
        "query_s": sum(s["seconds"] for s in steps if s["command"] == work.query),
        "peak_rss_mib": max(s["peak_rss_mib"] for s in steps),
        "steps": steps,
        "printed": printed,
        "problems": problems,
        "outputs_sha256": digest.hexdigest(),
    }


def measure(work: workloads.Workload, run_dir: str, seconds: float, tamper=None,
            between=None) -> list[dict]:
    """Closed loop: passes back to back, at least one.

    between(), if given, runs after each pass and counts toward its length.
    Another pass starts only if one more of the slowest so far still ends
    within `seconds`, so a run's length and pass count stay steady.
    """
    samples = []
    start = time.perf_counter()
    slowest = 0.0
    while not samples or time.perf_counter() - start + slowest <= seconds:
        begun = time.perf_counter()
        samples.append(run_pass(work, os.path.join(run_dir, "pass"), tamper=tamper))
        if between is not None:
            between()
        slowest = max(slowest, time.perf_counter() - begun)
    return samples


def failed_frac(samples: list[dict]) -> float:
    """Share of passes whose exit code or output check failed."""
    return sum(1 for s in samples if s["problems"]) / len(samples)


def end_to_end(samples: list[dict], setup_times: list[float]) -> dict:
    # A run holds a few passes (n = attempted), too few for any percentile
    # above the median to have ten samples beyond it, so only medians are
    # reported; the tail shows across runs.
    return {
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "design_s": (statistics.median(s["query_s"] for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mib"] for s in samples), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def read_spans(pass_dir: str, steps: list[dict]) -> list[dict]:
    """One span per traced process, parent of the library spans it wrote."""
    spans = []
    for s in steps:
        spans.append({"id": s["label"], "name": "cli." + s["command"], "parent": "trace",
                      "step": s["label"], "start": s["start"], "end": s["start"] + s["seconds"],
                      "peak_rss_mib": s["peak_rss_mib"], "counts": {"exit": s["exit"]}})
        path = os.path.join(pass_dir, f"{s['label']}.spans.json")
        if os.path.exists(path):
            with open(path) as fh:
                spans += json.load(fh)["spans"]
    return spans


def traced_run(work: workloads.Workload, seed: int, run_dir: str) -> tuple[list[dict], list[dict]]:
    """A traced pass, then the one-thread repeats; returns (samples, spans)."""
    pass_dir = os.path.join(run_dir, "trace")
    start = time.perf_counter()
    sample = run_pass(work, pass_dir, traced=True)
    argv = [sys.executable, TRACED, "--spans", "speedup.spans.json", "--label", "speedup",
            "--speedup", work.name, "--seed", str(seed), "--setup-dir", os.path.join(run_dir, "setup")]
    repeat = dict(spawn(argv, pass_dir, os.path.join(pass_dir, "speedup.out")),
                  command="speedup", label="speedup")
    spans = read_spans(pass_dir, sample["steps"] + [repeat])
    spans.insert(0, {"id": "trace", "name": "trace", "parent": None, "step": None, "start": start,
                     "end": time.perf_counter(), "peak_rss_mib": None, "counts": {}})
    repeat_sample = {"steps": [repeat], "problems": [] if repeat["exit"] == 0
                     else [f"one-thread repeat exited {repeat['exit']}"]}
    return [sample, repeat_sample], spans


STAGE_LAYERS = ("collector.", "reconstructor.", "designer.")


def per_layer(spans: list[dict], wall_s: float) -> dict:
    timed = [s for s in spans if s["step"] not in (None, "speedup")]
    repeat = [s for s in spans if s["step"] == "speedup"]

    def secs(name, among=timed):
        return sum(s["end"] - s["start"] for s in among if s["name"] == name)

    def count(names, key):
        for s in timed:
            if s["name"] in names and key in s["counts"]:
                return s["counts"][key]
        return 0

    def peak(prefix):
        return max([s["peak_rss_mib"] for s in timed if s["name"].startswith(prefix)], default=0.0)

    def ratio(a, b):
        return a / b if a and b else 0.0

    screen_s = secs("designer.screen")
    candidates = count(["designer.screen"], "candidates")
    rows = count(["designer.screen"], "rows")
    stage_total = sum(s["end"] - s["start"] for s in timed if s["name"].startswith(STAGE_LAYERS))
    mib = 1024.0 * 1024.0
    return {
        "collector.collect_s": (secs("collector.collect"), "s"),
        "collector.save_s": (secs("collector.save"), "s"),
        "collector.load_s": (secs("collector.load"), "s"),
        "collector.events": (count(["collector.collect", "collector.load"], "events"), "count"),
        "collector.db_mb": (count(["collector.save", "collector.load"], "bytes") / mib, "MiB"),
        "collector.peak_rss_mb": (peak("collector."), "MiB"),
        "collector.thread_speedup": (ratio(secs("collector.collect", repeat), secs("collector.collect")), "x"),
        "reconstructor.build_tables_s": (secs("reconstructor.build_tables"), "s"),
        "reconstructor.expand_s": (secs("reconstructor.expand"), "s"),
        "reconstructor.skeletons": (count(["reconstructor.build_tables"], "skeletons"), "count"),
        "reconstructor.rows": (count(["reconstructor.expand"], "rows"), "count"),
        "reconstructor.packed_mb": (count(["reconstructor.expand"], "packed_bytes") / mib, "MiB"),
        "reconstructor.peak_rss_mb": (peak("reconstructor."), "MiB"),
        "reconstructor.growth_s": (secs("reconstructor.growth"), "s"),
        "designer.screen_s": (screen_s, "s"),
        "designer.candidates": (candidates, "count"),
        "designer.exit_d": (count(["designer.screen"], "exit_d"), "count"),
        "designer.useful_frac": (ratio(count(["designer.screen"], "useful_rows"), rows), "ratio"),
        "designer.cand_rows_per_s": (ratio(candidates * rows, screen_s), "1/s"),
        "designer.spectrum_s": (secs("designer.spectrum"), "s"),
        "designer.bound_s": (secs("designer.bound"), "s"),
        "designer.thread_speedup": (ratio(secs("designer.screen", repeat), screen_s), "x"),
        "cli.overhead_s": (wall_s - stage_total, "s"),
    }


def printed_counts(work: workloads.Workload, pass_dir: str) -> dict:
    """Counts the CLI printed in a pass, where it prints them: events, rows, last d."""
    found = {}
    for i, step in enumerate(work.steps):
        with open(os.path.join(pass_dir, f"step{i}.out")) as fh:
            words = [ln.split() for ln in fh if ln.strip()]
        if step.command == "collect":
            found.update({"collector.events": int(w[1]) for w in words if w[0] == "collected"})
        if step.command == "design":
            found.update({"reconstructor.rows": int(w[1]) for w in words if w[0] == "expanded"})
            found.update({"designer.exit_d": int(w[0][2:]) for w in words if w[0].startswith("d=")})
    return found


def count_problems(name: str, seed: int, layer: dict, printed: dict) -> list[str]:
    """Traced counts must equal what the CLI printed, and the pinned seed-0 values."""
    want = dict(printed)
    if seed == 0:
        want.update(workloads.SEED0_COUNTS[name])
    return [f"traced {key} = {layer[key][0]}, want {value}"
            for key, value in want.items() if layer[key][0] != value]


def environment() -> dict:
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind = read(f"{base}/{index}/level"), read(f"{base}/{index}/type")
        if level and kind:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = read(f"{base}/{index}/size")
    rev = None  # a plain checkout has no .git; src_sha256 still names the code
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "crcforge")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            with open(os.path.join(dirpath, f), "rb") as fh:
                src_hash.update(f.encode() + b"\0" + fh.read())
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env()).stdout.strip()
    return {
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "threads": workloads.THREADS,
        "CRCFORGE_THREADS": "cleared",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="crcforge CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "crcforge", "cli.py")):
        print(f"error: no crcforge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = fresh_dir(os.path.join(BENCH, ".runs", tag))
    env = environment()
    work, first_setup_s = set_up(args.workload, args.seed, os.path.join(run_dir, "setup"))
    setup_times = [first_setup_s]

    def set_up_again() -> None:
        # Timed like the first, in a directory of its own; its files go unused.
        setup_times.append(set_up(args.workload, args.seed, os.path.join(run_dir, "setup-again"))[1])

    record ={"workload": args.workload, "seed": args.seed, "ordering": work.ordering,
              "environment": env, "setup_s": setup_times}

    if args.trace:
        samples, spans = traced_run(work, args.seed, run_dir)
        metrics = per_layer(spans, samples[0]["wall_s"])
        if not samples[0]["problems"]:
            samples[0]["problems"] = count_problems(args.workload, args.seed, metrics,
                                                    samples[0]["printed"])
        record["spans"] = spans
    else:
        samples = measure(work, run_dir, args.seconds, between=set_up_again)
        while len(setup_times) < MIN_SETUPS:
            set_up_again()
        metrics = end_to_end(samples, setup_times)

    failed = sum(1 for s in samples if s["problems"])
    record.update(samples=samples, failed_frac=failed_frac(samples),
                  metrics={k: v for k, (v, _) in metrics.items()})
    with open(os.path.join(BENCH, ".runs", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED CHECK: {problem}")
    print("environment: " + json.dumps(env))
    print(f"workload={args.workload} seed={args.seed} ordering={','.join(map(str, work.ordering))} "
          f"passes={len(samples)} failed_frac={failed_frac(samples):g} "
          f"outputs_sha256={samples[0]['outputs_sha256']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
