"""Traced CLI command: the `crcforge` CLI with a span around each library call.

    PYTHONPATH=src python3 bench/traced.py --spans OUT.json --label 1-design \
        -- design --iee db.json --k 64 --m 6 --out-dir out

wraps the library functions the CLI module calls (collect, save, load,
build_tables, expand, screen, spectrum, bound, growth) and then runs the
CLI's own main() on the arguments after `--`, so the traced run takes the
same code path and writes the same outputs as the untraced one.

    PYTHONPATH=src python3 bench/traced.py --spans OUT.json --label speedup \
        --speedup WORKLOAD --seed 0 --setup-dir DIR

instead repeats the workload's collect and screen with one thread, for the
thread-speedup ratios; its input database is the one the traced pass wrote.

Spans are kept in memory and written as JSON when the process ends. Each
records its name, id, parent id (the label, which run.py gives to the span
of the whole process), start and end (`time.perf_counter`, which
is CLOCK_MONOTONIC and so shared across processes), the process's peak RSS
at its end (`getrusage`, self and reaped children) and its counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from crcforge import ConvCode, build_tables, cli, collect_iees, expand_and_dedup, load_database, search_dso

import workloads


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.spans: list[dict] = []

    def call(self, name: str, fn, args, kwargs, counts=None):
        """Run fn in a span; counts(result, args, kwargs) is taken after its end."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append({
            "id": f"{self.label}.{len(self.spans)}",
            "name": name,
            "parent": self.label,
            "step": self.label,
            "start": start,
            "end": end,
            "peak_rss_mib": _peak_rss_mib(),
            "counts": counts(result, args, kwargs) if counts else {},
        })
        return result

    def wrap(self, name: str, fn, counts):
        return lambda *args, **kwargs: self.call(name, fn, args, kwargs, counts)


def _array_bytes(obj) -> int:
    """Bytes held by the object's numpy arrays (anything with nbytes)."""
    names = set(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    return sum(getattr(getattr(obj, n, None), "nbytes", 0) for n in names)


def _screen_counts(result, args, kwargs) -> dict:
    paths, m = args[0], args[1]
    exit_d = result.rounds[-1].d
    return {
        "threads": kwargs.get("threads", 1),
        "candidates": 1 << (m - 1),
        "rows": len(paths),
        "exit_d": exit_d,
        "useful_rows": sum(n for w, n in paths.counts_by_weight().items() if w <= exit_d),
        "winner": result.winner.to_hex() if result.winner is not None else None,
    }


# CLI module attribute -> (span name, counts taken from the call).
SPANS = {
    "collect_iees": ("collector.collect",
                     lambda r, a, k: {"events": r.num_iees, "threads": k.get("threads", 1)}),
    "save_database": ("collector.save", lambda r, a, k: {"bytes": os.path.getsize(a[1])}),
    "load_database": ("collector.load",
                      lambda r, a, k: {"events": r.num_iees, "bytes": os.path.getsize(a[0])}),
    "build_tables": ("reconstructor.build_tables",
                     lambda r, a, k: {"skeletons": sum(len(r[s].skeletons) for s in r)}),
    "expand_and_dedup": ("reconstructor.expand",
                         lambda r, a, k: {"rows": len(r), "packed_bytes": _array_bytes(r)}),
    "search_dso": ("designer.screen", _screen_counts),
    "undetected_spectrum": ("designer.spectrum", lambda r, a, k: {"rows": len(a[0])}),
    "bound_sweep": ("designer.bound", lambda r, a, k: {"points": len(r) * len(a[0])}),
    "growth_profile": ("reconstructor.growth", lambda r, a, k: {"lengths": len(r)}),
}


def run_cli(tracer: Tracer, argv: list[str]) -> int:
    missing = [name for name in SPANS if not hasattr(cli, name)]
    if missing:
        raise SystemExit(f"crcforge.cli no longer calls {', '.join(missing)}; cannot trace")
    for name, (span, counts) in SPANS.items():
        setattr(cli, name, tracer.wrap(span, getattr(cli, name), counts))
    return cli.main(argv)


def run_speedup(tracer: Tracer, work: workloads.Workload) -> None:
    """The workload's collect and screen again, with one thread."""

    def block_length(p: dict) -> int:
        return p["n"] if "n" in p else p["k"] + p["m"]

    for step in work.steps:
        p = step.params
        if step.command == "collect":
            code = ConvCode(p["gens"].split(","), p["v"])
            order = [int(s) for s in p["ordering"].split(",")]
            tracer.call("collector.collect", collect_iees, (code, p["dtilde"], p["max_len"]),
                        {"ordering": order, "threads": 1}, SPANS["collect_iees"][1])
        elif step.command == "design":
            db = load_database(p["iee"])
            N = block_length(p)
            paths = expand_and_dedup(build_tables(db, N, db.d_tilde), N)
            tracer.call("designer.screen", search_dso, (paths, p["m"]), {"threads": 1}, _screen_counts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="where to write the spans JSON")
    ap.add_argument("--label", required=True, help="step label, prefix of the span ids")
    ap.add_argument("--speedup", choices=workloads.NAMES, help="run the one-thread repeats")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-dir", default=".")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    tracer = Tracer(args.label)
    try:
        if args.speedup:
            run_speedup(tracer, workloads.build(args.speedup, args.seed, args.setup_dir))
            code = 0
        else:
            argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
            code = run_cli(tracer, argv)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
