#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised as one JSON file.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json \\
        [--pairs 10] [--seed 7] [--seconds 8] [--workload W ...]

For each workload, each pair runs ``perfbench/run.py --trace 0`` once in
each checkout, the parent first in even-numbered pairs and the change
first in odd ones.  Every ``__pycache__`` in the checkout is removed before
its run and ``PYTHONDONTWRITEBYTECODE=1`` is set, so both sides compile
their sources alike.  The metrics and their direction come from the change
checkout's ``BENCHMARK.json``.  Each side's median and quartiles are over
its runs; ``ratio`` is the change median over the parent median, and the
wins count pairs, ties counting for neither.

After each side's harness run, the script itself also runs that side's
``python -m vanref`` once on the workload's files, which the change
checkout's ``perfbench/workloads.py`` writes, and records the child's own
peak RSS as ``child_peak_rss_mb``.  The child is started with
``os.posix_spawn`` and reaped with ``os.wait4``.  Linux charges a child
with the peak RSS of the process that spawned it, and the harness's is
above the CLI's, so ``peak_rss_mb`` can move with the harness; this
script's own peak (``script_peak_rss_mb``) stays below the child's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Writes a workload's files into a directory and prints its argv and exit
# code.  It runs in a child, so that the workload's text never raises this
# script's peak RSS, which a spawned vanref child would be charged with.
WRITE_WORKLOAD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
wl = workloads.generate(sys.argv[2], int(sys.argv[3]))
print(json.dumps({"argv": wl.write(Path(sys.argv[4])), "code": wl.exit_code}))
"""


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last stdout line."""
    clear_bytecode(checkout)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"bench_pairs: {workload} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def write_workload(checkout: Path, workload: str, seed: int, directory: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", WRITE_WORKLOAD, str(checkout / "perfbench"),
         workload, str(seed), directory],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def child_peak_rss_mb(checkout: Path, argv: list[str], code: int) -> float:
    """The peak RSS of one ``python -m vanref`` child run from ``checkout``."""
    clear_bytecode(checkout)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "vanref", *argv],
                         env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    if (exited := os.waitstatus_to_exitcode(status)) != code:
        sys.exit(f"bench_pairs: vanref {' '.join(argv)} in {checkout} exited "
                 f"{exited}, not {code}")
    return usage.ru_maxrss / 1024


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    sign = 1 if lower_is_better else -1
    result = {"parent": summary(parent), "change": summary(change)}
    result["ratio"] = round(statistics.median(change) / statistics.median(parent), 3)
    result["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    result["parent_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "Alternating pairs per workload (parent first in even-numbered "
                  "pairs), one run per side per pair, every __pycache__ removed "
                  "before each run and PYTHONDONTWRITEBYTECODE=1 set for both. "
                  "median, q1 and q3 are over the runs of a side (statistics."
                  "quantiles, inclusive). ratio = change median / parent median; "
                  "*_wins count pairs, ties count for neither. child_peak_rss_mb: "
                  "after each harness run, one python -m vanref child of that "
                  "side on the same workload files, started by this script with "
                  "os.posix_spawn and reaped with os.wait4 (ru_maxrss).",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds, "seed": args.seed,
        "pairs_per_workload": {name: args.pairs for name in names},
        "workloads": {},
    }
    for name in names:
        runs = {"parent": [], "change": []}
        rss = {"parent": [], "change": []}
        with tempfile.TemporaryDirectory() as files:
            workload = write_workload(sides["change"], name, args.seed, files)
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], name, args.seed, args.seconds))
                    rss[side].append(child_peak_rss_mb(sides[side], **workload))
                print(f"bench_pairs: {name} pair {pair + 1}/{args.pairs}", file=sys.stderr)
        result = {"pairs": args.pairs,
                  "all_correct": all(r["correct"] for rs in runs.values() for r in rs)}
        for metric, lower in metrics.items():
            parent, change = ([r["metrics"][metric]["value"] for r in runs[side]]
                              for side in ("parent", "change"))
            result[metric] = compare(parent, change, lower)
        result["child_peak_rss_mb"] = compare(rss["parent"], rss["change"], True)
        report["workloads"][name] = result
    report["script_peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
