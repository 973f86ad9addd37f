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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last stdout line."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)
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
                  "*_wins count pairs, ties count for neither.",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds, "seed": args.seed,
        "pairs_per_workload": {name: args.pairs for name in names},
        "workloads": {},
    }
    for name in names:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], name, args.seed, args.seconds))
            print(f"bench_pairs: {name} pair {pair + 1}/{args.pairs}", file=sys.stderr)
        result = {"pairs": args.pairs,
                  "all_correct": all(r["correct"] for rs in runs.values() for r in rs)}
        for metric, lower in metrics.items():
            parent, change = ([r["metrics"][metric]["value"] for r in runs[side]]
                              for side in ("parent", "change"))
            result[metric] = compare(parent, change, lower)
        report["workloads"][name] = result
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
