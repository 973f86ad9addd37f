#!/usr/bin/env python3
"""In-process A/B timing of two checkouts' ``vanref.cli.main``.

Usage, from anywhere:

    python3 scripts/ab_inproc.py PARENT CHANGE --workload W \\
        [--rounds 30] [--seed 1]

Both checkouts' ``src/vanref`` are loaded into this one process, under the
package names ``vanref_parent`` and ``vanref_change``.  The workload's
files are written once to a temporary directory by CHANGE's
``perfbench/workloads.py``.  Each round calls each side's ``cli.main`` once
on them, with stdout and stderr in memory and a ``gc.collect()`` before
each call, the parent first in even rounds and the change first in odd
ones.  One untimed call per side comes first, and one more untimed call
per side comes last, under ``tracemalloc``, for the peak of the memory
that Python allocates during ``main``.

The script exits 1 as soon as the two sides differ in stdout, stderr or
exit code.  Otherwise it prints each side's median and minimum in ms and
its peak traced MB, the change's median over the parent's, and how many
rounds each side won.

With both sides in one process and alternating call by call, a slow spell
of a shared machine lands on both alike, so a change of a few percent
shows in fewer rounds than paired harness runs need.  It measures ``main``
only: start-up, import and the process's peak RSS are
``scripts/bench_pairs.py``'s.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True  # leave both checkouts as they are
SIDES = ("parent", "change")


def load_package(checkout: Path, name: str):
    """``checkout``'s ``src/vanref`` imported as the package ``name``."""
    root = checkout / "src" / "vanref"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    if spec is None:
        sys.exit(f"ab_inproc: no vanref sources in {checkout}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli")


def load_workloads(checkout: Path):
    spec = importlib.util.spec_from_file_location(
        "ab_inproc_workloads", checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def call(main, argv: list[str]) -> tuple[float, tuple]:
    """Seconds taken by one ``main(argv)``, and its code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - started
    return seconds, (code, out.getvalue(), err.getvalue())


def traced_peak_mb(main, argv: list[str]) -> float:
    """Peak MB that ``tracemalloc`` traces during one ``main(argv)``."""
    gc.collect()
    tracemalloc.start()
    try:
        call(main, argv)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    mains = {side: load_package(getattr(args, side).resolve(), f"vanref_{side}").main
             for side in SIDES}
    workload = load_workloads(args.change.resolve()).generate(args.workload, args.seed)
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_inproc_") as tmp:
        argv = workload.write(Path(tmp))
        for number in range(-1, args.rounds):  # round -1 is the untimed one
            order = SIDES if number % 2 == 0 else SIDES[::-1]
            outcome = {}
            for side in order:
                seconds, outcome[side] = call(mains[side], argv)
                if number >= 0:
                    times[side].append(seconds)
            if outcome["parent"] != outcome["change"]:
                which = [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                                    outcome["parent"], outcome["change"])
                         if a != b]
                print(f"ab_inproc: {args.workload}: the sides differ in "
                      f"{', '.join(which)}", file=sys.stderr)
                return 1
        peaks = {side: traced_peak_mb(mains[side], argv) for side in SIDES}

    medians = {side: statistics.median(times[side]) for side in SIDES}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    losses = sum(c > p for p, c in zip(times["parent"], times["change"]))
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds, outputs identical")
    for side in SIDES:
        print(f"  {side:<6}  median {medians[side] * 1e3:9.2f} ms"
              f"  min {min(times[side]) * 1e3:9.2f} ms"
              f"  peak traced {peaks[side]:7.2f} MB")
    print(f"  change/parent median {medians['change'] / medians['parent']:.3f}; "
          f"rounds won: change {wins}, parent {losses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
