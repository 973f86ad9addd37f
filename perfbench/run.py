#!/usr/bin/env python3
"""vanref benchmark: CLI wall time on seeded manuscript workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cite-shared-db --seed 1 \\
        --seconds 30 --trace 0

A closed loop with one client: one ``vanref`` child process, or one
in-process ``vanref.cli.main`` call, at a time.  The workload is generated
from ``tests/data`` with ``--seed`` (see ``workloads.py``) and every output
is checked against a reference vanref did not produce.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (spawn to exit of
one CLI process), ``inproc_s`` (a warm ``main(argv)`` call), ``setup_s``
(a child that only imports ``vanref.cli``) and ``peak_rss_mb`` (of the CLI
child).  ``--trace 1`` reports per-layer metrics from a separate traced
run at full and at half size (see ``spans.py``).

Every metric is printed with its unit and sample count on stderr, and the
last line of stdout is the result as one JSON object.  The full record,
with machine, Python version, commit, input sizes and the SHA-256 of the
output, goes to ``.perfbench_out/`` in the checkout; traced runs also
write their spans there.  The exit code is 1 when any output was wrong
and 2 when the checkout holds no vanref sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SETUP_PER_ROUND = 5     # import-only children per round of the timed loop
MIN_SAMPLES = 3         # timed samples per metric, whatever --seconds says
WARMUP_SCALE = 0.1      # size of the untimed in-process warm-up run
CHILD_TIMEOUT_S = 150   # kill a vanref child that runs longer than this

# Layers each workload must reach; a layer with zero calls fails the run.
REQUIRED = {
    "cite-shared-db": ("cli", "bibtex", "model", "citescan.scan",
                       "citescan.resolve", "render"),
    "thesis-all-cited": ("cli", "bibtex", "model", "citescan.scan",
                         "citescan.resolve", "render"),
    "check-dirty": ("cli", "bibtex", "model", "render", "diagnostics"),
}


class Spawned(NamedTuple):
    """Outcome of one child process."""

    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], env: dict[str, str], workdir: Path) -> Spawned:
    """Run one child; time it from spawn to exit and read its peak RSS."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Spawned(code, seconds, usage.ru_maxrss / 1024,
                   out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"))


def call_main(main, argv: list[str], tracer: Tracer | None = None):
    """One in-process ``main(argv)`` with stdout and stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = tracer.call(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a wrong output, like a crashed child
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - started
    return code, seconds, out.getvalue(), err.getvalue()


def rounds(seconds: float):
    """Yield round numbers until ``seconds`` are used up, at least MIN_SAMPLES.

    A round is not started when it would probably end more than half a
    round past the deadline, so a run lasts about ``seconds``.
    """
    started = time.perf_counter()
    deadline = started + seconds
    count = 0
    while True:
        now = time.perf_counter()
        per_round = (now - started) / count if count else 0.0
        if count >= MIN_SAMPLES and now + per_round / 2 > deadline:
            return
        yield count
        count += 1


class Run:
    """Samples, outcome checks and records of one benchmark run."""

    def __init__(self, name: str):
        self.name = name
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0                  # wrong outputs among those attempted
        self.problems: list[str] = []
        self.stdout_sha256: dict[str, str] = {}

    def check(self, label: str, workload, code, stdout, stderr) -> None:
        self.attempted += 1
        found = workloads.verify(workload, code, stdout, stderr)
        if found:
            self.failed += 1
            self.problems.append(f"{label} (scale {workload.scale}): "
                                 + "; ".join(found))
        self.stdout_sha256.setdefault(
            f"scale {workload.scale}", hashlib.sha256(stdout.encode()).hexdigest())

    def check_import(self, child: Spawned) -> None:
        self.attempted += 1
        if child.code != 0 or child.stdout or child.stderr:
            self.failed += 1
            self.problems.append(f"import vanref.cli: exit {child.code}, "
                                 f"output {(child.stdout + child.stderr)[-200:]!r}")

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def measure_end_to_end(run: Run, wl, argv, main, env, workdir, seconds):
    # the first child may compile bytecode; it is not timed
    spawn(["-c", "import vanref.cli"], env, workdir)
    for _ in rounds(seconds):
        # set-up samples are spread over the loop, like the others, so that
        # a slow spell of a shared machine does not land on one metric only
        for _ in range(SETUP_PER_ROUND):
            child = spawn(["-c", "import vanref.cli"], env, workdir)
            run.check_import(child)
            run.add("setup_s", child.seconds)
        child = spawn(["-m", "vanref", *argv], env, workdir)
        run.check("cli", wl, child.code, child.stdout, child.stderr)
        run.add("wall_s", child.seconds)
        run.add("peak_rss_mb", child.rss_mb)
        code, elapsed, out, err = call_main(main, argv)
        run.check("in-process", wl, code, out, err)
        run.add("inproc_s", elapsed)
    return {name: (statistics.median(run.samples[name]), unit,
                   len(run.samples[name]))
            for name, unit in (("wall_s", "s"), ("inproc_s", "s"),
                               ("setup_s", "s"), ("peak_rss_mb", "MB"))}


def measure_layers(run: Run, wl, argv, half, half_argv, main, cli_module,
                   diagnostic_class, seconds, spans_path):
    full_self: list[dict[str, float]] = []
    half_self: list[dict[str, float]] = []
    counts = None
    for _ in rounds(seconds):
        code, elapsed, out, err = call_main(main, argv)
        run.check("in-process", wl, code, out, err)
        run.add("inproc_s", elapsed)
        for target, target_argv, sink in ((wl, argv, full_self),
                                          (half, half_argv, half_self)):
            tracer = Tracer()
            with tracer.installed(cli_module, diagnostic_class):
                code, _, out, err = call_main(main, target_argv, tracer)
            run.check("traced", target, code, out, err)
            sink.append(tracer.self_times())
            if target is wl:
                # paired with the untraced call just before it, so that a
                # slow spell of the machine does not pass for overhead
                run.add("traced_ratio", tracer.root_seconds() / elapsed)
                if counts is not None and counts != tracer.counts:
                    run.problems.append("traced counts differ between runs")
                counts = tracer.counts
                last = tracer
    last.write(spans_path)
    for layer in REQUIRED[run.name]:
        if counts[f"{layer}.calls"] == 0:
            run.problems.append(f"layer {layer} recorded no calls")

    def median_self(samples, *layers):
        return statistics.median(sum(s[layer] for layer in layers)
                                 for s in samples)

    def growth(*layers):
        # full and half size run back to back; pairing them keeps a slow
        # spell of the machine out of the ratio
        ratios = [sum(f[layer] for layer in layers) / half
                  for f, h in zip(full_self, half_self)
                  if (half := sum(h[layer] for layer in layers)) > 0]
        return statistics.median(ratios) if ratios else 0.0

    def per(seconds_, count):
        return seconds_ / count * 1e6 if count else 0.0

    own = {layer: median_self(full_self, layer) for layer in LAYERS}
    overhead = statistics.median(run.samples["traced_ratio"]) - 1
    metrics = {
        "bibtex.self_s": (own["bibtex"], "s"),
        "bibtex.entries": (counts["bibtex.entries"], "count"),
        "bibtex.skipped": (counts["bibtex.skipped"], "count"),
        "bibtex.us_per_entry": (per(own["bibtex"], counts["bibtex.entries"]), "us"),
        "bibtex.growth": (growth("bibtex"), "ratio"),
        "model.self_s": (own["model"], "s"),
        "model.calls": (counts["model.calls"], "count"),
        "model.diagnostics": (counts["model.diagnostics"], "count"),
        "model.us_per_entry": (per(own["model"], counts["model.calls"]), "us"),
        "model.growth": (growth("model"), "ratio"),
        "citescan.scan_s": (own["citescan.scan"], "s"),
        "citescan.resolve_s": (own["citescan.resolve"], "s"),
        "citescan.cites": (counts["citescan.cites"], "count"),
        "citescan.keys": (counts["citescan.keys"], "count"),
        "citescan.missing": (counts["citescan.missing"], "count"),
        "citescan.growth": (growth("citescan.scan", "citescan.resolve"), "ratio"),
        "render.self_s": (own["render"], "s"),
        "render.refs": (counts["render.calls"], "count"),
        "render.failed": (counts["render.failed"], "count"),
        "render.us_per_ref": (per(own["render"], counts["render.calls"]
                                  + counts["render.failed"]), "us"),
        "render.growth": (growth("render"), "ratio"),
        "diagnostics.self_s": (own["diagnostics"], "s"),
        "diagnostics.count": (counts["diagnostics.calls"], "count"),
        "diagnostics.us_per_diag": (per(own["diagnostics"], counts["diagnostics.calls"]), "us"),
        "diagnostics.growth": (growth("diagnostics"), "ratio"),
        "cli.self_s": (own["cli"], "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    n = len(full_self)
    share = {layer: t / sum(own.values()) for layer, t in own.items()}
    return ({name: (value, unit, n) for name, (value, unit) in metrics.items()},
            {"share": share, "full": full_self, "half": half_self})


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def revision() -> dict:
    """The commit when the checkout is a git tree, and a hash of src/."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def import_vanref():
    """Import vanref from this checkout's src/, and nowhere else."""
    if not (SRC / "vanref" / "cli.py").is_file():
        raise ImportError(f"no vanref sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vanref.cli
    import vanref.diagnostics
    if SRC not in Path(vanref.cli.__file__).resolve().parents:
        raise ImportError(f"vanref imported from {vanref.cli.__file__}, "
                          f"not from {SRC}")
    return vanref.cli, vanref.diagnostics.Diagnostic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the defined workload; "
                             "results at other sizes are not comparable")
    args = parser.parse_args()
    # a user's style settings would change the output the reference expects
    os.environ.pop("VANREF_CONFIG", None)

    try:
        cli_module, diagnostic_class = import_vanref()
        corpus = workloads.load_corpus()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    wl = workloads.generate(args.workload, args.seed, args.scale, corpus)
    run = Run(args.workload)
    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-scale{args.scale:g}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=WORK))
    try:
        full_dir, half_dir, warm_dir = (workdir / d for d in ("full", "half", "warm"))
        for d in (full_dir, half_dir, warm_dir):
            d.mkdir()
        argv = wl.write(full_dir)
        # warm the in-process path (regex caches, first-call set-up)
        warm = workloads.generate(args.workload, args.seed,
                                  WARMUP_SCALE * args.scale, corpus)
        code, _, out, err = call_main(cli_module.main, warm.write(warm_dir))
        run.check("warm-up", warm, code, out, err)
        if args.trace:
            half = workloads.generate(args.workload, args.seed,
                                      args.scale / 2, corpus)
            metrics, self_times = measure_layers(
                run, wl, argv, half, half.write(half_dir), cli_module.main,
                cli_module, diagnostic_class, args.seconds,
                OUT / f"{stem}-spans.jsonl")
        else:
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            metrics = measure_end_to_end(run, wl, argv, cli_module.main,
                                         env, full_dir, args.seconds)
            self_times = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "elapsed_s": time.perf_counter() - started,
        "machine": machine(), **revision(), "sizes": wl.sizes,
        "stdout_sha256": run.stdout_sha256,
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / run.attempted, "problems": run.problems,
        "metrics": {name: {"value": value, "unit": unit, "samples": n}
                    for name, (value, unit, n) in metrics.items()},
        "raw_samples": run.samples, "layer_self_s": self_times,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} outputs checked, {run.failed} wrong "
          f"(fail_frac {record['fail_frac']:.3f})", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"  WRONG: {problem}", file=sys.stderr)
    for name, entry in record["metrics"].items():
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"n={entry['samples']}", file=sys.stderr)
    if self_times:
        print("  share of self time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in self_times["share"].items()),
            file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())
