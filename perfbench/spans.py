"""Per-layer spans recorded from outside the program.

The layers are vanref's modules.  ``Tracer.installed`` replaces the names
``vanref.cli`` calls into with wrappers that record a span (layer, start,
end, parent) and a few counts taken from the arguments and results, then
puts the originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# layer name -> attribute of vanref.cli it wraps
CLI_CALLS = {
    "bibtex": "parse_database",
    "model": "normalize",
    "citescan.scan": "scan_citations",
    "citescan.resolve": "resolve",
    "render": "render_reference",
}
LAYERS = ("cli", "bibtex", "model", "citescan.scan", "citescan.resolve",
          "render", "diagnostics")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _wrap(self, layer, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.failed"] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            counts[f"{layer}.calls"] += 1
            if count is not None:
                count(counts, result)
            return result

        return traced

    @contextmanager
    def installed(self, cli_module, diagnostic_class):
        counters = {
            "bibtex": _count_parse,
            "model": _count_normalize,
            "citescan.scan": _count_scan,
            "citescan.resolve": _count_resolve,
        }
        originals = {name: getattr(cli_module, name)
                     for name in CLI_CALLS.values()}
        render = diagnostic_class.render
        try:
            for layer, name in CLI_CALLS.items():
                setattr(cli_module, name,
                        self._wrap(layer, originals[name], counters.get(layer)))
            diagnostic_class.render = self._wrap("diagnostics", render)
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli_module, name, fn)
            diagnostic_class.render = render

    def call(self, main, *args):
        """Run ``main(*args)`` as the root ``cli`` span."""
        return self._wrap("cli", main)(*args)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, *_), seconds in zip(self.spans, own):
            totals[layer] += seconds
        return totals

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _count_parse(counts, db):
    counts["bibtex.entries"] += len(db.entries)
    counts["bibtex.skipped"] += sum(d.code == "malformed-entry"
                                    for d in db.diagnostics)


def _count_normalize(counts, result):
    counts["model.diagnostics"] += len(result[1])


def _count_scan(counts, index):
    counts["citescan.cites"] += len(index.occurrences)
    counts["citescan.keys"] += len(index.keys)


def _count_resolve(counts, result):
    counts["citescan.missing"] += len(result[1])
