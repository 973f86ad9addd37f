#!/usr/bin/env python3
"""Render the bundled sample database against its manuscript and report
any line that drifts from the frozen expected output.

Usage: python scripts/render_corpus.py [--diff-only]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vanref import (  # noqa: E402
    normalize, parse_database, render_reference, resolve,
    scan_citations,
)

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diff-only", action="store_true",
                        help="print only lines that differ from expected")
    args = parser.parse_args()

    db = parse_database((DATA / "vancouver.bib").read_text(encoding="utf-8"))
    records = [normalize(entry)[0] for entry in db.entries]
    index = scan_citations((DATA / "manuscript.tex").read_text(encoding="utf-8"))
    pairs, missing = resolve(index.keys, records)
    expected = (DATA / "expected_refs.txt").read_text(encoding="utf-8").splitlines()

    drifted = 0
    for (number, record), want in zip(pairs, expected):
        got = render_reference(record)
        if got != want:
            drifted += 1
            print(f"!! {number}. {record.key}")
            print(f"   got : {got}")
            print(f"   want: {want}")
        elif not args.diff_only:
            print(f"{number}. {got}")
    if missing:
        print(f"missing keys: {missing}", file=sys.stderr)
    print(f"\n{len(pairs)} references, {drifted} drifted", file=sys.stderr)
    return 1 if drifted or missing else 0


if __name__ == "__main__":
    sys.exit(main())
