#!/usr/bin/env python3
"""Format the bundled sample database against its manuscript, as
``vanref format`` does, and report any line that drifts from the frozen
expected output.  Diagnostics are passed on to stderr; the exit code is 1
when a line drifts, the command fails or it reports any diagnostic.

Usage: python scripts/render_corpus.py [--diff-only]
"""

import argparse
import io
import sys
from itertools import zip_longest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vanref.cli import RunConfig, cmd_format  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diff-only", action="store_true",
                        help="print only lines that differ from expected")
    args = parser.parse_args()

    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(bib_paths=[str(DATA / "vancouver.bib")],
                       tex_path=str(DATA / "manuscript.tex"))
    code = cmd_format(config, stdout=out, stderr=err)
    got = out.getvalue().splitlines()
    expected = (DATA / "expected_refs.txt").read_text(encoding="utf-8").splitlines()

    drifted = 0
    for number, (line, want) in enumerate(zip_longest(got, expected), start=1):
        want = None if want is None else f"{number}. {want}"
        if line != want:
            drifted += 1
            print(f"!! {number}.")
            print(f"   got : {line}")
            print(f"   want: {want}")
        elif not args.diff_only:
            print(line)
    sys.stderr.write(err.getvalue())
    print(f"\n{len(got)} references, {drifted} drifted", file=sys.stderr)
    return 1 if drifted or code or err.getvalue() else 0


if __name__ == "__main__":
    sys.exit(main())
