#!/usr/bin/env python3
"""List the function-body lines of ``src/vanref`` that no tier-1 test runs.

Usage, from anywhere:

    python scripts/line_audit.py [extra pytest arguments]

Runs the tests under ``tests/`` in this process with a ``sys.settrace``
line tracer that follows only frames whose code is in ``src/vanref``.  A
line counts when a statement inside a function (a method or a nested
function included) starts on it and the interpreter compiled an
instruction for it, so docstrings do not.  Prints each such line that no
test ran as ``path:line`` and exits 1, or exits 0 when every one ran.

The audit reads coverage only.  Tracing makes the tests about three times
slower, so wall-clock tests (the acceptance page-compression oracle,
``test_long_braced_fields_parse_in_linear_time``) can fail under it; test
outcomes are the tier-1 step's to judge, and this script fails on them
only when pytest could not run the tests at all (exit status 2 or more).
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vanref"


def body_lines(path: Path) -> set[int]:
    source = path.read_text(encoding="utf-8")
    compiled, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return compiled & {stmt.lineno for node in ast.walk(ast.parse(source))
                       if isinstance(node, ast.FunctionDef)
                       for top in node.body for stmt in ast.walk(top)
                       if isinstance(stmt, ast.stmt)}


def main() -> int:
    hit = {path: set() for path in SRC.glob("*.py")}
    files: dict[str, set[int] | None] = {}  # code file name -> its lines run

    def line(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = hit.get(Path(name).resolve())
        return None if files[name] is None else line

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--tb=no", "-rN", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)
    if status >= 2:
        print(f"line_audit: pytest exited {status}; no audit", file=sys.stderr)
        return 2
    missed = [f"{path.relative_to(ROOT)}:{line}" for path in sorted(hit)
              for line in sorted(body_lines(path) - hit[path])]
    print("\n".join(missed) or "line_audit: every function-body line ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
