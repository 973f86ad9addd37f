"""Positioned diagnostics shared by the parser, normalizer, scanner and CLI."""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from typing import NamedTuple

ERROR = "error"
WARNING = "warning"

_NEWLINE_RE = re.compile("\n")


class LineIndex:
    """Line and column lookup over one source text.

    The line-start offsets are found on the first lookup, in one pass, so
    a file with no positioned diagnostic never pays for them; each lookup
    after that is a binary search.  Build one index per file and pass it
    to every ``Diagnostic.render`` for that file.
    """

    def __init__(self, source: str):
        self.source = source
        self._starts: array | None = None

    def _line_starts(self) -> array:
        starts = array("q", [0])
        starts.extend(m.end() for m in _NEWLINE_RE.finditer(self.source))
        return starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a character offset, clamped to the text."""
        if self._starts is None:
            self._starts = self._line_starts()
        offset = max(0, min(offset, len(self.source)))
        line = bisect_right(self._starts, offset)
        return line, offset - self._starts[line - 1] + 1


class Diagnostic(NamedTuple):
    severity: str
    code: str
    message: str
    offset: int | None = None

    def render(self, index: LineIndex | None = None, path: str | None = None) -> str:
        """Format as ``path:line:col: severity: message`` for terminal output."""
        prefix = path or ""
        if self.offset is not None and index is not None:
            line, col = index.line_col(self.offset)
            prefix += f":{line}:{col}"
        elif self.offset is not None:
            prefix += f":@{self.offset}"
        if prefix:
            prefix += ": "
        return f"{prefix}{self.severity}: {self.message} [{self.code}]"


def error(code: str, message: str, offset: int | None = None) -> Diagnostic:
    return Diagnostic(ERROR, code, message, offset)


def warning(code: str, message: str, offset: int | None = None) -> Diagnostic:
    return Diagnostic(WARNING, code, message, offset)
