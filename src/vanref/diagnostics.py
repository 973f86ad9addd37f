"""Positioned diagnostics shared by the parser, normalizer, scanner and CLI."""

from __future__ import annotations

from typing import NamedTuple

ERROR = "error"
WARNING = "warning"
# The codes whose diagnostics are errors; every other code is a warning.
ERROR_CODES = frozenset({"malformed-entry", "empty-name", "malformed-name", "render"})

# Characters per chunk of the line index.  A lookup scans at most one
# chunk, and building the index scans the text once, two calls per chunk.
# Building it and making check-dirty's 1,517 lookups in its seed-1 2.7 MB,
# 75,372-line merged.bib (2 vCPUs, Python 3.11.7, best of 15) took 4.1,
# 3.4, 3.4, 4.0, 5.3 and 8.1 ms at 512, 1024, 2048, 4096, 8192 and
# 16384 characters, against 9.6 ms for an index of every line start.
_CHUNK = 2048


class LineIndex:
    """Line and column lookup over one source text.

    The text is cut into chunks of ``_CHUNK`` characters.  On the first
    lookup one row per chunk is built: the newlines before the chunk and
    the start of the line its first character is on.  A lookup then counts
    newlines only from its chunk's start, so building and looking up are
    linear in the text whatever its line lengths, and a file with no
    positioned diagnostic pays for neither.  Build one index per file and
    pass it to every ``Diagnostic.render`` for that file.
    """

    def __init__(self, source: str):
        self.source = source
        self._rows: list[tuple[int, int]] | None = None

    def _chunk_rows(self) -> list[tuple[int, int]]:
        source = self.source
        rows = [(0, 0)]
        newlines = line_start = 0
        for end in range(_CHUNK, len(source) + 1, _CHUNK):
            newlines += source.count("\n", end - _CHUNK, end)
            line_start = source.rfind("\n", end - _CHUNK, end) + 1 or line_start
            rows.append((newlines, line_start))
        return rows

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a character offset, clamped to the text."""
        if self._rows is None:
            self._rows = self._chunk_rows()
        source = self.source
        offset = max(0, min(offset, len(source)))
        newlines, line_start = self._rows[offset // _CHUNK]
        chunk = offset - offset % _CHUNK
        line = newlines + source.count("\n", chunk, offset) + 1
        line_start = source.rfind("\n", chunk, offset) + 1 or line_start
        return line, offset - line_start + 1


class Diagnostic(NamedTuple):
    code: str
    message: str
    offset: int | None = None

    @property
    def severity(self) -> str:
        return ERROR if self.code in ERROR_CODES else WARNING

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

