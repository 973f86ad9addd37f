"""Citation-key extraction and first-occurrence numbering for manuscripts."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Protocol, TypeVar

from .bibtex import _SPACE_RUN as _S
from .diagnostics import Diagnostic

_KEY = r"[A-Za-z0-9.:*+/_-]+"
_KEY_RE = re.compile(_KEY)
# A ``\cite`` and its brace group.  Group 1 is set when the group is a list
# of well-formed keys, each with optional space around it; group 2 holds any
# other group, which is checked key by key.  Runs are possessive as in bibtex.
_CITE_RE = re.compile(
    rf"\\cite{_S}\{{(?:({_S}{_KEY}+{_S}(?:,{_S}{_KEY}+{_S})*)|([^{{}}]*+))\}}")


class CitationIndex(NamedTuple):
    """Cited keys in first-appearance order; a key's number is its position."""

    keys: tuple[str, ...] = ()
    occurrences: tuple[tuple[str, int], ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()


def _blank_comments(text: str) -> str:
    """Replace %-to-EOL comments with spaces so offsets stay stable.

    A backslash escapes only the character after it, so a ``%`` after an
    odd run of backslashes is text and any other ``%`` starts a comment.
    Only the ``%`` characters are visited; each backslash run is counted
    once, by the one character that ends it.
    """
    pieces: list[str] = []
    done = 0  # text[:done] is already in pieces
    pct = text.find("%")
    while pct != -1:
        run = pct
        while run and text[run - 1] == "\\":
            run -= 1
        if (pct - run) % 2:
            pct = text.find("%", pct + 1)
            continue
        end = text.find("\n", pct)
        if end == -1:
            end = len(text)
        pieces += (text[done:pct], " " * (end - pct))
        done = end
        pct = text.find("%", end)
    if not pieces:
        return text
    pieces.append(text[done:])
    return "".join(pieces)


def scan_citations(text: str) -> CitationIndex:
    """Collect ``\\cite{...}`` keys in order of first appearance.

    Comma-separated groups expand in place, incidental whitespace around
    keys is trimmed, and citations inside %-comments are ignored.  Empty
    groups and keys with characters outside the accepted set produce
    diagnostics rather than failures.
    """
    source = _blank_comments(text)
    occurrences: list[tuple[str, int]] = []
    diagnostics: list[Diagnostic] = []
    for match in _CITE_RE.finditer(source):
        keys, group = match.groups()
        offset = match.start()
        if keys is not None:
            for key in keys.split(","):
                occurrences.append((key.strip(), offset))
            continue
        if not group.strip():
            diagnostics.append(Diagnostic(
                "empty-cite-group", "\\cite with no citation key", offset))
            continue
        for raw_key in group.split(","):
            key = raw_key.strip()
            if not key or not _KEY_RE.fullmatch(key):
                diagnostics.append(Diagnostic(
                    "malformed-key", f"malformed citation key {raw_key.strip()!r}",
                    offset))
                continue
            occurrences.append((key, offset))
    return CitationIndex(
        keys=tuple(dict.fromkeys(key for key, _ in occurrences)),
        occurrences=tuple(occurrences),
        diagnostics=tuple(diagnostics),
    )


class _Keyed(Protocol):
    @property
    def key(self) -> str: ...


_Record = TypeVar("_Record", bound=_Keyed)


def resolve(keys: Iterable[str],
            records: Iterable[_Record]) -> tuple[list[tuple[int, _Record]], list[str]]:
    """Number ``keys`` by position and pair each with its database record.

    A record is anything with a ``key``, a ``RawEntry`` or a ``BibRecord``.
    A repeated key keeps its first number; unlisted records are excluded.
    Missing keys are reported without renumbering, so their gaps stay open.
    """
    by_key = {}
    for record in records:
        by_key.setdefault(record.key, record)
    resolved: list[tuple[int, _Record]] = []
    missing: list[str] = []
    for number, key in enumerate(dict.fromkeys(keys), start=1):
        record = by_key.get(key)
        if record is None:
            missing.append(key)
        else:
            resolved.append((number, record))
    return resolved, missing
