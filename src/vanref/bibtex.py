"""Parser for BibTeX-style bibliography databases.

The grammar accepted is ``@type{key, name = value, ...}`` with brace-,
quote- or bare-delimited values, ``#`` concatenation, ``@string`` macros,
``@comment``/``@preamble`` blocks and ``%``-to-end-of-line comments between
entries.  Values come back verbatim, whitespace included, with delimiters
removed and macros expanded; ``strip_latex`` cleans a value where it is read.

Most entries are read by one regex match: ``_ENTRY`` takes the entry's
head and its leading run of plain fields (``name = {value}`` with braces at
most one level deep, or ``name = word``) and builds the field dict from its
groups; a run that repeats a field name is read group by group in field
order, so the first value wins and every diagnostic comes out at the same
offset and in the same order as recursive descent would give.  Recursive
descent reads everything else from where the match stopped: quoted values,
``#``, deeper braces, fields past the unrolled count, the closing delimiter
and syntax errors, and whole ``@string``, ``@preamble`` and ``@comment``
blocks.  The match's runs are possessive: the same matches, with no
backtracking point kept.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, error, warning

# Month macros, predefined as in the standard BibTeX styles: the one month table.
MONTH_MACROS = {
    "jan": "January",
    "feb": "February",
    "mar": "March",
    "apr": "April",
    "may": "May",
    "jun": "June",
    "jul": "July",
    "aug": "August",
    "sep": "September",
    "oct": "October",
    "nov": "November",
    "dec": "December",
}

# Identifier characters follow BibTeX: anything but whitespace and the
# syntax characters below.  Citation keys may start with a digit ("21st").
_NAME = r"""[^\s"#%'(),={}]+"""
_NAME_RE = re.compile(_NAME)
_TYPE_RE = re.compile(r"[A-Za-z]+")
# Skippable space is any whitespace run, no-break spaces included.
_SPACE = r"\s*"
_SPACE_RE = re.compile(_SPACE)
# Free text between entries: it ends at an '@' outside a %-to-EOL comment.
# Its runs are possessive, so re keeps no backtracking state over a long run.
_JUNK_RE = re.compile(r"[^@%]*+(?:%[^\n]*+(?:\n[^@%]*+)?+)*+")
_HASH_RE = re.compile(_SPACE + "#" + _SPACE)
# Each run marked possessive (``*+``, ``++``) in ``_ENTRY`` and
# ``citescan._CITE_RE`` is followed only by what it cannot match (a space run
# by a non-space, a type, key or name by a character outside it, braced text
# by a brace), so giving a character back never lets the rest match.
_SPACE_RUN = _SPACE + "+"
# One field in the general loop: ``, name =`` and the space after it.
# After the comma each part is optional, and the first one missing says
# which syntax error to report.
_FIELD_RE = re.compile(
    "," + _SPACE + "(?:(?P<name>" + _NAME + ")" + _SPACE
    + "(?:(?P<eq>=)" + _SPACE + ")?)?"
)
# An entry's head and its leading run of plain fields, in one match.  A
# plain field is ``, name = {value}`` with braces nested at most one level
# deep, or ``, name = word``, with no ``#`` after the value; the space after
# it is part of the field.  Each field is tried only after the one before it
# matched, so the run stops at the first field that is not plain.  Then
# ``closed`` takes the entry's own delimiter, after an optional trailing
# comma, or recursive descent resumes where the run stopped.  An optional
# field is written ``(?:field|)``, not ``(?:field)?``, which re matches
# about a quarter faster here.  Groups: 1 type, 2 key after '{', 3 key after
# '(', then per field 3k + 4 name, 3k + 5 braced value, 3k + 6 word, and
# last ``closed``.
_BRACED = "[^{}]*+"
_PLAIN_FIELD = (
    "," + _SPACE_RUN + "(" + _NAME + "+)" + _SPACE_RUN + "=" + _SPACE_RUN
    + r"(?:\{(" + _BRACED + r"(?:\{" + _BRACED + r"\}" + _BRACED + r")*+)\}"
    + "|(" + _NAME + "+))" + _SPACE_RUN + "(?!#)"
)
_PLAIN_RUN = 12  # fields per match; the rest go through the general loop
# Compiled by each ``parse_database`` call, which re's cache makes one
# lookup after the first, so that importing vanref does not pay for it.
_ENTRY = (
    "@" + _SPACE_RUN + "(" + _TYPE_RE.pattern + "+)" + _SPACE_RUN
    + r"(?:\{" + _SPACE_RUN + r"([^,\s{}]++)|\(" + _SPACE_RUN + r"([^,\s()]++))"
    + _SPACE_RUN + ("(?:" + _PLAIN_FIELD) * _PLAIN_RUN + "|)" * _PLAIN_RUN
    + "(?P<closed>(?:," + _SPACE_RUN + r")?(?(2)\}|\)))?"
)
_BLOCKS = ("comment", "preamble", "string")


class BibtexSyntaxError(ValueError):
    """Parse failure; ``offset`` locates the problem in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class RawEntry(NamedTuple):
    """One database record with verbatim (macro-expanded) field values."""

    entry_type: str
    key: str
    fields: dict[str, str]
    span: tuple[int, int] = (0, 0)


class Database(NamedTuple):
    entries: list[RawEntry]
    macros: dict[str, str]
    diagnostics: list[Diagnostic]


def _skip_space(text: str, i: int) -> int:
    return _SPACE_RE.match(text, i).end()


def _skip_junk(text: str, i: int) -> int:
    """Advance past inter-entry free text, honoring %-to-EOL comments."""
    return _JUNK_RE.match(text, i).end()


_BRACE_JUMP_RE = re.compile(r"[{}]")
_QUOTE_JUMP_RE = re.compile(r'["{}]')


class _Lowercase(dict):
    """Each name as read mapped to its lowercase form, one string per form.

    A database repeats a few field names and entry types thousands of
    times; sharing one string for each within a parse saves a copy per
    field, as the key memo of CPython's ``json`` decoder does.  It holds
    names only, never values, and lives as long as its parser.
    """

    def __missing__(self, name: str) -> str:
        lower = name.lower()
        self[name] = lower = self.setdefault(lower, lower)
        return lower


class _Parser:
    """Recursive-descent parser with per-entry error recovery."""

    def __init__(self, text: str, macros: dict[str, str] | None = None):
        self.text = text
        self._match_entry = re.compile(_ENTRY).match
        self.db = Database([], {**MONTH_MACROS, **(macros or {})}, [])
        self._seen_keys: set[str] = set()
        self._lower = _Lowercase()
        # offsets of the '{'s that are never closed, from the delimiter of
        # the first value that ran to the end of the text (see _never_closed)
        self._unclosed: set[int] | None = None

    def run(self) -> Database:
        pos = 0
        n = len(self.text)
        while pos < n:
            pos = _skip_junk(self.text, pos)
            if pos >= n:
                break
            try:
                pos = self._parse_block(pos)
            except BibtexSyntaxError as exc:
                self.db.diagnostics.append(error(
                    "malformed-entry",
                    f"entry skipped: {exc}",
                    pos,
                ))
                resume = self.text.find("@", max(pos, exc.offset) + 1)
                pos = n if resume == -1 else resume
        return self.db

    # -- block-level parsing

    def _parse_block(self, at: int) -> int:
        m = self._match_entry(self.text, at)
        if m is None or (entry_type := self._lower[m[1]]) in _BLOCKS:
            return self._parse_general(at)
        g = m.groups()
        key = g[1] or g[2]
        names = [*map(self._lower.__getitem__, filter(None, g[3:-1:3]))]
        fields = dict(zip(names, g[4::3]))
        if len(fields) < len(names):
            # a duplicate field: read the run in order, as _parse_fields
            # would, so that the first value wins and each warning comes
            # in its place among the entry's undefined macros
            fields = {}
            for j, name in enumerate(names):
                value = g[3 * j + 4]
                if value is None:
                    value = self._expand(g[3 * j + 5], m.start(3 * j + 6))
                if name in fields:
                    self._duplicate_field(name, key, m.start(3 * j + 4))
                else:
                    fields[name] = value
        elif any(g[5::3]):
            for j, word in enumerate(g[5::3]):
                if word is not None:
                    fields[names[j]] = self._expand(word, m.start(3 * j + 6))
        i = m.end()
        if g[-1] is None:  # not closed yet: go on field by field
            i = self._parse_fields(key, fields, i, "}" if g[1] else ")")
        return self._add_entry(entry_type, key, fields, at, i)

    def _parse_general(self, at: int) -> int:
        """Parse an ``@string``, ``@preamble`` or ``@comment`` block, or report
        why an entry's head failed ``_ENTRY``: a stray ``@``, no opening
        delimiter, or no key.  An entry whose head matches never comes here."""
        text = self.text
        i = _skip_space(text, at + 1)
        m = _TYPE_RE.match(text, i)
        if m is None:
            return at + 1  # stray '@': junk
        entry_type = m.group(0).lower()
        i = _skip_space(text, m.end())
        if entry_type == "comment":
            return i
        if i >= len(text) or text[i] not in "{(":
            raise BibtexSyntaxError(f"expected '{{' after @{entry_type}", i)
        close = "}" if text[i] == "{" else ")"
        i = _skip_space(text, i + 1)
        if entry_type == "string":
            return self._parse_string(i, close)
        if entry_type == "preamble":
            _, i = self._parse_value(i)
            return self._expect(i, close)
        # _ENTRY matches whenever the type, delimiter and key do, and its
        # fields and close are optional, so only the key can be missing
        raise BibtexSyntaxError("missing citation key", i)

    def _parse_string(self, i: int, close: str) -> int:
        text = self.text
        m = _NAME_RE.match(text, i)
        if m is None or (m[0].isascii() and m[0].isdigit()):
            raise BibtexSyntaxError("expected macro name in @string", i)
        name = m.group(0).lower()
        i = self._expect(_skip_space(text, m.end()), "=")
        value, i = self._parse_value(_skip_space(text, i))
        if name in self.db.macros and name not in MONTH_MACROS:
            self.db.diagnostics.append(
                warning("macro-redefined", f"macro '{name}' redefined", m.start()))
        self.db.macros[name] = value
        return self._expect(_skip_space(text, i), close)

    def _parse_fields(self, key: str, fields: dict[str, str], i: int,
                      close: str) -> int:
        """Add the fields from ``i`` to ``fields``; return the end of the entry."""
        text = self.text
        n = len(text)
        while True:
            if i >= n:
                raise BibtexSyntaxError("input ended inside an entry", n)
            if text[i] == close:
                i += 1
                break
            m = _FIELD_RE.match(text, i)
            if m is None:
                raise BibtexSyntaxError(f"expected ',', found {text[i]!r}", i)
            i = m.end()
            name, eq = m.groups()
            if name is None:
                if i < n and text[i] == close:  # trailing comma
                    i += 1
                    break
                raise BibtexSyntaxError("expected field name", i)
            if eq is None:
                if i >= n:
                    raise BibtexSyntaxError("expected '=' before end of input", n)
                raise BibtexSyntaxError(f"expected '=', found {text[i]!r}", i)
            value, i = self._parse_value(i)
            i = _skip_space(text, i)
            name = self._lower[name]
            if name in fields:
                self._duplicate_field(name, key, m.start("name"))
            else:
                fields[name] = value
        return i

    def _duplicate_field(self, name: str, key: str, at: int) -> None:
        self.db.diagnostics.append(warning(
            "duplicate-field",
            f"duplicate field '{name}' in entry '{key}' ignored",
            at,
        ))

    def _add_entry(self, entry_type: str, key: str, fields: dict[str, str],
                   at: int, end: int) -> int:
        if key in self._seen_keys:
            self.db.diagnostics.append(warning(
                "duplicate-key",
                f"duplicate entry key '{key}'; first occurrence kept",
                at,
            ))
        else:
            self._seen_keys.add(key)
            self.db.entries.append(
                RawEntry(entry_type, key, fields, (at, end)))
        return end

    # -- value parsing (with '#' concatenation and macro expansion)

    def _parse_value(self, i: int) -> tuple[str, int]:
        value, i = self._parse_piece(i)
        while m := _HASH_RE.match(self.text, i):
            piece, i = self._parse_piece(m.end())
            value += piece
        return value, i

    def _parse_piece(self, i: int) -> tuple[str, int]:
        text = self.text
        if i >= len(text):
            raise BibtexSyntaxError("input ended where a value was expected", len(text))
        c = text[i]
        if c == "{":
            return self._scan_braced(i + 1)
        if c == '"':
            return self._scan_quoted(i + 1)
        m = _NAME_RE.match(text, i)
        if m is None:
            raise BibtexSyntaxError(f"expected a value, found {c!r}", i)
        return self._expand(m.group(0), i), m.end()

    def _expand(self, word: str, at: int) -> str:
        """A bare word's value: a number as written, or its macro's text."""
        if word.isascii() and word.isdigit():
            return word
        expansion = self.db.macros.get(word.lower())
        if expansion is None:
            self.db.diagnostics.append(warning(
                "undefined-macro", f"undefined macro '{word}'", at))
            return ""
        return expansion

    def _scan_braced(self, i: int) -> tuple[str, int]:
        """Scan text after an opening brace up to its matching close brace."""
        text = self.text
        start = i
        if self._unclosed and start - 1 in self._unclosed:
            raise self._never_closed("brace", start - 1)
        depth = 0
        while m := _BRACE_JUMP_RE.search(text, i):
            if m.group(0) == "{":
                depth += 1
            elif depth == 0:
                return text[start:m.start()], m.end()
            else:
                depth -= 1
            i = m.end()
        raise self._never_closed("brace", start - 1)

    def _scan_quoted(self, i: int) -> tuple[str, int]:
        """Scan text after an opening quote; braces may nest inside."""
        text = self.text
        unclosed = self._unclosed
        start = i
        depth = 0
        while m := _QUOTE_JUMP_RE.search(text, i):
            c = m.group(0)
            if c == '"':
                if depth == 0:
                    return text[start:m.start()], m.end()
            elif c == "{":
                if unclosed and m.start() in unclosed:
                    break  # the string can only end with the text
                depth += 1
            else:
                depth -= 1
                if depth < 0:
                    raise BibtexSyntaxError("unexpected '}' inside string", m.start())
            i = m.end()
        raise self._never_closed("string", start - 1)

    def _never_closed(self, what: str, at: int) -> BibtexSyntaxError:
        """The error for a value whose delimiter at ``at`` is never closed.

        Recovery resumes at the next '@', so without help every later value
        that opens inside the unclosed one would scan to the end of the text
        again.  The first such error therefore finds, in one stack pass from
        ``at``, every '{' after it that is never closed.  Whether a '{' is
        closed depends only on the text after it, and parsing never returns
        before ``at``, so the set stays exact: a later brace value that
        opens at one of them, or a string that reaches one, fails at once.
        """
        if self._unclosed is None:
            stack: list[int] = []
            for m in _BRACE_JUMP_RE.finditer(self.text, at):
                if m.group(0) == "{":
                    stack.append(m.start())
                elif stack:
                    stack.pop()
            self._unclosed = set(stack)
        return BibtexSyntaxError(f"{what} opened here is never closed", at)

    def _expect(self, i: int, char: str) -> int:
        i = _skip_space(self.text, i)
        if i >= len(self.text):
            raise BibtexSyntaxError(f"expected '{char}' before end of input", len(self.text))
        if self.text[i] != char:
            raise BibtexSyntaxError(f"expected '{char}', found {self.text[i]!r}", i)
        return i + 1


def parse_database(text: str, macros: dict[str, str] | None = None) -> Database:
    """Parse a ``.bib`` source into entries, a macro table and diagnostics.

    Malformed entries are skipped with a positioned diagnostic and parsing
    continues at the next ``@``.  Duplicate keys keep the first occurrence.
    Never raises on string input.
    """
    return _Parser(text, macros).run()


def _flatten(value: str) -> str:
    return " ".join(value.split())


_CONTROL_WORD_RE = re.compile(r"[A-Za-z]+\*?")
_ESCAPES = {"&": "&", "%": "%", "_": "_", "#": "#", "$": "$", "{": "{", "}": "}"}
_SPECIAL_RE = re.compile(r"[\\${}]|--+")


def _has_special(value: str) -> bool:
    """Whether ``_SPECIAL_RE`` matches in ``value``.

    Five substring scans: several times faster than the regex search, whose
    alternation steps through the value one position at a time.
    """
    return ("\\" in value or "{" in value or "}" in value or "$" in value
            or "--" in value)


def strip_latex(value: str, diagnostics: list[Diagnostic] | None = None) -> str:
    """Reduce a raw field value to plain text, whitespace runs collapsed.

    Handles the escape list (``\\&`` and friends), ``--`` outside math,
    and brace groups, which are unwrapped with their content preserved.
    ``\\\\`` and a control space (``\\`` before whitespace) become a space.
    Unknown control sequences are dropped, a control word with the
    whitespace after it as in TeX; each adds a diagnostic when a sink list
    is supplied.  Never fails.
    """
    if not _has_special(value):
        return " ".join(value.split())
    m = _SPECIAL_RE.search(value)
    out: list[str] = []
    i = 0
    in_math = False
    # jump from one special character to the next, copying the text between
    while m:
        j = m.start()
        out.append(value[i:j])
        c = value[j]
        i = m.end()
        if c == "\\":
            nxt = value[i:i + 1]
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 1
            elif nxt == "\\" or nxt.isspace():
                out.append(" ")
                i += 1
            elif word := _CONTROL_WORD_RE.match(value, i):
                if diagnostics is not None:
                    diagnostics.append(warning(
                        "unknown-macro",
                        f"dropped control sequence '\\{word.group(0)}'",
                        j,
                    ))
                i = _skip_space(value, word.end())
            else:
                if diagnostics is not None:
                    diagnostics.append(warning(
                        "unknown-macro", f"dropped control symbol '\\{nxt}'", j))
                i += 1
        elif c == "$":
            in_math = not in_math
            out.append(c)
        elif in_math:
            out.append(m.group(0))  # braces and dashes stay as written in math
        elif c == "-":
            out.append("-")
        # else a case-protection brace: drop it, keep the content
        m = _SPECIAL_RE.search(value, i)
    out.append(value[i:])
    return _flatten("".join(out))
