"""Parser for BibTeX-style bibliography databases.

The grammar accepted is ``@type{key, name = value, ...}`` with brace-,
quote- or bare-delimited values, ``#`` concatenation, ``@string`` macros,
``@comment``/``@preamble`` blocks and ``%``-to-end-of-line comments between
entries.  Values are flattened to plain strings at parse time; delimiter
style never reaches later stages.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, error, warning

# Month macros are predefined, like the standard BibTeX styles do.
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
_KEY_BRACE_RE = re.compile(r"[^,\s{}]+")
_KEY_PAREN_RE = re.compile(r"[^,\s()]+")
# Skippable space is any whitespace run, no-break spaces included.
_SPACE = r"\s*"
_SPACE_RE = re.compile(_SPACE)
_HASH_RE = re.compile(_SPACE + "#" + _SPACE)
# One field after the key: ``, name = {value}`` and the space after it.
# After the comma each part is optional, and the first one missing says
# which syntax error to report.  The value group takes only a brace group
# with no brace inside and no ``#`` after it; every other value goes
# through ``_Parser._parse_value``.
_FIELD_RE = re.compile(
    "," + _SPACE
    + "(?:(?P<name>" + _NAME + ")" + _SPACE
    + "(?:(?P<eq>=)" + _SPACE
    + r"(?:\{(?P<value>[^{}]*)\}(?!" + _SPACE + "#)" + _SPACE + ")?)?)?"
)


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
    """Advance past inter-entry free text, honoring %-to-EOL comments.

    The next '@' is found once per run of junk and comments are looked for
    only before it, so each character is scanned a bounded number of times.
    """
    at = text.find("@", i)
    while at != -1:
        pct = text.find("%", i, at)
        if pct == -1:
            return at
        nl = text.find("\n", pct)
        if nl == -1:
            break
        i = nl + 1
        if i > at:  # the comment swallowed that '@'
            at = text.find("@", i)
    return len(text)


_BRACE_JUMP_RE = re.compile(r"[{}]")
_QUOTE_JUMP_RE = re.compile(r'["{}]')


def _flatten(value: str) -> str:
    return " ".join(value.split())


class _Parser:
    """Recursive-descent parser with per-entry error recovery."""

    def __init__(self, text: str, macros: dict[str, str] | None = None):
        self.text = text
        self.db = Database([], {**MONTH_MACROS, **(macros or {})}, [])
        self._seen_keys: set[str] = set()
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
        return self._parse_entry(entry_type, i, close, at)

    def _parse_string(self, i: int, close: str) -> int:
        text = self.text
        m = _NAME_RE.match(text, i)
        if m is None or m.group(0).isdigit():
            raise BibtexSyntaxError("expected macro name in @string", i)
        name = m.group(0).lower()
        i = self._expect(_skip_space(text, m.end()), "=")
        value, i = self._parse_value(_skip_space(text, i))
        if name in self.db.macros and name not in MONTH_MACROS:
            self.db.diagnostics.append(
                warning("macro-redefined", f"macro '{name}' redefined", m.start()))
        self.db.macros[name] = value
        return self._expect(_skip_space(text, i), close)

    def _parse_entry(self, entry_type: str, i: int, close: str, at: int) -> int:
        text = self.text
        key_re = _KEY_PAREN_RE if close == ")" else _KEY_BRACE_RE
        m = key_re.match(text, i)
        if m is None:
            raise BibtexSyntaxError("missing citation key", i)
        key = m.group(0)
        i = _skip_space(text, m.end())
        fields: dict[str, str] = {}
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
            name, eq, value = m.groups()
            if name is None:
                if i < n and text[i] == close:  # trailing comma
                    i += 1
                    break
                raise BibtexSyntaxError("expected field name", i)
            if eq is None:
                if i >= n:
                    raise BibtexSyntaxError("expected '=' before end of input", n)
                raise BibtexSyntaxError(f"expected '=', found {text[i]!r}", i)
            if value is None:
                value, i = self._parse_value(i)
                i = _skip_space(text, i)
            else:
                value = _flatten(value)
            name = name.lower()
            if name in fields:
                self.db.diagnostics.append(warning(
                    "duplicate-field",
                    f"duplicate field '{name}' in entry '{key}' ignored",
                    m.start("name"),
                ))
            else:
                fields[name] = value
        if key in self._seen_keys:
            self.db.diagnostics.append(warning(
                "duplicate-key",
                f"duplicate entry key '{key}'; first occurrence kept",
                at,
            ))
        else:
            self._seen_keys.add(key)
            self.db.entries.append(
                RawEntry(entry_type, key, fields, span=(at, i)))
        return i

    # -- value parsing (with '#' concatenation and macro expansion)

    def _parse_value(self, i: int) -> tuple[str, int]:
        value, i = self._parse_piece(i)
        while m := _HASH_RE.match(self.text, i):
            piece, i = self._parse_piece(m.end())
            value += piece
        return _flatten(value), i

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
        word = m.group(0)
        if word.isdigit():
            return word, m.end()
        expansion = self.db.macros.get(word.lower())
        if expansion is None:
            self.db.diagnostics.append(warning(
                "undefined-macro", f"undefined macro '{word}'", i))
            expansion = ""
        return expansion, m.end()

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


def serialize_entry(entry: RawEntry) -> str:
    lines = [f"@{entry.entry_type}{{{entry.key},"]
    for name, value in entry.fields.items():
        lines.append(f"  {name} = {{{value}}},")
    lines.append("}")
    return "\n".join(lines)


def serialize_database(entries: list[RawEntry]) -> str:
    """Render entries back to ``.bib`` text; reparsing yields equal fields."""
    return "\n\n".join(serialize_entry(e) for e in entries) + "\n"


_CONTROL_WORD_RE = re.compile(r"[A-Za-z]+\*?")
_ESCAPES = {"&": "&", "%": "%", "_": "_", "#": "#", "$": "$", "{": "{", "}": "}"}
_SPECIAL_RE = re.compile(r"[\\${}]|--+")


def strip_latex(value: str, diagnostics: list[Diagnostic] | None = None) -> str:
    """Reduce a raw field value to plain text.

    Handles the escape list (``\\&`` and friends), ``--`` outside math,
    and brace groups, which are unwrapped with their content preserved.
    Unknown control sequences are dropped; each adds a diagnostic when a
    sink list is supplied.  Never fails.
    """
    m = _SPECIAL_RE.search(value)
    if m is None:
        return _flatten(value)
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
            elif nxt == "\\":
                out.append(" ")
                i += 1
            elif word := _CONTROL_WORD_RE.match(value, i):
                if diagnostics is not None:
                    diagnostics.append(warning(
                        "unknown-macro",
                        f"dropped control sequence '\\{word.group(0)}'",
                        j,
                    ))
                i = word.end()
                if value.startswith(" ", i):  # TeX eats the space after a word
                    i += 1
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
