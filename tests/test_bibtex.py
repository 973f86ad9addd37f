"""Parser behavior: lexing, macros, recovery, round-trips."""

import re
import time
from unittest import mock

from hypothesis import example, given, strategies as st

from vanref.bibtex import (
    MONTH_MACROS,
    BibtexSyntaxError,
    Database,
    RawEntry,
    _BRACE_JUMP_RE,
    _CONTROL_WORD_RE,
    _ESCAPES,
    _NAME_RE,
    _QUOTE_JUMP_RE,
    _SPECIAL_RE,
    _TYPE_RE,
    _Parser,
    _flatten,
    _has_special,
    _skip_junk,
    parse_database,
    strip_latex,
)
from vanref.diagnostics import LineIndex

from conftest import error, serialize_database, warning

_WS_RUN_RE = re.compile(r"\s+")


def skip_junk_reference(text, i):
    """The former ``_skip_junk``: it searches for '@' again after every comment."""
    n = len(text)
    while i < n:
        at = text.find("@", i)
        pct = text.find("%", i)
        if pct == -1 or (at != -1 and at < pct):
            return at if at != -1 else n
        nl = text.find("\n", pct)
        if nl == -1:
            return n
        i = nl + 1
    return n


_REF_SPACE_RE = re.compile(r"\s*")
_KEY_BRACE_RE = re.compile(r"[^,\s{}]+")
_KEY_PAREN_RE = re.compile(r"[^,\s()]+")


def _skip_space_reference(text, i):
    return _REF_SPACE_RE.match(text, i).end()


def _scan_braced_reference(text, i):
    start = i
    depth = 0
    while True:
        m = _BRACE_JUMP_RE.search(text, i)
        if m is None:
            raise BibtexSyntaxError("brace opened here is never closed", start - 1)
        if m.group(0) == "{":
            depth += 1
        elif depth == 0:
            return text[start:m.start()], m.end()
        else:
            depth -= 1
        i = m.end()


def _scan_quoted_reference(text, i):
    start = i
    depth = 0
    while True:
        m = _QUOTE_JUMP_RE.search(text, i)
        if m is None:
            raise BibtexSyntaxError(
                "string opened here is never closed", start - 1)
        c = m.group(0)
        if c == '"':
            if depth == 0:
                return text[start:m.start()], m.end()
        elif c == "{":
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise BibtexSyntaxError("unexpected '}' inside string", m.start())
        i = m.end()


class _ParserReference:
    """The former ``_Parser``: a comma, name and '=' step chain per field,
    and a depth scan to the end of the text for every unclosed value."""

    def __init__(self, text, macros=None):
        self.text = text
        self.db = Database([], {**MONTH_MACROS, **(macros or {})}, [])
        self._seen_keys = set()

    def run(self):
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

    def _parse_block(self, at):
        text = self.text
        i = _skip_space_reference(text, at + 1)
        m = _TYPE_RE.match(text, i)
        if m is None:
            return at + 1
        entry_type = m.group(0).lower()
        i = _skip_space_reference(text, m.end())
        if entry_type == "comment":
            return i
        if i >= len(text) or text[i] not in "{(":
            raise BibtexSyntaxError(f"expected '{{' after @{entry_type}", i)
        close = "}" if text[i] == "{" else ")"
        i = _skip_space_reference(text, i + 1)
        if entry_type == "string":
            return self._parse_string(i, close)
        if entry_type == "preamble":
            _, i = self._parse_value(i)
            return self._expect(i, close)
        return self._parse_entry(entry_type, i, close, at)

    def _parse_string(self, i, close):
        text = self.text
        m = _NAME_RE.match(text, i)
        if m is None or m.group(0).isdigit():
            raise BibtexSyntaxError("expected macro name in @string", i)
        name = m.group(0).lower()
        i = self._expect(_skip_space_reference(text, m.end()), "=")
        value, i = self._parse_value(_skip_space_reference(text, i))
        if name in self.db.macros and name not in MONTH_MACROS:
            self.db.diagnostics.append(
                warning("macro-redefined", f"macro '{name}' redefined", m.start()))
        self.db.macros[name] = value
        return self._expect(_skip_space_reference(text, i), close)

    def _parse_entry(self, entry_type, i, close, at):
        text = self.text
        key_re = _KEY_PAREN_RE if close == ")" else _KEY_BRACE_RE
        m = key_re.match(text, i)
        if m is None:
            raise BibtexSyntaxError("missing citation key", i)
        key = m.group(0)
        i = _skip_space_reference(text, m.end())
        fields = {}
        while True:
            if i >= len(text):
                raise BibtexSyntaxError("input ended inside an entry", len(text))
            if text[i] == close:
                i += 1
                break
            i = self._expect(i, ",")
            i = _skip_space_reference(text, i)
            if i < len(text) and text[i] == close:
                i += 1
                break
            name_at = i
            m = _NAME_RE.match(text, i)
            if m is None:
                raise BibtexSyntaxError("expected field name", i)
            name = m.group(0).lower()
            i = self._expect(_skip_space_reference(text, m.end()), "=")
            value, i = self._parse_value(_skip_space_reference(text, i))
            i = _skip_space_reference(text, i)
            if name in fields:
                self.db.diagnostics.append(warning(
                    "duplicate-field",
                    f"duplicate field '{name}' in entry '{key}' ignored",
                    name_at,
                ))
            else:
                fields[name] = value
        if not entry_type.isascii() or not entry_type.isalpha():
            raise BibtexSyntaxError(f"invalid entry type '{entry_type}'", at)
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

    def _parse_value(self, i):
        value, i = self._parse_piece(i)
        while True:
            j = _skip_space_reference(self.text, i)
            if j < len(self.text) and self.text[j] == "#":
                piece, i = self._parse_piece(
                    _skip_space_reference(self.text, j + 1))
                value += piece
            else:
                return value, i

    def _parse_piece(self, i):
        text = self.text
        if i >= len(text):
            raise BibtexSyntaxError(
                "input ended where a value was expected", len(text))
        c = text[i]
        if c == "{":
            return _scan_braced_reference(text, i + 1)
        if c == '"':
            return _scan_quoted_reference(text, i + 1)
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

    def _expect(self, i, char):
        i = _skip_space_reference(self.text, i)
        if i >= len(self.text):
            raise BibtexSyntaxError(
                f"expected '{char}' before end of input", len(self.text))
        if self.text[i] != char:
            raise BibtexSyntaxError(
                f"expected '{char}', found {self.text[i]!r}", i)
        return i + 1


def parse_database_reference(text, macros=None):
    """The former ``parse_database``."""
    return _ParserReference(text, macros).run()


def strip_latex_reference(value, diagnostics=None):
    """The former ``strip_latex``: one loop iteration per character."""
    out = []
    i = 0
    n = len(value)
    in_math = False
    while i < n:
        c = value[i]
        if c == "\\":
            nxt = value[i + 1] if i + 1 < n else ""
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 2
            elif nxt == "\\" or nxt.isspace():
                out.append(" ")
                i += 2
            elif m := _CONTROL_WORD_RE.match(value, i + 1):
                if diagnostics is not None:
                    diagnostics.append(warning(
                        "unknown-macro",
                        f"dropped control sequence '\\{m.group(0)}'",
                        i,
                    ))
                i = m.end()
                while i < n and value[i].isspace():
                    i += 1
            else:
                if diagnostics is not None:
                    diagnostics.append(warning(
                        "unknown-macro", f"dropped control symbol '\\{nxt}'", i))
                i += 2
        elif c == "$":
            in_math = not in_math
            out.append(c)
            i += 1
        elif c == "-" and not in_math and value.startswith("--", i):
            j = i
            while j < n and value[j] == "-":
                j += 1
            out.append("-")
            i = j
        elif c in "{}" and not in_math:
            i += 1
        else:
            out.append(c)
            i += 1
    return _WS_RUN_RE.sub(" ", "".join(out)).strip()


def _stripped(strip, value):
    """The text and the ``(code, message, offset)`` of each diagnostic."""
    sink = []
    text = strip(value, sink)
    return text, [(d.code, d.message, d.offset) for d in sink]


_LATEX_ALPHABET = "\\${}-- aA*&%_#\n\t\xa0"

# Syntax characters, every kind of space the parser treats differently, the
# block keywords, a month macro, an undefined word, digits, the head of an
# entry and whole plain fields, so that runs of plain fields are common.
_BIB_TOKENS = (
    list('@{}()",=#% \n\t\xa0\x0b0123456789')
    + ["article", "string", "comment", "preamble", "jan", "xundef",
       "@article{k, t=", "@article{k", "{a}", ", t={x}", ", T={y}", ", u=jan",
       ", v=12"]
)


def _parsed(parse, text):
    """Entries, macros and diagnostics, each compared in full."""
    db = parse(text)
    return db.entries, db.macros, db.diagnostics


def single_value(text):
    """The one field value of the one entry ``text`` parses to."""
    db = parse_database(text)
    assert db.diagnostics == []
    [entry] = db.entries
    [value] = entry.fields.values()
    return value


def assert_skipped_at_at_sign(entry, message):
    """A malformed entry after free text: skipped, one diagnostic at its '@'."""
    db = parse_database("junk " + entry)
    assert db.entries == []
    [diag] = db.diagnostics
    assert diag.code == "malformed-entry"
    assert diag.offset == len("junk ")
    assert message in diag.message


class TestTokenize:
    """Lexical rules, checked through ``parse_database``, the one lexer."""

    def test_minimal_entry(self):
        db = parse_database("@article{k, title = {X}}")
        assert db.entries == [RawEntry("article", "k", {"title": "X"}, (0, 24))]
        assert db.diagnostics == []

    def test_patent_entry_start(self):
        db = parse_database(
            "@patent{pagedas:flexible, inventor={Pagedas, Anthony C.}}")
        assert [(e.entry_type, e.key) for e in db.entries] == [
            ("patent", "pagedas:flexible")]

    def test_nested_braces_stay_inside_value(self):
        assert single_value("@misc{k, f = {a {b} c}}") == "a {b} c"

    def test_quoted_value_and_hash(self):
        assert single_value('@misc{k, f = "a" # "b"}') == "ab"

    def test_free_text_between_entries_is_ignored(self):
        text = 'noise here @misc{k, f = {v}} trailing noise'
        assert single_value(text) == "v"

    def test_unbalanced_brace_has_position(self):
        assert_skipped_at_at_sign("@misc{k, f = {open", "never closed")

    def test_unterminated_string_has_position(self):
        assert_skipped_at_at_sign('@misc{k, f = "open', "never closed")

    def test_eof_inside_entry(self):
        assert_skipped_at_at_sign("@misc{k, f = {v}", "ended inside an entry")

    @given(st.text(alphabet="ab {}", max_size=30))
    def test_value_tokens_are_brace_balanced(self, inner):
        db = parse_database("@misc{k, f = {" + inner + "}}")
        for entry in db.entries:
            for value in entry.fields.values():
                depth = 0
                for c in value:
                    depth += c == "{"
                    depth -= c == "}"
                    assert depth >= 0
                assert depth == 0


class TestParseDatabase:
    def test_two_entries_no_diagnostics(self):
        db = parse_database("@misc{a, t={1}}\n@misc{b, t={2}}")
        assert len(db.entries) == 2
        assert db.diagnostics == []

    def test_string_macro_expansion(self):
        db = parse_database(
            "@string{nejm={N Engl J Med}} @article{k, journal=nejm}")
        assert db.entries[0].fields["journal"] == "N Engl J Med"

    def test_macro_redefined_points_at_the_name(self):
        text = "@string{a={x}}\n@string{a = {longer value}}"
        (diag,) = parse_database(text).diagnostics
        assert diag.code == "macro-redefined"
        assert diag.offset == text.index("a =")
        assert diag.render(LineIndex(text), "m.bib").startswith("m.bib:2:9: ")

    def test_duplicate_key_first_wins(self):
        db = parse_database("@misc{k, t={first}}\n@misc{k, t={second}}")
        assert len(db.entries) == 1
        assert db.entries[0].fields["t"] == "first"
        assert [d.code for d in db.diagnostics] == ["duplicate-key"]

    def test_undefined_macro_expands_empty_with_diagnostic(self):
        db = parse_database("@misc{k, t = nosuch}")
        assert db.entries[0].fields["t"] == ""
        assert [d.code for d in db.diagnostics] == ["undefined-macro"]

    def test_hash_concatenation(self):
        db = parse_database(
            '@string{a={left}} @misc{k, t = a # "-" # {right}}')
        assert db.entries[0].fields["t"] == "left-right"

    def test_month_macros_preloaded(self):
        db = parse_database("@misc{k, month = jul}")
        assert db.entries[0].fields["month"] == "July"
        assert db.macros["jan"] == MONTH_MACROS["jan"]

    def test_comment_and_preamble_skipped(self):
        db = parse_database(
            "@comment{anything {nested} ignored}\n"
            '@preamble{"\\\\newcommand{x}"}\n'
            "@misc{k, t={v}}")
        assert [e.key for e in db.entries] == ["k"]

    def test_no_break_space_is_skippable_space(self):
        db = parse_database("@misc{k,\xa0title\xa0=\xa0{x}\xa0}")
        assert db.entries[0].fields == {"title": "x"}
        assert db.diagnostics == []
        db = parse_database("@misc{k, title={x}\xa0# {y}}")
        assert db.entries[0].fields == {"title": "xy"}
        assert db.diagnostics == []

    def test_percent_comment_outside_entries(self):
        db = parse_database("% @misc{ghost, t={v}}\n@misc{real, t={v}}")
        assert [e.key for e in db.entries] == ["real"]

    def test_percent_inside_value_is_literal(self):
        db = parse_database("@misc{k, t={50% sure}}")
        assert db.entries[0].fields["t"] == "50% sure"

    def test_duplicate_field_keeps_first(self):
        db = parse_database("@misc{k, t={one}, t={two}}")
        assert db.entries[0].fields["t"] == "one"
        assert [d.code for d in db.diagnostics] == ["duplicate-field"]

    def test_duplicate_in_a_plain_run_is_read_from_the_match(self):
        # the entry is not read again from its '@' by the general path
        with mock.patch.object(_Parser, "_parse_general", side_effect=AssertionError):
            db = parse_database("@misc{k, t={one}, T=jan, u=12, t={two}}")
        assert db.entries[0].fields == {"t": "one", "u": "12"}
        assert db.diagnostics == [
            warning("duplicate-field", "duplicate field 't' in entry 'k' ignored", 18),
            warning("duplicate-field", "duplicate field 't' in entry 'k' ignored", 31)]

    def test_malformed_entry_skipped_parsing_continues(self):
        db = parse_database("@misc{broken, t = }\n@misc{ok, t={v}}")
        assert [e.key for e in db.entries] == ["ok"]
        assert any(d.code == "malformed-entry" for d in db.diagnostics)
        assert all(d.offset is not None for d in db.diagnostics)

    def test_paren_delimited_entry(self):
        db = parse_database("@misc(k, t={v})")
        assert db.entries[0].key == "k"

    def test_whitespace_in_values_is_kept_verbatim(self):
        db = parse_database('@misc{k, t={ a\n   b\tc }, u = " x" # "\ty "}')
        assert db.entries[0].fields == {"t": " a\n   b\tc ", "u": " x\ty "}

    @given(st.text(max_size=200))
    def test_never_raises_on_arbitrary_text(self, text):
        db = parse_database(text)
        for diag in db.diagnostics:
            assert diag.offset is not None

    @given(st.text(alphabet="ab\n%@ ", max_size=40))
    def test_skip_junk_matches_reference_at_every_start(self, text):
        for i in range(len(text) + 2):
            assert _skip_junk(text, i) == skip_junk_reference(text, i)

    @given(st.lists(st.sampled_from(_BIB_TOKENS), max_size=60).map("".join)
           | st.text())
    @example("@a{k,\xa0t={x}}")
    @example("@a{k, t {x}}")
    @example("@a{k, t={x} # {y}}")
    @example("@a{k, t={x}  # {y}}")
    @example("@a{k, t={x}\xa0# {y}}")
    @example("@a{k, t={x")
    @example('@a{k, t="x {y"}')
    @example('@a(k, t="x)')
    @example('@a{k, t="x\n@a{j, t={y\n@a{i, t="z {v}"}\n@a{h, t={w {v}}}')
    # a duplicate field and undefined macros inside a run of plain fields
    @example("@a{k, t=xundef, t={y}, u=yundef, U=jan}")
    @example("@a{k, t={x}, T=xundef}")
    # a duplicate whose value is a defined macro, an undefined one or a number
    @example("@a{k, t={x}, T=jan, u=1, t=xundef, U=12}")
    # a duplicate differing only in case, last before the close
    @example("@a{k, t={x}, u={y}, T={z}}")
    @example("@a(k, u=jan, U={z},)")
    # a run that repeats a name and is not closed, then repeats it after the run
    @example('@a{k, t={x}, t=xundef, u="q", t={z}, T=yundef}')
    # more plain fields than one match takes, then a duplicate after them
    @example("@a{k" + "".join(f", f{i}={{v{i}}}" for i in range(40)) + ", f3=x}")
    # a run ended by a quoted value, by '#' and by braces two deep
    @example('@a{k, t={x}, u=jan, v="y", w={z}}')
    @example("@a{k, t={x}, u={y} # jan, w={z}}")
    @example("@a{k, t={x}, u=jan # {y}, w={z}}")
    @example("@a{k, t={x {y} z}, u={{{y}}}, w={z}}")
    @example("@a\xa0{\xa0k\xa0,\xa0t\xa0=\xa0{x}\xa0,\xa0u\xa0=\xa012\xa0,\xa0}")
    @example("@string{a = {b}} @a{k, t=a}")
    @example("@string{a, t={x}, u=xundef}")
    @example("@a(k, t={x}, u=jan) @a(j, t={x}}) @a{i, t={x})")
    @example("@a{k, t={x},} @a{j,} @a{i , t = w ,\n}")
    # where a run that gave characters back would end in another place:
    # '#' after spaces behind a braced value and behind a word, a word
    # straight into '#', a trailing comma and spaces before the close, and
    # entries cut off at the end of the text
    @example("@a{k, t={x {y}} \t\n # jan, u={z}}")
    @example("@a{k, t={x}, u=jan \xa0 # {y}, w={z}}")
    @example("@a{k, t={x}, u=jan# {y}, w={z}}")
    @example("@a{k, t={x}, u=jan , \n }")
    @example("@a{k, t={x}, u=jan")
    @example("@a{k, t={x}, u={y {z}}  ")
    @example("@a( k , t = jan ,  ")
    def test_parser_matches_field_by_field_reference(self, text):
        assert _parsed(parse_database, text) == \
            _parsed(parse_database_reference, text)

    def test_unclosed_braces_recover_in_linear_time(self):
        text = "".join(f"@article{{k{i}, title={{x\n" for i in range(8000))
        started = time.perf_counter()
        db = parse_database(text)
        elapsed = time.perf_counter() - started
        assert db.entries == []
        assert [d.code for d in db.diagnostics] == ["malformed-entry"] * 8000
        assert elapsed < 1.0

    def test_unclosed_strings_recover_in_linear_time(self):
        text = "".join(f'@article{{k{i}, title="x\n' for i in range(8000))
        started = time.perf_counter()
        db = parse_database(text)
        elapsed = time.perf_counter() - started
        assert db.entries == []
        assert [d.code for d in db.diagnostics] == ["malformed-entry"] * 8000
        assert elapsed < 1.0

    def test_deeply_nested_value_parses_in_linear_time(self):
        depth = 40_000
        started = time.perf_counter()
        db = parse_database("@misc{k, t=" + "{" * depth + "x" + "}" * depth + "}")
        elapsed = time.perf_counter() - started
        [entry] = db.entries
        assert len(entry.fields["t"]) == 2 * depth - 1
        assert elapsed < 1.0

    def test_long_space_run_in_a_failing_entry_parses_in_linear_time(self):
        space = " " * 32_000
        text = "".join(
            f'@misc{{k{n}, t = {{x}},{space}u{space}={space}"q"{space}#{space}junk{space}z}}\n'
            for n in range(4))
        started = time.perf_counter()
        db = parse_database(text)
        elapsed = time.perf_counter() - started
        assert db.entries == []
        assert [d.code for d in db.diagnostics] == \
            ["undefined-macro", "malformed-entry"] * 4
        assert elapsed < 1.0

    def test_long_bare_word_in_a_failing_entry_parses_in_linear_time(self):
        word = "w" * 32_000
        text = "".join(f"@misc{{k{n}, t = {word} # {{x}}, u = {word} junk}}\n"
                       for n in range(4))
        started = time.perf_counter()
        db = parse_database(text)
        elapsed = time.perf_counter() - started
        assert db.entries == []
        assert [d.code for d in db.diagnostics] == \
            ["undefined-macro", "undefined-macro", "malformed-entry"] * 4
        assert elapsed < 1.0

    def test_entries_ending_in_junk_parse_in_linear_time(self):
        text = "".join(f"@article{{k{i}, a={{x}}, b={{y {{z}}}}, c=jan, d=12 junk}}\n"
                       for i in range(8000))
        started = time.perf_counter()
        db = parse_database(text)
        elapsed = time.perf_counter() - started
        assert db.entries == []
        assert [d.code for d in db.diagnostics] == ["malformed-entry"] * 8000
        assert elapsed < 1.0

    def test_long_comment_run_parses_in_linear_time(self):
        text = "% comment line\n" * 100_000 + "@misc{k, title={T}}"
        started = time.perf_counter()
        db = parse_database(text)
        elapsed = time.perf_counter() - started
        assert [e.key for e in db.entries] == ["k"]
        assert db.diagnostics == []
        assert elapsed < 1.0


class TestSharedNames:
    """Within one parse, a field name or entry type is one string object."""

    def test_entries_share_each_field_name_on_both_paths(self):
        # b's note and title come after a quoted value, so the general loop
        # reads them; a's come from the match
        db = parse_database('@misc{a, title={x}, note={y}}\n'
                            '@misc{b, url="u", note={z}, title=jan}')
        a, b = (entry.fields for entry in db.entries)
        assert [*b] == ["url", "note", "title"]
        for name in a:
            [same] = [other for other in b if other == name]
            assert same is name

    def test_every_spelling_of_a_name_gives_one_object(self):
        db = parse_database('@misc{a, Title={x}}\n@misc{b, TITLE="y"}\n'
                            '@misc{c, title={z}}')
        titles = [next(iter(entry.fields)) for entry in db.entries]
        assert titles == ["title"] * 3
        assert titles[0] is titles[1] is titles[2]

    def test_every_spelling_of_a_type_gives_one_object(self):
        db = parse_database("@Article{a, t={x}}\n@article{b, t={y}}\n"
                            "@ARTICLE{c, t={z}}")
        types = [entry.entry_type for entry in db.entries]
        assert types == ["article"] * 3
        assert types[0] is types[1] is types[2]

    def test_all_distinct_names_parse_with_their_duplicates_reported(self):
        # no name repeats across entries; each entry repeats its second
        # name in another case, in the match and after a quoted value
        text = "".join(f'@misc{{k{i}, a{i}={{x}}, b{i}=12, B{i}="y", c{i}="z", '
                       f'A{i}={{w}}}}\n' for i in range(300))
        assert _parsed(parse_database, text) == \
            _parsed(parse_database_reference, text)
        db = parse_database(text)
        assert len(db.entries) == 300
        assert [d.message for d in db.diagnostics[:2]] == [
            "duplicate field 'b0' in entry 'k0' ignored",
            "duplicate field 'a0' in entry 'k0' ignored"]
        assert len(db.diagnostics) == 600


class TestRoundTrip:
    def test_corpus_round_trip(self, corpus_db):
        text = serialize_database(corpus_db.entries)
        again = parse_database(text)
        assert not again.diagnostics
        assert [(e.entry_type, e.key, e.fields) for e in again.entries] == \
               [(e.entry_type, e.key, e.fields) for e in corpus_db.entries]

    def test_macro_expansion_idempotent(self, corpus_db):
        once = serialize_database(corpus_db.entries)
        twice = serialize_database(parse_database(once).entries)
        assert once == twice

    @given(st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh", min_size=1, max_size=8),
            st.text(alphabet="abc XYZ0129'&?.:-", max_size=30)),
        max_size=6))
    def test_synthetic_entries_round_trip(self, pairs):
        fields = {}
        for name, value in pairs:
            fields.setdefault(name, " ".join(value.split()))
        entry = RawEntry("misc", "some-key", fields)
        db = parse_database(serialize_database([entry]))
        assert not db.diagnostics
        assert db.entries[0].fields == fields


class TestStripLatex:
    @given(st.text())
    def test_flatten_collapses_whitespace_like_the_regex(self, value):
        assert _flatten(value) == _WS_RUN_RE.sub(" ", value).strip()

    @given(st.text(alphabet="\\${}-a ") | st.text())
    @example("a-b")
    @example("a---b")
    @example("$")
    def test_special_test_agrees_with_the_regex(self, value):
        assert _has_special(value) == (_SPECIAL_RE.search(value) is not None)

    def test_escaped_ampersand(self):
        assert strip_latex(r"Ancel Surgical R\&D Inc.") == "Ancel Surgical R&D Inc."

    def test_brace_unwrap(self):
        assert strip_latex("{NLM}") == "NLM"

    def test_identity(self):
        assert strip_latex("plain text") == "plain text"

    def test_inner_braces_unwrap_with_content_kept(self):
        assert strip_latex("a {b} c") == "a b c"

    def test_double_dash_becomes_hyphen(self):
        assert strip_latex("1999--2000") == "1999-2000"

    def test_double_dash_in_math_is_kept(self):
        assert strip_latex("$a--b$") == "$a--b$"

    def test_whitespace_after_a_control_word_is_skipped(self):
        assert strip_latex("a\\foo \n\t b") == "ab"

    def test_control_space_is_a_space(self):
        assert strip_latex("Dr.\\ Smith and Dr.\\\nRoe") == "Dr. Smith and Dr. Roe"

    def test_unknown_control_sequence_dropped_with_diagnostic(self):
        sink = []
        assert strip_latex(r"\textbf{Bold} text", sink) == "Bold text"
        assert [d.code for d in sink] == ["unknown-macro"]

    def test_escaped_percent_and_underscore(self):
        assert strip_latex(r"100\% of file\_name") == "100% of file_name"

    @given(st.text(max_size=80))
    def test_never_raises(self, text):
        strip_latex(text, [])

    @given(st.text(alphabet=_LATEX_ALPHABET) | st.text())
    @example("\\")
    @example("$--$")
    @example("-{}-")
    @example("a---b")
    @example("\\foo bar")
    @example("a\\b c")
    @example("a\\foo\n\t b\\\nc")
    def test_jumping_scan_matches_per_character_reference(self, value):
        assert _stripped(strip_latex, value) == \
            _stripped(strip_latex_reference, value)

    def test_long_value_strips_in_linear_time(self):
        # control words, symbols and escapes, braces, dash runs and math
        chunk = "\\foo {ab--cd} \\1 $x--y$ \\& word "
        value = chunk * (200_000 // len(chunk) + 1)
        start = time.perf_counter()
        text = strip_latex(value, [])
        elapsed = time.perf_counter() - start
        assert "foo" not in text
        assert elapsed < 1.0
