"""Name, date, page and entry-type normalization."""

import calendar
import copy
import pickle
import re
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from vanref.bibtex import RawEntry, parse_database, strip_latex
from vanref.diagnostics import error, warning
from vanref.model import (
    BIB_FIELDS,
    CONTINUOUS_HIDES,
    IN_PRESS_HIDES,
    TRUE_WORDS,
    UNPRINTED_FIELDS,
    BibRecord,
    ContributorList,
    EntryType,
    MalformedNameError,
    NameParseError,
    PageExtent,
    PageKind,
    PartialDate,
    PersonName,
    Role,
    initials,
    map_entry_type,
    month_days,
    normalize,
    parse_date,
    parse_month,
    parse_names,
    parse_pages,
)
from vanref.model import _ROLE_FIELDS
from vanref.render import TEMPLATES, format_journal_locator


# The case test and the part builder of the earlier reader, kept here so
# that the reference below does not share the parser's own case test.

def _is_lower_word(word: str) -> bool:
    """BibTeX case of a word: decided by its first letter at depth zero."""
    depth = 0
    for c in word:
        if c == "{":
            depth += 1
        elif c == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and c.isalpha():
            return c.islower()
    return False


def _plain_words(words: list[str]) -> str:
    return strip_latex(" ".join(words)) if words else ""


def _person_from_parts(first: list[str], von: list[str], last: list[str],
                       suffix: list[str], index: int) -> PersonName:
    """Build name ``index`` from its parts' words, their LaTeX stripped; a
    family with nothing left is an empty name, and a comma left in the
    suffix makes the name malformed."""
    family = _plain_words(last)
    if not family:
        raise NameParseError(f"empty name at position {index}", index)
    suffix = _plain_words(suffix)
    if "," in suffix:
        raise MalformedNameError(
            f"name at position {index} has a comma in its suffix '{suffix}'", index)
    return PersonName(family, _plain_words(first), _plain_words(von), suffix)


# Reference for the name parser: the earlier two-pass version, which split
# the field into words, joined each name's words back into a string and
# split that string again, once at spaces and once at commas.

def _ref_split_depth0(value):
    words = []
    depth = 0
    current = []
    for c in value:
        if c == "{":
            depth += 1
        elif c == "}":
            depth = max(0, depth - 1)
        if c.isspace() and depth == 0:
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(c)
    if current:
        words.append("".join(current))
    return words


def _ref_split_commas_depth0(words):
    parts = [[]]
    for word in words:
        pending = word
        while True:
            depth = 0
            cut = -1
            for i, c in enumerate(pending):
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth = max(0, depth - 1)
                elif c == "," and depth == 0:
                    cut = i
                    break
            if cut == -1:
                if pending:
                    parts[-1].append(pending)
                break
            head = pending[:cut]
            if head:
                parts[-1].append(head)
            parts.append([])
            pending = pending[cut + 1:]
    return parts


def _ref_split_von_last(words):
    for i, w in enumerate(words[:-1]):
        if _is_lower_word(w):
            von_start = i
            break
    else:
        return [], words
    von_end = von_start
    for i in range(von_start, len(words) - 1):
        if _is_lower_word(words[i]):
            von_end = i
    return words[von_start:von_end + 1], words[von_end + 1:]


def _ref_parse_one_name(piece, index):
    stripped = piece.strip()
    if stripped.startswith("{") and stripped.endswith("}"):
        inner, depth = stripped[1:-1], 0
        for c in inner:
            depth += c == "{"
            depth -= c == "}"
            if depth < 0:
                break
        else:
            if depth == 0:
                if not strip_latex(inner):
                    raise NameParseError(f"empty name at position {index}", index)
                return PersonName(literal=strip_latex(inner))
    words = _ref_split_depth0(stripped)
    parts = _ref_split_commas_depth0(words)
    if len(parts) == 1:
        tokens = parts[0]
        if len(tokens) == 1:
            return _person_from_parts([], [], tokens, [], index)
        lowers = [i for i, w in enumerate(tokens) if _is_lower_word(w)]
        if not lowers or lowers == [len(tokens) - 1]:
            return _person_from_parts(tokens[:-1], [], tokens[-1:], [], index)
        von, last = _ref_split_von_last(tokens[lowers[0]:])
        return _person_from_parts(tokens[:lowers[0]], von, last, [], index)
    left = parts[0]
    if left and _is_lower_word(left[0]):
        von, last = _ref_split_von_last(left)
    else:
        von, last = [], left
    if len(parts) == 2:
        return _person_from_parts(parts[1], von, last, [], index)
    if len(parts) > 3:
        raise MalformedNameError(f"name at position {index} has too many commas", index)
    return _person_from_parts(parts[2], von, last, parts[1], index)


def _ref_parse_names(value):
    words = _ref_split_depth0(value)
    pieces = [[]]
    for word in words:
        if word.lower() == "and":
            pieces.append([])
        else:
            pieces[-1].append(word)
    truncated = False
    if pieces and len(pieces[-1]) == 1 and pieces[-1][0].lower() == "others":
        truncated = True
        pieces.pop()
        if not pieces:
            raise NameParseError("empty name at position 0", 0)
    names = []
    for index, piece in enumerate(pieces):
        if not piece:
            raise NameParseError(f"empty name at position {index}", index)
        names.append(_ref_parse_one_name(" ".join(piece), index))
    return ContributorList(tuple(names), truncated=truncated)


def _outcome(parse, value):
    """A parse result, or the type, message and index of what it raised."""
    try:
        return parse(value)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


_NAME_ALPHABET = " ,{}aAnNdDoOtThHeErRsSvV\\\t\n\x1c\xa0-."


# Reference for ``normalize``: the earlier version, which probed every field
# name it knows through ``plain()`` instead of walking the entry's fields.
# Every field but ``url`` gets the same LaTeX cleanup, and a field whose
# cleaned text is empty counts as absent, except ``inpress``.

def normalize_reference(raw):
    diags = []
    f = raw.fields

    def plain(name):
        return strip_latex(f[name], diags) if name in f else ""

    def verbatim(name):
        return " ".join(f[name].split()) if name in f else ""

    def date_of(name):
        text = plain(name)
        return parse_date(text, diags) if text else None

    contributors = []
    for field_name, role in _ROLE_FIELDS:
        if field_name in f:
            try:
                contributors.append(parse_names(f[field_name], role))
            except NameParseError as exc:
                code = ("malformed-name" if isinstance(exc, MalformedNameError)
                        else "empty-name")
                diags.append(error(
                    code, f"entry '{raw.key}': bad {field_name} field: {exc}"))

    entry_type = map_entry_type(raw, diags)
    named = [c.role.value for c in contributors
             if c.role in (Role.INVENTOR, Role.ASSIGNEE)]
    if entry_type is EntryType.PATENT and "author" in f and named:
        diags.append(warning(
            "shadowed-field", f"field 'author' ignored: '{named[0]}' is used instead"))

    date = date_of("date")
    date_wins = date is not None
    for name in ("year", "month", "day"):
        if date_wins and name in f:
            diags.append(warning(
                "shadowed-field", f"field '{name}' ignored: 'date' is used instead"))
    year_text = "" if date_wins else plain("year")
    if year_text:
        year = (int(year_text) if len(year_text) <= 4 and year_text.isascii()
                and year_text.isdigit() else year_text)
        month_text = plain("month")
        month = parse_month(month_text) if month_text else None
        if month_text and month is None:
            diags.append(warning(
                "unparsed-date", f"month '{month_text}' ignored"))
        day = day_end = None
        day_text = plain("day")
        if day_text:
            m = re.fullmatch(r"(\d{1,2})(?:\s*-\s*(\d{1,2}))?", day_text)
            if m and month is not None:
                # the month's length in a leap year when the year is no number
                length = calendar.monthrange(
                    year if isinstance(year, int) else 2000, month)[1]
                first = int(m.group(1))
                last = int(m.group(2)) if m.group(2) else first
                if 1 <= first <= last <= length:
                    day = first
                    day_end = int(m.group(2)) if m.group(2) else None
            if day is None:
                diags.append(warning(
                    "unparsed-date", f"day '{day_text}' ignored"))
        date = PartialDate(year=year, month=month, day=day, day_end=day_end)
    if date is None:
        diags.append(warning(
            "missing-date", f"entry '{raw.key}' has no date; year skipped"))

    pages_value = plain("pages")
    pages = parse_pages(pages_value) if pages_value else None

    pagination = plain("pagination").lower()
    if pagination and pagination != "continuous":
        diags.append(warning(
            "unknown-value", f"pagination value '{pagination}' ignored"))

    datesep = plain("datesep") or ";"
    if datesep not in {";", "."}:
        diags.append(warning(
            "unknown-value", f"datesep '{datesep}' ignored; using ';'"))
        datesep = ";"

    number_value = plain("number")
    if entry_type in (EntryType.TECHREPORT, EntryType.PATENT):
        issue = plain("issue")
        report_number = number_value
    else:
        issue = number_value or plain("issue")
        report_number = ""
        if number_value and "issue" in f:
            diags.append(warning(
                "shadowed-field", "field 'issue' ignored: 'number' is used instead"))

    publisher = plain("publisher") or plain("school") or plain("institution")
    fallbacks = ["publisher", "school", "institution"]
    for i, name in enumerate(fallbacks):
        if name in f and strip_latex(f[name]):
            diags.extend(warning(
                "shadowed-field", f"field '{later}' ignored: '{name}' is used instead")
                for later in fallbacks[i + 1:] if later in f)
            break

    inpress = plain("inpress").lower()
    in_press = "inpress" in f and inpress in TRUE_WORDS | {""}
    if inpress not in {"", "yes", "true", "1", "on", "no", "false", "0", "off"}:
        diags.append(warning("unknown-value", f"inpress value '{inpress}' ignored"))
    journal_family = entry_type in (
        EntryType.ARTICLE, EntryType.WEBJOURNAL, EntryType.NEWSPAPER)
    if in_press and journal_family:
        hidden = ["volume", "number", "issue", "volsuppl", "issuesuppl",
                  "volpart", "issuepart", "pages", "section", "column", "month",
                  "day", "updated", "lastchecked"]
        diags.extend(warning(
            "shadowed-field", f"field '{name}' ignored: 'inpress' is used instead")
            for name in hidden if name in f)
        if date_wins and date.month is not None:
            diags.append(warning(
                "shadowed-field",
                "month and day of field 'date' ignored: 'inpress' is used instead"))

    record = BibRecord(
        key=raw.key,
        entry_type=entry_type,
        contributors=tuple(contributors),
        title=plain("title"),
        journal=plain("journal"),
        booktitle=plain("booktitle"),
        volume=plain("volume"),
        issue=issue,
        volume_supplement=plain("volsuppl"),
        issue_supplement=plain("issuesuppl"),
        volume_part=plain("volpart"),
        issue_part=plain("issuepart"),
        pages=pages,
        date=date,
        date_epub=date_of("epub"),
        place=plain("address"),
        publisher=publisher,
        edition=plain("edition"),
        pmid=plain("pmid"),
        retraction_of=plain("retractionof"),
        retraction_in=plain("retractionin"),
        erratum_in=plain("erratumin"),
        republished_from=plain("republishedfrom"),
        sponsor=plain("sponsor"),
        report_type=plain("type"),
        report_number=report_number,
        contract_number=plain("contract"),
        article_type=plain("articletype"),
        url=verbatim("url"),
        medium=plain("medium"),
        updated=date_of("updated"),
        cited=date_of("lastchecked"),
        part_title=plain("part"),
        extent_text=plain("extent"),
        conference_name=plain("conference"),
        conference_date=date_of("conferencedate"),
        conference_place=plain("conferenceplace"),
        defined_term=plain("term"),
        country=plain("country"),
        section=plain("section"),
        column=plain("column"),
        affiliation=plain("affiliation"),
        in_press=in_press,
        continuous_pagination=pagination == "continuous",
        date_separator=datesep,
    )
    if journal_family and not in_press:
        diags.extend(_locator_reference(
            record, "number" if number_value or not issue else "issue"))
    return record, [d._replace(offset=raw.span[0]) for d in diags]


def _locator_reference(record, issue_field):
    """The supplement and part warnings, read off ``format_journal_locator``:
    a field is lost when blanking it leaves the locator as it was."""
    if record.continuous_pagination:
        record = record._replace(issue="", issue_supplement="", issue_part="")
    if record.volume_supplement and record.issue_supplement:
        return []  # a render error
    fields = {"volsuppl": "volume_supplement", "volpart": "volume_part",
              "issuesuppl": "issue_supplement", "issuepart": "issue_part",
              issue_field: "issue"}
    locator = format_journal_locator(record)
    lost = [name for name, attr in fields.items() if getattr(record, attr)
            and format_journal_locator(record._replace(**{attr: ""})) == locator]
    printed = [name for name, attr in fields.items()
               if getattr(record, attr) and name not in lost]
    out = []
    for name in lost:
        host, attr = (("volume", "volume") if name.startswith("vol")
                      else (issue_field, "issue"))
        why = (f"it needs '{host}'" if name != issue_field and not getattr(record, attr)
               else f"'{printed[0]}' is used instead")
        out.append(warning("shadowed-field", f"field '{name}' ignored: {why}"))
    return out


# Every field the reference reads, plus two it ignores.
_NORMALIZE_FIELDS = [
    "author", "organization", "editor", "compiler", "inventor", "assignee",
    "cartographer", "title", "journal", "booktitle", "volume", "number",
    "issue", "volsuppl", "issuesuppl", "volpart", "issuepart", "pages",
    "date", "year", "month", "day", "epub", "address", "publisher",
    "school", "institution", "edition", "pmid", "retractionof",
    "retractionin", "erratumin", "republishedfrom", "sponsor", "type",
    "contract", "articletype", "language", "url", "medium", "updated",
    "lastchecked", "part", "extent", "conference", "conferencedate",
    "conferenceplace", "term", "country", "section", "column",
    "affiliation", "inpress", "pagination", "datesep", "note", "x-unknown",
]
_LATEX_ALPHABET = "\\{}$-&%_#~ ,.;aAbcdfgnoSstvxyz01239\t\n\xa0"
_FIELD_VALUES = st.one_of(
    st.sampled_from([
        "", " ", "2001", "2002 Jul 25", "c2000-01", "c2000 -", "Jul", "13",
        "12-14", "45", "284-7", "iii-v", "19-5", "continuous", "other",
        ".", ";", "yes", "no", "Smith, J and and Doe, A", "others",
        "{A Group}", "van Beethoven, Ludwig", "\\foo T", "{\\&} x--y",
        "$a--b$", "http://x/a  b",
    ]),
    st.text(alphabet=_LATEX_ALPHABET, max_size=24),
    st.text(max_size=12),
)


def _diagnostic_multiset(diags):
    return Counter((d.severity, d.code, d.message, d.offset) for d in diags)


@st.composite
def _raw_entries(draw):
    entry_type = draw(st.sampled_from([
        "techreport", "patent", "dictionary", "inbook", "phdthesis",
        "article", "newspaper", "book", "artwork"]))
    names = draw(st.lists(st.sampled_from(_NORMALIZE_FIELDS), unique=True,
                          max_size=16))
    fields = {name: draw(_FIELD_VALUES) for name in names}
    start = draw(st.integers(min_value=0, max_value=500))
    return RawEntry(entry_type, "k", fields, span=(start, start + 9))


# Each check of a value type: a valid value, and fields that break it.
_CHECKED_VALUES = [
    (PersonName(family="Smith"), {"family": ""}),
    (PersonName(family="Smith"), {"literal": "Group"}),
    (PersonName(family="Smith"), {"suffix": "Jr, III"}),
    (PartialDate(2001, 7, 3, 5), {"month": 13}),
    (PartialDate(2001, 7, 3, 5), {"month": None}),
    (PartialDate(2001, 7, 3, 5), {"day": 32}),
    (PartialDate(2001, 7, 3, 5), {"day": None}),
    (PartialDate(2001, 7, 3, 5), {"day_end": 2}),
    (PartialDate(2001, 7, 3, 5), {"day_end": 32}),
    (PartialDate(2001, 4, 3, 5), {"day": 31}),
    (PartialDate(2004, 2, 28, 29), {"year": 2001}),
    (PartialDate("n.d.", 2, 29), {"day": 30}),
    (ContributorList((PersonName(family="Smith"),)), {"names": ()}),
]


def _broken_copies(value, changes):
    """Every way to build ``value`` with ``changes``, as thunks."""
    fields = {**value._asdict(), **changes}
    yield lambda: type(value)(**fields)
    yield lambda: type(value)(*fields.values())
    yield lambda: type(value)._make(fields.values())
    yield lambda: value._replace(**changes)
    if hasattr(copy, "replace"):  # Python 3.13
        yield lambda: copy.replace(value, **changes)


class TestValueChecks:
    @pytest.mark.parametrize("value,changes", _CHECKED_VALUES)
    def test_every_construction_path_checks(self, value, changes):
        for build in _broken_copies(value, changes):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("value", sorted({v for v, _ in _CHECKED_VALUES}, key=repr))
    def test_valid_values_copy_equal(self, value):
        assert value._replace() == value
        assert type(value)._make(value) == value
        assert copy.copy(value) == copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert type(pickle.loads(pickle.dumps(value))) is type(value)


# Name words with no brace and no LaTeX, and words with LaTeX or braces,
# which the reader cleans with ``strip_latex`` or masks.
_NAME_WORDS = ["and", "AND", "others", "van", "der", "de", "la", "Smith", "J.",
               "Jr", "Jean-Luc", "d'Arc", "Élodie", "élan", "1st", ","]
_LATEX_NAME_WORDS = ["Lu--Smith", "O\\'Neil", "a\\b", "{van}", "{Smith, J}",
                     "{A and B}", '{\\"O}ber', "{\\'E}mile", "x{y", "}", "{a}}",
                     "{a}{b}", "{{and}}"]
_NAME_SPACES = [" ", "\t", "\xa0", "\x1c"]


@st.composite
def _word_fields(draw):
    """A name field of whole words, between any of the spaces, with a
    leading or trailing ``and`` now and then."""
    words = draw(st.lists(st.sampled_from(_NAME_WORDS), max_size=10))
    if draw(st.integers(0, 4)) == 0:
        words.insert(draw(st.integers(0, len(words))),
                     draw(st.sampled_from(_LATEX_NAME_WORDS)))
    if draw(st.booleans()):
        words.insert(0, "and")
    if draw(st.booleans()):
        words.append("and")
    spaces = draw(st.lists(st.sampled_from(_NAME_SPACES),
                           min_size=len(words) + 1, max_size=len(words) + 1))
    return "".join(space + word for space, word in zip(spaces, words + [""]))


def _without_by_replace(record, attrs):
    """``BibRecord.without`` as written with one ``_replace`` of every field."""
    blank = {attr: record._field_defaults[attr] for attr in attrs}
    if "date" in blank and record.date is not None:
        blank["date"] = record.date._replace(month=None, day=None, day_end=None)
    return record._replace(**blank)


class TestWithout:
    @pytest.mark.parametrize("attrs", [IN_PRESS_HIDES, CONTINUOUS_HIDES])
    def test_matches_replace_over_the_corpus(self, corpus_records, attrs):
        for record in corpus_records.values():
            copy_ = record.without(attrs)
            assert type(copy_) is BibRecord
            assert copy_ == _without_by_replace(record, attrs), record.key


class TestParseNames:
    def test_two_personal_names(self):
        result = parse_names("Halpern, Scott D. and Ubel, Peter A.")
        assert len(result.names) == 2
        assert result.names[0].family == "Halpern"
        assert result.names[0].given == "Scott D."
        assert result.names[1].family == "Ubel"

    def test_braced_group_is_literal(self):
        result = parse_names("{Diabetes Prevention Program Research Group}")
        assert len(result.names) == 1
        assert result.names[0].literal == "Diabetes Prevention Program Research Group"
        assert result.names[0].family == ""

    def test_unclosed_nested_group_runs_to_the_end(self):
        # a parsed value always balances its braces; the library may not
        assert parse_names("{a {b} c").names == (PersonName(family="a b c"),)

    def test_comma_in_a_braced_suffix_is_malformed(self):
        with pytest.raises(MalformedNameError) as info:
            parse_names("Roe, A and Doe, {Jr, III}, John")
        assert (str(info.value), info.value.index) == (
            "name at position 1 has a comma in its suffix 'Jr, III'", 1)

    def test_suffix_form(self):
        name = parse_names("Gilstrap, 3rd, Larry C.").names[0]
        assert name.family == "Gilstrap"
        assert name.suffix == "3rd"
        assert name.given == "Larry C."

    def test_particle(self):
        name = parse_names("van Moorselaar, R. J.").names[0]
        assert name.particle == "van"
        assert name.family == "Moorselaar"
        assert name.given == "R. J."

    def test_first_von_last_form(self):
        name = parse_names("Ludwig van Beethoven").names[0]
        assert (name.given, name.particle, name.family) == \
               ("Ludwig", "van", "Beethoven")

    def test_plain_first_last(self):
        name = parse_names("Trudy Tynan").names[0]
        assert (name.given, name.family) == ("Trudy", "Tynan")

    def test_and_others_sets_truncated(self):
        result = parse_names("Smith, John and others")
        assert result.truncated
        assert len(result.names) == 1

    def test_empty_name_piece_rejected_with_position(self):
        with pytest.raises(NameParseError) as info:
            parse_names("Smith, John and and Jones, Jane")
        assert info.value.index == 1

    def test_role_is_recorded(self):
        assert parse_names("Smith, J.", Role.EDITOR).role is Role.EDITOR

    def test_render_reparse_stability_over_corpus(self, corpus_records):
        # "von Last, Jr, First" writing of every corpus name reparses equal.
        for record in corpus_records.values():
            for contributor_list in record.contributors:
                for name in contributor_list.names:
                    if name.literal:
                        written = "{" + name.literal + "}"
                    else:
                        left = " ".join(p for p in (name.particle, name.family) if p)
                        middle = f" {name.suffix}," if name.suffix else ""
                        written = f"{left},{middle} {name.given}"
                    again = parse_names(written).names[0]
                    assert again == name, written

    @given(st.text(alphabet=_NAME_ALPHABET) | st.text())
    @example("{")
    @example("and,")
    @example("{A and B}")
    @example("x and others")
    @example("and")
    @example("} A {B and C")
    @example("a\x1cb")
    @example("others")
    @example("OTHERS")
    @example("a and, b")
    @example("A,,B")
    @example("x\xa0and\xa0y")
    @example(" AND ")
    @example(",a")
    @example("a,")
    def test_one_pass_split_matches_two_pass_reference(self, value):
        assert _outcome(parse_names, value) == _outcome(_ref_parse_names, value)

    @given(_word_fields())
    @example("and Smith, J")
    @example("Smith, J and")
    @example("Smith, J and and Roe, A")
    @example("van der Berg, Jr, Jean-Luc and d'Arc\xa0and\tothers")
    @example("Smith, Jr , J. , la and ,Smith")
    @example("Smith, Jr , J. , la and Roe, A")
    @example("Jean-Luc van\x1cder Berg and élan 1st Élodie")
    @example("Lu--Smith, J and O\\'Neil, A")
    @example("{Royal Adelaide Hospital} and "
             "{University of Adelaide, Department of Clinical Nursing}")
    @example("{Smith} and {Jones}")  # both names mask to the same text
    @example("Jean {\\'E}mile Zola and {van} Berg, A")  # case read past the groups
    def test_word_fields_match_two_pass_reference(self, value):
        # whole words, so the reader meets "others", particles, suffixes and
        # case tests, with brace groups and LaTeX now and then
        assert _outcome(parse_names, value) == _outcome(_ref_parse_names, value)

    def test_dash_or_backslash_takes_the_latex_path(self):
        assert parse_names("Lu--Smith, J").names[0].family == "Lu-Smith"
        assert parse_names("Roe, J\\ A").names[0].given == "J A"

    @pytest.mark.parametrize("value,count", [
        ("{a b} and " * 50000 + "{c}", 50001),
        ("{" * 200000 + "a", 1),
        ('{\\"O}x ' * 100000, 1),
    ])
    def test_long_braced_fields_parse_in_linear_time(self, value, count):
        started = time.perf_counter()
        result = parse_names(value)
        elapsed = time.perf_counter() - started
        assert len(result.names) == count
        assert elapsed < 1.0


# Reference for ``initials``: the per-character loop, which reads each
# token up to its first letter.
def _initials_reference(given_name):
    out = []
    for token in given_name.replace("-", " ").split():
        for c in token:
            if c.isalpha():
                out.append(c.upper())
                break
    return "".join(out)


# Given names from letters that change length or case when uppercased
# (``ǅ``, ``ß``), a combining mark, numbers that are not letters (``²``,
# ``Ⅷ``), a leading ``(``, hyphens and spaces.
_GIVEN_CHARS = ["a", "Z", "é", "ǅ", "ß", "\u0301", "²", "Ⅷ", "(", ".", "-", " ", "\xa0"]


class TestInitials:
    @pytest.mark.parametrize("given_name,expected", [
        ("Scott D.", "SD"),
        ("", ""),
        ("Jean-Luc", "JL"),
        ("Peter A.", "PA"),
        ("Arthur L.", "AL"),
        ("Larry C.", "LC"),
        ("F. Gary", "FG"),
        ("J. Peter", "JP"),
        ("R. Jeroen", "RJ"),
        ("Regine", "R"),
        ("Anthony C.", "AC"),
        ("Trudy", "T"),
    ])
    def test_corpus_given_names(self, given_name, expected):
        assert initials(given_name) == expected

    @given(st.lists(st.text(alphabet="abcdefgXYZ", min_size=1, max_size=6),
                    min_size=1, max_size=5),
           st.sampled_from([" ", "-"]))
    def test_length_matches_token_count(self, tokens, sep):
        assert len(initials(sep.join(tokens))) == len(tokens)

    @given(st.lists(st.sampled_from(_GIVEN_CHARS), max_size=12).map("".join))
    @example("(ǅ-ß \u0301² Ⅷa")
    def test_matches_per_character_reference(self, given_name):
        assert initials(given_name) == _initials_reference(given_name)


class TestParseDate:
    def test_month_days_counts_as_calendar_does(self):
        for year in range(0, 2401):
            for month in range(1, 13):
                assert month_days(year, month) == calendar.monthrange(year, month)[1]
        assert [month_days("n.d.", month) for month in range(1, 13)] == [
            calendar.monthrange(2000, month)[1] for month in range(1, 13)]

    def test_day_its_month_lacks_goes_raw(self):
        sink = []
        assert parse_date("2001 Feb 29", sink).raw == "2001 Feb 29"
        assert [x.code for x in sink] == ["unparsed-date"]
        assert parse_date("2004 Feb 29") == PartialDate(2004, 2, 29)

    def test_full_date(self):
        d = parse_date("2002 Jul 25")
        assert (d.year, d.month, d.day) == (2002, 7, 25)

    def test_day_range(self):
        for text in ("2001 Sep 13-15", "2001 Sep 13 - 15"):
            d = parse_date(text)
            assert (d.day, d.day_end, d.open_ended) == (13, 15, False)
        assert parse_date("2001 Sep 13 -").open_ended

    def test_year_only(self):
        assert parse_date("2002").year == 2002

    def test_full_month_name(self):
        assert parse_date("2002 July 25").month == 7

    def test_circa_year_range_kept_verbatim(self):
        d = parse_date("c2000-01")
        assert d.raw == "c2000-01"
        assert d.circa
        assert d.year == 2000

    def test_open_ended_copyright(self):
        d = parse_date("c2000 -")
        assert d.circa and d.open_ended and d.year == 2000

    def test_open_ended_plain(self):
        assert parse_date("2002 -").open_ended

    def test_unparsed_goes_raw_with_diagnostic(self):
        sink = []
        d = parse_date("sometime in spring", sink)
        assert d.raw == "sometime in spring"
        assert [x.code for x in sink] == ["unparsed-date"]

    def test_decreasing_day_range_goes_raw(self):
        sink = []
        assert parse_date("2001 Sep 15-13", sink).raw == "2001 Sep 15-13"
        assert sink

    @given(st.text(max_size=40))
    def test_unparsed_input_is_never_lost(self, text):
        date = parse_date(text, [])
        if date.raw:
            assert date.raw == text.strip()

    def test_out_of_range_day_goes_raw(self):
        sink = []
        assert parse_date("2002 Jul 45", sink).raw == "2002 Jul 45"
        assert sink


class TestParsePages:
    def test_numeric_range(self):
        extent = parse_pages("284-287")
        assert extent.kind is PageKind.NUMERIC_RANGE
        assert (extent.first, extent.last) == ("284", "287")

    def test_abbreviated_range_kept_as_written(self):
        extent = parse_pages("284-7")
        assert extent.kind is PageKind.NUMERIC_RANGE
        assert (extent.first, extent.last) == ("284", "7")

    def test_roman_range(self):
        extent = parse_pages("iii-v")
        assert extent.kind is PageKind.ROMAN_RANGE

    def test_single_page(self):
        assert parse_pages("675").kind is PageKind.SINGLE

    def test_composite_stays_text(self):
        extent = parse_pages("1151-68; discussion 1149-50")
        assert extent.kind is PageKind.TEXT
        assert extent.text == "1151-68; discussion 1149-50"

    def test_letter_prefixed_pages_stay_text(self):
        assert parse_pages("S93-9").kind is PageKind.TEXT

    def test_decreasing_range_stays_text(self):
        assert parse_pages("19-5").kind is PageKind.TEXT

    @given(st.text(max_size=40))
    def test_unmatched_input_is_never_lost(self, text):
        extent = parse_pages(text)
        if extent.kind is PageKind.TEXT:
            assert extent.text == text.strip()


def raw(entry_type, **fields):
    return RawEntry(entry_type, "k", {k: str(v) for k, v in fields.items()})


def _widened(value):
    """``value`` with each whitespace run between a newline and a tab."""
    return re.sub(r"\s+", lambda m: "\n" + m.group(0) + "\t", value)


class TestMapEntryType:
    def test_patent(self):
        assert map_entry_type(raw("patent")) is EntryType.PATENT

    def test_map(self):
        assert map_entry_type(raw("map")) is EntryType.MAP

    def test_article_with_url_is_web_journal(self):
        result = map_entry_type(
            raw("article", url="http://x", medium="serial on the Internet"))
        assert result is EntryType.WEBJOURNAL

    def test_book_with_url_is_web_monograph(self):
        assert map_entry_type(raw("book", url="http://x")) is EntryType.WEBMONOGRAPH

    def test_book_with_cdrom_medium(self):
        assert map_entry_type(raw("book", medium="CD-ROM")) is EntryType.CDROM

    def test_book_with_empty_medium_stays_a_book(self):
        for medium in ("", " {} ", "{\\em}"):
            assert map_entry_type(raw("book", medium=medium)) is EntryType.BOOK
        assert map_entry_type(raw("book", medium="{CD--ROM}")) is EntryType.CDROM

    def test_unknown_type_is_misc_with_diagnostic(self):
        sink = []
        assert map_entry_type(raw("artwork"), sink) is EntryType.MISC
        assert [d.code for d in sink] == ["unknown-entry-type"]

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12),
           st.booleans(), st.booleans())
    def test_total_over_any_type(self, entry_type, has_url, has_medium):
        fields = {}
        if has_url:
            fields["url"] = "http://example.org"
        if has_medium:
            fields["medium"] = "videocassette"
        result = map_entry_type(RawEntry(entry_type, "k", fields))
        assert isinstance(result, EntryType)


class TestNormalize:
    def test_mixed_authorship_keeps_two_lists(self, corpus_records):
        record = corpus_records["vallancien.emberton.ea:sexual"]
        roles = [c.role for c in record.contributors]
        assert roles == [Role.AUTHOR, Role.ORGANIZATION]

    def test_no_author_is_legal(self, corpus_records):
        assert corpus_records["21st"].contributors == ()

    def test_supplement_fields_are_separate(self, corpus_records):
        assert corpus_records["geraud.spierings.ea:tolerability"].volume_supplement == "2"
        assert corpus_records["glauser:integrating"].issue_supplement == "7"
        assert corpus_records["abend.kulish:psychoanalytic"].volume_part == "2"
        assert corpus_records["ahrar.madoff.ea:development"].issue_part == "1"

    def test_report_number_not_confused_with_issue(self, corpus_records):
        record = corpus_records["yen:health"]
        assert record.report_number == "AFRLSRBLTR020123"
        assert record.issue == ""

    def test_dictionary_pages_parse_like_any_pages(self, corpus_records):
        assert corpus_records["filamin"].pages == parse_pages("675")
        record, _ = normalize(raw("dictionary", title="t", year="2001",
                                  pages="119-120"))
        assert record.pages == PageExtent(PageKind.NUMERIC_RANGE, "119", "120")

    def test_in_press_flag(self, corpus_records):
        assert corpus_records["tian.araki.ea:signature"].in_press

    def test_missing_date_warns_but_normalizes(self):
        record, diags = normalize(raw("article", title="t", journal="j"))
        assert record.date is None
        assert any(d.code == "missing-date" for d in diags)

    def test_verbatim_fields_collapse_whitespace_runs(self):
        record, _ = normalize(raw("misc", title="t", year=" in  press ",
                                  url="http://x/a  b", lastchecked="some\n day"))
        assert record.date.year == "in press"
        assert record.url == "http://x/a b"
        assert record.cited.raw == "some day"

    def test_whitespace_in_values_collapses(self):
        [entry] = parse_database(
            "@misc{k, title={a\n   b\tc}, url = {http://x/a\n\tb },\n"
            '  year = " 2001\t", author={Smith,\n\tJ and {A\n  Group}}}').entries
        record, diags = normalize(entry)
        assert (record.title, record.url, record.date) == (
            "a b c", "http://x/a b", PartialDate(2001))
        assert record.contributors[0].names == (
            PersonName(family="Smith", given="J"), PersonName(literal="A Group"))
        assert diags == []

    def test_empty_field_counts_as_absent(self):
        # as BibTeX's empty$: a field holding only whitespace is missing
        record, diags = normalize(raw("article", title="t", journal="j",
                                      date=" {} ", year="2001", month="",
                                      day="\n", pages="{}"))
        assert (record.date, record.pages, diags) == (PartialDate(2001), None, [])
        record, diags = normalize(raw("article", title="t", journal="j",
                                      year="2001", epub="", updated="{}",
                                      lastchecked=" ", conferencedate=""))
        assert (record.date_epub, record.updated, record.cited,
                record.conference_date, diags) == (None, None, None, None, [])
        record, diags = normalize(raw("article", title="t", journal="j",
                                      year=" ", month="Jul"))
        assert record.date is None
        assert [(d.code, d.message) for d in diags] == [
            ("missing-date", "entry 'k' has no date; year skipped")]

    def test_every_diagnostic_points_at_the_entry(self):
        entry = RawEntry("artwork", "k", {
            "author": "Smith, J and and Doe, A", "title": "\\foo T",
            "month": "Smarch", "day": "x", "year": "2000"}, span=(40, 90))
        _, diags = normalize(entry)
        assert sorted(d.code for d in diags) == [
            "empty-name", "unknown-entry-type", "unknown-macro",
            "unparsed-date", "unparsed-date"]
        assert {d.offset for d in diags} == {40}
        _, diags = normalize(RawEntry("misc", "k", {"title": "T"}, span=(7, 20)))
        assert [(d.code, d.offset) for d in diags] == [("missing-date", 7)]

    def test_date_shadows_year_month_and_day(self):
        record, diags = normalize(raw("article", title="t", journal="j",
                                      date="2001", year="1999", month="Jul"))
        assert record.date == PartialDate(2001)
        assert [(d.code, d.message) for d in diags] == [
            ("shadowed-field", "field 'year' ignored: 'date' is used instead"),
            ("shadowed-field", "field 'month' ignored: 'date' is used instead")]

    def test_in_press_shadows_the_month_and_day_of_date(self):
        shadowed = ("shadowed-field", "month and day of field 'date' "
                    "ignored: 'inpress' is used instead")
        for extra in ({}, {"url": "http://x"}):
            record, diags = normalize(raw("article", title="t", journal="j",
                                          inpress="yes", date="2001 Jul 3",
                                          **extra))
            assert record.date == PartialDate(2001, 7, 3)
            assert [(d.code, d.message) for d in diags] == [shadowed]
        for fields in ({"date": "2001"}, {"year": "2001"}):
            _, diags = normalize(raw("article", title="t", journal="j",
                                     inpress="yes", **fields))
            assert diags == []
        _, diags = normalize(raw("book", title="t", inpress="yes",
                                 date="2001 Jul 3"))
        assert diags == []

    @pytest.mark.parametrize("fields, lost", [
        ({"volume": "83", "volpart": "2", "number": "5"},
         [("number", "'volpart' is used instead")]),
        ({"volume": "42", "volsuppl": "2", "issue": "7", "issuepart": "1"},
         [("issuepart", "'volsuppl' is used instead"),
          ("issue", "'volsuppl' is used instead")]),
        ({"volsuppl": "2", "volpart": "1"},
         [("volsuppl", "it needs 'volume'"), ("volpart", "it needs 'volume'")]),
        ({"volume": "4", "issuesuppl": "2"}, [("issuesuppl", "it needs 'number'")]),
        ({"number": "4", "issuesuppl": "2", "issuepart": "1"},
         [("issuepart", "'issuesuppl' is used instead")]),
        ({"volume": "4", "number": "2", "issuepart": "1",
          "pagination": "continuous"}, []),
        ({"volume": "4", "volsuppl": "2", "issuesuppl": "3"}, []),
        ({"volume": "4", "number": "2", "issuepart": "1"}, []),
    ])
    def test_locator_fields_print_or_warn(self, fields, lost):
        for entry_type in ("article", "newspaper"):
            _, diags = normalize(raw(entry_type, title="t", journal="j",
                                     year="2001", **fields))
            assert [(d.code, d.message) for d in diags] == [
                ("shadowed-field", f"field '{name}' ignored: {why}")
                for name, why in lost]
        _, diags = normalize(raw("article", title="t", journal="j", year="2001",
                                 inpress="yes", **fields))
        assert {d.message for d in diags} == {
            f"field '{name}' ignored: 'inpress' is used instead" for name in fields
            if name != "pagination"}

    @pytest.mark.parametrize("value, warns", [
        ("maybe", True), ("Perhaps ", True), ("yes", False), ("TRUE", False),
        ("1", False), ("on", False), ("", False), ("no", False), ("false", False),
        ("0", False), ("off", False)])
    def test_unknown_inpress_value_warns(self, value, warns):
        record, diags = normalize(raw("article", title="t", journal="j",
                                      year="2001", volume="4", inpress=value))
        assert record.in_press == (value.strip().lower() in TRUE_WORDS | {""})
        messages = [(d.code, d.message) for d in diags if d.code == "unknown-value"]
        assert messages == ([("unknown-value", f"inpress value "
                              f"'{value.strip().lower()}' ignored")] if warns else [])

    def test_number_shadows_issue_except_in_reports(self):
        record, diags = normalize(raw("article", title="t", journal="j",
                                      year="2001", number="2", issue="3"))
        assert record.issue == "2"
        assert [(d.code, d.message) for d in diags] == [
            ("shadowed-field", "field 'issue' ignored: 'number' is used instead")]
        for entry_type in ("techreport", "patent"):
            _, diags = normalize(raw(entry_type, title="t", year="2001",
                                     number="2", issue="3"))
            assert diags == []
        _, diags = normalize(raw("article", title="t", journal="j",
                                 year="2001", number="", issue="3"))
        assert diags == []

    def test_publisher_shadows_school_and_institution(self):
        record, diags = normalize(raw("techreport", title="t", year="2001",
                                      institution="I", publisher="P"))
        assert record.publisher == "P"
        assert [(d.code, d.message) for d in diags] == [
            ("shadowed-field",
             "field 'institution' ignored: 'publisher' is used instead")]
        record, diags = normalize(raw("phdthesis", title="t", year="2001",
                                      publisher="{}", school="S",
                                      institution="I"))
        assert record.publisher == "S"
        assert [(d.code, d.message) for d in diags] == [
            ("shadowed-field",
             "field 'institution' ignored: 'school' is used instead")]

    @pytest.mark.parametrize("fields, message", [
        ({"month": "Smarch"}, "month 'Smarch' ignored"),
        ({"day": "4"}, "day '4' ignored"),
    ])
    def test_unusable_month_or_day_is_ignored(self, fields, message):
        record, diags = normalize(raw("article", title="t", journal="j",
                                      year="2001", **fields))
        assert record.date == PartialDate(2001)
        assert [(d.code, d.message) for d in diags] == [
            ("unparsed-date", message)]

    @given(_raw_entries())
    @example(RawEntry("article", "k", {
        "author": "van  Beethoven,\tLudwig and {A  Group}", "title": "a\\foo b\\ c",
        "year": " 2002 ", "month": "Jul ", "day": "12 - 14", "pages": "284 - 7",
        "url": " http://x/a  b", "medium": " cd-rom ", "inpress": " ",
        "epub": "2002 Jul  25"}))
    def test_widened_whitespace_normalizes_alike(self, entry):
        widened = entry._replace(fields={name: _widened(value)
                                         for name, value in entry.fields.items()})
        record, diags = normalize(entry)
        again, again_diags = normalize(widened)
        assert again == record
        assert again_diags == diags

    def test_corpus_entries_match_reference(self, corpus_db):
        # the golden entries, as written and with their whitespace widened
        assert len(corpus_db.entries) == 48
        for entry in corpus_db.entries:
            widened = entry._replace(fields={name: _widened(value)
                                             for name, value in entry.fields.items()})
            for raw_entry in (entry, widened):
                record, diags = normalize(raw_entry)
                expected, expected_diags = normalize_reference(raw_entry)
                assert record._asdict() == expected._asdict(), entry.key
                assert _diagnostic_multiset(diags) == \
                    _diagnostic_multiset(expected_diags), entry.key

    def test_bad_name_field_is_error_not_crash(self):
        record, diags = normalize(
            raw("article", author="and", title="t", journal="j"))
        assert record.contributors == ()
        assert any(d.code == "empty-name" for d in diags)

    @given(_raw_entries())
    @example(RawEntry("misc", "k", dict.fromkeys(_NORMALIZE_FIELDS, "\\z v")))
    @example(RawEntry("techreport", "k", {
        "issue": "\\x 2", "number": "\\y 1", "institution": "\\i",
        "school": "", "publisher": "{}", "pages": "iii-v"}, span=(3, 9)))
    @example(RawEntry("book", "k", {
        "datesep": "x", "pagination": "Other", "day": "3", "month": "Smarch",
        "year": "2000", "school": "\\s", "title": "\\t"}, span=(0, 9)))
    @example(RawEntry("phdthesis", "k", {
        "publisher": "P", "school": "\\s", "institution": "\\i",
        "number": "1", "issue": "\\n"}))
    @example(RawEntry("patent", "k", {
        "author": "Roe, A", "inventor": "and", "assignee": "{Acme}"}))
    @example(RawEntry("article", "k", {
        "inpress": "", "url": "u", "number": "1", "issue": "2", "day": "3",
        "lastchecked": "2002", "volume": "4"}))
    @example(RawEntry("article", "k", {"inpress": "yes", "date": "2001 Jul"}))
    @example(RawEntry("newspaper", "k", {
        "inpress": "on", "section": "A", "column": "2", "updated": "2001"}))
    @example(RawEntry("article", "k", {"inpress": "maybe", "volsuppl": "1",
                                       "issuepart": "2"}))
    @example(RawEntry("article", "k", {
        "volume": "4", "volpart": "1", "volsuppl": "2", "issue": "3",
        "issuepart": "5"}))
    @example(RawEntry("newspaper", "k", {
        "volume": "4", "volpart": "1", "number": "3", "issuesuppl": "6",
        "issuepart": "5", "pagination": "continuous"}))
    @example(RawEntry("article", "k", {
        "number": "3", "issuesuppl": "6", "issuepart": "5", "volpart": "1"}))
    @example(RawEntry("article", "k", {"number": "", "issue": "{}", "issuesuppl": "6"}))
    @example(RawEntry("article", "k", {"year": "2001", "month": "feb", "day": "29"}))
    @example(RawEntry("article", "k", {"year": "2004", "month": "feb", "day": "29"}))
    @example(RawEntry("article", "k", {"year": "1900", "month": "feb", "day": "28-29"}))
    @example(RawEntry("article", "k", {"year": "n.d.", "month": "feb", "day": "29"}))
    @example(RawEntry("article", "k", {"year": "2001", "month": "apr", "day": "31"}))
    @example(RawEntry("article", "k", {"year": "2001", "month": "jul", "day": "0"}))
    @example(RawEntry("article", "k", {"year": "2001", "month": "jul", "day": "20-10"}))
    @example(RawEntry("article", "k", {"year": "02001", "month": "jul", "day": "4"}))
    @example(RawEntry("article", "k", {"author": "Doe, {Jr, III}, John",
                                       "editor": "Roe, {Jr}, Ann"}))
    @example(RawEntry("article", "k", {
        "year": "{2001}", "month": "{Jul}", "day": "{4}", "inpress": "{Yes}",
        "pagination": "{continuous}", "datesep": "{.}", "epub": "2001 Sep 13--15"}))
    def test_field_table_matches_reference(self, entry):
        record, diags = normalize(entry)
        expected, expected_diags = normalize_reference(entry)
        assert record._asdict() == expected._asdict()
        assert _diagnostic_multiset(diags) == _diagnostic_multiset(expected_diags)


# Every row ``normalize`` reads by the winner-first rule: all but the roles
# and ``date``.
_RULE_ROWS = [(attr, row) for attr, row in BIB_FIELDS.items()
              if isinstance(attr, str) and attr != "date"]


def _sample(attr, row):
    """A value with LaTeX to clean for one of the row's fields, and its reading."""
    if row.read is parse_date:
        return "{2001} Sep 13--15", PartialDate(2001, 9, 13, 15)
    return {
        "pages": ("{5}--9", PageExtent(PageKind.NUMERIC_RANGE, "5", "9")),
        "url": ("http://x/{a}--b  c", "http://x/{a}--b c"),
        "in_press": ("{Yes}", True),
        "continuous_pagination": ("{Continuous}", True),
        "date_separator": ("{.}", "."),
    }.get(attr, ("{A} B--C", "A B-C"))


def _entry_type_reading(attr):
    """The first ``.bib`` type whose template prints ``attr``."""
    return next(t.value for t in EntryType if attr in TEMPLATES[t].reads)


class TestFieldTable:
    """``BIB_FIELDS`` is what ``normalize`` reads and what README names."""

    @pytest.mark.parametrize("attr, name", [
        (attr, name) for attr, row in _RULE_ROWS for name in row.fields])
    def test_each_field_fills_its_attribute(self, attr, name):
        value, expected = _sample(attr, BIB_FIELDS[attr])
        record, diags = normalize(RawEntry(_entry_type_reading(attr), "k", {name: value}))
        assert getattr(record, attr) == expected
        assert [d for d in diags if d.code in ("unknown-value", "unparsed-date")] == []

    @pytest.mark.parametrize("attr, first, later", [
        (attr, first, later) for attr, row in _RULE_ROWS
        for i, first in enumerate(row.fields) for later in row.fields[i + 1:]])
    def test_first_non_empty_field_wins(self, attr, first, later):
        value, expected = _sample(attr, BIB_FIELDS[attr])
        entry_type = _entry_type_reading(attr)
        # the entry names the later field first: the row's order decides
        record, diags = normalize(RawEntry(entry_type, "k", {later: "Z", first: value}))
        assert getattr(record, attr) == expected
        assert [(d.code, d.message) for d in diags if d.code == "shadowed-field"] == [
            ("shadowed-field", f"field '{later}' ignored: '{first}' is used instead")]
        for empty in ("", " {} "):
            record, diags = normalize(RawEntry(entry_type, "k", {first: empty, later: value}))
            assert getattr(record, attr) == expected
            assert not any(d.code == "shadowed-field" for d in diags)

    def test_every_field_is_named_in_the_readme(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        fields = UNPRINTED_FIELDS.union(*(row.fields for row in BIB_FIELDS.values()))
        assert len(fields) >= 57
        assert sorted(name for name in fields if f"`{name}`" not in readme) == []
