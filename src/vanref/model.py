"""Typed bibliographic records: contributors, dates, pagination, entry types.

Records and their parts are immutable named tuples; normalization turns a
:class:`~vanref.bibtex.RawEntry` into a :class:`BibRecord` plus diagnostics
and never raises on odd input.  Beside :data:`BIB_FIELDS` stand the article
and patent drop rules, which the renderer applies and ``normalize`` warns for.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple

from .bibtex import (MONTH_MACROS, RawEntry, _BRACE_JUMP_RE, _flatten, _has_special,
                     strip_latex)
from .diagnostics import Diagnostic, error, warning


class NameParseError(ValueError):
    """An empty name inside a contributor field; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class MalformedNameError(NameParseError):
    """A name that cannot be printed: a comma in its suffix."""


class _Checked:
    """Mixin for a named tuple whose constructor checks its fields.

    ``_make``, and so ``_replace``, build through that constructor, so no
    copy skips the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _PersonNameFields(NamedTuple):
    family: str
    given: str
    particle: str
    suffix: str
    literal: str


class PersonName(_Checked, _PersonNameFields):
    """One contributor: either a personal name or a corporate literal."""

    __slots__ = ()

    def __new__(cls, family: str = "", given: str = "", particle: str = "",
                suffix: str = "", literal: str = ""):
        if bool(family) == bool(literal):
            raise ValueError("exactly one of family/literal must be set")
        if "," in suffix:
            raise ValueError("suffix must not contain a comma")
        return tuple.__new__(cls, (family, given, particle, suffix, literal))


# Each role's value is its ``.bib`` field; contributor lists keep this order.
class Role(Enum):
    AUTHOR = "author"
    ORGANIZATION = "organization"
    EDITOR = "editor"
    COMPILER = "compiler"
    INVENTOR = "inventor"
    ASSIGNEE = "assignee"
    CARTOGRAPHER = "cartographer"


class _ContributorListFields(NamedTuple):
    names: tuple[PersonName, ...]
    role: Role
    truncated: bool  # source ended with "and others"


class ContributorList(_Checked, _ContributorListFields):
    __slots__ = ()

    def __new__(cls, names: tuple[PersonName, ...], role: Role = Role.AUTHOR,
                truncated: bool = False):
        if not names:
            raise ValueError("a contributor list must hold at least one name")
        return tuple.__new__(cls, (names, role, truncated))


# Days per month in a common year.
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def month_days(year: int | str, month: int) -> int:
    """The days of ``month`` in ``year``, Gregorian leap years included, as
    ``calendar.monthrange`` counts them (whose import would slow start-up);
    February has 29 when ``year`` is not a number."""
    leap = month == 2 and (not isinstance(year, int) or year % 4 == 0
                           and (year % 100 != 0 or year % 400 == 0))
    return _MONTH_DAYS[month - 1] + leap


class _PartialDateFields(NamedTuple):
    year: int | str
    month: int | None
    day: int | None
    day_end: int | None
    circa: bool
    open_ended: bool
    raw: str


class PartialDate(_Checked, _PartialDateFields):
    """A year with optional month/day detail, copyright and open-range forms.

    ``raw`` overrides rendering entirely (kept for forms like ``c2000-01``).
    """

    __slots__ = ()

    def __new__(cls, year: int | str, month: int | None = None,
                day: int | None = None, day_end: int | None = None,
                circa: bool = False, open_ended: bool = False, raw: str = ""):
        if month is not None and not 1 <= month <= 12:
            raise ValueError("month out of range")
        if day is not None:
            if month is None:
                raise ValueError("a day requires a month")
            if not 1 <= day <= month_days(year, month):
                raise ValueError("day out of range")
        if day_end is not None:
            if day is None:
                raise ValueError("a day range requires a start day")
            if not day <= day_end <= month_days(year, month):
                raise ValueError("day range must stay within the month")
        return tuple.__new__(
            cls, (year, month, day, day_end, circa, open_ended, raw))


class PageKind(Enum):
    NUMERIC_RANGE = "numeric_range"
    ROMAN_RANGE = "roman_range"
    SINGLE = "single"
    TEXT = "text"


class PageExtent(NamedTuple):
    kind: PageKind
    first: str = ""
    last: str = ""
    text: str = ""


class EntryType(Enum):
    ARTICLE = "article"
    BOOK = "book"
    CHAPTER = "chapter"
    PROCEEDINGS = "proceedings"
    INPROCEEDINGS = "inproceedings"
    TECHREPORT = "techreport"
    DISSERTATION = "dissertation"
    PATENT = "patent"
    NEWSPAPER = "newspaper"
    AUDIOVISUAL = "audiovisual"
    MAP = "map"
    DICTIONARY = "dictionary"
    CDROM = "cdrom"
    WEBJOURNAL = "webjournal"
    WEBMONOGRAPH = "webmonograph"
    WEBPAGE = "webpage"
    WEBDATABASE = "webdatabase"
    MISC = "misc"


class BibRecord(NamedTuple):
    """A normalized record; every rendered symbol reads one field here.

    An immutable named tuple: derive a changed copy with ``_replace``.
    """

    key: str
    entry_type: EntryType
    contributors: tuple[ContributorList, ...] = ()
    title: str = ""
    journal: str = ""
    booktitle: str = ""
    volume: str = ""
    issue: str = ""
    volume_supplement: str = ""
    issue_supplement: str = ""
    volume_part: str = ""
    issue_part: str = ""
    pages: PageExtent | None = None
    date: PartialDate | None = None
    date_epub: PartialDate | None = None
    place: str = ""
    publisher: str = ""
    edition: str = ""
    pmid: str = ""
    retraction_of: str = ""
    retraction_in: str = ""
    erratum_in: str = ""
    republished_from: str = ""
    sponsor: str = ""
    report_type: str = ""
    report_number: str = ""
    contract_number: str = ""
    article_type: str = ""
    url: str = ""
    medium: str = ""
    updated: PartialDate | None = None
    cited: PartialDate | None = None
    part_title: str = ""
    extent_text: str = ""
    conference_name: str = ""
    conference_date: PartialDate | None = None
    conference_place: str = ""
    defined_term: str = ""
    country: str = ""
    section: str = ""
    column: str = ""
    affiliation: str = ""
    in_press: bool = False
    continuous_pagination: bool = False
    date_separator: str = ";"

    def lists(self, *roles: Role) -> tuple[ContributorList, ...]:
        return tuple([c for c in self.contributors if c.role in roles])

    def without(self, attrs: tuple[str, ...]) -> BibRecord:
        """A copy with ``attrs`` at their defaults; a date keeps its year."""
        values = list(self)
        for attr in attrs:
            values[_FIELD_INDEX[attr]] = self._field_defaults[attr]
        if "date" in attrs and self.date is not None:
            values[_FIELD_INDEX["date"]] = self.date._replace(
                month=None, day=None, day_end=None)
        return self._make(values)


# Each record attribute's position, and the defaults in that order (``key``
# and ``entry_type`` have none): ``normalize`` builds a record positionally.
_FIELD_INDEX = {attr: i for i, attr in enumerate(BibRecord._fields)}
_DEFAULTS = [BibRecord._field_defaults.get(attr) for attr in BibRecord._fields]


# ---------------------------------------------------------------------------
# contributor names

def _mask(value: str) -> str:
    """``value`` at the same length with the inside of each top-level brace
    group blanked to NULs, so that ``str`` methods see only depth zero.

    The outer braces stay; an unclosed brace runs to the end, and a ``}``
    at depth zero is an ordinary character.  A field with no ``{`` is
    returned as the same object.
    """
    i = value.find("{")
    if i < 0:
        return value
    out = []
    start = 0  # the text from here on is kept as it is
    while i >= 0:  # a top-level group opens at i
        end = value.find("}", i) + 1  # 0: no ``}`` follows, never closed
        inner = value.find("{", i + 1, end)
        if inner >= 0:  # a nested group: count the braces from the inner one
            depth, end = 2, inner + 1
            while depth and (m := _BRACE_JUMP_RE.search(value, end)):
                end = m.end()
                depth += 1 if m[0] == "{" else -1
            if depth:
                end = 0
        if not end:  # never closed: blank to the end
            out += value[start:i + 1], "\0" * (len(value) - i - 1)
            return "".join(out)
        out += value[start:i + 1], "\0" * (end - i - 2)
        start = end - 1
        i = value.find("{", end)
    out.append(value[start:])
    return "".join(out)


def _cut(value: str, masked: str) -> list[str]:
    """The words of ``value`` where ``masked``, its mask, has whitespace.

    Each masked word is found after the end of the one before it, so two
    words that mask to the same text are never confused.
    """
    words = masked.split()
    end = 0
    for k, word in enumerate(words):
        start = masked.find(word, end)
        end = start + len(word)
        words[k] = value[start:end]
    return words


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


def _one_name(words: list[str], text: str, masked: str, special: bool,
              index: int) -> PersonName:
    """Name ``index`` of a field from its words, their text joined by single
    spaces and that text's mask, the same object when the name has no brace;
    ``special`` cleans each part with ``strip_latex``."""
    # one word that is one brace group: a corporate literal
    if len(words) == 1 and masked[0] == "{" and masked.find("}") == len(masked) - 1:
        literal = strip_latex(text[1:-1])
        if not literal:  # {} or { }
            raise NameParseError(f"empty name at position {index}", index)
        return PersonName(literal=literal)
    left, comma, right = masked.partition(",")
    if not comma:  # First von Last
        lowers = [i for i in range(len(words) - 1) if _is_lower_word(words[i])]
        von, last = (lowers[0], lowers[-1] + 1) if lowers else (len(words) - 1,) * 2
        family, given, particle, suffix = (" ".join(words[last:]), " ".join(words[:von]),
                                           " ".join(words[von:last]), "")
    else:
        braced = masked is not text
        last = _cut(text[:len(left)], left) if braced else left.split()
        particle = ""
        if last and _is_lower_word(last[0]):
            lowers = [i for i in range(len(last) - 1) if _is_lower_word(last[i])]
            if lowers:
                particle = " ".join(last[:lowers[-1] + 1])
                last = last[lowers[-1] + 1:]
        family = " ".join(last)
        suffix, comma, first = right.partition(",")
        if not comma:  # von Last, First
            suffix, first = "", suffix
        elif "," in first:  # "Doe, Jr, John, X": BibTeX's "too many commas"
            raise MalformedNameError(
                f"name at position {index} has too many commas", index)
        if braced:  # the original at the same place
            start = len(text) - len(first)
            given = " ".join(_cut(text[start:], first))
            if suffix:
                suffix = " ".join(_cut(text[len(left) + 1:start - 1], suffix))
        else:
            given, suffix = first.strip(), suffix.strip()
    if special:
        family, given, particle, suffix = (
            part and strip_latex(part) for part in (family, given, particle, suffix))
    if not family:  # "Jo {}", "{} , John", ", John": nothing is left of it
        raise NameParseError(f"empty name at position {index}", index)
    if "," in suffix:  # "Doe, {Jr, III}, John": the braces keep the comma
        raise MalformedNameError(
            f"name at position {index} has a comma in its suffix '{suffix}'", index)
    return PersonName(family, given, particle, suffix)


def parse_names(value: str, role: Role = Role.AUTHOR) -> ContributorList:
    """Parse a BibTeX name field into a contributor list.

    Names are separated by the word ``and`` at brace depth zero and follow
    the ``First von Last``, ``von Last, First`` and ``von Last, Jr, First``
    forms; a fully braced name is taken as a corporate literal.  A trailing
    ``and others`` sets the truncation flag.  The field is read through its
    mask (``_mask``): words and commas are found with ``str`` methods on the
    masked text, and each piece is cut from the original at the same place.
    A word's case is that of its first letter at depth zero.
    """
    masked = _mask(value)
    special = _has_special(value)
    words: list[str] = []
    groups = [words]
    for word in masked.split():
        # only a three-letter word lowercases to "and"
        if len(word) == 3 and word.lower() == "and":
            words = []
            groups.append(words)
        else:
            words.append(word)
    truncated = len(words) == 1 and words[0].lower() == "others"
    if truncated:
        groups.pop()
        if not groups:
            raise NameParseError("empty name at position 0", 0)
    # a braced field's words are cut from the original all at once, in
    # order, since two names can mask to the same text
    cut = _cut(value, masked) if masked is not value else None
    names = []
    end = 0  # the first cut word of the next name
    for index, words in enumerate(groups):
        if not words:
            raise NameParseError(f"empty name at position {index}", index)
        text = masked_text = " ".join(words)
        if cut is not None:
            words = cut[end:end + len(words)]
            end += len(words) + 1
            text = " ".join(words)
        names.append(_one_name(words, text, masked_text, special, index))
    return ContributorList(tuple(names), role, truncated)


def initials(given: str) -> str:
    """NLM initials: first letter of each space- or hyphen-separated token."""
    out = []
    for token in given.replace("-", " ").split():
        for c in token:
            if c.isalpha():
                out.append(c.upper())
                break
    return "".join(out)


# ---------------------------------------------------------------------------
# dates

# Each month's full name and abbreviation, lowercased, and its number
# written without leading zeros, to its number.
_MONTH_NUMBERS = {name: number for number, (abbreviation, full) in
                  enumerate(MONTH_MACROS.items(), start=1)
                  for name in (abbreviation, full.lower(), str(number))}

_DATE_RE = re.compile(
    r"(c?)([0-9]{4})"
    r"(?:\s+([A-Za-z]+)"
    r"(?:\s+([0-9]{1,2})(?:\s*-\s*([0-9]{1,2}))?)?)?"
    r"(\s*-)?"
)
_CIRCA_RANGE_RE = re.compile(r"c([0-9]{4})-([0-9]{2}|[0-9]{4})")


def parse_month(value: str) -> int | None:
    value = value.strip()
    if value.isascii() and value.isdigit():  # "07" reads as "7", with no int()
        value = value.lstrip("0")
    return _MONTH_NUMBERS.get(value.lower())


def parse_date(value: str,
               diagnostics: list[Diagnostic] | None = None) -> PartialDate:
    """Parse forms like ``2002 Jul 25``, ``2001 Sep 13-15``, ``c2000 -``.

    A copyright range such as ``c2000-01`` keeps its verbatim form; anything
    unrecognized is stored raw with a diagnostic.
    """
    s = value.strip()
    m = _DATE_RE.fullmatch(s)
    if m:
        circa, year, month_word, day, day_end, open_tail = m.groups()
        month = parse_month(month_word) if month_word else None
        if month is not None or not month_word:  # else the raw form below
            try:
                return PartialDate(
                    year=int(year),
                    month=month,
                    day=int(day) if day else None,
                    day_end=int(day_end) if day_end else None,
                    circa=bool(circa),
                    open_ended=bool(open_tail),
                )
            except ValueError:
                pass
    m = _CIRCA_RANGE_RE.fullmatch(s)
    if m:
        return PartialDate(year=int(m.group(1)), circa=True, raw=s)
    if diagnostics is not None:
        diagnostics.append(warning("unparsed-date", f"date kept verbatim: '{s}'"))
    return PartialDate(year=s, raw=s)


# ---------------------------------------------------------------------------
# pages

_ROMAN = r"[ivxlcdm]+"
_ROMAN_RE = re.compile(_ROMAN)
_ROMAN_RANGE_RE = re.compile(f"({_ROMAN})\\s*-\\s*({_ROMAN})")
_DIGIT_RANGE_RE = re.compile(r"([0-9]+)\s*-\s*([0-9]+)")


def digit_order(digits: str) -> tuple[int, str]:
    """A key that orders digit strings by value, read without ``int()``.

    ``int()`` refuses a string of more than 4,300 digits.  With leading
    zeros stripped, the longer string is the larger, and strings of one
    length compare as text.
    """
    significant = digits.lstrip("0")
    return len(significant), significant


def complete_page(first: str, last: str) -> str:
    """Fill an NLM-abbreviated ending page from the starting page's digits."""
    if len(last) >= len(first):
        return last
    return first[:len(first) - len(last)] + last


def parse_pages(value: str) -> PageExtent:
    """Classify a pages field; unrecognized shapes pass through verbatim."""
    s = value.strip()
    if s.isascii() and s.isdigit():
        return PageExtent(PageKind.SINGLE, s)
    m = _DIGIT_RANGE_RE.fullmatch(s)
    if m:
        first, last = m.groups()
        if digit_order(complete_page(first, last)) >= digit_order(first):
            return PageExtent(PageKind.NUMERIC_RANGE, first, last)
        return PageExtent(PageKind.TEXT, text=s)
    m = _ROMAN_RANGE_RE.fullmatch(s)
    if m:
        return PageExtent(PageKind.ROMAN_RANGE, first=m.group(1), last=m.group(2))
    if _ROMAN_RE.fullmatch(s):
        return PageExtent(PageKind.SINGLE, first=s)
    return PageExtent(PageKind.TEXT, text=s)


# ---------------------------------------------------------------------------
# entry-type mapping and normalization

_TYPE_MAP = {
    "article": EntryType.ARTICLE,
    "book": EntryType.BOOK,
    "inbook": EntryType.CHAPTER,
    "incollection": EntryType.CHAPTER,
    "chapter": EntryType.CHAPTER,
    "proceedings": EntryType.PROCEEDINGS,
    "inproceedings": EntryType.INPROCEEDINGS,
    "conference": EntryType.INPROCEEDINGS,
    "techreport": EntryType.TECHREPORT,
    "report": EntryType.TECHREPORT,
    "phdthesis": EntryType.DISSERTATION,
    "mastersthesis": EntryType.DISSERTATION,
    "dissertation": EntryType.DISSERTATION,
    "patent": EntryType.PATENT,
    "newspaper": EntryType.NEWSPAPER,
    "audiovisual": EntryType.AUDIOVISUAL,
    "video": EntryType.AUDIOVISUAL,
    "map": EntryType.MAP,
    "dictionary": EntryType.DICTIONARY,
    "cdrom": EntryType.CDROM,
    "electronic": EntryType.CDROM,
    "webpage": EntryType.WEBPAGE,
    "homepage": EntryType.WEBPAGE,
    "webdatabase": EntryType.WEBDATABASE,
    "database": EntryType.WEBDATABASE,
    "misc": EntryType.MISC,
}


def map_entry_type(raw: RawEntry,
                   diagnostics: list[Diagnostic] | None = None) -> EntryType:
    """Total mapping from the raw ``@type`` (plus web/medium markers)."""
    return _with_medium(_web_type(raw, diagnostics),
                        strip_latex(raw.fields.get("medium", "")))


def _web_type(raw: RawEntry, diagnostics: list[Diagnostic] | None) -> EntryType:
    """The type from ``@type`` and ``url``, before a book's medium is read."""
    base = _TYPE_MAP.get(raw.entry_type)
    if base is None:
        if diagnostics is not None:
            diagnostics.append(warning(
                "unknown-entry-type",
                f"unknown entry type '@{raw.entry_type}' treated as misc",
                raw.span[0],
            ))
        return EntryType.MISC
    if raw.fields.get("url", "").strip():
        if base is EntryType.ARTICLE:
            return EntryType.WEBJOURNAL
        if base is EntryType.BOOK:
            return EntryType.WEBMONOGRAPH
    return base


def _with_medium(entry_type: EntryType, medium: str) -> EntryType:
    """A book with a cleaned ``medium`` is a CD-ROM or an audiovisual item."""
    if entry_type is EntryType.BOOK and medium:
        return EntryType.CDROM if "cd-rom" in medium.lower() else EntryType.AUDIOVISUAL
    return entry_type


_ROLE_FIELDS = [(role.value, role) for role in Role]

# Values read as "yes" in flag-like fields.
TRUE_WORDS = {"yes", "true", "1", "on"}


def _in_press(text: str, diags: list[Diagnostic]) -> bool:
    flag = text.lower()
    in_press = not flag or flag in TRUE_WORDS
    if not in_press and flag not in ("no", "false", "0", "off"):
        diags.append(warning("unknown-value", f"inpress value '{flag}' ignored"))
    return in_press


def _continuous(text: str, diags: list[Diagnostic]) -> bool:
    value = text.lower()
    if value != "continuous":
        diags.append(warning("unknown-value", f"pagination value '{value}' ignored"))
    return value == "continuous"


def _date_separator(text: str, diags: list[Diagnostic]) -> str:
    if text not in (";", "."):
        diags.append(warning("unknown-value", f"datesep '{text}' ignored; using ';'"))
        return ";"
    return text


class FieldRow(NamedTuple):
    """The ``.bib`` fields one record attribute or role is read from, winner
    first; ``clean`` makes a field's text and ``read`` the winner's value."""

    fields: tuple[str, ...]
    read: Callable[[str, list[Diagnostic]], object] | None = None  # None: the text
    clean: Callable[[str, list[Diagnostic]], str] = strip_latex


# The one map from ``.bib`` fields to record attributes and roles.  The roles
# are read by ``parse_names`` in ``Role`` order; ``normalize`` reads every
# other row by one rule (see ``_read``, which a row of one field skips: its
# field wins when its text is non-empty), ``date`` as ``date``, else ``year``
# with ``month`` and ``day``.
BIB_FIELDS: dict[str | Role, FieldRow] = {
    **{role: FieldRow((name,)) for name, role in _ROLE_FIELDS},
    "title": FieldRow(("title",)),
    "journal": FieldRow(("journal",)),
    "booktitle": FieldRow(("booktitle",)),
    "volume": FieldRow(("volume",)),
    "issue": FieldRow(("number", "issue")),
    "volume_supplement": FieldRow(("volsuppl",)),
    "issue_supplement": FieldRow(("issuesuppl",)),
    "volume_part": FieldRow(("volpart",)),
    "issue_part": FieldRow(("issuepart",)),
    "pages": FieldRow(("pages",), lambda text, _: parse_pages(text)),
    "date": FieldRow(("date", "year", "month", "day")),
    "date_epub": FieldRow(("epub",), parse_date),
    "place": FieldRow(("address",)),
    "publisher": FieldRow(("publisher", "school", "institution")),
    "edition": FieldRow(("edition",)),
    "pmid": FieldRow(("pmid",)),
    "retraction_of": FieldRow(("retractionof",)),
    "retraction_in": FieldRow(("retractionin",)),
    "erratum_in": FieldRow(("erratumin",)),
    "republished_from": FieldRow(("republishedfrom",)),
    "sponsor": FieldRow(("sponsor",)),
    "report_type": FieldRow(("type",)),
    "report_number": FieldRow(("number",)),
    "contract_number": FieldRow(("contract",)),
    "article_type": FieldRow(("articletype",)),
    "url": FieldRow(("url",), clean=lambda value, _: _flatten(value)),
    "medium": FieldRow(("medium",)),
    "updated": FieldRow(("updated",), parse_date),
    "cited": FieldRow(("lastchecked",), parse_date),
    "part_title": FieldRow(("part",)),
    "extent_text": FieldRow(("extent",)),
    "conference_name": FieldRow(("conference",)),
    "conference_date": FieldRow(("conferencedate",), parse_date),
    "conference_place": FieldRow(("conferenceplace",)),
    "defined_term": FieldRow(("term",)),
    "country": FieldRow(("country",)),
    "section": FieldRow(("section",)),
    "column": FieldRow(("column",)),
    "affiliation": FieldRow(("affiliation",)),
    "in_press": FieldRow(("inpress",), _in_press),
    "continuous_pagination": FieldRow(("pagination",), _continuous),
    "date_separator": FieldRow(("datesep",), _date_separator),
}

# ``.bib`` fields every entry type accepts though no template prints them.
UNPRINTED_FIELDS = frozenset({"language", "note", "key"})


def _reading(attr: str, row: FieldRow) -> tuple:
    """How ``normalize`` reads a field of ``row``: the position of ``attr`` in
    the record, the row's ``clean`` and ``read``, and the row itself if it
    has several fields, for ``_read``."""
    return _FIELD_INDEX[attr], row.clean, row.read, row if len(row.fields) > 1 else None


# Each field read by the one rule, with its reading.  ``number`` is the
# issue, except in reports and patents, whose document number it is.
_ROWS_BY_FIELD = {name: _reading(attr, row) for attr, row in BIB_FIELDS.items()
                  if isinstance(attr, str) and attr not in ("date", "report_number")
                  for name in row.fields}
_DOCUMENT_TYPES = (EntryType.TECHREPORT, EntryType.PATENT)
_DOCUMENT_ROWS_BY_FIELD = {**_ROWS_BY_FIELD,
                           "number": _reading("report_number", BIB_FIELDS["report_number"]),
                           "issue": _reading("issue", FieldRow(("issue",)))}

# The article and patent drop rules, which the renderer applies and ``normalize``
# warns for: the article types; what "In press <year>" and, with no warning,
# ``pagination={continuous}`` blank; the locator's supplements and parts, in
# order, with what each qualifies; the roles a patent credits before its author.
ARTICLE_TYPES = (EntryType.ARTICLE, EntryType.WEBJOURNAL, EntryType.NEWSPAPER)
IN_PRESS_HIDES = ("volume", "issue", "volume_supplement", "issue_supplement",
                  "volume_part", "issue_part", "pages", "section", "column",
                  "date", "updated", "cited")
CONTINUOUS_HIDES = ("issue", "issue_supplement", "issue_part", "date")
QUALIFIERS = {"volume_supplement": "volume", "volume_part": "volume",
              "issue_supplement": "issue", "issue_part": "issue"}
PATENT_CREDITS = (Role.INVENTOR, Role.ASSIGNEE)
_QUALIFIER_VALUES = attrgetter(*QUALIFIERS)

# The date row's winner: ``month`` and ``day`` are read only with ``year``.
_DATE_OR_YEAR = FieldRow(BIB_FIELDS["date"].fields[:2])
_DAY_RE = re.compile(r"([0-9]{1,2})(?:\s*-\s*([0-9]{1,2}))?")
# The ``.bib`` fields of the hidden attributes: of the date, those a year omits.
_IN_PRESS_FIELDS = [name for attr in IN_PRESS_HIDES for name in BIB_FIELDS[attr].fields
                    if attr != "date" or name not in _DATE_OR_YEAR.fields]


def _shadowed(name: str, winner: str) -> Diagnostic:
    return warning("shadowed-field",
                   f"field '{name}' ignored: '{winner}' is used instead")


def _read(row: FieldRow, fields: dict[str, str],
          diags: list[Diagnostic]) -> tuple[str, str]:
    """The one rule: the first field whose cleaned text is non-empty wins, and
    each later field present warns ``shadowed-field``.  Returns the winner
    and its text, or two empty strings when every field is empty or absent."""
    text = winner = ""
    for name in row.fields:
        if name in fields:
            if winner:
                diags.append(_shadowed(name, winner))
            else:
                text = row.clean(fields[name], diags)
                if text:
                    winner = name
    return winner, text


def printed_qualifier(rec: BibRecord) -> str:
    """The supplement or part the journal locator prints, or ``""``."""
    for attr, host in QUALIFIERS.items():
        if getattr(rec, attr) and getattr(rec, host):
            return attr
    return ""


def _unprinted_qualifiers(rec: BibRecord, issue_field: str) -> list[Diagnostic]:
    """Warn for each supplement or part of ``rec`` the locator leaves out, and
    for its issue, read from ``issue_field``, which a volume's stands in for."""
    if rec.continuous_pagination:
        rec = rec.without(CONTINUOUS_HIDES)
    if rec.volume_supplement and rec.issue_supplement:
        return []  # rendering fails with ConflictingLocator
    printed = printed_qualifier(rec)
    diags = []
    for attr, host in QUALIFIERS.items():
        if attr == printed or not getattr(rec, attr):
            continue
        why = (f"'{BIB_FIELDS[printed].fields[0]}' is used instead" if getattr(rec, host)
               else f"it needs '{BIB_FIELDS[host].fields[0]}'")
        diags.append(warning("shadowed-field",
                             f"field '{BIB_FIELDS[attr].fields[0]}' ignored: {why}"))
    if QUALIFIERS.get(printed) == "volume" and rec.issue:
        diags.append(_shadowed(issue_field, BIB_FIELDS[printed].fields[0]))
    return diags


def normalize(raw: RawEntry) -> tuple[BibRecord, list[Diagnostic]]:
    """Build a typed record from a raw entry, collecting diagnostics.

    Each row of :data:`BIB_FIELDS` is read by one rule, winner first: the
    first of its fields whose cleaned text is non-empty is read, and each
    later field present warns ``shadowed-field``.  A field whose cleaned
    text is empty counts as absent, so a row with no non-empty field keeps
    the record's default; only ``inpress`` reads its empty text, as "in
    press".  Rows are read in the order the entry first names one of their
    fields, ``date`` last.  The contributor roles are read in ``Role``
    order by :func:`parse_names`; in reports and patents ``number`` is
    the document number.  The record is built positionally from
    ``_DEFAULTS``.  Every diagnostic points at the entry's ``@``
    (``raw.span[0]``).
    """
    diags: list[Diagnostic] = []
    f = raw.fields

    contributors: list[ContributorList] = []
    for field_name, role in _ROLE_FIELDS:
        if field_name in f:
            try:
                contributors.append(parse_names(f[field_name], role))
            except NameParseError as exc:
                message = f"entry '{raw.key}': bad {field_name} field: {exc}"
                diags.append(error("malformed-name", message)
                             if isinstance(exc, MalformedNameError)
                             else error("empty-name", message))

    entry_type = _web_type(raw, diags)
    if entry_type is EntryType.PATENT and "author" in f:
        for people in contributors:
            if people.role in PATENT_CREDITS:
                diags.append(_shadowed("author", people.role.value))
                break

    rows = _DOCUMENT_ROWS_BY_FIELD if entry_type in _DOCUMENT_TYPES else _ROWS_BY_FIELD
    values = _DEFAULTS.copy()
    winners: dict[int, str] = {}  # each row of several fields, to the field that won it
    for name, value in f.items():
        if name not in rows:
            continue
        index, clean, read, several = rows[name]
        if several is None:
            text = clean(value, diags)
        elif index in winners:
            continue
        else:
            winners[index], text = _read(several, f, diags)
        if text or read is _in_press:
            values[index] = text if read is None else read(text, diags)
    entry_type = _with_medium(entry_type, values[_FIELD_INDEX["medium"]])

    date_field, text = _read(_DATE_OR_YEAR, f, diags)
    date = None
    if date_field == "date":
        diags.extend(_shadowed(name, "date") for name in ("month", "day") if name in f)
        date = parse_date(text, diags)
    elif date_field:  # the year, with its month and day
        # four digits at most make a number; a longer year prints as written
        year = (int(text) if len(text) <= 4 and text.isascii() and text.isdigit()
                else text)
        month = day = day_end = None
        month_text = strip_latex(f["month"], diags) if "month" in f else ""
        if month_text:
            month = parse_month(month_text)
            if month is None:
                diags.append(warning("unparsed-date", f"month '{month_text}' ignored"))
        day_text = strip_latex(f["day"], diags) if "day" in f else ""
        if day_text:
            m = _DAY_RE.fullmatch(day_text)
            if m and month is not None:
                first, last = int(m[1]), int(m[2] or m[1])
                if 1 <= first <= last <= month_days(year, month):  # a day the month has
                    day, day_end = first, last if m[2] else None
            if day is None:
                diags.append(warning("unparsed-date", f"day '{day_text}' ignored"))
        date = PartialDate(year, month, day, day_end)
    else:
        diags.append(warning(
            "missing-date", f"entry '{raw.key}' has no date; year skipped"))

    values[:3] = raw.key, entry_type, tuple(contributors)  # the record's first fields
    values[_FIELD_INDEX["date"]] = date
    record = BibRecord._make(values)
    if entry_type in ARTICLE_TYPES:
        if record.in_press:
            diags.extend(_shadowed(name, "inpress")
                         for name in _IN_PRESS_FIELDS if name in f)
            if date_field == "date" and date.month:
                diags.append(warning("shadowed-field", "month and day of field 'date' "
                                     "ignored: 'inpress' is used instead"))
        elif any(_QUALIFIER_VALUES(record)):
            issue_field = winners.get(_FIELD_INDEX["issue"], "")
            diags.extend(_unprinted_qualifiers(record, issue_field))
    return record, [d._replace(offset=raw.span[0]) for d in diags] if diags else diags

