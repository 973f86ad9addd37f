"""Typed bibliographic records: contributors, dates, pagination, entry types.

Records and their parts are immutable named tuples; normalization turns a
:class:`~vanref.bibtex.RawEntry` into a :class:`BibRecord` plus diagnostics
and never raises on odd input.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, NamedTuple

from .bibtex import _SPECIAL_RE, RawEntry, _flatten, strip_latex
from .diagnostics import Diagnostic, error, warning


class NameParseError(ValueError):
    """An empty name inside a contributor field; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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
            if not 1 <= day <= 31:
                raise ValueError("day out of range")
        if day_end is not None:
            if day is None:
                raise ValueError("a day range requires a start day")
            if not day <= day_end <= 31:
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
    raw_entry_type: str = ""
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
    term_pages: str = ""
    country: str = ""
    section: str = ""
    column: str = ""
    affiliation: str = ""
    in_press: bool = False
    continuous_pagination: bool = False
    date_separator: str = ";"

    def lists(self, *roles: Role) -> tuple[ContributorList, ...]:
        return tuple(c for c in self.contributors if c.role in roles)


# ---------------------------------------------------------------------------
# contributor names

def _scan_names(value: str) -> list[tuple[list[str], list[list[str]]]]:
    """Split a name field in one pass at brace depth zero.

    Each name between ``and`` words comes back as its whitespace words and
    as the same text cut at commas into lists of words.  Depth never drops
    below zero; an unclosed brace runs to the end of the field.  A field
    with no brace is all at depth zero, so ``str.split`` does the cutting.
    """
    if "{" not in value and "}" not in value:
        groups: list[list[str]] = [[]]
        for word in value.split():
            if word.lower() == "and":
                groups.append([])
            else:
                groups[-1].append(word)
        return [(words, [part.split() for part in " ".join(words).split(",")])
                for words in groups]
    names: list[tuple[list[str], list[list[str]]]] = []
    words: list[str] = []
    parts: list[list[str]] = [[]]
    depth = 0
    start = cut = -1  # current word start, start of its current comma part

    def end_word(end: int) -> None:
        nonlocal words, parts
        word = value[start:end]
        if word.lower() == "and":
            names.append((words, parts))
            words, parts = [], [[]]
            return
        words.append(word)
        if cut < end:
            parts[-1].append(value[cut:end])

    for i, c in enumerate(value):
        if c == "{":
            depth += 1
        elif c == "}":
            depth = depth - 1 if depth else 0
        elif depth == 0 and c.isspace():
            if start >= 0:
                end_word(i)
                start = -1
            continue
        elif depth == 0 and c == ",":
            if start < 0:
                start = i
            elif cut < i:
                parts[-1].append(value[cut:i])
            parts.append([])
            cut = i + 1
            continue
        if start < 0:
            start = cut = i
    if start >= 0:
        end_word(len(value))
    names.append((words, parts))
    return names


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
                       suffix: list[str],
                       plain: Callable[[list[str]], str] = _plain_words,
                       ) -> PersonName:
    """Build a name from its parts' words; ``plain`` turns words into text."""
    return PersonName(plain(last), plain(first), plain(von), plain(suffix))


def _split_von_last(words: list[str]) -> tuple[list[str], list[str]]:
    """Split ``von Last`` words: the particle runs to the last lowercase word."""
    lowers = [i for i, w in enumerate(words[:-1]) if _is_lower_word(w)]
    if not lowers:
        return [], words
    return words[lowers[0]:lowers[-1] + 1], words[lowers[-1] + 1:]


def _parse_one_name(words: list[str], parts: list[list[str]],
                    plain: Callable[[list[str]], str]) -> PersonName:
    if len(words) == 1 and words[0][0] == "{" and words[0][-1] == "}":
        inner, depth = words[0][1:-1], 0
        for c in inner:  # the outer braces must be one group
            depth += c == "{"
            depth -= c == "}"
            if depth < 0:
                break
        else:
            if depth == 0:
                return PersonName(literal=strip_latex(inner))
    if len(parts) == 1:  # First von Last
        tokens = parts[0]
        i = next((i for i, w in enumerate(tokens[:-1]) if _is_lower_word(w)),
                 len(tokens) - 1)
        von, last = _split_von_last(tokens[i:])
        return _person_from_parts(tokens[:i], von, last, [], plain)
    left = parts[0]
    if left and _is_lower_word(left[0]):
        von, last = _split_von_last(left)
    else:
        von, last = [], left
    if len(parts) == 2:
        return _person_from_parts(parts[1], von, last, [], plain)
    first = [w for grp in parts[2:] for w in grp]
    return _person_from_parts(first, von, last, parts[1], plain)


def parse_names(value: str, role: Role = Role.AUTHOR) -> ContributorList:
    """Parse a BibTeX name field into a contributor list.

    Names are separated by the word ``and`` at brace depth zero and follow
    the ``First von Last``, ``von Last, First`` and ``von Last, Jr, First``
    forms; a fully braced name is taken as a corporate literal.  A trailing
    ``and others`` sets the truncation flag.
    """
    pieces = _scan_names(value)
    # With no LaTeX in the field, strip_latex would only join a part's
    # words, which hold no whitespace.
    plain = _plain_words if _SPECIAL_RE.search(value) else " ".join
    last_words = pieces[-1][0]
    truncated = len(last_words) == 1 and last_words[0].lower() == "others"
    if truncated:
        pieces.pop()
        if not pieces:
            raise NameParseError("empty name at position 0", 0)
    names = []
    for index, (words, parts) in enumerate(pieces):
        if not words:
            raise NameParseError(f"empty name at position {index}", index)
        try:
            names.append(_parse_one_name(words, parts, plain))
        except ValueError as exc:
            raise NameParseError(
                f"unusable name at position {index}: {exc}", index) from exc
    return ContributorList(tuple(names), role=role, truncated=truncated)


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

_MONTH_NUMBERS: dict[str, int] = {}
for _i, _name in enumerate(
        ["january", "february", "march", "april", "may", "june", "july",
         "august", "september", "october", "november", "december"], start=1):
    _MONTH_NUMBERS[_name] = _i
    _MONTH_NUMBERS[_name[:3]] = _i

_DATE_RE = re.compile(
    r"(c?)(\d{4})"
    r"(?:\s+([A-Za-z]+)"
    r"(?:\s+(\d{1,2})(?:-(\d{1,2}))?)?)?"
    r"(\s*-)?"
)


def parse_month(value: str) -> int | None:
    value = value.strip()
    if value.isdigit() and 1 <= int(value) <= 12:
        return int(value)
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
        if month_word and month is None:
            pass  # fall through to the raw form below
        else:
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
    m = re.fullmatch(r"c(\d{4})-(\d{2}|\d{4})", s)
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
_DIGITS_RE = re.compile(r"\d+")
_DIGIT_RANGE_RE = re.compile(r"(\d+)\s*-\s*(\d+)")


def complete_page(first: str, last: str) -> str:
    """Fill an NLM-abbreviated ending page from the starting page's digits."""
    if len(last) >= len(first):
        return last
    return first[:len(first) - len(last)] + last


def parse_pages(value: str) -> PageExtent:
    """Classify a pages field; unrecognized shapes pass through verbatim."""
    s = value.strip()
    if _DIGITS_RE.fullmatch(s):
        return PageExtent(PageKind.SINGLE, first=s)
    m = _DIGIT_RANGE_RE.fullmatch(s)
    if m:
        first, last = m.groups()
        if int(complete_page(first, last)) >= int(first):
            return PageExtent(PageKind.NUMERIC_RANGE, first=first, last=last)
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
    base = _TYPE_MAP.get(raw.entry_type)
    has_url = bool(raw.fields.get("url", "").strip())
    medium = raw.fields.get("medium", "").strip()
    if base is EntryType.ARTICLE and has_url:
        return EntryType.WEBJOURNAL
    if base is EntryType.BOOK:
        if has_url:
            return EntryType.WEBMONOGRAPH
        if medium:
            if "cd-rom" in medium.lower():
                return EntryType.CDROM
            return EntryType.AUDIOVISUAL
    if base is None:
        if diagnostics is not None:
            diagnostics.append(warning(
                "unknown-entry-type",
                f"unknown entry type '@{raw.entry_type}' treated as misc",
                raw.span[0],
            ))
        return EntryType.MISC
    return base


_ROLE_FIELDS = [(role.value, role) for role in Role]

# Values read as "yes" in flag-like fields.
TRUE_WORDS = {"yes", "true", "1", "on"}

# ``.bib`` fields read through ``strip_latex``, by record attribute.
_PLAIN_FIELDS = {
    "title": "title",
    "journal": "journal",
    "booktitle": "booktitle",
    "volume": "volume",
    "volsuppl": "volume_supplement",
    "issuesuppl": "issue_supplement",
    "volpart": "volume_part",
    "issuepart": "issue_part",
    "address": "place",
    "edition": "edition",
    "pmid": "pmid",
    "retractionof": "retraction_of",
    "retractionin": "retraction_in",
    "erratumin": "erratum_in",
    "republishedfrom": "republished_from",
    "sponsor": "sponsor",
    "type": "report_type",
    "contract": "contract_number",
    "articletype": "article_type",
    "medium": "medium",
    "part": "part_title",
    "extent": "extent_text",
    "conference": "conference_name",
    "conferenceplace": "conference_place",
    "term": "defined_term",
    "country": "country",
    "section": "section",
    "column": "column",
    "affiliation": "affiliation",
}

# ``.bib`` fields read through ``parse_date``, by record attribute.
_DATE_FIELDS = {
    "epub": "date_epub",
    "updated": "updated",
    "lastchecked": "cited",
    "conferencedate": "conference_date",
}

# The ``.bib`` fields each record attribute and role is built from, winner first.
BIB_FIELDS: dict[str | Role, tuple[str, ...]] = {attr: (name,) for name, attr in [
    *_PLAIN_FIELDS.items(), *_DATE_FIELDS.items(), *_ROLE_FIELDS]}
BIB_FIELDS.update(
    issue=("number", "issue"), report_number=("number",),
    publisher=("publisher", "school", "institution"),
    date=("date", "year", "month", "day"), pages=("pages",),
    term_pages=("pages",), url=("url",), in_press=("inpress",),
    continuous_pagination=("pagination",), date_separator=("datesep",))

# ``.bib`` fields every entry type accepts though no template prints them.
UNPRINTED_FIELDS = frozenset({"language", "note", "key"})

# The fields an in-press article's "In press <year>" stands in for.
_IN_PRESS_HIDES = {EntryType.ARTICLE: (
    "volume", "number", "issue", "volsuppl", "issuesuppl", "volpart",
    "issuepart", "pages", "month", "day")}
_IN_PRESS_HIDES[EntryType.WEBJOURNAL] = (
    *_IN_PRESS_HIDES[EntryType.ARTICLE], "updated", "lastchecked")

_DAY_RE = re.compile(r"(\d{1,2})(?:-(\d{1,2}))?")


def _shadowed(name: str, winner: str) -> Diagnostic:
    return warning("shadowed-field",
                   f"field '{name}' ignored: '{winner}' is used instead")


def normalize(raw: RawEntry) -> tuple[BibRecord, list[Diagnostic]]:
    """Build a typed record from a raw entry, collecting diagnostics.

    Every diagnostic points at the entry's ``@`` (``raw.span[0]``).  The
    fields in ``_PLAIN_FIELDS`` and ``_DATE_FIELDS`` are read in the entry's
    own order; the rest need the entry type or other fields and are read
    one by one.
    """
    diags: list[Diagnostic] = []
    f = raw.fields

    values: dict[str, object] = {}
    for name, value in f.items():
        attr = _PLAIN_FIELDS.get(name)
        if attr is not None:
            values[attr] = strip_latex(value, diags)
        elif name in _DATE_FIELDS:
            values[_DATE_FIELDS[name]] = parse_date(_flatten(value), diags)

    def plain(name: str) -> str:
        return strip_latex(f[name], diags) if name in f else ""

    contributors: list[ContributorList] = []
    for field_name, role in _ROLE_FIELDS:
        if field_name in f:
            try:
                contributors.append(parse_names(f[field_name], role))
            except NameParseError as exc:
                diags.append(error(
                    "empty-name",
                    f"entry '{raw.key}': bad {field_name} field: {exc}"))

    entry_type = map_entry_type(raw, diags)
    if entry_type is EntryType.PATENT and "author" in f:
        for people in contributors:
            if people.role in (Role.INVENTOR, Role.ASSIGNEE):
                diags.append(_shadowed("author", people.role.value))
                break

    date = None
    if "date" in f:
        date = parse_date(_flatten(f["date"]), diags)
        for name in ("year", "month", "day"):
            if name in f:
                diags.append(_shadowed(name, "date"))
    elif "year" in f:
        year_text = _flatten(f["year"])
        month = parse_month(f["month"]) if "month" in f else None
        if "month" in f and month is None:
            diags.append(warning(
                "unparsed-date", f"month '{f['month']}' ignored"))
        day = day_end = None
        if "day" in f:
            m = _DAY_RE.fullmatch(f["day"].strip())
            if m and month is not None:
                day = int(m.group(1))
                day_end = int(m.group(2)) if m.group(2) else None
            else:
                diags.append(warning(
                    "unparsed-date", f"day '{f['day']}' ignored"))
        try:
            date = PartialDate(
                year=int(year_text) if year_text.isdigit() else year_text,
                month=month, day=day, day_end=day_end)
        except ValueError:
            diags.append(warning(
                "unparsed-date", f"date fields kept verbatim for '{raw.key}'"))
            date = PartialDate(year=year_text, raw=year_text)
    if date is None:
        diags.append(warning(
            "missing-date", f"entry '{raw.key}' has no date; year skipped"))

    pages_value = plain("pages")
    pages = None
    term_pages = ""
    if entry_type is EntryType.DICTIONARY:
        term_pages = pages_value
    elif pages_value:
        pages = parse_pages(pages_value)

    pagination = f.get("pagination", "").strip().lower()
    if pagination and pagination != "continuous":
        diags.append(warning(
            "unknown-value", f"pagination value '{pagination}' ignored"))

    datesep = f.get("datesep", ";").strip() or ";"
    if datesep not in {";", "."}:
        diags.append(warning(
            "unknown-value", f"datesep '{datesep}' ignored; using ';'"))
        datesep = ";"

    # The "number" field carries the issue for journal-family entries and
    # the document number for reports and patents.
    number_value = plain("number")
    if entry_type in (EntryType.TECHREPORT, EntryType.PATENT):
        issue = plain("issue")
        report_number = number_value
    else:
        issue = number_value or plain("issue")
        report_number = ""
        if number_value and "issue" in f:
            diags.append(_shadowed("issue", "number"))

    # a fallback is stripped (and reports) only if the fields before it are empty
    publisher = winner = ""
    for name in BIB_FIELDS["publisher"]:
        if not publisher:
            publisher, winner = plain(name), name
        elif name in f:
            diags.append(_shadowed(name, winner))

    in_press = "inpress" in f and f["inpress"].strip().lower() in TRUE_WORDS | {""}
    if in_press and entry_type in _IN_PRESS_HIDES:
        diags.extend(_shadowed(name, "inpress")
                     for name in _IN_PRESS_HIDES[entry_type] if name in f)

    record = BibRecord(
        key=raw.key,
        entry_type=entry_type,
        raw_entry_type=raw.entry_type,
        contributors=tuple(contributors),
        issue=issue,
        pages=pages,
        date=date,
        publisher=publisher,
        report_number=report_number,
        url=_flatten(f["url"]) if "url" in f else "",
        term_pages=term_pages,
        in_press=in_press,
        continuous_pagination=pagination == "continuous",
        date_separator=datesep,
        **values,
    )
    return record, [d._replace(offset=raw.span[0]) for d in diags]


def normalize_database(entries: list[RawEntry]) -> tuple[list[BibRecord], list[Diagnostic]]:
    records: list[BibRecord] = []
    diags: list[Diagnostic] = []
    for raw in entries:
        record, entry_diags = normalize(raw)
        records.append(record)
        diags.extend(entry_diags)
    return records, diags
