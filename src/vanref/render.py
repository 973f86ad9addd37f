"""Vancouver-style reference rendering.

Books, proceedings, media, web monographs and misc share one template in
Citing Medicine's book order, each segment empty when its attributes are;
the other types have their own.  :data:`TEMPLATES` has one row per entry
type: its template function, the record attributes it requires and the
attributes and roles it can print, which :data:`vanref.model.BIB_FIELDS`
turns into the ``.bib`` fields the ``unknown-field`` lint accepts.  All
functions are pure: strings in, strings out.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .model import (
    BIB_FIELDS,
    UNPRINTED_FIELDS,
    BibRecord,
    ContributorList,
    EntryType,
    PageExtent,
    PageKind,
    PartialDate,
    PersonName,
    Role,
    _Checked,
    complete_page,
    initials,
)

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _StyleConfigFields(NamedTuple):
    max_authors_before_etal: int
    etal_text: str


class StyleConfig(_Checked, _StyleConfigFields):
    """Authors listed before the et al. text, and that text."""

    __slots__ = ()

    def __new__(cls, max_authors_before_etal: int = 6, etal_text: str = "et al."):
        if max_authors_before_etal < 1:
            raise ValueError("max authors must be at least 1")
        return tuple.__new__(cls, (max_authors_before_etal, etal_text))


DEFAULT_STYLE = StyleConfig()


class RenderError(Exception):
    """A record cannot be rendered under its entry type's template."""


class MissingRequiredField(RenderError):
    def __init__(self, entry_type: EntryType, field: str):
        super().__init__(
            f"entry type '{entry_type.value}' requires field '{field}'")
        self.entry_type = entry_type
        self.field = field


class ConflictingLocator(RenderError):
    def __init__(self):
        super().__init__(
            "volume supplement and issue supplement are mutually exclusive")


class InvalidRange(ValueError):
    """Ending page smaller than starting page."""


# ---------------------------------------------------------------------------
# building blocks

def _sentence(text: str) -> str:
    """Terminate a segment with exactly one period."""
    text = text.strip()
    if not text or text.endswith((".", "?")):
        return text
    return text + "."


def _join(segments: list[str]) -> str:
    return " ".join(s for s in segments if s)


def compress_page_range(first: str, last: str) -> str:
    """NLM ending-page abbreviation: 284,287 -> ``284-7``.

    Equal-length pages drop their shared digit prefix from the ending page
    (keeping at least one digit); unequal lengths are written in full.
    Raises :class:`InvalidRange` when the range decreases.
    """
    if not first.isdigit() or not last.isdigit():
        raise InvalidRange(f"page range {first!r}-{last!r} is not numeric")
    a, b = int(first), int(last)
    if b < a:
        raise InvalidRange(f"page range {a}-{b} decreases")
    if a == b:
        return first
    if len(first) != len(last):
        return f"{first}-{last}"
    i = 0
    while last[i] == first[i]:
        i += 1
    return f"{first}-{last[i:]}"


def format_pages(extent: PageExtent) -> str:
    """Render a page extent; only numeric ranges are ever compressed."""
    if extent.kind is PageKind.TEXT:
        return extent.text
    if extent.kind is PageKind.SINGLE:
        return extent.first
    if extent.kind is PageKind.ROMAN_RANGE:
        return f"{extent.first}-{extent.last}"
    return compress_page_range(extent.first, complete_page(extent.first, extent.last))


def format_date(date: PartialDate) -> str:
    """``YYYY[ Mon[ D[-D]]]`` with a ``c`` copyright prefix; raw wins."""
    if date.raw:
        return date.raw
    out = ("c" if date.circa else "") + str(date.year)
    if date.month:
        out += f" {_MONTHS[date.month - 1]}"
        if date.day:
            out += f" {date.day}"
            if date.day_end:
                out += f"-{date.day_end}"
    if date.open_ended:
        out += " -"
    return out


def format_name(name: PersonName) -> str:
    """``[particle ]Family II[ suffix]``; corporate literals pass verbatim."""
    family, given, particle, suffix, literal = name
    if literal:
        return literal
    out = f"{particle} {family}" if particle else family
    ii = initials(given)
    if ii:
        out += " " + ii
    if suffix:
        out += " " + suffix
    return out


def format_contributors(lists: tuple[ContributorList, ...] | list[ContributorList],
                        style: StyleConfig = DEFAULT_STYLE,
                        affiliation: str = "") -> str:
    """Render contributor lists as one period-terminated block.

    Within a list the first ``max_authors_before_etal`` names are shown and
    any overflow (or a truncated source) becomes ``et al.``; role labels are
    appended per list, pluralized by name count; lists join with ``; ``.
    Corporate literals are set off from their neighbours with ``; ``.
    """
    limit = style.max_authors_before_etal
    blocks = []
    for names, role, truncated in lists:
        shown = names[:limit]
        body = format_name(shown[0])
        for prev, name in zip(shown, shown[1:]):
            body += ("; " if prev.literal or name.literal else ", ") + format_name(name)
        if truncated or len(names) > limit:
            body += ", " + style.etal_text
        if role is not Role.AUTHOR and role is not Role.ORGANIZATION:
            body += f", {role.value}" + ("s" if len(names) > 1 else "")
        blocks.append(body)
    out = "; ".join(blocks)
    if affiliation:
        out += f" ({affiliation})"
    return _sentence(out)


# ---------------------------------------------------------------------------
# shared record pieces

def _primary_contributors(rec: BibRecord, style: StyleConfig,
                          roles: tuple[Role, ...] = (Role.AUTHOR, Role.ORGANIZATION),
                          affiliation: str = "") -> str:
    lists = rec.lists(*roles)
    if not lists:
        return ""
    return format_contributors(lists, style, affiliation=affiliation)


def _bracketed_title(rec: BibRecord, bracket: str = "") -> str:
    title = rec.title
    if bracket:
        title += f" [{bracket}]"
    return _sentence(title)


def format_journal_locator(rec: BibRecord) -> str:
    """Volume/issue/supplement/part locator, e.g. ``42 Suppl 2`` or ``(401)``."""
    if rec.volume_supplement and rec.issue_supplement:
        raise ConflictingLocator()
    if rec.volume:
        if rec.volume_supplement:
            return f"{rec.volume} Suppl {rec.volume_supplement}"
        if rec.volume_part:
            return f"{rec.volume}(Pt {rec.volume_part})"
        if rec.issue:
            inner = rec.issue
            if rec.issue_supplement:
                inner += f" Suppl {rec.issue_supplement}"
            elif rec.issue_part:
                inner += f" Pt {rec.issue_part}"
            return f"{rec.volume}({inner})"
        return rec.volume
    if rec.issue:
        return f"({rec.issue})"
    return ""


def _date_locator_pages(date_str: str, locator: str, pages: str) -> str:
    out = date_str
    if locator:
        out += f";{locator}" if out else locator
    if pages:
        out += f":{pages}" if out else pages
    return _sentence(out)


def _imprint(rec: BibRecord, date_block: str = "") -> str:
    """``Place: Publisher; date.`` with the record's publisher/date separator."""
    out = rec.place
    if rec.publisher:
        out = f"{out}: {rec.publisher}" if out else rec.publisher
    if not date_block and rec.date is not None:
        date_block = format_date(rec.date)
    if date_block:
        if not out:
            out = date_block
        elif rec.date_separator == ".":
            out = f"{_sentence(out)} {date_block}"
        else:
            out = f"{out}; {date_block}"
    return _sentence(out)


def _web_date_block(rec: BibRecord) -> str:
    """Date plus the ``[updated ...; cited ...]`` bracket, either part optional."""
    parts = []
    if rec.updated is not None:
        parts.append("updated " + format_date(rec.updated))
    if rec.cited is not None:
        parts.append("cited " + format_date(rec.cited))
    bracket = f"[{'; '.join(parts)}]" if parts else ""
    date_str = format_date(rec.date) if rec.date is not None else ""
    return _join([date_str, bracket])


def _year_text(rec: BibRecord) -> str:
    if rec.date is None:
        return ""
    return format_date(rec.date._replace(month=None, day=None, day_end=None))


def _part_extent(rec: BibRecord) -> str:
    if rec.part_title and rec.extent_text:
        return _sentence(f"{rec.part_title}; {rec.extent_text}")
    return _sentence(rec.part_title or rec.extent_text)


def _note_segments(rec: BibRecord) -> list[str]:
    pairs = (
        ("Cited in PubMed; PMID ", rec.pmid),
        ("Retraction of: ", rec.retraction_of),
        ("Retraction in: ", rec.retraction_in),
        ("Erratum in: ", rec.erratum_in),
        ("Corrected and republished from: ", rec.republished_from),
    )
    return [_sentence(label + text) for label, text in pairs if text]


# ---------------------------------------------------------------------------
# entry-type templates

def _render_article(rec: BibRecord, style: StyleConfig) -> str:
    segments = [
        _primary_contributors(rec, style),
        _bracketed_title(rec, rec.article_type),
        _sentence(rec.journal),
    ]
    if rec.in_press:
        segments.append(_sentence(_join(["In press", _year_text(rec)])))
    else:
        effective = rec
        if rec.continuous_pagination:
            effective = rec._replace(issue="", issue_supplement="", issue_part="")
        date_str = (_year_text(rec) if rec.continuous_pagination
                    else format_date(rec.date) if rec.date is not None else "")
        if rec.entry_type is EntryType.WEBJOURNAL:
            date_str = _web_date_block(rec)
        locator = format_journal_locator(effective)
        pages = format_pages(rec.pages) if rec.pages else ""
        if date_str or locator or pages:
            segments.append(_date_locator_pages(date_str, locator, pages))
    if rec.date_epub is not None:
        segments.append(_sentence("Epub " + format_date(rec.date_epub)))
    segments.extend(_note_segments(rec))
    return _join(segments)


def _render_webjournal(rec: BibRecord, style: StyleConfig) -> str:
    # A medium alone stands in for the journal title: "T. [Internet]."
    journal = _join([rec.journal, f"[{rec.medium}]" if rec.medium else ""])
    if not journal:
        raise MissingRequiredField(rec.entry_type, "journal")
    body = _render_article(rec._replace(journal=journal), style)
    return _join([body, "Available from:", rec.url])


def _book_contributors(rec: BibRecord, style: StyleConfig) -> tuple[str, str]:
    """The primary and the editor credit; editors lead when there is no primary."""
    primary = rec.lists(Role.AUTHOR, Role.ORGANIZATION, Role.CARTOGRAPHER)
    editors = rec.lists(Role.EDITOR, Role.COMPILER)
    if not primary:
        primary, editors = editors, ()
    return (format_contributors(primary, style) if primary else "",
            format_contributors(editors, style) if editors else "")


_DEFAULT_BRACKETS = {
    EntryType.DISSERTATION: "dissertation",
    EntryType.MAP: "map",
    EntryType.CDROM: "CD-ROM",
}


def _render_monograph(rec: BibRecord, style: StyleConfig) -> str:
    primary, editors = _book_contributors(rec, style)
    bracket = rec.medium or _DEFAULT_BRACKETS.get(rec.entry_type, "")
    return _join([
        primary,
        _bracketed_title(rec, bracket),
        _sentence(rec.edition),
        editors,
        _conference_line(rec),
        _imprint(rec, date_block=_web_date_block(rec)),
        _part_extent(rec),
        f"Available from: {rec.url}" if rec.url else "",
    ])


def _render_dictionary(rec: BibRecord, style: StyleConfig) -> str:
    primary, editors = _book_contributors(rec, style)
    segments = [
        primary,
        _sentence(rec.title),
        _sentence(rec.edition),
        editors,
        _imprint(rec),
    ]
    if rec.defined_term:
        term = rec.defined_term
        if rec.term_pages:
            term += f"; p. {rec.term_pages}"
        segments.append(_sentence(term))
    return _join(segments)


def _conference_line(rec: BibRecord) -> str:
    parts = [rec.conference_name]
    if rec.conference_date is not None:
        parts.append(format_date(rec.conference_date))
    if rec.conference_place:
        parts.append(rec.conference_place)
    return _sentence("; ".join(p for p in parts if p))


def _render_chapter(rec: BibRecord, style: StyleConfig) -> str:
    editors = rec.lists(Role.EDITOR, Role.COMPILER)
    in_block = "In: " + _join([
        format_contributors(editors, style) if editors else "",
        _sentence(rec.booktitle),
        _conference_line(rec),
    ])
    segments = [
        _primary_contributors(rec, style),
        _sentence(rec.title),
        in_block,
        _imprint(rec),
    ]
    if rec.pages is not None:
        segments.append(_sentence(f"p. {format_pages(rec.pages)}"))
    return _join(segments)


def _render_techreport(rec: BibRecord, style: StyleConfig) -> str:
    segments = [
        _primary_contributors(rec, style, affiliation=rec.affiliation),
        _sentence(rec.title),
        _sentence(rec.report_type),
        _imprint(rec),
    ]
    if rec.report_number:
        segments.append(_sentence(f"Report No.: {rec.report_number}"))
    if rec.contract_number:
        segments.append(_sentence(f"Contract No.: {rec.contract_number}"))
    if rec.sponsor:
        segments.append(_sentence(f"Sponsored by {rec.sponsor}"))
    return _join(segments)


def _render_patent(rec: BibRecord, style: StyleConfig) -> str:
    people = rec.lists(Role.INVENTOR, Role.ASSIGNEE) or rec.lists(Role.AUTHOR)
    number_line = _join([rec.country, "patent", rec.report_number])
    return _join([
        format_contributors(people, style) if people else "",
        _sentence(rec.title),
        _sentence(number_line),
        _sentence(format_date(rec.date)) if rec.date is not None else "",
    ])


def _render_newspaper(rec: BibRecord, style: StyleConfig) -> str:
    locator = format_date(rec.date) if rec.date is not None else ""
    if rec.section:
        locator += f";Sect. {rec.section}"
    if rec.pages is not None:
        locator += f":{format_pages(rec.pages)}"
    if rec.column:
        locator += f" (col. {rec.column})"
    return _join([
        _primary_contributors(rec, style),
        _sentence(rec.title),
        _sentence(rec.journal),
        _sentence(locator),
    ])


class Template(NamedTuple):
    """How one entry type renders and what it takes."""

    render: Callable[[BibRecord, StyleConfig], str]
    requires: tuple[str, ...]       # record attributes, checked in this order
    reads: tuple[str | Role, ...]   # record attributes and roles it can print
    fields: frozenset[str]          # .bib fields the unknown-field lint accepts


def _template(render: Callable[[BibRecord, StyleConfig], str],
              requires: tuple[str, ...], *reads: str | Role) -> Template:
    fields = UNPRINTED_FIELDS.union(*(BIB_FIELDS[name] for name in reads))
    return Template(render, requires, reads, fields)


# What the templates read, in pieces they share.
_PEOPLE = (Role.AUTHOR, Role.ORGANIZATION, "title")
_BOOK_PEOPLE = (*_PEOPLE, Role.EDITOR, Role.COMPILER)
_IMPRINT = ("place", "publisher", "date", "date_separator")
_CONFERENCE = ("conference_name", "conference_date", "conference_place")
_ARTICLE = (*_PEOPLE, "article_type", "journal", "in_press", "date", "volume",
            "issue", "volume_supplement", "issue_supplement", "volume_part",
            "issue_part", "continuous_pagination", "pages", "date_epub", "pmid",
            "retraction_of", "retraction_in", "erratum_in", "republished_from")
_WEB = ("url", "medium", "updated", "cited")
_MONOGRAPH = (*_BOOK_PEOPLE, Role.CARTOGRAPHER, "edition", *_CONFERENCE,
              *_IMPRINT, *_WEB, "part_title", "extent_text")
_BOOK = _template(_render_monograph, ("title",), *_MONOGRAPH)
_WEB_MONOGRAPH = _template(_render_monograph, ("title", "url"), *_MONOGRAPH)
_CHAPTER = _template(_render_chapter, ("title", "booktitle"), *_BOOK_PEOPLE,
                     "booktitle", *_CONFERENCE, *_IMPRINT, "pages")

TEMPLATES: dict[EntryType, Template] = {
    EntryType.ARTICLE: _template(_render_article, ("title", "journal"), *_ARTICLE),
    EntryType.WEBJOURNAL: _template(
        _render_webjournal, ("url", "title"), *_ARTICLE, *_WEB),
    EntryType.BOOK: _BOOK,
    EntryType.DICTIONARY: _template(
        _render_dictionary, ("title",), *_BOOK_PEOPLE, Role.CARTOGRAPHER,
        "edition", *_IMPRINT, "defined_term", "term_pages"),
    EntryType.CHAPTER: _CHAPTER,
    EntryType.INPROCEEDINGS: _CHAPTER,
    EntryType.PROCEEDINGS: _BOOK,
    EntryType.TECHREPORT: _template(
        _render_techreport, ("title",), *_PEOPLE, "affiliation", "report_type",
        *_IMPRINT, "report_number", "contract_number", "sponsor"),
    EntryType.DISSERTATION: _BOOK,
    EntryType.AUDIOVISUAL: _BOOK,
    EntryType.CDROM: _BOOK,
    EntryType.MAP: _BOOK,
    EntryType.PATENT: _template(
        _render_patent, ("title", "report_number"), Role.INVENTOR,
        Role.ASSIGNEE, Role.AUTHOR, "title", "country", "report_number", "date"),
    EntryType.NEWSPAPER: _template(
        _render_newspaper, ("title", "journal"), *_PEOPLE, "journal", "date",
        "section", "pages", "column"),
    EntryType.WEBMONOGRAPH: _WEB_MONOGRAPH,
    EntryType.WEBPAGE: _WEB_MONOGRAPH,
    EntryType.WEBDATABASE: _WEB_MONOGRAPH,
    EntryType.MISC: _template(_render_monograph, (), *_MONOGRAPH),
}


def render_reference(rec: BibRecord, style: StyleConfig = DEFAULT_STYLE) -> str:
    """Render one record to its reference string.

    Raises :class:`MissingRequiredField` on the first unmet requirement of
    the record's template and :class:`ConflictingLocator` on impossible
    supplement combinations.
    """
    template = TEMPLATES[rec.entry_type]
    for name in template.requires:
        if not getattr(rec, name):
            raise MissingRequiredField(rec.entry_type, name)
    return template.render(rec, style)
