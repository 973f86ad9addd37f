"""Vancouver-style reference rendering.

Five templates in Citing Medicine's orders render the 18 entry types, each
segment empty when its attributes are: journal, online and newspaper
articles share the article template; books, proceedings, dictionaries,
media, web monographs and misc the monograph template; a chapter is its
contribution, ``In:`` and its book through the monograph template; reports
and patents have their own.  The article and patent templates apply the drop
rules of :mod:`vanref.model`: an article blanks what they hide, then renders
its one path.  :func:`render_reference` raises every render error before a
template runs, so a template only formats and a dry render builds no text.
:data:`TEMPLATES` has one row per entry type: its template function, the
record attributes it requires and the attributes and roles it can print,
which :data:`vanref.model.BIB_FIELDS` turns into the ``.bib`` fields the
``unknown-field`` lint accepts.  All functions are pure.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bibtex import MONTH_MACROS
from .model import (
    BIB_FIELDS,
    CONTINUOUS_HIDES,
    IN_PRESS_HIDES,
    PATENT_CREDITS,
    QUALIFIERS,
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
    digit_order,
    initials,
    printed_qualifier,
)

_MONTHS = tuple(abbreviation.title() for abbreviation in MONTH_MACROS)


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
    """Terminate a segment with one period, unless it ends in ``.?!``."""
    text = text.strip()
    if not text or text.endswith((".", "?", "!")):
        return text
    return text + "."


def _join(segments: list[str]) -> str:
    return " ".join(filter(None, segments))


def compress_page_range(first: str, last: str) -> str:
    """NLM ending-page abbreviation: 284,287 -> ``284-7``.

    Equal-length pages drop their shared digit prefix from the ending page
    (keeping at least one digit); unequal lengths are written in full.
    Raises :class:`InvalidRange` when the range decreases.
    """
    if not (first + last).isascii() or not first.isdigit() or not last.isdigit():
        raise InvalidRange(f"page range {first!r}-{last!r} is not numeric")
    a, b = digit_order(first), digit_order(last)
    if b < a:
        raise InvalidRange(f"page range {first}-{last} decreases")
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
                          affiliation: str = "") -> str:
    lists = rec.lists(Role.AUTHOR, Role.ORGANIZATION)
    if not lists:
        return ""
    return format_contributors(lists, style, affiliation=affiliation)


def _bracketed_title(title: str, bracket: str) -> str:
    if bracket:
        title += f" [{bracket}]"
    return _sentence(title)


def _clause(*parts: str) -> str:
    """The non-empty parts joined with ``; `` as one sentence."""
    return _sentence("; ".join(filter(None, parts)))


_QUALIFIED = {"volume_supplement": "{0} Suppl {2}", "volume_part": "{0}(Pt {2})",
              "issue_supplement": "{0}({1} Suppl {2})", "issue_part": "{0}({1} Pt {2})"}


def format_journal_locator(rec: BibRecord) -> str:
    """Volume/issue/supplement/part/section locator, e.g. ``42 Suppl 2``,
    ``58(12 Suppl 7)``, ``(401)`` or ``Sect. A``; one supplement or part prints.
    Two supplements conflict: :func:`render_reference` raises for them first.
    """
    volume, issue = rec.volume, rec.issue
    locator = f"{volume}({issue})" if issue else volume
    # any of QUALIFIERS, read with no call, so the plain locator makes none
    if rec.volume_supplement or rec.volume_part or rec.issue_supplement or rec.issue_part:
        if attr := printed_qualifier(rec):
            locator = _QUALIFIED[attr].format(volume, issue, getattr(rec, attr))
    if rec.section:
        section = f"Sect. {rec.section}"
        locator = f"{locator} {section}" if locator else section
    return locator


def _imprint(rec: BibRecord, date_block: str) -> str:
    """``Place: Publisher; date.`` with the record's publisher/date separator."""
    out = rec.place
    if rec.publisher:
        out = f"{out}: {rec.publisher}" if out else rec.publisher
    if date_block:
        if not out:
            out = date_block
        elif rec.date_separator == ".":
            out = f"{_sentence(out)} {date_block}"
        else:
            out = f"{out}; {date_block}"
    return _sentence(out)


def _date_text(date: PartialDate | None) -> str:
    return format_date(date) if date is not None else ""


def _web_date_block(rec: BibRecord, date_str: str) -> str:
    """``date_str`` plus the ``[updated ...; cited ...]`` bracket, either optional."""
    parts = []
    if rec.updated is not None:
        parts.append("updated " + format_date(rec.updated))
    if rec.cited is not None:
        parts.append("cited " + format_date(rec.cited))
    if not parts:
        return date_str
    bracket = f"[{'; '.join(parts)}]"
    return f"{date_str} {bracket}" if date_str else bracket


def _note_segments(rec: BibRecord) -> list[str]:
    if not (rec.pmid or rec.retraction_of or rec.retraction_in or rec.erratum_in
            or rec.republished_from):
        return []
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
    # A medium alone stands in for the journal title: "T. [Internet]."
    journal = rec.journal
    if rec.medium:
        journal = f"{journal} [{rec.medium}]" if journal else f"[{rec.medium}]"
    if rec.in_press:
        rec = rec.without(IN_PRESS_HIDES)
    elif rec.continuous_pagination:
        rec = rec.without(CONTINUOUS_HIDES)
    out = _date_text(rec.date)
    if rec.updated is not None or rec.cited is not None:
        out = _web_date_block(rec, out)
    locator = format_journal_locator(rec)
    if locator:
        out += f";{locator}" if out else locator
    if rec.pages:
        pages = format_pages(rec.pages)
        out += f":{pages}" if out else pages
    if rec.column:
        column = f"(col. {rec.column})"
        out += f" {column}" if out else column
    segments = [
        _primary_contributors(rec, style),
        _bracketed_title(rec.title, rec.article_type),
        _sentence(journal),
        _sentence(_join(["In press", out]) if rec.in_press else out),
    ]
    if rec.date_epub is not None:
        segments.append(_sentence("Epub " + format_date(rec.date_epub)))
    segments.extend(_note_segments(rec))
    if rec.url:
        segments.append(f"Available from: {rec.url}")
    return _join(segments)


_DEFAULT_BRACKETS = {
    EntryType.DISSERTATION: "dissertation",
    EntryType.MAP: "map",
    EntryType.CDROM: "CD-ROM",
}


def _render_monograph(rec: BibRecord, style: StyleConfig) -> str:
    return _monograph(rec, style, rec.title,
                      rec.lists(Role.AUTHOR, Role.ORGANIZATION, Role.CARTOGRAPHER))


def _render_chapter(rec: BibRecord, style: StyleConfig) -> str:
    """The contribution, then ``In:`` and its book, led by the book's editors."""
    return _join([_primary_contributors(rec, style), _sentence(rec.title), "In:",
                  _monograph(rec, style, rec.booktitle, rec.lists(Role.CARTOGRAPHER))])


def _monograph(rec: BibRecord, style: StyleConfig, title: str,
               primary: tuple[ContributorList, ...]) -> str:
    """A book called ``title`` by ``primary``, then its editor credit; the
    editors lead when there is no primary."""
    editors = rec.lists(Role.EDITOR, Role.COMPILER)
    if not primary:
        primary, editors = editors, ()
    bracket = rec.medium or _DEFAULT_BRACKETS.get(rec.entry_type, "")
    return _join([
        format_contributors(primary, style) if primary else "",
        _bracketed_title(title, bracket),
        _sentence(rec.edition),
        format_contributors(editors, style) if editors else "",
        _clause(rec.conference_name, _date_text(rec.conference_date),
                rec.conference_place),
        _imprint(rec, _web_date_block(rec, _date_text(rec.date))),
        _clause(rec.part_title, rec.extent_text),
        _clause(rec.defined_term, f"p. {format_pages(rec.pages)}" if rec.pages else ""),
        f"Available from: {rec.url}" if rec.url else "",
    ])


def _render_techreport(rec: BibRecord, style: StyleConfig) -> str:
    segments = [
        _primary_contributors(rec, style, affiliation=rec.affiliation),
        _sentence(rec.title),
        _sentence(rec.report_type),
        _imprint(rec, _date_text(rec.date)),
    ]
    if rec.report_number:
        segments.append(_sentence(f"Report No.: {rec.report_number}"))
    if rec.contract_number:
        segments.append(_sentence(f"Contract No.: {rec.contract_number}"))
    if rec.sponsor:
        segments.append(_sentence(f"Sponsored by {rec.sponsor}"))
    return _join(segments)


def _render_patent(rec: BibRecord, style: StyleConfig) -> str:
    people = rec.lists(*PATENT_CREDITS) or rec.lists(Role.AUTHOR)
    number_line = _join([rec.country, "patent", rec.report_number])
    return _join([
        format_contributors(people, style) if people else "",
        _sentence(rec.title),
        _sentence(number_line),
        _sentence(_date_text(rec.date)),
    ])


class Template(NamedTuple):
    """How one entry type renders and what it takes."""

    render: Callable[[BibRecord, StyleConfig], str]
    requires: tuple[str, ...]       # record attributes, checked in this order
    reads: tuple[str | Role, ...]   # record attributes and roles it can print
    fields: frozenset[str]          # .bib fields the unknown-field lint accepts


def _template(render: Callable[[BibRecord, StyleConfig], str],
              requires: tuple[str, ...], *reads: str | Role) -> Template:
    fields = UNPRINTED_FIELDS.union(*(BIB_FIELDS[name].fields for name in reads))
    return Template(render, requires, reads, fields)


# What the templates read, in pieces they share.
_PEOPLE = (Role.AUTHOR, Role.ORGANIZATION, "title")
_IMPRINT = ("place", "publisher", "date", "date_separator")
_WEB = ("url", "medium", "updated", "cited")
_ARTICLE = (*_PEOPLE, "article_type", "journal", *_WEB, "in_press", "date",
            "volume", "issue", "volume_supplement", "issue_supplement",
            "volume_part", "issue_part", "section", "continuous_pagination",
            "pages", "column", "date_epub", "pmid", "retraction_of",
            "retraction_in", "erratum_in", "republished_from")
_MONOGRAPH = (*_PEOPLE, Role.EDITOR, Role.COMPILER, Role.CARTOGRAPHER,
              "edition", "conference_name", "conference_date",
              "conference_place", *_IMPRINT, *_WEB, "part_title", "extent_text",
              "defined_term", "pages")
_JOURNAL = _template(_render_article, ("title", "journal"), *_ARTICLE)
_BOOK = _template(_render_monograph, ("title",), *_MONOGRAPH)
_WEB_MONOGRAPH = _template(_render_monograph, ("title", "url"), *_MONOGRAPH)
_CHAPTER = _template(_render_chapter, ("title", "booktitle"), *_MONOGRAPH,
                     "booktitle")

TEMPLATES: dict[EntryType, Template] = {
    EntryType.ARTICLE: _JOURNAL,
    EntryType.WEBJOURNAL: _template(_render_article, ("url", "title"), *_ARTICLE),
    EntryType.NEWSPAPER: _JOURNAL,
    EntryType.BOOK: _BOOK,
    EntryType.DICTIONARY: _BOOK,
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
        _render_patent, ("title", "report_number"), *PATENT_CREDITS,
        Role.AUTHOR, "title", "country", "report_number", "date"),
    EntryType.WEBMONOGRAPH: _WEB_MONOGRAPH,
    EntryType.WEBPAGE: _WEB_MONOGRAPH,
    EntryType.WEBDATABASE: _WEB_MONOGRAPH,
    EntryType.MISC: _template(_render_monograph, (), *_MONOGRAPH),
}


def render_reference(rec: BibRecord,
                     style: StyleConfig | None = DEFAULT_STYLE) -> str | None:
    """Render one record to its reference string; with ``style=None``, only
    decide that it renders, build no text and return ``None``.

    Every :class:`RenderError` is raised here, before any template runs, so
    the templates only format.  :class:`MissingRequiredField` names the first
    unmet requirement of the record's template, then an article with neither
    journal nor medium; :class:`ConflictingLocator` rejects an article that
    keeps both supplements once the in-press and continuous drop rules apply.
    A template that requires nothing (misc) needs one attribute or role that
    it prints; ``date_separator`` only joins two others.
    """
    template = TEMPLATES[rec.entry_type]
    for name in template.requires:
        if not getattr(rec, name):
            raise MissingRequiredField(rec.entry_type, name)
    if not template.requires and not any(
            rec.lists(read) if isinstance(read, Role) else getattr(rec, read)
            for read in template.reads if read != "date_separator"):
        raise RenderError(
            f"entry type '{rec.entry_type.value}' has nothing to print")
    if template.render is _render_article:
        if not (rec.journal or rec.medium):
            raise MissingRequiredField(rec.entry_type, "journal")
        # in press hides both supplements, continuous pagination the issue's
        if (rec.volume_supplement and rec.issue_supplement
                and not rec.in_press and not rec.continuous_pagination):
            raise ConflictingLocator()
    if style is None:
        return None
    return template.render(rec, style)
