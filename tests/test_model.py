"""Name, date, page and entry-type normalization."""

import copy
import pickle
import re
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from vanref.bibtex import RawEntry, strip_latex
from vanref.diagnostics import error, warning
from vanref.model import (
    TRUE_WORDS,
    BibRecord,
    ContributorList,
    EntryType,
    NameParseError,
    PageKind,
    PartialDate,
    PersonName,
    Role,
    initials,
    map_entry_type,
    normalize,
    parse_date,
    parse_month,
    parse_names,
    parse_pages,
)
from vanref.model import _ROLE_FIELDS, _is_lower_word, _person_from_parts


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


def _ref_parse_one_name(piece):
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
                return PersonName(literal=strip_latex(inner))
    words = _ref_split_depth0(stripped)
    parts = _ref_split_commas_depth0(words)
    if len(parts) == 1:
        tokens = parts[0]
        if len(tokens) == 1:
            return _person_from_parts([], [], tokens, [])
        lowers = [i for i, w in enumerate(tokens) if _is_lower_word(w)]
        if not lowers or lowers == [len(tokens) - 1]:
            return _person_from_parts(tokens[:-1], [], tokens[-1:], [])
        von, last = _ref_split_von_last(tokens[lowers[0]:])
        return _person_from_parts(tokens[:lowers[0]], von, last, [])
    left = parts[0]
    if left and _is_lower_word(left[0]):
        von, last = _ref_split_von_last(left)
    else:
        von, last = [], left
    if len(parts) == 2:
        return _person_from_parts(parts[1], von, last, [])
    first = [w for grp in parts[2:] for w in grp]
    return _person_from_parts(first, von, last, parts[1])


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
        try:
            names.append(_ref_parse_one_name(" ".join(piece)))
        except ValueError as exc:
            raise NameParseError(
                f"unusable name at position {index}: {exc}", index) from exc
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

def normalize_reference(raw):
    diags = []
    f = raw.fields

    def plain(name):
        return strip_latex(f[name], diags) if name in f else ""

    def verbatim(name):
        return " ".join(f[name].split()) if name in f else ""

    def date_of(name):
        return parse_date(verbatim(name), diags) if name in f else None

    contributors = []
    for field_name, role in _ROLE_FIELDS:
        if field_name in f:
            try:
                contributors.append(parse_names(f[field_name], role))
            except NameParseError as exc:
                diags.append(error(
                    "empty-name",
                    f"entry '{raw.key}': bad {field_name} field: {exc}"))

    entry_type = map_entry_type(raw, diags)
    named = [c.role.value for c in contributors
             if c.role in (Role.INVENTOR, Role.ASSIGNEE)]
    if entry_type is EntryType.PATENT and "author" in f and named:
        diags.append(warning(
            "shadowed-field", f"field 'author' ignored: '{named[0]}' is used instead"))

    date = date_of("date")
    for name in ("year", "month", "day"):
        if date is not None and name in f:
            diags.append(warning(
                "shadowed-field", f"field '{name}' ignored: 'date' is used instead"))
    if date is None and "year" in f:
        year_text = verbatim("year")
        month = parse_month(f["month"]) if "month" in f else None
        if "month" in f and month is None:
            diags.append(warning(
                "unparsed-date", f"month '{f['month']}' ignored"))
        day = day_end = None
        if "day" in f:
            m = re.fullmatch(r"(\d{1,2})(?:-(\d{1,2}))?", f["day"].strip())
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

    in_press = "inpress" in f and f["inpress"].strip().lower() in TRUE_WORDS | {""}
    if in_press and entry_type in (EntryType.ARTICLE, EntryType.WEBJOURNAL):
        hidden = ["volume", "number", "issue", "volsuppl", "issuesuppl",
                  "volpart", "issuepart", "pages", "month", "day"]
        if entry_type is EntryType.WEBJOURNAL:
            hidden += ["updated", "lastchecked"]
        diags.extend(warning(
            "shadowed-field", f"field '{name}' ignored: 'inpress' is used instead")
            for name in hidden if name in f)

    record = BibRecord(
        key=raw.key,
        entry_type=entry_type,
        raw_entry_type=raw.entry_type,
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
        term_pages=term_pages,
        country=plain("country"),
        section=plain("section"),
        column=plain("column"),
        affiliation=plain("affiliation"),
        in_press=in_press,
        continuous_pagination=pagination == "continuous",
        date_separator=datesep,
    )
    return record, [d._replace(offset=raw.span[0]) for d in diags]


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
        "article", "book", "artwork"]))
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


class TestParseDate:
    def test_full_date(self):
        d = parse_date("2002 Jul 25")
        assert (d.year, d.month, d.day) == (2002, 7, 25)

    def test_day_range(self):
        d = parse_date("2001 Sep 13-15")
        assert (d.day, d.day_end) == (13, 15)

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

    def test_dictionary_pages_go_to_term_pages(self, corpus_records):
        record = corpus_records["filamin"]
        assert record.term_pages == "675"
        assert record.pages is None

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
    def test_field_table_matches_reference(self, entry):
        record, diags = normalize(entry)
        expected, expected_diags = normalize_reference(entry)
        assert record._asdict() == expected._asdict()
        assert _diagnostic_multiset(diags) == _diagnostic_multiset(expected_diags)
