"""Reference rendering: names, pages, dates, locators, full templates."""

import re

import pytest
from hypothesis import given, strategies as st

from vanref.model import (
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
    parse_names,
    parse_pages,
)
from vanref.render import (
    ConflictingLocator,
    DEFAULT_STYLE,
    TEMPLATES,
    InvalidRange,
    MissingRequiredField,
    StyleConfig,
    compress_page_range,
    format_contributors,
    format_date,
    format_journal_locator,
    format_name,
    format_pages,
    render_reference,
)


def person(family, given="", particle="", suffix=""):
    return PersonName(family=family, given=given, particle=particle, suffix=suffix)


class TestFormatName:
    def test_plain(self):
        assert format_name(person("Halpern", "Scott D.")) == "Halpern SD"

    def test_suffix(self):
        assert format_name(person("Gilstrap", "Larry C.", suffix="3rd")) == \
               "Gilstrap LC 3rd"

    def test_particle(self):
        assert format_name(person("Moorselaar", "R. Jeroen", particle="van")) == \
               "van Moorselaar RJ"

    def test_literal_verbatim(self):
        assert format_name(PersonName(literal="Ancel Surgical R&D Inc.")) == \
               "Ancel Surgical R&D Inc."


class TestFormatContributors:
    def test_seven_authors_truncate_to_six_et_al(self):
        lists = (parse_names(
            "Rose, Marie E. and Huerbin, Michelle B. and Melick, John and "
            "Marion, Donald W. and Palmer, Alan M. and Schiding, Joanne K. and "
            "Graham, Steven H."),)
        assert format_contributors(lists) == (
            "Rose ME, Huerbin MB, Melick J, Marion DW, Palmer AM, "
            "Schiding JK, et al.")

    def test_authors_plus_organization(self):
        lists = (
            parse_names("Vallancien, Guy and Emberton, Mark and Harving, Niels"
                        " and van Moorselaar, R. Jeroen"),
            parse_names("{Alf-One Study Group}", Role.ORGANIZATION),
        )
        assert format_contributors(lists) == (
            "Vallancien G, Emberton M, Harving N, van Moorselaar RJ; "
            "Alf-One Study Group.")

    def test_single_editor_label(self):
        lists = (parse_names("Wieczorek, Rita R.", Role.EDITOR),)
        assert format_contributors(lists) == "Wieczorek RR, editor."

    def test_inventor_and_assignee(self):
        lists = (
            parse_names("Pagedas, Anthony C.", Role.INVENTOR),
            parse_names("{Ancel Surgical R\\&D Inc.}", Role.ASSIGNEE),
        )
        assert format_contributors(lists) == (
            "Pagedas AC, inventor; Ancel Surgical R&D Inc., assignee.")

    def test_two_organizations_join_with_semicolon(self):
        lists = (parse_names("{Royal Adelaide Hospital} and "
                             "{University of Adelaide, Department of Clinical Nursing}"),)
        assert format_contributors(lists) == (
            "Royal Adelaide Hospital; "
            "University of Adelaide, Department of Clinical Nursing.")

    def test_truncated_flag_forces_et_al(self):
        lists = (parse_names("Smith, John and others"),)
        assert format_contributors(lists) == "Smith J, et al."

    def test_cartographers_pluralized(self):
        lists = (parse_names("Pratt, Brett and Flick, Pamela", Role.CARTOGRAPHER),)
        assert format_contributors(lists).endswith(", cartographers.")
        single = (parse_names("Pratt, Brett", Role.CARTOGRAPHER),)
        assert format_contributors(single).endswith(", cartographer.")

    def test_affiliation_attaches_before_period(self):
        lists = (parse_names("Yen, Gary G."),)
        assert format_contributors(lists, affiliation="Oklahoma State University") == \
               "Yen GG (Oklahoma State University)."

    def test_max_authors_override(self):
        style = StyleConfig(max_authors_before_etal=2)
        lists = (parse_names("A, Bo and B, Cy and C, Dee"),)
        assert format_contributors(lists, style) == "A B, B C, et al."


def names_list(count):
    names = tuple(person(f"Name{i}", "Q.") for i in range(count))
    return (ContributorList(names),)


class TestAuthorTruncationProperty:
    @given(st.integers(min_value=1, max_value=20))
    def test_et_al_iff_more_than_six(self, n):
        text = format_contributors(names_list(n))
        assert ("et al." in text) == (n > 6)
        assert text.count("Name") == min(n, 6)


class TestCompressPageRange:
    @pytest.mark.parametrize("first,last,expected", [
        ("284", "287", "284-7"),
        ("93", "113", "93-113"),
        ("1151", "1168", "1151-68"),
        ("909", "911", "909-11"),
        ("40", "46", "40-6"),
        ("5", "5", "5"),
        ("100", "110", "100-10"),
        ("22", "25", "22-5"),
    ])
    def test_examples(self, first, last, expected):
        assert compress_page_range(first, last) == expected

    def test_decreasing_range_rejected(self):
        with pytest.raises(InvalidRange):
            compress_page_range("287", "284")

    @given(st.integers(1, 99999), st.integers(0, 5000))
    def test_expansion_recovers_pair(self, a, delta):
        b = a + delta
        result = compress_page_range(str(a), str(b))
        if "-" not in result:
            assert a == b and result == str(a)
            return
        first, last = result.split("-")
        assert first == str(a)
        completed = (last if len(last) >= len(first)
                     else first[:len(first) - len(last)] + last)
        assert completed == str(b)
        # minimality: no shorter suffix re-expands to b
        for k in range(1, len(last)):
            shorter = str(b)[-k:]
            candidate = (shorter if k >= len(first)
                         else first[:len(first) - k] + shorter)
            assert candidate != str(b)


class TestFormatDate:
    def test_full(self):
        assert format_date(PartialDate(2002, 7, 25)) == "2002 Jul 25"

    def test_year_only(self):
        assert format_date(PartialDate(2002)) == "2002"

    def test_day_range(self):
        assert format_date(PartialDate(2001, 9, 13, day_end=15)) == "2001 Sep 13-15"

    def test_raw_verbatim(self):
        assert format_date(PartialDate(2000, circa=True, raw="c2000-01")) == "c2000-01"

    def test_circa_prefix(self):
        assert format_date(PartialDate(1999, circa=True)) == "c1999"

    def test_open_ended(self):
        assert format_date(PartialDate(2000, circa=True, open_ended=True)) == "c2000 -"


def journal_record(**overrides):
    base = dict(
        key="k", entry_type=EntryType.ARTICLE, title="T", journal="J",
        date=PartialDate(2002))
    base.update(overrides)
    return BibRecord(**base)


class TestJournalLocator:
    @pytest.mark.parametrize("fields,expected", [
        (dict(volume="347", issue="4"), "347(4)"),
        (dict(volume="42", volume_supplement="2"), "42 Suppl 2"),
        (dict(volume="58", issue="12", issue_supplement="7"), "58(12 Suppl 7)"),
        (dict(volume="83", volume_part="2"), "83(Pt 2)"),
        (dict(volume="13", issue="9", issue_part="1"), "13(9 Pt 1)"),
        (dict(issue="401"), "(401)"),
        (dict(volume="347"), "347"),
        (dict(), ""),
    ])
    def test_patterns(self, fields, expected):
        assert format_journal_locator(journal_record(**fields)) == expected

    def test_conflicting_supplements_rejected(self):
        record = journal_record(volume="1", volume_supplement="2",
                                issue_supplement="3")
        with pytest.raises(ConflictingLocator):
            format_journal_locator(record)


class TestRenderReference:
    def test_standard_article(self, corpus_records):
        assert render_reference(corpus_records["halpern.ubel.ea:solid-organ*2"]) == (
            "Halpern SD, Ubel PA, Caplan AL. Solid-organ transplantation in "
            "HIV-infected patients. N Engl J Med. 2002 Jul 25;347(4):284-7.")

    def test_continuous_pagination_drops_month_and_issue(self, corpus_records):
        assert render_reference(corpus_records["halpern.ubel.ea:solid-organ"]) == (
            "Halpern SD, Ubel PA, Caplan AL. Solid-organ transplantation in "
            "HIV-infected patients. N Engl J Med. 2002;347:284-7.")

    def test_patent(self, corpus_records):
        assert render_reference(corpus_records["pagedas:flexible"]) == (
            "Pagedas AC, inventor; Ancel Surgical R&D Inc., assignee. "
            "Flexible endoscopic grasping and cutting device and positioning "
            "tool assembly. United States patent US 20020103498. 2002 Aug 1.")

    def test_dictionary(self, corpus_records):
        assert render_reference(corpus_records["filamin"]) == (
            "Dorland's illustrated medical dictionary. 29th ed. Philadelphia: "
            "W.B. Saunders; 2000. Filamin; p. 675.")

    def test_web_journal_tail(self, corpus_records):
        text = render_reference(corpus_records["abood:quality"])
        assert text.endswith(
            ";102(6):[about 3 p.]. Available from: "
            "http://www.nursingworld.org/AJN/2002/june/Wawatch.htm")

    def test_missing_required_field(self):
        record = BibRecord(key="k", entry_type=EntryType.ARTICLE, journal="J")
        with pytest.raises(MissingRequiredField) as info:
            render_reference(record)
        assert info.value.entry_type is EntryType.ARTICLE
        assert info.value.field == "title"

    @pytest.mark.parametrize("entry_type,fields,missing", [
        (EntryType.ARTICLE, {}, "title"),
        (EntryType.ARTICLE, dict(title="T"), "journal"),
        (EntryType.WEBJOURNAL, dict(title="T", journal="J"), "url"),
        (EntryType.WEBJOURNAL, dict(url="u"), "title"),
        (EntryType.WEBJOURNAL, dict(url="u", title="T"), "journal"),
        (EntryType.CHAPTER, dict(title="T"), "booktitle"),
        (EntryType.INPROCEEDINGS, dict(booktitle="B"), "title"),
        (EntryType.PATENT, dict(title="T"), "report_number"),
        (EntryType.NEWSPAPER, dict(title="T"), "journal"),
        (EntryType.WEBPAGE, dict(url="u"), "title"),
        (EntryType.WEBMONOGRAPH, dict(title="T"), "url"),
        (EntryType.MAP, {}, "title"),
    ])
    def test_first_unmet_requirement(self, entry_type, fields, missing):
        record = BibRecord(key="k", entry_type=entry_type, **fields)
        with pytest.raises(MissingRequiredField) as info:
            render_reference(record)
        assert info.value.field == missing
        assert str(info.value) == (
            f"entry type '{entry_type.value}' requires field '{missing}'")

    def test_web_journal_medium_stands_in_for_journal(self):
        record = BibRecord(key="k", entry_type=EntryType.WEBJOURNAL, title="T",
                           medium="Internet", url="http://x")
        assert render_reference(record) == "T. [Internet]. Available from: http://x"

    def test_unknown_type_gets_generic_author_title_date(self):
        record = BibRecord(
            key="k", entry_type=EntryType.MISC, title="Some title",
            contributors=(parse_names("Smith, John"),),
            place="Boston", publisher="Pub", date=PartialDate(1999))
        assert render_reference(record) == "Smith J. Some title. Boston: Pub; 1999."

    def test_deterministic(self, corpus_records):
        record = corpus_records["pagedas:flexible"]
        assert render_reference(record) == render_reference(record)


def read_logger(seen):
    """A record class that adds each attribute and role read to ``seen``."""

    class Logged(BibRecord):
        __slots__ = ()

        def __getattribute__(self, name):
            if name in BibRecord._fields:
                seen.add(name)
            return super().__getattribute__(name)

        def lists(self, *roles):
            seen.update(roles)
            return super().lists(*roles)

    return Logged


def _rich_values():
    """A value for every attribute a template can print."""
    values = {}
    for name, default in BibRecord._field_defaults.items():
        if isinstance(default, str):
            values[name] = "x"
        elif name == "pages":
            values[name] = PageExtent(PageKind.SINGLE, "5")
        elif default is None:
            values[name] = PartialDate(2001, 2, 3)
    # one supplement or part at most, so that the issue part is read
    values.update(volume_supplement="", issue_supplement="", volume_part="",
                  date_separator=".", raw_entry_type="")
    return values


class TestTemplateReads:
    """``reads`` lists exactly what each template prints."""

    @pytest.mark.parametrize("entry_type", list(EntryType))
    def test_reads_drive_fields_and_match_the_renderer(self, entry_type):
        template = TEMPLATES[entry_type]
        assert set(template.requires) <= set(template.reads)
        assert template.fields == UNPRINTED_FIELDS.union(
            *(BIB_FIELDS[name] for name in template.reads))
        seen = set()
        logged, values = read_logger(seen), _rich_values()
        everyone = tuple(ContributorList((person("Smith", "J"),), role=role)
                         for role in Role)
        editors = tuple(c for c in everyone if c.role in (
            Role.EDITOR, Role.COMPILER, Role.CARTOGRAPHER))
        render_reference(logged("k", entry_type, contributors=everyone, **values))
        # no primary contributor, and in press
        render_reference(logged("k", entry_type, contributors=editors, **{
            **values, "in_press": True, "continuous_pagination": True}))
        assert set(template.reads) <= seen
        assert seen <= set(template.reads) | {
            "key", "entry_type", "raw_entry_type", "contributors"}


FORBIDDEN = ("  ", " .", "..")


def assert_clean_punctuation(text):
    for bad in FORBIDDEN:
        assert bad not in text, f"{bad!r} in {text!r}"


class TestPunctuationInvariants:
    def test_corpus_renders_are_clean(self, corpus_records):
        for record in corpus_records.values():
            assert_clean_punctuation(render_reference(record))

    @given(
        st.sampled_from(list(EntryType)),
        st.integers(0, 3),
        st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    )
    def test_fuzzed_records_are_clean(self, entry_type, author_count,
                                      with_date, with_pages, with_place,
                                      with_url):
        contributors = ()
        if author_count:
            contributors = (ContributorList(
                tuple(person(f"Fam{i}", "Ann B.") for i in range(author_count))),)
        record = BibRecord(
            key="k",
            entry_type=entry_type,
            contributors=contributors,
            title="Some title",
            journal="Journal",
            booktitle="Book title",
            volume="12",
            issue="3",
            pages=parse_pages("10-19") if with_pages else None,
            date=PartialDate(2001, 5) if with_date else None,
            place="Town" if with_place else "",
            publisher="House",
            url="http://example.org/x" if with_url else "",
            medium="thing on the Internet",
            report_number="N42",
        )
        try:
            text = render_reference(record)
        except MissingRequiredField:
            return
        assert_clean_punctuation(text)


class TestFormatPages:
    def test_roman_never_compressed(self):
        assert format_pages(parse_pages("iii-v")) == "iii-v"

    def test_abbreviated_input_round_trips(self):
        assert format_pages(parse_pages("284-7")) == "284-7"

    def test_full_range_compressed(self):
        assert format_pages(parse_pages("1151-1168")) == "1151-68"

    def test_text_verbatim(self):
        assert format_pages(parse_pages("[about 3 p.]")) == "[about 3 p.]"


class TestStyleConfig:
    def test_rejects_zero_authors(self):
        for build in (lambda: StyleConfig(max_authors_before_etal=0),
                      lambda: StyleConfig._make((0, "x")),
                      lambda: DEFAULT_STYLE._replace(max_authors_before_etal=0)):
            with pytest.raises(ValueError, match="max authors must be at least 1"):
                build()

    def test_default_is_six(self):
        assert DEFAULT_STYLE.max_authors_before_etal == 6

    def test_immutable(self):
        with pytest.raises(AttributeError):
            DEFAULT_STYLE.etal_text = "u.a."


class TestEtAlTextOverride:
    def test_custom_et_al_text(self):
        style = StyleConfig(etal_text="and colleagues")
        text = format_contributors(names_list(9), style)
        assert text.endswith(", and colleagues.")


_FIELD_NAMES = [
    "author", "editor", "organization", "inventor", "assignee", "cartographer",
    "title", "journal", "booktitle", "volume", "number", "volsuppl",
    "issuesuppl", "volpart", "issuepart", "pages", "year", "month", "day",
    "date", "epub", "address", "publisher", "school", "institution",
    "edition", "pmid", "articletype", "url", "medium", "updated",
    "lastchecked", "part", "extent", "conference", "conferencedate",
    "conferenceplace", "term", "country", "section", "column", "type",
    "contract", "sponsor", "affiliation", "inpress", "pagination", "datesep",
]

_TYPES = ["article", "book", "incollection", "proceedings", "inproceedings",
          "techreport", "phdthesis", "patent", "newspaper", "audiovisual",
          "map", "dictionary", "webpage", "database", "oddball"]


# Field values with word-character ends, like real bibliographic data;
# the renderer owes clean joins for these, not for bare-punctuation junk.
_VALUE_STRATEGY = st.text(
    alphabet="abC 12:-()'&/", min_size=0, max_size=16,
).map(lambda s: f"a{s.strip()}2")


class TestNormalizeRenderPipelineFuzz:
    @given(
        st.sampled_from(_TYPES),
        st.dictionaries(st.sampled_from(_FIELD_NAMES), _VALUE_STRATEGY,
                        max_size=10),
    )
    def test_random_raw_entries_render_cleanly_or_fail_loudly(
            self, entry_type, fields):
        from vanref.bibtex import RawEntry
        from vanref.model import normalize
        from vanref.render import RenderError
        record, _ = normalize(RawEntry(entry_type, "k", fields))
        try:
            text = render_reference(record)
        except RenderError:
            return
        assert_clean_punctuation(text)
