"""Command-line behavior: modes, exit codes, stream separation, arguments."""

import io
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from vanref import (RawEntry, StyleConfig, cli, parse_database, render_reference,
                    resolve)
from vanref.cli import RunConfig, cmd_check, cmd_format, cmd_scan, main
from vanref.diagnostics import Diagnostic
from vanref.model import UNPRINTED_FIELDS, Role, normalize
from vanref.render import TEMPLATES, RenderError

from conftest import BIB_PATH, TEX_PATH, error, serialize_entry, warning

SRC_DIR = Path(__file__).parent.parent / "src"


def run_format(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(**kwargs)
    code = cmd_format(config, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_check(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_check(RunConfig(**kwargs), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_scan(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = cmd_scan(RunConfig(**kwargs), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


BIB = str(BIB_PATH)
TEX = str(TEX_PATH)

# one entry per defect: no date, an unknown macro, no title (a render
# failure) and an empty name
DEFECTS_BIB = (
    "@article{nodate, author={Smith, J}, title={Dateless}, journal={J}}\n"
    "@article{macro, author={Doe, A}, title={\\foo Title}, journal={J}, year={2000}}\n"
    "@article{notitle, author={Roe, B}, journal={J}, year={2001}}\n"
    "@article{badname, author={Smith, J and and Doe, A}, title={U}, journal={J}, "
    "year={2002}}\n"
)


def inject(entry: RawEntry, defect: str) -> str:
    """``entry`` as ``.bib`` text with one defect; a duplicate key is two copies."""
    fields = dict(entry.fields)
    if defect == "no-date":
        for name in ("date", "year", "month", "day"):
            fields.pop(name, None)
    elif defect == "macro":
        fields["title"] = "\\foo " + fields.get("title", "T")
    elif defect == "no-title":
        fields.pop("title", None)
    elif defect == "and-and":
        fields["author"] = "Smith, J and and Doe, A"
    elif defect == "unknown-field":
        fields["flavor"] = "mint"
    elif defect == "no-journal":
        fields.pop("journal", None)
        fields.pop("medium", None)
    elif defect == "both-supplements":
        fields.update(volsuppl="2", issuesuppl="3")
    text = serialize_entry(RawEntry(entry.entry_type, entry.key, fields)) + "\n"
    return text * 2 if defect == "duplicate-key" else text


# no-title, no-journal and both-supplements are each a kind of render error
DEFECTS = ("none", "no-date", "macro", "no-title", "and-and", "unknown-field",
           "duplicate-key", "no-journal", "both-supplements")

CORPUS_ENTRIES = parse_database(BIB_PATH.read_text(encoding="utf-8")).entries
ONLINE_ARTICLE = next(entry for entry in CORPUS_ENTRIES
                      if entry.entry_type == "article" and "url" in entry.fields)

# A distinct, well-formed value for each locator and date field of an article.
LOCATOR_VALUES = {
    "volume": "41", "number": "7", "issue": "8", "volsuppl": "2",
    "issuesuppl": "3", "volpart": "4", "issuepart": "5", "pages": "100-9",
    "section": "A", "column": "6", "month": "Jul", "day": "12",
    "updated": "2004 Feb 2", "lastchecked": "2005 Jan 1"}
# Each field present or not at even odds, so that combinations are common.
LOCATOR_SUBSETS = st.lists(
    st.booleans(), min_size=len(LOCATOR_VALUES), max_size=len(LOCATOR_VALUES)).map(
    lambda flags: {name for name, on in zip(LOCATOR_VALUES, flags) if on})
# What pagination={continuous} drops without a word, as asked.
CONTINUOUS_DROPS = {"number", "issue", "issuesuppl", "issuepart", "month", "day"}


class TestFormat:
    def test_manuscript_mode_first_line(self):
        code, out, err = run_format(bib_paths=[BIB], tex_path=TEX)
        lines = out.splitlines()
        assert code == 0
        assert err == ""
        assert len(lines) == 48
        assert lines[0].startswith("1. Wilkinson J. ")

    def test_explicit_keys_mode(self):
        code, out, _ = run_format(
            bib_paths=[BIB], keys=["halpern.ubel.ea:solid-organ*1"])
        assert code == 0
        assert out == (
            "1. Halpern SD, Ubel PA, Caplan AL. Solid-organ transplantation "
            "in HIV-infected patients. N Engl J Med. 2002 Jul 25;347(4):284-7. "
            "Cited in PubMed; PMID 12140307.\n")

    def test_empty_key_list_fails(self):
        code, out, err = run_format(bib_paths=[BIB], keys=[])
        assert code == 1
        assert out == ""
        assert "no keys" in err

    def test_all_mode_uses_database_order(self):
        code, out, _ = run_format(bib_paths=[BIB])
        assert code == 0
        assert len(out.splitlines()) == 48

    def test_tex_numbering_overrides_database_order(self, tmp_path):
        bib = tmp_path / "two.bib"
        bib.write_text(
            "@book{first, title={Alpha}, publisher={P}, year={2000}}\n"
            "@book{second, title={Beta}, publisher={P}, year={2001}}\n",
            encoding="utf-8")
        tex = tmp_path / "doc.tex"
        tex.write_text("\\cite{second} then \\cite{first}", encoding="utf-8")
        code, out, _ = run_format(bib_paths=[str(bib)], tex_path=str(tex))
        assert code == 0
        assert out.splitlines() == [
            "1. Beta. P; 2001.",
            "2. Alpha. P; 2000.",
        ]

    def test_missing_key_warns_and_keeps_gap(self):
        code, out, err = run_format(bib_paths=[BIB],
                                    keys=["uniform", "nope", "mesh"])
        assert code == 0
        assert err == "warning: no database entry for 'nope' [missing-key]\n"
        numbers = [line.split(".")[0] for line in out.splitlines()]
        assert numbers == ["1", "3"]

    def test_missing_key_points_at_its_first_cite(self, tmp_path):
        bib = tmp_path / "one.bib"
        bib.write_text("@book{first, title={Alpha}, publisher={P}, year={2000}}",
                       encoding="utf-8")
        tex = tmp_path / "paper.tex"
        tex.write_text("Intro \\cite{first}.\n\n\\cite{nope} and \\cite{nope}.\n",
                       encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)], tex_path=str(tex))
        assert code == 0
        assert out == "1. Alpha. P; 2000.\n"
        assert err == (f"{tex}:3:1: warning: no database entry for 'nope' "
                       "[missing-key]\n")

    def test_missing_key_fails_in_strict_mode(self):
        code, _, _ = run_format(bib_paths=[BIB], keys=["nope"], strict=True)
        assert code == 1

    def test_unreadable_bib_is_io_error(self):
        code, out, err = run_format(bib_paths=["/no/such/file.bib"])
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_undecodable_bib_is_io_error(self, tmp_path):
        binary = tmp_path / "junk.bib"
        binary.write_bytes(b"@misc{k,\xff\xfe t={v}}")
        code, out, err = run_format(bib_paths=[str(binary)])
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_deterministic_output(self):
        first = run_format(bib_paths=[BIB], tex_path=TEX)
        second = run_format(bib_paths=[BIB], tex_path=TEX)
        assert first == second

    def test_markdown_mode_escapes_and_numbers(self):
        code, out, _ = run_format(
            bib_paths=[BIB], keys=["borkowski:infant"],
            output_format="markdown")
        assert code == 0
        assert out.startswith("1. ")
        assert "\\[dissertation\\]" in out

    def test_out_path_writes_file(self, tmp_path):
        target = tmp_path / "refs.txt"
        code, out, _ = run_format(bib_paths=[BIB], keys=["mesh"],
                                  out_path=str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("1. MeSH Browser")

    def test_unwritable_out_path_reports_to_given_stream(self, tmp_path, capsys):
        target = tmp_path / "missing" / "refs.txt"
        code, out, err = run_format(bib_paths=[BIB], keys=["mesh"],
                                    out_path=str(target))
        assert (code, out) == (2, "")
        assert f"{target}: cannot write" in err
        assert capsys.readouterr().err == ""

    def test_unencodable_output_reports_cannot_write(self, tmp_path):
        # an undecodable byte in argv reaches Python as a lone surrogate
        target = tmp_path / "refs.txt"
        code, out, err = run_format(
            bib_paths=[BIB], keys=["rose.huerbin.ea:regulation"],
            max_authors=1, etal_text="\udcff", out_path=str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"{target}: cannot write: ")
        assert not target.exists()
        # a strict UTF-8 stdout fails the same way, with nothing printed
        result = subprocess.run(
            [sys.executable, "-m", "vanref", "format", "--bib", BIB,
             "--keys", "rose.huerbin.ea:regulation", "--max-authors", "1",
             "--etal-text", "\udcff"], capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONIOENCODING": "utf-8"})
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"<stdout>: cannot write: ")

    def test_max_authors_override(self):
        code, out, _ = run_format(
            bib_paths=[BIB], keys=["rose.huerbin.ea:regulation"],
            max_authors=2)
        assert code == 0
        assert out.startswith("1. Rose ME, Huerbin MB, et al.")

    def test_no_bib_paths_is_io_error(self):
        code, _, _ = run_format(bib_paths=[])
        assert code == 2

    def test_macros_shared_across_files(self, tmp_path):
        first = tmp_path / "strings.bib"
        first.write_text("@string{jx = {Journal of X}}", encoding="utf-8")
        second = tmp_path / "refs.bib"
        second.write_text(
            "@article{k, author={Smith, Jo}, title={T}, journal=jx, "
            "year={1999}, volume={1}, pages={2--3}}", encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(first), str(second)],
                                    keys=["k"])
        assert code == 0
        assert err == ""
        assert "Journal of X" in out

    def test_duplicate_key_across_files_has_location(self, tmp_path):
        first = tmp_path / "k1.bib"
        first.write_text("@misc{k, title={One}}", encoding="utf-8")
        second = tmp_path / "k2.bib"
        second.write_text("% second file\n  @misc{k, title={Two}}",
                          encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(first), str(second)])
        assert code == 0
        assert out == "1. One.\n"
        assert f"{second}:2:3: warning: duplicate entry key 'k' across files" in err

    def test_uncited_defective_entry_is_not_reported(self, tmp_path):
        bib = tmp_path / "db.bib"
        bib.write_text(
            "@book{cited, title={Alpha}, publisher={P}, year={2000}}\n"
            "@book{uncited, title={Beta}, publisher={P}}\n", encoding="utf-8")
        tex = tmp_path / "paper.tex"
        tex.write_text("\\cite{cited}\n", encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)], tex_path=str(tex),
                                    strict=True)
        assert (code, out, err) == (0, "1. Alpha. P; 2000.\n", "")
        code, _, err = run_check(bib_paths=[str(bib)])
        assert "entry 'uncited' has no date; year skipped [missing-date]" in err

    def test_cited_defective_entry_is_reported(self, tmp_path):
        bib = tmp_path / "db.bib"
        bib.write_text(DEFECTS_BIB, encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)], keys=["nodate"],
                                    strict=True)
        assert code == 1
        assert out == "1. Smith J. Dateless. J.\n"
        assert err == (f"{bib}:1:1: warning: entry 'nodate' has no date; "
                       "year skipped [missing-date]\n")

    def test_all_mode_reports_each_entry_in_file_order(self, tmp_path):
        bib = tmp_path / "db.bib"
        bib.write_text(DEFECTS_BIB, encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)])
        assert code == 1
        assert out == ("1. Smith J. Dateless. J.\n"
                       "2. Doe A. Title. J. 2000.\n"
                       "4. U. J. 2002.\n")
        assert err == (
            f"{bib}:1:1: warning: entry 'nodate' has no date; year skipped "
            "[missing-date]\n"
            f"{bib}:2:1: warning: dropped control sequence '\\foo' "
            "[unknown-macro]\n"
            f"{bib}:3:1: error: entry 'notitle': entry type 'article' requires "
            "field 'title' [render]\n"
            f"{bib}:4:1: error: entry 'badname': bad author field: empty name "
            "at position 1 [empty-name]\n")

    def test_render_failure_is_an_error(self, tmp_path):
        bib = tmp_path / "db.bib"
        bib.write_text(DEFECTS_BIB, encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)], keys=["notitle"])
        assert (code, out) == (1, "")
        assert err == (f"{bib}:3:1: error: entry 'notitle': entry type "
                       "'article' requires field 'title' [render]\n")

    def test_unknown_field_of_printed_entry_is_reported(self, tmp_path):
        bib = tmp_path / "odd.bib"
        bib.write_text(
            "@article{k, title={T}, journal={J}, year={2000}, flavor={mint}}",
            encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)], keys=["k"])
        assert (code, out) == (0, "1. T. J. 2000.\n")
        assert err == (f"{bib}:1:1: warning: entry 'k': field 'flavor' not "
                       "used by entry type 'article' [unknown-field]\n")

    @given(data=st.data())
    def test_keys_mode_matches_library_pipeline(self, corpus_records, data):
        keys = data.draw(st.lists(
            st.sampled_from([*corpus_records, "no-such-key"]), min_size=1))
        pairs, _ = resolve(keys, corpus_records.values())
        expected = "".join(f"{number}. {render_reference(record, StyleConfig())}\n"
                           for number, record in pairs)
        _, out, _ = run_format(bib_paths=[BIB], keys=keys)
        assert out == expected


class TestCheck:
    def test_clean_corpus_passes(self):
        code, out, err = run_check(bib_paths=[BIB])
        assert code == 0
        assert "48 entries" in out
        assert err == ""

    def test_missing_title_is_error(self, tmp_path):
        bad = tmp_path / "bad.bib"
        bad.write_text("@article{k, journal={J}, year={2000}}",
                       encoding="utf-8")
        code, _, err = run_check(bib_paths=[str(bad)])
        assert code == 1
        assert "title" in err

    def test_name_field_of_only_others_is_empty_name(self, tmp_path):
        bib = tmp_path / "others.bib"
        bib.write_text("@article{k, author={others}, title={T}, journal={J}, "
                       "year={2000}}", encoding="utf-8")
        code, out, err = run_check(bib_paths=[str(bib)])
        assert code == 1
        assert out == "checked 1 entries: 1 errors, 0 warnings\n"
        assert err == (f"{bib}:1:1: error: entry 'k': bad author field: "
                       "empty name at position 0 [empty-name]\n")

    @pytest.mark.parametrize("names,position", [
        ("{}", 0), ("Smith, J and { }", 1), ("Smith, J and {{}}", 1),
        # a family that cleans to nothing, or is not there
        ("Jo {}", 0), ("{} , John", 0), ("Smith, J and , John", 1)])
    def test_empty_braced_name_is_empty_name(self, tmp_path, names, position):
        bib = tmp_path / "empty.bib"
        bib.write_text(f"@article{{k, author={{{names}}}, title={{T}}, "
                       "journal={J}, year={2000}}", encoding="utf-8")
        code, out, err = run_check(bib_paths=[str(bib)])
        assert code == 1
        assert out == "checked 1 entries: 1 errors, 0 warnings\n"
        assert err == (f"{bib}:1:1: error: entry 'k': bad author field: "
                       f"empty name at position {position} [empty-name]\n")

    def test_comma_in_a_braced_suffix_is_malformed_name(self, tmp_path):
        bib = tmp_path / "suffix.bib"
        bib.write_text("@article{k, author={Doe, {Jr, III}, John}, title={T}, "
                       "journal={J}, year={2000}}", encoding="utf-8")
        code, out, err = run_check(bib_paths=[str(bib)])
        assert code == 1
        assert out == "checked 1 entries: 1 errors, 0 warnings\n"
        assert err == (f"{bib}:1:1: error: entry 'k': bad author field: name at "
                       "position 0 has a comma in its suffix 'Jr, III' [malformed-name]\n")

    @pytest.mark.parametrize("names,position", [
        ("Doe, Jr, John, X", 0), ("Roe, A and Doe, Jr, John, X, Y", 1),
        # the braced reader, and a fourth part that is empty
        ("{Doe}, Jr, John, X", 0), ("Doe, Jr, {John}, X", 0), ("Doe, Jr, John,", 0)])
    def test_too_many_commas_is_malformed_name(self, tmp_path, names, position):
        bib = tmp_path / "commas.bib"
        bib.write_text(f"@article{{k, author={{{names}}}, title={{T}}, "
                       "journal={J}, year={2000}}", encoding="utf-8")
        code, out, err = run_check(bib_paths=[str(bib)])
        assert code == 1
        assert out == "checked 1 entries: 1 errors, 0 warnings\n"
        assert err == (f"{bib}:1:1: error: entry 'k': bad author field: name at "
                       f"position {position} has too many commas [malformed-name]\n")

    def test_braced_suffix_prints_after_the_initials(self, tmp_path, capsys):
        bib = tmp_path / "suffix.bib"
        bib.write_text("@article{k, author={Doe, {Jr}, John}, title={T}, "
                       "journal={J}, year={2000}}", encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        assert capsys.readouterr() == ("1. Doe J Jr. T. J. 2000.\n", "")

    def test_misc_with_nothing_to_print_is_a_render_error(self, tmp_path, capsys):
        # a date separator joins two parts and prints nothing by itself
        bib = tmp_path / "misc.bib"
        bib.write_text("@misc{e}\n@misc{s, datesep={.}}\n@misc{y, year={2001}}\n",
                       encoding="utf-8")
        errors = "".join(
            f"{bib}:{line}:1: warning: entry '{key}' has no date; year skipped "
            f"[missing-date]\n{bib}:{line}:1: error: entry '{key}': entry type "
            "'misc' has nothing to print [render]\n" for line, key in ((1, "e"), (2, "s")))
        assert main(["format", "--bib", str(bib), "--all"]) == 1
        assert capsys.readouterr() == ("3. 2001.\n", errors)
        assert main(["check", "--bib", str(bib)]) == 1
        assert capsys.readouterr() == ("checked 3 entries: 2 errors, 2 warnings\n",
                                       errors)

    def test_shadowed_fields_warn(self, tmp_path):
        bib = tmp_path / "shadow.bib"
        bib.write_text(
            "@article{a, author={Smith, J}, title={T}, journal={J}, year={2001},\n"
            "  volume={4}, number={2}, issue={3}}\n"
            "@article{b, author={Smith, J}, title={T}, journal={J},\n"
            "  date={2001}, year={1999}, month={Jul}}\n", encoding="utf-8")
        code, out, err = run_check(bib_paths=[str(bib)])
        assert code == 0
        assert out == "checked 2 entries: 0 errors, 3 warnings\n"
        assert err == (
            f"{bib}:1:1: warning: field 'issue' ignored: 'number' is used "
            "instead [shadowed-field]\n"
            f"{bib}:3:1: warning: field 'year' ignored: 'date' is used "
            "instead [shadowed-field]\n"
            f"{bib}:3:1: warning: field 'month' ignored: 'date' is used "
            "instead [shadowed-field]\n")

    def test_empty_field_counts_as_absent(self, tmp_path):
        bib = tmp_path / "empty.bib"
        bib.write_text(
            "@article{a, title={T}, journal={J}, date={}, year={2001}}\n"
            "@article{b, title={T}, journal={J}, year={2001}, epub={}}\n"
            "@article{c, title={T}, journal={J}, year={2001}, url={http://x},\n"
            "  updated={}, lastchecked={ }}\n"
            "@article{d, title={T}, journal={J}, year={}}\n", encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)])
        assert code == 0
        assert out == ("1. T. J. 2001.\n"
                       "2. T. J. 2001.\n"
                       "3. T. J. 2001. Available from: http://x\n"
                       "4. T. J.\n")
        assert err == (f"{bib}:5:1: warning: entry 'd' has no date; "
                       "year skipped [missing-date]\n")

    def test_unknown_field_means_never_printed(self, tmp_path):
        bib = tmp_path / "probes.bib"
        bib.write_text(
            "@book{b1, author={Smith, J}, title={T}, school={Univ X},\n"
            "  address={Oslo}, year={2001}, datesep={.}}\n"
            "@phdthesis{d1, author={Smith, J}, cartographer={Doe, A}, title={T},\n"
            "  school={U}, year={2001}}\n"
            "@incollection{c1, author={Smith, J}, title={T}, booktitle={B},\n"
            "  conference={C}, year={2001}}\n"
            "@article{a1, author={Smith, J}, editor={Doe, A}, title={T},\n"
            "  journal={J}, year={2001}}\n"
            "@incollection{c2, author={Smith, J}, title={T}, booktitle={B},\n"
            "  edition={2nd}, year={2001}}\n"
            "@misc{m1, author={Smith, J}, title={T}, journal={J}, volume={4},\n"
            "  pages={1-2}, year={2001}}\n"
            "@techreport{t1, author={Smith, J}, title={T}, institution={I},\n"
            "  publisher={P}, year={2001}}\n", encoding="utf-8")
        code, out, err = run_format(bib_paths=[str(bib)])
        assert code == 0
        assert out == ("1. Smith J. T. Oslo: Univ X. 2001.\n"
                       "2. Smith J; Doe A, cartographer. T [dissertation]. U; 2001.\n"
                       "3. Smith J. T. In: B. C. 2001.\n"
                       "4. Smith J. T. J. 2001.\n"
                       "5. Smith J. T. In: B. 2nd. 2001.\n"
                       "6. Smith J. T. 2001. p. 1-2.\n"
                       "7. Smith J. T. P; 2001.\n")
        unused = "warning: entry '{}': field '{}' not used by entry type '{}' " \
                 "[unknown-field]\n"
        assert err == (
            f"{bib}:7:1: " + unused.format("a1", "editor", "article")
            + "".join(f"{bib}:11:1: " + unused.format("m1", name, "misc")
                      for name in ("journal", "volume"))
            + f"{bib}:13:1: warning: field 'institution' ignored: 'publisher' "
            "is used instead [shadowed-field]\n")
        code, out, check_err = run_check(bib_paths=[str(bib)])
        assert (code, out, check_err) == (
            0, "checked 7 entries: 0 errors, 4 warnings\n", err)

    def test_hidden_author_and_in_press_locator_warn(self, tmp_path, capsys):
        bib = tmp_path / "hidden.bib"
        bib.write_text(
            "@patent{p1, author={Roe, A}, inventor={Doe, B}, title={T},\n"
            "  country={US}, number={1}, year={2001}}\n"
            "@patent{p2, author={Roe, A}, assignee={{Acme}}, title={T},\n"
            "  country={US}, number={2}, year={2001}}\n"
            "@article{a1, author={Smith, J}, title={T}, journal={J}, inpress={yes},\n"
            "  volume={4}, pages={1-2}, year={2001}}\n"
            "@article{w1, author={Smith, J}, title={T}, journal={J}, inpress={},\n"
            "  url={http://x}, number={2}, month={Jul}, year={2001},\n"
            "  lastchecked={2002 Jan 3}}\n", encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ("1. Doe B, inventor. T. US patent 1. 2001.\n"
                                "2. Acme, assignee. T. US patent 2. 2001.\n"
                                "3. Smith J. T. J. In press 2001.\n"
                                "4. Smith J. T. J. In press 2001. "
                                "Available from: http://x\n")
        shadowed = "warning: field '{}' ignored: '{}' is used instead " \
                   "[shadowed-field]\n"
        assert captured.err == (
            f"{bib}:1:1: " + shadowed.format("author", "inventor")
            + f"{bib}:3:1: " + shadowed.format("author", "assignee")
            + "".join(f"{bib}:5:1: " + shadowed.format(name, "inpress")
                      for name in ("volume", "pages"))
            + "".join(f"{bib}:7:1: " + shadowed.format(name, "inpress")
                      for name in ("number", "month", "lastchecked")))
        assert main(["check", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (
            "checked 4 entries: 0 errors, 7 warnings\n", captured.err)

    @staticmethod
    def ignored_fields_are_unprinted(path, entry_type, fields, probed):
        """Render the entry and, one per line, a copy without each field.

        Unless the entry fails to render, each ``probed`` field warns
        ``field '...' ignored`` if and only if its copy prints the same line.
        """
        def line(key, body):
            return f"@{entry_type}{{{key}, " + ", ".join(
                f"{name}={{{value}}}" for name, value in body.items()) + "}\n"

        names = sorted(probed)
        path.write_text(line("k", fields) + "".join(
            line(name, {n: v for n, v in fields.items() if n != name})
            for name in names), encoding="utf-8")
        _, out, err = run_format(bib_paths=[str(path)])
        printed = dict(text.split(". ", 1) for text in out.splitlines())
        if "1" not in printed:
            return
        ignored = set(re.findall(rf"^{re.escape(str(path))}:1:1: warning: "
                                 r"field '(\w+)' ignored", err, re.M))
        unprinted = {name for i, name in enumerate(names, start=2)
                     if printed.get(str(i)) == printed["1"]}
        assert ignored & probed == unprinted, (fields, out, err)

    @given(entry_type=st.sampled_from(["article", "article+url", "newspaper"]),
           names=LOCATOR_SUBSETS,
           date=st.sampled_from([None, "2003", "2003 Mar 4"]),
           year=st.booleans(),
           inpress=st.sampled_from([None, "yes", "no", ""]),
           continuous=st.booleans())
    # continuous pagination drops the issue supplement before the two
    # supplements can conflict, so the volume's must warn as usual
    @example(entry_type="article", names={"volsuppl", "issuesuppl", "number"},
             date=None, year=True, inpress=None, continuous=True)
    @example(entry_type="newspaper", date=None, year=True, inpress=None,
             names={"volume", "volpart", "volsuppl", "issuesuppl", "number"},
             continuous=True)
    def test_an_article_field_warns_if_and_only_if_it_is_unprinted(
            self, tmp_path_factory, entry_type, names, date, year, inpress,
            continuous):
        if "day" in names:
            names = names | {"month"}
        fields = {"author": "Smith, J", "title": "T", "journal": "J"}
        if entry_type == "article+url":
            entry_type, fields["url"] = "article", "http://x"
        fields.update((name, LOCATOR_VALUES[name]) for name in sorted(names))
        if date is not None:
            fields["date"] = date
        if year or date is None:
            fields["year"] = "2002"
        if inpress is not None:
            fields["inpress"] = inpress
        if continuous:
            fields["pagination"] = "continuous"
        probed = names | {"date", "year"} & fields.keys()
        if continuous and inpress not in ("yes", ""):
            probed -= CONTINUOUS_DROPS
        self.ignored_fields_are_unprinted(
            tmp_path_factory.mktemp("ignored") / "a.bib", entry_type, fields, probed)

    @pytest.mark.parametrize("roles", [
        ("author",), ("author", "inventor"), ("author", "assignee"),
        ("author", "inventor", "assignee"), ("inventor", "assignee")])
    def test_a_patent_credit_warns_if_and_only_if_it_is_unprinted(self, tmp_path, roles):
        fields = {role: f"{role.title()}, J" for role in roles}
        fields.update(title="T", country="US", number="1", year="2001")
        self.ignored_fields_are_unprinted(tmp_path / "p.bib", "patent", fields,
                                          set(roles))

    def test_duplicate_key_warns_only(self, tmp_path):
        dup = tmp_path / "dup.bib"
        dup.write_text(
            "@article{k, title={T}, journal={J}, year={2000}}\n"
            "@article{k, title={T}, journal={J}, year={2000}}",
            encoding="utf-8")
        code, _, err = run_check(bib_paths=[str(dup)])
        assert code == 0
        assert "duplicate" in err
        strict_code, _, _ = run_check(bib_paths=[str(dup)], strict=True)
        assert strict_code == 1

    def test_unknown_field_warns(self, tmp_path):
        odd = tmp_path / "odd.bib"
        odd.write_text(
            "@article{k, title={T}, journal={J}, year={2000}, flavor={mint}}",
            encoding="utf-8")
        code, _, err = run_check(bib_paths=[str(odd)])
        assert code == 0
        assert "flavor" in err

    def test_unknown_field_is_located_in_its_own_file(self, tmp_path):
        first = tmp_path / "ok.bib"
        first.write_text("@misc{a, title={One}, year={2000}}\n", encoding="utf-8")
        second = tmp_path / "uf.bib"
        second.write_text(
            "% colours\n@article{k, title={T}, journal={J}, year={2000},\n"
            "  colour={red}}\n", encoding="utf-8")
        code, _, err = run_check(bib_paths=[str(first), str(second)])
        assert code == 0
        assert err == (f"{second}:2:1: warning: entry 'k': field 'colour' not "
                       "used by entry type 'article' [unknown-field]\n")

    def test_ten_thousand_diagnostics_render_in_linear_time(
            self, tmp_path, monkeypatch):
        dups = 10_000
        bib = tmp_path / "dups.bib"
        entry = "@misc{dup,\n  title={T}, year={2000},\n  note={" + "x" * 300 + "}}\n"
        bib.write_text(entry * (dups + 1), encoding="utf-8")
        spent = []
        render = Diagnostic.render

        def timed_render(self, *args):
            started = time.perf_counter()
            try:
                return render(self, *args)
            finally:
                spent.append(time.perf_counter() - started)

        monkeypatch.setattr(Diagnostic, "render", timed_render)
        code, out, err = run_check(bib_paths=[str(bib)])
        assert code == 0
        assert out == f"checked 1 entries: 0 errors, {dups} warnings\n"
        assert err.splitlines()[-1] == (
            f"{bib}:{3 * dups + 1}:1: warning: duplicate entry key 'dup'; "
            "first occurrence kept [duplicate-key]")
        assert len(spent) == dups
        assert sum(spent) < 1.0

    def test_common_fields_accepted_on_every_type(self, tmp_path):
        patent = tmp_path / "patent.bib"
        patent.write_text(
            "@patent{k, title={T}, number={N1}, year={2000}, note={n}, "
            "language={Spanish}, key={sort}}", encoding="utf-8")
        code, _, err = run_check(bib_paths=[str(patent)])
        assert code == 0
        assert "unknown-field" not in err

    @given(st.lists(st.tuples(st.sampled_from(CORPUS_ENTRIES), st.sampled_from(DEFECTS)),
                    min_size=1, max_size=8),
           st.integers(0, 8), st.booleans())
    # the corpus's one online article, with no journal and no medium
    @example([(ONLINE_ARTICLE, "no-journal")], 0, False)
    def test_format_all_agrees_with_check(self, tmp_path_factory, picked, split,
                                          strict):
        texts = [inject(entry, defect) for entry, defect in picked]
        # two files, so that a duplicate key may also cross files
        split %= len(texts) + 1
        folder = tmp_path_factory.mktemp("agree")
        paths = [str(folder / "a.bib"), str(folder / "b.bib")]
        for path, part in zip(paths, (texts[:split], texts[split:])):
            Path(path).write_text("".join(part), encoding="utf-8")
        format_code, _, format_err = run_format(bib_paths=paths, strict=strict)
        check_code, _, check_err = run_check(bib_paths=paths, strict=strict)
        assert format_err == check_err
        assert format_code == check_code


def one_at_a_time(entries, sources, reporter, style):
    """Oracle for ``cli._references``: each entry normalized, linted and
    rendered before the next one is read."""
    for entry in entries:
        source = sources[entry.key]
        record, diags = normalize(entry)
        for diag in diags:
            reporter.emit(diag, *source)
        known = TEMPLATES[record.entry_type].fields
        for name in entry.fields:
            if name not in known:
                reporter.emit(warning(
                    "unknown-field",
                    f"entry '{entry.key}': field '{name}' not used by "
                    f"entry type '{record.entry_type.value}'",
                    entry.span[0]), *source)
        try:
            yield render_reference(record, style)
        except RenderError as exc:
            reporter.emit(error("render", f"entry '{entry.key}': {exc}",
                                entry.span[0]), *source)
            yield None


def write_numbered(corpus_db, defects, folder, split=0):
    """Corpus entries in order, one per defect, with keys made unique by
    their index, in two files cut at ``split``; return paths and keys."""
    corpus = corpus_db.entries
    entries = []
    for i in range(len(defects)):
        base = corpus[i % len(corpus)]
        entries.append(RawEntry(base.entry_type, f"{base.key}-{i}", base.fields))
    texts = [inject(entry, defect) for entry, defect in zip(entries, defects)]
    paths = [folder / "a.bib", folder / "b.bib"]
    for path, part in zip(paths, (texts[:split], texts[split:])):
        path.write_text("".join(part), encoding="utf-8")
    return [str(path) for path in paths], [entry.key for entry in entries]


def at_boundaries(count):
    """``count`` defects around the first batch boundaries: an unknown field
    before an empty name in one batch, and a render error on the first
    batch's last entry before a missing date on the second batch's first."""
    placed = {0: "unknown-field", 1: "and-and", 63: "no-title", 64: "no-date"}
    return [placed.get(i, "none") for i in range(count)]


class TestBatches:

    # capped for every profile: an example runs six commands on up to 200
    # entries, about 8 s in all on a 2-vCPU machine
    @settings(max_examples=300, deadline=None)
    @given(defects=st.integers(0, 200).flatmap(lambda n: st.lists(
               st.sampled_from(DEFECTS), min_size=n, max_size=n)),
           split=st.integers(0, 200), order=st.randoms(use_true_random=False))
    @example(defects=at_boundaries(63), split=0, order=random.Random(0))
    @example(defects=at_boundaries(64), split=0, order=random.Random(1))
    @example(defects=at_boundaries(65), split=64, order=random.Random(2))
    @example(defects=at_boundaries(129), split=30, order=random.Random(3))
    def test_batches_match_one_entry_at_a_time(self, corpus_db, tmp_path_factory,
                                               defects, split, order):
        paths, keys = write_numbered(corpus_db, defects,
                                     tmp_path_factory.mktemp("batches"), split)
        shuffled = order.sample(keys, order.randint(0, len(keys)))

        def run_all():
            return (run_check(bib_paths=paths), run_format(bib_paths=paths),
                    run_format(bib_paths=paths, keys=shuffled))

        batched = run_all()
        with mock.patch.object(cli, "_references", one_at_a_time):
            assert batched == run_all()

    def test_check_normalizes_at_most_one_batch_ahead(self, corpus_db, tmp_path,
                                                      monkeypatch):
        paths, _ = write_numbered(corpus_db, ["no-date"] + ["none"] * 199, tmp_path)
        calls = 0

        def counted(entry):
            nonlocal calls
            calls += 1
            return normalize(entry)

        class FirstWrite(io.StringIO):
            calls_then = None

            def write(self, text):
                if self.calls_then is None:
                    self.calls_then = calls
                return super().write(text)

        monkeypatch.setattr(cli, "normalize", counted)
        err = FirstWrite()
        assert cmd_check(RunConfig(bib_paths=paths), io.StringIO(), err) == 0
        # the first entry's missing-date waits for its batch, and no longer
        assert err.getvalue().count("[missing-date]") == 1
        assert 1 < err.calls_then <= cli._BATCH
        assert calls == 200


class TestMonographs:
    def test_every_credit_and_conference_part_prints(self, tmp_path, capsys):
        bib = tmp_path / "monographs.bib"
        bib.write_text(
            "@phdthesis{d1, author={Smith, J}, editor={Doe, A}, title={T},\n"
            "  school={U}, year={2001}}\n"
            "@proceedings{p1, author={Smith, J}, editor={Doe, A}, title={T},\n"
            "  publisher={P}, year={2001}}\n"
            "@misc{m1, author={Smith, J}, editor={Doe, A}, title={T}, year={2001}}\n"
            "@proceedings{p2, title={T}, conferenceplace={Oslo},\n"
            "  conferencedate={2000 Jun 5-7}, publisher={P}, year={2001}}\n"
            "@incollection{c1, author={Smith, J}, title={T}, booktitle={B},\n"
            "  conferenceplace={Oslo}, year={2001}}\n"
            "@book{b1, author={Smith, J}, cartographer={Doe, A}, title={T},\n"
            "  publisher={P}, year={2001}}\n", encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        captured = capsys.readouterr()
        assert captured == (
            "1. Smith J. T [dissertation]. Doe A, editor. U; 2001.\n"
            "2. Smith J. T. Doe A, editor. P; 2001.\n"
            "3. Smith J. T. Doe A, editor. 2001.\n"
            "4. T. 2000 Jun 5-7; Oslo. P; 2001.\n"
            "5. Smith J. T. In: B. Oslo. 2001.\n"
            "6. Smith J; Doe A, cartographer. T. P; 2001.\n", "")
        assert main(["check", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (
            "checked 6 entries: 0 errors, 0 warnings\n", captured.err)

    def test_shared_templates_print_what_they_read(self, tmp_path, capsys):
        bib = tmp_path / "shared.bib"
        bib.write_text(
            "@newspaper{n1, title={T}, journal={J}, year={2002}, section={A},\n"
            "  medium={Internet}, url={http://x}, lastchecked={2003 Jan 2}}\n"
            "@article{w1, title={T}, journal={J}, url={http://x}, volume={4},\n"
            "  pagination={continuous}, year={2001}, month={Jul}, updated={2001}}\n"
            "@dictionary{d1, title={D}, publisher={P}, year={2000}, pages={119-120}}\n"
            "@incollection{c1, author={Smith, J}, title={T}, booktitle={B},\n"
            "  editor={Doe, A}, edition={2nd}, medium={Internet}, url={http://x},\n"
            "  publisher={P}, year={2001}, pages={5-9}}\n"
            "@article{a1, title={T}, journal={J}, inpress={maybe}, year={2001},\n"
            "  volume={83}, volpart={2}, number={5}}\n", encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        captured = capsys.readouterr()
        assert captured == (
            "1. T. J [Internet]. 2002 [cited 2003 Jan 2];Sect. A. "
            "Available from: http://x\n"
            "2. T. J. 2001 [updated 2001];4. Available from: http://x\n"
            "3. D. P; 2000. p. 119-20.\n"
            "4. Smith J. T. In: Doe A, editor. B [Internet]. 2nd. P; 2001. "
            "p. 5-9. Available from: http://x\n"
            "5. T. J. 2001;83(Pt 2).\n",
            f"{bib}:9:1: warning: inpress value 'maybe' ignored [unknown-value]\n"
            f"{bib}:9:1: warning: field 'number' ignored: 'volpart' is used "
            "instead [shadowed-field]\n")
        assert main(["check", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (
            "checked 5 entries: 0 errors, 2 warnings\n", captured.err)

    def test_dates_and_flags_get_the_latex_cleanup(self, tmp_path, capsys):
        bib = tmp_path / "latex.bib"
        bib.write_text(
            "@article{y, author={T, J}, title={T}, journal={J}, year={{2001}}}\n"
            "@proceedings{c, title={T}, conferencedate={2001 Sep 13--15},\n"
            "  publisher={P}, year={2001}}\n"
            "@article{d, title={T}, journal={J}, date={2001 Sep 13--15}}\n"
            "@article{r, title={T}, journal={J}, year={2001}, month={Sep},\n"
            "  day={13--15}}\n"
            "@article{i, title={T}, journal={J}, inpress={{yes}}, year={2001}}\n"
            "@article{p, title={T}, journal={J}, pagination={{continuous}},\n"
            "  volume={4}, number={2}, year={2001}}\n"
            "@book{s, title={T}, publisher={P}, datesep={{.}}, year={2001}}\n"
            "@article{m, title={T}, journal={J}, year={2001}, month={{Jul}},\n"
            "  day={{4}}}\n"
            "@article{u, title={T}, journal={J}, year={2001},\n"
            "  url={http://x/a--b_{c}}}\n", encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        assert capsys.readouterr() == (
            "1. T J. T. J. 2001.\n"
            "2. T. 2001 Sep 13-15. P; 2001.\n"
            "3. T. J. 2001 Sep 13-15.\n"
            "4. T. J. 2001 Sep 13-15.\n"
            "5. T. J. In press 2001.\n"
            "6. T. J. 2001;4.\n"
            "7. T. P. 2001.\n"
            "8. T. J. 2001 Jul 4.\n"
            "9. T. J. 2001. Available from: http://x/a--b_{c}\n", "")
        assert main(["check", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == ("checked 9 entries: 0 errors, 0 warnings\n", "")

    def test_a_title_ending_in_an_exclamation_point_gets_no_period(
            self, tmp_path, capsys):
        bib = tmp_path / "bang.bib"
        bib.write_text(
            "@article{a, author={Smith, J}, title={Stop smoking now!},\n"
            "  journal={J}, year={2001}, volume={4}, pages={1-9}}\n"
            "@book{b, author={Smith, J}, title={Stop smoking now!},\n"
            "  publisher={P}, year={2001}}\n", encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        assert capsys.readouterr() == (
            "1. Smith J. Stop smoking now! J. 2001;4:1-9.\n"
            "2. Smith J. Stop smoking now! P; 2001.\n", "")

    def test_spaced_day_range_is_read_like_a_spaced_page_range(self, tmp_path, capsys):
        bib = tmp_path / "spaced.bib"
        bib.write_text(
            "@article{r, title={T}, journal={J}, year={2001}, month={Sep},\n"
            "  day={13 -- 15}}\n"
            "@article{d, title={T}, journal={J}, date={2001 Sep 13 -- 15}}\n",
            encoding="utf-8")
        assert main(["format", "--bib", str(bib), "--all"]) == 0
        assert capsys.readouterr() == (
            "1. T. J. 2001 Sep 13-15.\n"
            "2. T. J. 2001 Sep 13-15.\n", "")
        assert main(["check", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == ("checked 2 entries: 0 errors, 0 warnings\n", "")

    # A minimal valid entry of each of the 18 entry types: a .bib type and
    # the fields it needs beside author, title and year.
    PUBLISHED = {"publisher": "P"}
    JOURNAL = {"journal": "J"}
    PROBED = [
        ("book", PUBLISHED), ("proceedings", PUBLISHED), ("misc", PUBLISHED),
        ("phdthesis", PUBLISHED), ("audiovisual", PUBLISHED),
        ("electronic", PUBLISHED), ("map", PUBLISHED),
        ("webpage", {**PUBLISHED, "url": "http://x"}),
        ("book", {**PUBLISHED, "url": "http://x"}),
        ("database", {**PUBLISHED, "url": "http://x"}),
        ("dictionary", PUBLISHED),
        ("incollection", {**PUBLISHED, "booktitle": "B"}),
        ("inproceedings", {**PUBLISHED, "booktitle": "B"}),
        ("techreport", PUBLISHED), ("patent", {"number": "N1"}),
        ("article", JOURNAL), ("article", {**JOURNAL, "url": "http://x"}),
        ("newspaper", JOURNAL),
    ]
    VALUES = {**dict.fromkeys([role.value for role in Role], "Doe, A"),
              **dict.fromkeys(["date", "epub", "updated", "lastchecked",
                               "conferencedate"], "2002 Jul 3"),
              "month": "Jul", "day": "3", "pages": "1-2", "datesep": "."}

    @pytest.mark.parametrize("entry_type, needs", PROBED,
                             ids=[t + "+url" * ("url" in n) for t, n in PROBED])
    def test_each_accepted_field_is_printed_or_reported(
            self, tmp_path, entry_type, needs):
        base = {"author": "Smith, J", "title": "T", "year": "2001", **needs}
        bib = tmp_path / "probe.bib"

        def run(fields):
            bib.write_text(serialize_entry(RawEntry(entry_type, "k", fields)),
                           encoding="utf-8")
            _, out, err = run_format(bib_paths=[str(bib)])
            return out, err

        base_out, base_err = run(base)
        assert base_out and base_err == ""
        accepted = TEMPLATES[normalize(RawEntry(entry_type, "k", base))[0].entry_type].fields
        # still open: the common fields nothing prints
        probed = accepted - UNPRINTED_FIELDS - base.keys()
        silent = [name for name in sorted(probed)
                  if run({**base, name: self.VALUES.get(name, "Xy")}) == (base_out, "")]
        assert silent == []


class TestScan:
    def test_first_three_lines(self):
        code, out, _ = run_scan(tex_path=TEX)
        assert code == 0
        assert out.splitlines()[:3] == [
            "1 uniform",
            "2 bibliographic",
            "3 halpern.ubel.ea:solid-organ*2",
        ]

    def test_no_citations_is_empty_success(self, tmp_path):
        empty = tmp_path / "empty.tex"
        empty.write_text("no citations here", encoding="utf-8")
        code, out, err = run_scan(tex_path=str(empty))
        assert (code, out, err) == (0, "", "")

    def test_empty_cite_fails_in_strict_mode(self, tmp_path):
        bad = tmp_path / "bad.tex"
        bad.write_text("\\cite{}", encoding="utf-8")
        code, _, err = run_scan(tex_path=str(bad), strict=True)
        assert code == 1
        assert "cite" in err
        lax_code, _, _ = run_scan(tex_path=str(bad))
        assert lax_code == 0  # warning only outside strict mode

    def test_unreadable_tex_is_io_error(self):
        code, _, _ = run_scan(tex_path="/no/such/file.tex")
        assert code == 2

    def test_unwritable_out_path_reports_to_given_stream(self, tmp_path, capsys):
        target = tmp_path / "missing" / "keys.txt"
        code, out, err = run_scan(tex_path=TEX, out_path=str(target))
        assert (code, out) == (2, "")
        assert f"{target}: cannot write" in err
        assert capsys.readouterr().err == ""


class TestMainAndConfig:
    def test_repeated_key_keeps_first_number(self, tmp_path, capsys):
        bib = tmp_path / "k.bib"
        bib.write_text("@article{a, title={T}, journal={J}, year={2000}}",
                       encoding="utf-8")
        code = main(["format", "--bib", str(bib), "--keys", "a,a"])
        assert code == 0
        assert capsys.readouterr().out == "1. T. J. 2000.\n"

    def test_main_format_smoke(self, capsys):
        code = main(["format", "--bib", BIB, "--keys", "filamin"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("1. Dorland's")
        assert captured.err == ""

    def test_unreadable_manuscript_is_io_error(self, capsys):
        code = main(["format", "--bib", BIB, "--tex", "/no/such/paper.tex"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "/no/such/paper.tex: cannot read" in captured.err

    def test_check_of_an_unreadable_database_is_io_error(self, capsys):
        code = main(["check", "--bib", "/no/such/file.bib"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "/no/such/file.bib: cannot read" in captured.err

    def test_scan_via_main(self, capsys):
        code = main(["scan", "--tex", TEX])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 uniform"

    @pytest.mark.parametrize("command", [["check"], ["format", "--all"]])
    def test_a_non_ascii_digit_month_is_ignored(self, tmp_path, capsys, command):
        bib = tmp_path / "month.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       " year={2001}, month={\u00b9}}\n", encoding="utf-8")
        assert main([*command, "--bib", str(bib)]) == 0
        assert capsys.readouterr().err == (
            f"{bib}:1:1: warning: month '\u00b9' ignored [unparsed-date]\n")

    # A number is ASCII digits wherever it is read: "٢٠٠١" is
    # 2001 in Arabic-Indic digits, and it is text to vanref.
    def test_a_non_ascii_digit_year_prints_verbatim(self, tmp_path, capsys):
        bib = tmp_path / "year.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       " year={٢٠٠١}}\n", encoding="utf-8")
        assert main(["format", "--all", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (
            "1. Smith J. T. J. ٢٠٠١.\n", "")

    def test_non_ascii_digit_pages_print_verbatim(self, tmp_path, capsys):
        pages = "٣١٠-٣١٤"  # 310-314
        bib = tmp_path / "pages.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       f" year={{2001}}, pages={{{pages}}}}}\n", encoding="utf-8")
        assert main(["format", "--all", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (f"1. Smith J. T. J. 2001:{pages}.\n", "")

    def test_a_non_ascii_digit_word_is_a_macro_name(self, tmp_path, capsys):
        bib = tmp_path / "volume.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       " year={2001}, volume=٣}\n", encoding="utf-8")
        assert main(["format", "--all", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (
            "1. Smith J. T. J. 2001.\n",
            f"{bib}:1:76: warning: undefined macro '٣' [undefined-macro]\n")

    # int() refuses a string of more than 4,300 digits
    @pytest.mark.parametrize("command", [["check"], ["format", "--all"]])
    def test_a_5000_digit_page_range_renders(self, tmp_path, capsys, command):
        ones = "1" * 5000
        bib = tmp_path / "pages.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       f" year={{2001}}, pages={{{ones}-2}}}}\n", encoding="utf-8")
        assert main([*command, "--bib", str(bib)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "checked 1 entries: 0 errors, 0 warnings\n" if command == ["check"]
            else f"1. Smith J. T. J. 2001:{ones}-2.\n")

    @pytest.mark.parametrize("command", [["check"], ["format", "--all"]])
    def test_a_5000_digit_month_is_ignored(self, tmp_path, capsys, command):
        ones = "1" * 5000
        bib = tmp_path / "month.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       f" year={{2001}}, month={{{ones}}}}}\n", encoding="utf-8")
        assert main([*command, "--bib", str(bib)]) == 0
        assert capsys.readouterr().err == (
            f"{bib}:1:1: warning: month '{ones}' ignored [unparsed-date]\n")

    # a year of more than four digits is text: no int() is made of it
    def test_a_5000_digit_year_prints_as_written(self, tmp_path, capsys):
        ones = "1" * 5000
        bib = tmp_path / "year.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       f" year={{{ones}}}, month={{jan}}, day={{5}}}}\n",
                       encoding="utf-8")
        assert main(["format", "--all", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (f"1. Smith J. T. J. {ones} Jan 5.\n", "")

    # A day is one its month has, in that year; any other day is dropped with
    # a warning, and the month is kept.
    @pytest.mark.parametrize("year,month,day,printed", [
        ("2001", "jan", "45", "2001 Jan"),
        ("2001", "feb", "30", "2001 Feb"),
        ("2001", "feb", "29", "2001 Feb"),
        ("2004", "feb", "29", "2004 Feb 29"),
        ("1900", "feb", "28-29", "1900 Feb"),
        ("2000", "feb", "28-29", "2000 Feb 28-29"),
        ("2001", "apr", "31", "2001 Apr"),
        ("2001", "jan", "0", "2001 Jan"),
        ("2001", "jan", "20-10", "2001 Jan"),
        ("2001", "jan", "31", "2001 Jan 31"),
    ])
    def test_a_day_is_checked_against_its_month(self, tmp_path, capsys, year,
                                                 month, day, printed):
        bib = tmp_path / "day.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       f" year={{{year}}}, month={{{month}}}, day={{{day}}}}}\n",
                       encoding="utf-8")
        assert main(["format", "--all", "--bib", str(bib)]) == 0
        warned = "" if printed.endswith(day) else (
            f"{bib}:1:1: warning: day '{day}' ignored [unparsed-date]\n")
        assert capsys.readouterr() == (f"1. Smith J. T. J. {printed}.\n", warned)

    def test_a_date_with_a_day_its_month_lacks_is_kept_verbatim(self, tmp_path,
                                                                capsys):
        bib = tmp_path / "date.bib"
        bib.write_text("@article{k, author={Smith, J}, title={T}, journal={J},"
                       " date={2001 Feb 30}}\n", encoding="utf-8")
        assert main(["format", "--all", "--bib", str(bib)]) == 0
        assert capsys.readouterr() == (
            "1. Smith J. T. J. 2001 Feb 30.\n",
            f"{bib}:1:1: warning: date kept verbatim: '2001 Feb 30' [unparsed-date]\n")

    def test_zero_max_authors_is_rejected(self, capsys):
        code = main(["format", "--bib", str(BIB_PATH), "--all",
                     "--max-authors", "0"])
        assert code == 2
        assert capsys.readouterr() == ("", "max authors must be at least 1\n")

    def test_import_loads_no_dataclasses(self):
        # -S keeps site's .pth imports out of the count
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        result = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, vanref.cli; "
             "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert result.stdout == "False False\n"


@pytest.mark.parametrize("key,expected_fragment", [
    ("geraud.spierings.ea:tolerability", "Headache. 2002;42 Suppl 2:S93-9."),
    ("banit.kaufer.ea:intraoperative", "Clin Orthop. 2002;(401):230-8."),
    ("chadwick.schuklenk:politics", "Bioethics. 2002;16(2):iii-v."),
])
def test_spot_check_lines(key, expected_fragment):
    code, out, _ = run_format(bib_paths=[BIB], keys=[key])
    assert code == 0
    assert expected_fragment in out
