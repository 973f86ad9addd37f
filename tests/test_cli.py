"""Command-line behavior: modes, exit codes, stream separation, arguments."""

import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from vanref import RawEntry, StyleConfig, render_reference, resolve
from vanref.bibtex import serialize_entry
from vanref.cli import RunConfig, cmd_check, cmd_format, cmd_scan, main
from vanref.diagnostics import Diagnostic

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"
BIB_PATH = DATA_DIR / "vancouver.bib"
TEX_PATH = DATA_DIR / "manuscript.tex"


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
    text = serialize_entry(RawEntry(entry.entry_type, entry.key, fields)) + "\n"
    return text * 2 if defect == "duplicate-key" else text


DEFECTS = ("none", "no-date", "macro", "no-title", "and-and", "unknown-field",
           "duplicate-key")


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
                       "5. Smith J. T. In: B. 2001.\n"
                       "6. Smith J. T. 2001.\n"
                       "7. Smith J. T. P; 2001.\n")
        unused = "warning: entry '{}': field '{}' not used by entry type '{}' " \
                 "[unknown-field]\n"
        assert err == (
            f"{bib}:7:1: " + unused.format("a1", "editor", "article")
            + f"{bib}:9:1: " + unused.format("c2", "edition", "chapter")
            + "".join(f"{bib}:11:1: " + unused.format("m1", name, "misc")
                      for name in ("journal", "volume", "pages"))
            + f"{bib}:13:1: warning: field 'institution' ignored: 'publisher' "
            "is used instead [shadowed-field]\n")
        code, out, check_err = run_check(bib_paths=[str(bib)])
        assert (code, out, check_err) == (
            0, "checked 7 entries: 0 errors, 6 warnings\n", err)

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

    @given(data=st.data())
    def test_format_all_agrees_with_check(self, corpus_db, tmp_path_factory,
                                          data):
        picked = data.draw(st.lists(
            st.tuples(st.sampled_from(corpus_db.entries), st.sampled_from(DEFECTS)),
            min_size=1, max_size=8))
        texts = [inject(entry, defect) for entry, defect in picked]
        # two files, so that a duplicate key may also cross files
        split = data.draw(st.integers(0, len(texts)))
        folder = tmp_path_factory.mktemp("agree")
        paths = [str(folder / "a.bib"), str(folder / "b.bib")]
        for path, part in zip(paths, (texts[:split], texts[split:])):
            Path(path).write_text("".join(part), encoding="utf-8")
        strict = data.draw(st.booleans())
        format_code, _, format_err = run_format(bib_paths=paths, strict=strict)
        check_code, _, check_err = run_check(bib_paths=paths, strict=strict)
        assert format_err == check_err
        assert format_code == check_code


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

    def test_scan_via_main(self, capsys):
        code = main(["scan", "--tex", TEX])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 uniform"

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
