"""Citation extraction and numbering."""

import re
import time

from hypothesis import example, given, strategies as st

from vanref.citescan import _blank_comments, resolve, scan_citations
from vanref.diagnostics import warning
from vanref.model import BibRecord, EntryType


# Reference for ``scan_citations``: the earlier version, which blanked
# comments with one regex substitution and checked every key of a group
# one by one.

_REF_CITE_RE = re.compile(r"\\cite\s*\{([^{}]*)\}")
_REF_KEY_RE = re.compile(r"[A-Za-z0-9.:*+/_-]+")
_REF_COMMENT_RE = re.compile(r"\\[\\%]|%[^\n]*")


def _blank_comments_reference(text):
    def blank(match):
        found = match.group(0)
        return found if found[0] == "\\" else " " * len(found)
    return _REF_COMMENT_RE.sub(blank, text)


def scan_citations_reference(text):
    source = _blank_comments_reference(text)
    occurrences = []
    diagnostics = []
    for match in _REF_CITE_RE.finditer(source):
        group = match.group(1)
        offset = match.start()
        if not group.strip():
            diagnostics.append(warning(
                "empty-cite-group", "\\cite with no citation key", offset))
            continue
        for raw_key in group.split(","):
            key = raw_key.strip()
            if not key or not _REF_KEY_RE.fullmatch(key):
                diagnostics.append(warning(
                    "malformed-key", f"malformed citation key {raw_key.strip()!r}",
                    offset))
                continue
            occurrences.append((key, offset))
    return (tuple(dict.fromkeys(key for key, _ in occurrences)),
            tuple(occurrences), tuple(diagnostics))


# Manuscript text: ``\cite{`` as one token, plus single characters that make
# comments, escapes, key lists, odd spaces and malformed keys.
_TEX_TOKENS = ["\\cite{", *"\\cite{}, %\n\t\xa0aZ0.:*+/_-"]


def scanned(text):
    index = scan_citations(text)
    return index.keys, index.occurrences, index.diagnostics


def timed_scan(text):
    started = time.perf_counter()
    index = scan_citations(text)
    return index, time.perf_counter() - started


def record(key):
    return BibRecord(key=key, entry_type=EntryType.MISC)


def numbers(keys):
    """Citation number of each key, as ``resolve`` assigns them."""
    pairs, _ = resolve(keys, [record(k) for k in keys])
    return {r.key: n for n, r in pairs}


class TestScanCitations:
    def test_first_occurrence_ordering(self):
        index = scan_citations("a\\cite{x} b\\cite{y} c\\cite{x}")
        assert index.keys == ("x", "y")
        assert numbers(index.keys) == {"x": 1, "y": 2}

    def test_leading_space_inside_braces_is_trimmed(self):
        index = scan_citations("\\cite{ tian.araki.ea:signature}")
        assert index.keys == ("tian.araki.ea:signature",)

    def test_star_suffix_keys_accepted(self):
        index = scan_citations("\\cite{halpern.ubel.ea:solid-organ*2}")
        assert index.keys == ("halpern.ubel.ea:solid-organ*2",)

    def test_comma_group_expands_in_place(self):
        index = scan_citations("\\cite{a, b}\\cite{c}")
        assert index.keys == ("a", "b", "c")

    def test_comment_citations_ignored(self):
        index = scan_citations("% \\cite{ghost}\nreal\\cite{x}")
        assert index.keys == ("x",)

    def test_escaped_percent_does_not_start_comment(self):
        index = scan_citations("100\\% sure\\cite{x}")
        assert index.keys == ("x",)

    def test_percent_after_escaped_backslash_starts_comment(self):
        text = "a \\\\% \\cite{b}\nc\\cite{c}"
        index = scan_citations(text)
        assert index.keys == ("c",)
        assert index.occurrences == (("c", text.index("\\cite{c}")),)

    def test_escaped_percent_before_cite_is_scanned(self):
        index = scan_citations("\\% \\cite{b}")
        assert index.keys == ("b",)

    @given(st.text(alphabet="\\%a\n", max_size=40))
    def test_comment_blanking_matches_backslash_parity(self, text):
        expected, escaped, in_comment = [], False, False
        for c in text:
            in_comment = in_comment and c != "\n"
            if in_comment or (c == "%" and not escaped):
                in_comment = True
                expected.append(" ")
            else:
                expected.append(c)
            escaped = c == "\\" and not escaped
        assert _blank_comments(text) == "".join(expected)

    @given(st.lists(st.sampled_from(_TEX_TOKENS), max_size=60).map("".join))
    @example("\\cite{ a ,b\t}\\cite{a,,b}\\cite{\xa0}\\cite{a b}")
    @example("\\cite{a\\}\\cite{a%}\n\\\\%\\cite{b}\n\\\\\\%\\cite{c}")
    @example("\\cite{a,}\\cite{,a}\\cite{a\nb}\\cite {a}\\cite\n{b}")
    # one form each, where a space, key or group run that gave characters
    # back would end in another place
    @example("\\cite {a}")
    @example("\\cite{ a , b }")
    @example("\\cite{a b}")
    @example("\\cite{a,}")
    def test_scan_matches_reference(self, text):
        assert scanned(text) == scan_citations_reference(text)

    def test_long_group_with_a_bad_last_key_scans_in_linear_time(self):
        text = "\\cite{" + ",".join(f"k{i}" for i in range(200_000)) + ",bad key}"
        index, elapsed = timed_scan(text)
        assert len(index.keys) == 200_000
        assert [d.message for d in index.diagnostics] == [
            "malformed citation key 'bad key'"]
        assert elapsed < 1.0

    def test_long_backslash_run_before_percent_scans_in_linear_time(self):
        text = "\\" * 1_000_000 + "% \\cite{ghost}\n\\cite{k}"
        index, elapsed = timed_scan(text)
        assert index.keys == ("k",)
        assert elapsed < 1.0

    def test_many_escaped_percents_scan_in_linear_time(self):
        text = ("\\" * 51 + "% \\cite{k}\n") * 20_000
        index, elapsed = timed_scan(text)
        assert index.keys == ("k",)
        assert len(index.occurrences) == 20_000
        assert elapsed < 1.0

    def test_cite_variants_are_not_recognized(self):
        index = scan_citations("\\citep{x}\\citet{y}\\citeauthor{z}")
        assert index.keys == ()
        assert index.diagnostics == ()

    def test_empty_group_diagnostic(self):
        index = scan_citations("\\cite{}")
        assert index.keys == ()
        assert [d.code for d in index.diagnostics] == ["empty-cite-group"]

    def test_malformed_key_diagnostic(self):
        index = scan_citations("\\cite{bad key}")
        assert index.keys == ()
        assert [d.code for d in index.diagnostics] == ["malformed-key"]

    def test_occurrences_carry_offsets(self):
        text = "xx\\cite{k} and \\cite{k}"
        index = scan_citations(text)
        assert [o[0] for o in index.occurrences] == ["k", "k"]
        assert [o[1] for o in index.occurrences] == [2, 15]

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        assert scan_citations(text) == scan_citations(text)

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    max_size=12))
    def test_generate_then_scan_round_trip(self, keys):
        text = " ".join(f"\\cite{{{k}}}" for k in keys)
        index = scan_citations(text)
        assert list(index.keys) == list(dict.fromkeys(keys))
        assert [o[0] for o in index.occurrences] == keys

    @given(st.permutations(["a.b:c", "d-e", "f*2", "g", "h"]))
    def test_permutation_sensitivity(self, keys):
        text = "\n".join(f"text\\cite{{{k}}}" for k in keys)
        index = scan_citations(text)
        assert list(index.keys) == list(keys)
        assert [numbers(index.keys)[k] for k in keys] == [1, 2, 3, 4, 5]


class TestResolve:
    def test_single_key(self):
        index = scan_citations("\\cite{x}")
        pairs, missing = resolve(index.keys, [record("x")])
        assert [(n, r.key) for n, r in pairs] == [(1, "x")]
        assert missing == []

    def test_missing_key_keeps_gap(self):
        index = scan_citations("\\cite{x}\\cite{y}\\cite{z}")
        pairs, missing = resolve(index.keys, [record("x"), record("z")])
        assert [(n, r.key) for n, r in pairs] == [(1, "x"), (3, "z")]
        assert missing == ["y"]

    def test_repeated_key_keeps_first_number(self):
        pairs, missing = resolve(["x", "y", "x"], [record("x")])
        assert [(n, r.key) for n, r in pairs] == [(1, "x")]
        assert missing == ["y"]

    def test_uncited_entries_excluded(self):
        index = scan_citations("\\cite{x}")
        pairs, _ = resolve(index.keys, [record("x"), record("unused")])
        assert len(pairs) == 1

    def test_corpus_manuscript_pairs(self, corpus_tex_text, corpus_records):
        # Frozen from a by-hand enumeration of the manuscript's cite
        # commands; 48 unique keys, one per sample reference.
        index = scan_citations(corpus_tex_text)
        pairs, missing = resolve(index.keys, corpus_records.values())
        assert missing == []
        assert len(pairs) == 48
        assert index.keys[:3] == (
            "uniform", "bibliographic", "halpern.ubel.ea:solid-organ*2")
        assert index.keys[-1] == "mesh"
        assert [n for n, _ in pairs] == list(range(1, 49))
