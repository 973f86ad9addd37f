"""Diagnostic rendering and the per-file line index."""

import random
import re
import time
from pathlib import Path

from hypothesis import example, given, strategies as st

from vanref.diagnostics import _CHUNK, LineIndex, warning


def line_col_reference(source, offset):
    """The former per-call lookup: it counts newlines from offset 0."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl


@given(st.text(alphabet="ab\n\r ", max_size=40),
       st.lists(st.integers(), max_size=5))
def test_line_index_matches_reference_at_every_offset(source, extra):
    index = LineIndex(source)
    for offset in [*range(-3, len(source) + 4), *extra]:
        assert index.line_col(offset) == line_col_reference(source, offset)


# lines of a few characters, or about a chunk long, each ended by a newline
# or not, so that texts run over several chunks
_LINE_LENGTHS = st.integers(0, 3) | st.sampled_from(
    [_CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1]) | st.integers(0, 3 * _CHUNK)


@given(st.lists(st.tuples(_LINE_LENGTHS, st.sampled_from(["\n", "", "\r\n"])),
                max_size=8).map(lambda lines: "".join("a" * n + end for n, end in lines)),
       st.lists(st.integers(-5, 8 * _CHUNK), max_size=10))
# newlines exactly at chunk boundaries, on either side
@example(("a" * (_CHUNK - 1) + "\n") * 4, [])
@example(("\n" + "a" * (_CHUNK - 1)) * 4, [])
# one line longer than a chunk, between two short ones
@example("a\n" + "b" * (_CHUNK + 10) + "\nc", [])
# no newline at all
@example("a" * (3 * _CHUNK + 7), [])
def test_line_index_matches_reference_across_chunks(source, extra):
    index = LineIndex(source)
    boundaries = [chunk + d for chunk in range(0, len(source) + _CHUNK + 1, _CHUNK)
                  for d in (-1, 0, 1)]
    for offset in [*boundaries, *extra, len(source)]:
        assert index.line_col(offset) == line_col_reference(source, offset)


def test_lookups_in_a_long_single_line_scan_one_chunk_each():
    source = "a" * 2_000_000
    offsets = list(range(0, len(source), 100))
    random.Random(23).shuffle(offsets)
    index = LineIndex(source)
    started = time.perf_counter()
    for offset in offsets:
        assert index.line_col(offset) == (1, offset + 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"20,000 lookups took {elapsed:.2f}s"


def test_offset_without_index_renders_raw():
    diag = warning("unknown-macro", "dropped", 2)
    assert diag.render(None, "f.bib") == "f.bib:@2: warning: dropped [unknown-macro]"
    assert diag.render() == ":@2: warning: dropped [unknown-macro]"


ROOT = Path(__file__).parent.parent
# a code is the string literal that opens a warning( or error( call
EMITTED_CODE = re.compile(r'\b(?:warning|error)\(\s*"([^"]*)"')
# README's codes table, a row per code, and a code named in backquotes
CODE_TABLE = re.compile(r"^## Diagnostic codes$(.*?)^## ", re.M | re.S)
TABLE_CODE = re.compile(r"^\| `([^`]*)` \|", re.M)
PROSE_CODE = re.compile(r"`([a-z]+(?:-[a-z]+)+)`")


def test_readme_names_every_diagnostic_code_and_no_other():
    emitted = {code for path in (ROOT / "src" / "vanref").glob("*.py")
               for code in EMITTED_CODE.findall(path.read_text(encoding="utf-8"))}
    assert len(emitted) >= 17
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = TABLE_CODE.findall(CODE_TABLE.search(readme)[1])
    assert sorted(table) == sorted(emitted)
    assert set(PROSE_CODE.findall(readme)) <= emitted
