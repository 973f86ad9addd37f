"""Diagnostic rendering and the per-file line index."""

from hypothesis import given, strategies as st

from vanref.diagnostics import LineIndex, warning


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


def test_offset_without_index_renders_raw():
    diag = warning("unknown-macro", "dropped", 2)
    assert diag.render(None, "f.bib") == "f.bib:@2: warning: dropped [unknown-macro]"
    assert diag.render() == ":@2: warning: dropped [unknown-macro]"
