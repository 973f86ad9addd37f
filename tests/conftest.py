from pathlib import Path

import pytest
from hypothesis import settings

from vanref import Diagnostic, RawEntry, normalize, parse_database

# A longer run of every property, for CI: ``--hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=2000, deadline=None)

DATA_DIR = Path(__file__).parent / "data"
BIB_PATH = DATA_DIR / "vancouver.bib"
TEX_PATH = DATA_DIR / "manuscript.tex"
EXPECTED_PATH = DATA_DIR / "expected_refs.txt"


# The reference implementations name each code's severity themselves, so
# that every diagnostic they build checks the one the program reads from
# ``ERROR_CODES``.
def error(code: str, message: str, offset: int | None = None) -> Diagnostic:
    diag = Diagnostic(code, message, offset)
    assert diag.severity == "error", f"[{code}] is not an error"
    return diag


def warning(code: str, message: str, offset: int | None = None) -> Diagnostic:
    diag = Diagnostic(code, message, offset)
    assert diag.severity == "warning", f"[{code}] is not a warning"
    return diag


@pytest.fixture(scope="session")
def corpus_bib_text() -> str:
    return BIB_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_tex_text() -> str:
    return TEX_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def expected_lines() -> list[str]:
    return EXPECTED_PATH.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="session")
def corpus_db(corpus_bib_text):
    db = parse_database(corpus_bib_text)
    assert not db.diagnostics
    return db


@pytest.fixture(scope="session")
def corpus_records(corpus_db):
    records = {}
    for entry in corpus_db.entries:
        record, diagnostics = normalize(entry)
        assert not diagnostics
        records[record.key] = record
    return records


def serialize_entry(entry: RawEntry) -> str:
    lines = [f"@{entry.entry_type}{{{entry.key},"]
    for name, value in entry.fields.items():
        lines.append(f"  {name} = {{{value}}},")
    lines.append("}")
    return "\n".join(lines)


def serialize_database(entries: list[RawEntry]) -> str:
    """Render entries back to ``.bib`` text; reparsing yields equal fields."""
    return "\n\n".join(serialize_entry(e) for e in entries) + "\n"
