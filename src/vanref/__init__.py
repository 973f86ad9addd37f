"""vanref: numbered Vancouver/NLM reference lists from BibTeX databases."""

from .bibtex import (
    Database,
    RawEntry,
    parse_database,
    serialize_database,
    strip_latex,
)
from .citescan import CitationIndex, resolve, scan_citations
from .diagnostics import Diagnostic, LineIndex
from .model import (
    BibRecord,
    ContributorList,
    EntryType,
    PageExtent,
    PartialDate,
    PersonName,
    Role,
    initials,
    map_entry_type,
    normalize,
    parse_date,
    parse_names,
    parse_pages,
)
from .render import (
    ConflictingLocator,
    InvalidRange,
    MissingRequiredField,
    RenderError,
    StyleConfig,
    compress_page_range,
    format_contributors,
    format_date,
    format_journal_locator,
    format_name,
    render_reference,
)

__version__ = "0.1.0"

__all__ = [
    "BibRecord",
    "CitationIndex",
    "ConflictingLocator",
    "ContributorList",
    "Database",
    "Diagnostic",
    "EntryType",
    "InvalidRange",
    "LineIndex",
    "MissingRequiredField",
    "PageExtent",
    "PartialDate",
    "PersonName",
    "RawEntry",
    "RenderError",
    "Role",
    "StyleConfig",
    "compress_page_range",
    "format_contributors",
    "format_date",
    "format_journal_locator",
    "format_name",
    "initials",
    "map_entry_type",
    "normalize",
    "parse_database",
    "parse_date",
    "parse_names",
    "parse_pages",
    "render_reference",
    "resolve",
    "scan_citations",
    "serialize_database",
    "strip_latex",
]
