"""vanref: numbered Vancouver/NLM reference lists from BibTeX databases."""

from .bibtex import Database, RawEntry, parse_database
from .citescan import CitationIndex, resolve, scan_citations
from .diagnostics import Diagnostic, LineIndex
from .model import (BibRecord, ContributorList, PageExtent, PartialDate,
                    PersonName, normalize)
from .render import RenderError, StyleConfig, render_reference

__version__ = "0.1.0"

__all__ = [
    "BibRecord",
    "CitationIndex",
    "ContributorList",
    "Database",
    "Diagnostic",
    "LineIndex",
    "PageExtent",
    "PartialDate",
    "PersonName",
    "RawEntry",
    "RenderError",
    "StyleConfig",
    "normalize",
    "parse_database",
    "render_reference",
    "resolve",
    "scan_citations",
]
