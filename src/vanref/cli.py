"""Command-line front end: ``format``, ``check`` and ``scan`` subcommands.

Reference lines go to standard output only; diagnostics go to standard
error only.  Exit codes: 0 success, 1 content errors, 2 I/O or syntax
failure.  Line endings are always ``\\n``.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import NamedTuple, Sequence

from .bibtex import RawEntry, parse_database
from .citescan import CitationIndex, scan_citations, resolve
from .diagnostics import Diagnostic, ERROR, LineIndex, error, warning
from .model import normalize
from .render import TEMPLATES, RenderError, StyleConfig, render_reference

EXIT_OK = 0
EXIT_CONTENT = 1
EXIT_IO = 2

# a source file's line index and path, for locating its diagnostics
Source = tuple[LineIndex, str]


class RunConfig(NamedTuple):
    bib_paths: Sequence[str] = ()
    tex_path: str | None = None
    keys: list[str] | None = None
    out_path: str | None = None
    output_format: str = "plain"
    max_authors: int = 6
    etal_text: str = "et al."
    strict: bool = False

    def style(self) -> StyleConfig:
        return StyleConfig(max_authors_before_etal=self.max_authors,
                           etal_text=self.etal_text)


# ---------------------------------------------------------------------------
# shared plumbing

def _read_file(path: str, stderr) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: cannot read: {exc}", file=stderr)
        return None


class _Reporter:
    """Collects diagnostics and prints them to stderr as they arrive."""

    def __init__(self, stderr):
        self.stderr = stderr
        self.errors = 0
        self.warnings = 0

    def emit(self, diag: Diagnostic, index: LineIndex | None = None,
             path: str | None = None) -> None:
        if diag.severity == ERROR:
            self.errors += 1
        else:
            self.warnings += 1
        print(diag.render(index, path), file=self.stderr)

    def exit_code(self, strict: bool) -> int:
        if self.errors or (strict and self.warnings):
            return EXIT_CONTENT
        return EXIT_OK


def _load_databases(paths: Sequence[str], reporter: _Reporter
                    ) -> tuple[list[RawEntry], dict[str, Source]] | None:
    """Parse and merge ``paths`` into entries and each entry key's source."""
    if not paths:
        print("no bibliography files given", file=reporter.stderr)
        return None
    entries: list[RawEntry] = []
    sources: dict[str, Source] = {}
    macros: dict[str, str] = {}
    for path in paths:
        text = _read_file(path, reporter.stderr)
        if text is None:
            return None
        # macros accumulate across files, like one long database
        db = parse_database(text, macros=macros)
        source = (LineIndex(text), path)
        for diag in db.diagnostics:
            reporter.emit(diag, *source)
        macros.update(db.macros)
        for entry in db.entries:
            if entry.key in sources:
                reporter.emit(warning(
                    "duplicate-key",
                    f"duplicate entry key '{entry.key}' across files",
                    entry.span[0]),
                    *source)
            else:
                sources[entry.key] = source
                entries.append(entry)
    return entries, sources


def _scan_manuscript(path: str, reporter: _Reporter
                     ) -> tuple[CitationIndex, LineIndex] | None:
    """Read and scan a manuscript, reporting its diagnostics."""
    tex = _read_file(path, reporter.stderr)
    if tex is None:
        return None
    index, lines = scan_citations(tex), LineIndex(tex)
    for diag in index.diagnostics:
        reporter.emit(diag, lines, path)
    return index, lines


def _reference(entry: RawEntry, source: Source, reporter: _Reporter,
               style: StyleConfig) -> str | None:
    """Normalize, lint and render one entry, or report why it cannot render.

    Every diagnostic points into the entry's own file.
    """
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
        return render_reference(record, style)
    except RenderError as exc:
        reporter.emit(error("render", f"entry '{entry.key}': {exc}",
                            entry.span[0]), *source)
        return None


_MARKDOWN_SPECIALS = re.compile(r"([\\`*_\[\]<>])")


def _markdown_escape(text: str) -> str:
    return _MARKDOWN_SPECIALS.sub(r"\\\1", text)


def _write_lines(lines: list[str], out_path: str | None, stdout, stderr) -> bool:
    body = "".join(line + "\n" for line in lines)
    if out_path is None:
        stdout.write(body)
        return True
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(body)
        return True
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{out_path}: cannot write: {exc}", file=stderr)
        return False


# ---------------------------------------------------------------------------
# subcommands

def cmd_format(config: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    reporter = _Reporter(stderr or sys.stderr)
    loaded = _load_databases(config.bib_paths, reporter)
    if loaded is None:
        return EXIT_IO
    entries, sources = loaded

    scanned = None
    if config.tex_path is not None:
        scanned = _scan_manuscript(config.tex_path, reporter)
        if scanned is None:
            return EXIT_IO
        keys = scanned[0].keys
    elif config.keys is not None:
        if not config.keys:
            print("no keys", file=reporter.stderr)
            return EXIT_CONTENT
        keys = config.keys
    else:
        keys = [entry.key for entry in entries]

    pairs, missing = resolve(keys, entries)
    index, tex_lines = scanned or (None, None)
    # a missing key points at its first \cite; reversed, the first one wins
    first_cite = dict(reversed(index.occurrences)) if missing and index else {}
    for key in missing:
        reporter.emit(warning("missing-key", f"no database entry for '{key}'",
                              first_cite.get(key)), tex_lines, config.tex_path)
    # the manuscript is not kept alive while the references render
    del scanned, index, tex_lines

    style = config.style()
    lines = []
    for number, entry in pairs:
        text = _reference(entry, sources[entry.key], reporter, style)
        if text is None:
            continue
        if config.output_format == "markdown":
            text = _markdown_escape(text)
        lines.append(f"{number}. {text}")
    if not _write_lines(lines, config.out_path, stdout, reporter.stderr):
        return EXIT_IO
    return reporter.exit_code(config.strict)


def cmd_check(config: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    reporter = _Reporter(stderr or sys.stderr)
    loaded = _load_databases(config.bib_paths, reporter)
    if loaded is None:
        return EXIT_IO
    entries, sources = loaded
    style = config.style()
    for entry in entries:
        _reference(entry, sources[entry.key], reporter, style)
    print(f"checked {len(entries)} entries: "
          f"{reporter.errors} errors, {reporter.warnings} warnings",
          file=stdout)
    return reporter.exit_code(config.strict)


def cmd_scan(config: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    reporter = _Reporter(stderr or sys.stderr)
    if config.tex_path is None:
        print("no manuscript given", file=reporter.stderr)
        return EXIT_IO
    scanned = _scan_manuscript(config.tex_path, reporter)
    if scanned is None:
        return EXIT_IO
    lines = [f"{number} {key}"
             for number, key in enumerate(scanned[0].keys, start=1)]
    if not _write_lines(lines, config.out_path, stdout, reporter.stderr):
        return EXIT_IO
    return reporter.exit_code(config.strict)


# ---------------------------------------------------------------------------
# arguments

def _key_list(text: str) -> list[str]:
    return [key.strip() for key in text.split(",") if key.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanref",
        description="Build numbered Vancouver-style reference lists "
                    "from BibTeX databases.")
    sub = parser.add_subparsers(dest="command", required=True)
    # an option left out is left out of the namespace too, so that every
    # default lives in RunConfig
    quiet = {"argument_default": argparse.SUPPRESS}

    fmt = sub.add_parser("format", help="render a numbered reference list",
                         **quiet)
    fmt.add_argument("--bib", nargs="+", action="extend", dest="bib_paths",
                     metavar="PATH", help="bibliography database(s)")
    mode = fmt.add_mutually_exclusive_group()
    mode.add_argument("--tex", dest="tex_path", metavar="PATH",
                      help="manuscript; numbering follows citation order")
    mode.add_argument("--keys", type=_key_list, metavar="K1,K2,...",
                      help="explicit comma-separated citation keys; "
                           "a repeated key keeps its first number")
    mode.add_argument("--all", action="store_const", const=None, dest="keys",
                      help="render every entry in database order (default)")
    fmt.add_argument("--out", dest="out_path", metavar="PATH",
                     help="write to file instead of stdout")
    fmt.add_argument("--format", choices=("plain", "markdown"),
                     dest="output_format", help="output flavor (default plain)")
    fmt.add_argument("--max-authors", type=int, dest="max_authors", metavar="N",
                     help="authors listed before 'et al.' (default 6)")
    fmt.add_argument("--etal-text", dest="etal_text", metavar="TEXT",
                     help="text used for truncated author lists")
    fmt.add_argument("--strict", action="store_true",
                     help="treat warnings as failures")

    chk = sub.add_parser("check", help="lint a database and dry-run the renderer",
                         **quiet)
    chk.add_argument("--bib", nargs="+", action="extend", dest="bib_paths",
                     metavar="PATH")
    chk.add_argument("--strict", action="store_true")

    scn = sub.add_parser("scan", help="list cited keys in citation order", **quiet)
    scn.add_argument("--tex", required=True, dest="tex_path", metavar="PATH")
    scn.add_argument("--out", dest="out_path", metavar="PATH")
    scn.add_argument("--strict", action="store_true")
    return parser


_COMMANDS = {
    "format": cmd_format,
    "check": cmd_check,
    "scan": cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    command = _COMMANDS[options.pop("command")]
    config = RunConfig(**options)
    try:
        config.style()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    return command(config)


if __name__ == "__main__":
    sys.exit(main())
