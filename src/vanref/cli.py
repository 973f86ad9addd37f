"""Command-line front end: ``format``, ``check`` and ``scan`` subcommands.

Reference lines go to standard output only; diagnostics go to standard
error only.  Exit codes: 0 success, 1 content errors, 2 I/O or syntax
failure.  Line endings are always ``\\n``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

from .bibtex import Database, parse_database
from .citescan import scan_citations, resolve
from .diagnostics import Diagnostic, ERROR, LineIndex, error, warning
from .model import TRUE_WORDS, normalize
from .render import TEMPLATES, RenderError, StyleConfig, render_reference

CONFIG_ENV_VAR = "VANREF_CONFIG"

EXIT_OK = 0
EXIT_CONTENT = 1
EXIT_IO = 2


@dataclass
class RunConfig:
    bib_paths: list[str] = field(default_factory=list)
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

def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


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


def _load_databases(paths: list[str], reporter: _Reporter,
                    sources: list[tuple[LineIndex, str]] | None = None
                    ) -> Database | None:
    """Parse and merge ``paths``.

    ``sources``, when given, receives each merged entry's line index and
    path.  An index holds its file's text, so only a caller that locates
    entries after loading asks for them.
    """
    merged = Database()
    seen: set[str] = set()
    for path in paths:
        try:
            text = _read_file(path)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{path}: cannot read: {exc}", file=reporter.stderr)
            return None
        # macros accumulate across files, like one long database
        db = parse_database(text, macros=merged.macros)
        source = (LineIndex(text), path)
        for diag in db.diagnostics:
            reporter.emit(diag, *source)
        merged.macros.update(db.macros)
        for entry in db.entries:
            if entry.key in seen:
                reporter.emit(warning(
                    "duplicate-key",
                    f"duplicate entry key '{entry.key}' across files",
                    entry.span[0]),
                    *source)
            else:
                seen.add(entry.key)
                merged.entries.append(entry)
                if sources is not None:
                    sources.append(source)
    return merged


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
    if not config.bib_paths:
        print("no bibliography files given", file=reporter.stderr)
        return EXIT_IO
    db = _load_databases(config.bib_paths, reporter)
    if db is None:
        return EXIT_IO
    style = config.style()

    cites: tuple[tuple[str, int], ...] = ()
    tex_lines = None
    if config.tex_path is not None:
        try:
            tex = _read_file(config.tex_path)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{config.tex_path}: cannot read: {exc}", file=reporter.stderr)
            return EXIT_IO
        tex_lines = LineIndex(tex)
        index = scan_citations(tex)
        for diag in index.diagnostics:
            reporter.emit(diag, tex_lines, config.tex_path)
        keys = index.keys
        cites = index.occurrences
    elif config.keys is not None:
        if not config.keys:
            print("no keys", file=reporter.stderr)
            return EXIT_CONTENT
        keys = config.keys
    else:
        keys = [entry.key for entry in db.entries]

    pairs, missing = resolve(keys, db.entries)
    # a missing key points at its first \cite; reversed, the first one wins
    first_cite = dict(reversed(cites)) if missing else {}
    for key in missing:
        reporter.emit(warning("missing-key", f"no database entry for '{key}'",
                              first_cite.get(key)),
                      tex_lines, config.tex_path)
    # normalize only what is printed, and all of it before rendering, so
    # every normalize diagnostic precedes every render warning
    numbered = []
    for number, entry in pairs:
        record, diags = normalize(entry)
        for diag in diags:
            reporter.emit(diag)
        numbered.append((number, record))
    lines = []
    for number, record in numbered:
        try:
            text = render_reference(record, style)
        except RenderError as exc:
            reporter.emit(warning("render", f"entry '{record.key}': {exc}"))
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
    if not config.bib_paths:
        print("no bibliography files given", file=reporter.stderr)
        return EXIT_IO
    sources: list[tuple[LineIndex, str]] = []
    db = _load_databases(config.bib_paths, reporter, sources)
    if db is None:
        return EXIT_IO
    style = config.style()
    checked = 0
    for entry, source in zip(db.entries, sources):
        record, diags = normalize(entry)
        for diag in diags:
            reporter.emit(diag)
        known = TEMPLATES[record.entry_type].fields
        for name in entry.fields:
            if name not in known:
                reporter.emit(warning(
                    "unknown-field",
                    f"entry '{entry.key}': field '{name}' not used by "
                    f"entry type '{record.entry_type.value}'",
                    entry.span[0]), *source)
        try:
            render_reference(record, style)
        except RenderError as exc:
            reporter.emit(error("render", f"entry '{entry.key}': {exc}"))
        checked += 1
    print(f"checked {checked} entries: "
          f"{reporter.errors} errors, {reporter.warnings} warnings",
          file=stdout)
    return reporter.exit_code(config.strict)


def cmd_scan(config: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    reporter = _Reporter(stderr or sys.stderr)
    if config.tex_path is None:
        print("no manuscript given", file=reporter.stderr)
        return EXIT_IO
    try:
        tex = _read_file(config.tex_path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{config.tex_path}: cannot read: {exc}", file=reporter.stderr)
        return EXIT_IO
    index = scan_citations(tex)
    tex_lines = LineIndex(tex)
    for diag in index.diagnostics:
        reporter.emit(diag, tex_lines, config.tex_path)
    lines = [f"{number} {key}" for number, key in enumerate(index.keys, start=1)]
    if not _write_lines(lines, config.out_path, stdout, reporter.stderr):
        return EXIT_IO
    return reporter.exit_code(config.strict)


# ---------------------------------------------------------------------------
# argument and config-file handling

def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = _read_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"{path}: cannot read config: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            continue
        name, _, value = line.partition("=")
        values[name.strip().lower().replace("-", "_")] = value.strip()
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    config_path = os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        file_values = _load_config_file(config_path)
        if "max_authors" in file_values:
            config.max_authors = int(file_values["max_authors"])
        if "etal_text" in file_values:
            config.etal_text = file_values["etal_text"]
        if "format" in file_values:
            config.output_format = file_values["format"]
        if "strict" in file_values:
            config.strict = file_values["strict"].lower() in TRUE_WORDS
    config.bib_paths = list(getattr(args, "bib", None) or [])
    config.tex_path = getattr(args, "tex", None)
    if getattr(args, "keys", None) is not None:
        config.keys = [k.strip() for k in args.keys.split(",") if k.strip()]
    if getattr(args, "all", False):
        config.keys = None
        config.tex_path = None
    config.out_path = getattr(args, "out", None)
    if getattr(args, "format", None):
        config.output_format = args.format
    if getattr(args, "max_authors", None) is not None:
        config.max_authors = args.max_authors
    if getattr(args, "etal_text", None) is not None:
        config.etal_text = args.etal_text
    if getattr(args, "strict", False):
        config.strict = True
    if config.max_authors < 1:
        raise ValueError("max authors must be at least 1")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanref",
        description="Build numbered Vancouver-style reference lists "
                    "from BibTeX databases.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = sub.add_parser("format", help="render a numbered reference list")
    fmt.add_argument("--bib", nargs="+", action="extend", default=[],
                     metavar="PATH", help="bibliography database(s)")
    mode = fmt.add_mutually_exclusive_group()
    mode.add_argument("--tex", metavar="PATH",
                      help="manuscript; numbering follows citation order")
    mode.add_argument("--keys", metavar="K1,K2,...",
                      help="explicit comma-separated citation keys; "
                           "a repeated key keeps its first number")
    mode.add_argument("--all", action="store_true",
                      help="render every entry in database order (default)")
    fmt.add_argument("--out", metavar="PATH", help="write to file instead of stdout")
    fmt.add_argument("--format", choices=("plain", "markdown"),
                     help="output flavor (default plain)")
    fmt.add_argument("--max-authors", type=int, dest="max_authors", metavar="N",
                     help="authors listed before 'et al.' (default 6)")
    fmt.add_argument("--etal-text", dest="etal_text", metavar="TEXT",
                     help="text used for truncated author lists")
    fmt.add_argument("--strict", action="store_true",
                     help="treat warnings as failures")

    chk = sub.add_parser("check", help="lint a database and dry-run the renderer")
    chk.add_argument("--bib", nargs="+", action="extend", default=[],
                     metavar="PATH")
    chk.add_argument("--strict", action="store_true")

    scn = sub.add_parser("scan", help="list cited keys in citation order")
    scn.add_argument("--tex", required=True, metavar="PATH")
    scn.add_argument("--out", metavar="PATH")
    scn.add_argument("--strict", action="store_true")
    return parser


_COMMANDS = {
    "format": cmd_format,
    "check": cmd_check,
    "scan": cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    return _COMMANDS[args.command](config)


if __name__ == "__main__":
    sys.exit(main())
