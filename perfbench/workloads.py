"""Seeded workload generator and independent reference for the benchmark.

Every workload is built from the sample corpus in ``tests/data``: the
48 database entries of ``vancouver.bib``, the manuscript that cites them
and the frozen reference list ``expected_refs.txt``.  The generator only
renames keys, reorders entries, writes citations and injects defects, so
the expected output of a format run is known without running vanref: it is
``N. `` plus the frozen line of the entry's base entry, numbered in the
order the generator itself wrote the citations.

The same ``(name, seed, scale)`` always yields byte-identical files.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

WORKLOADS = ("cite-shared-db", "thesis-all-cited", "check-dirty")

_ENTRY_RE = re.compile(r"^@(\w+)\{([^,\s]+),\n(.*?)^\}\n", re.M | re.S)
_STRING_RE = re.compile(r"^@string\{.*\}$", re.M)
_CITE_RE = re.compile(r"\\cite\s*\{([^{}]*)\}")

# Prose filler.  No word contains '%', '@', '\\' or braces, so the only
# citations and comments in a manuscript are the ones written on purpose.
_WORDS = (
    "the patients were randomized to treatment or placebo and followed for "
    "twelve months while outcomes such as mortality readmission and quality "
    "of life were recorded by blinded assessors in each participating centre "
    "we observed a modest reduction in risk although confidence intervals "
    "remained wide and heterogeneity between trials was substantial previous "
    "cohort studies reported similar associations after adjustment for age "
    "sex smoking status body mass index and baseline renal function these "
    "findings support current guidance but further work is needed to clarify "
    "mechanisms dose response and long term safety in older adults"
).split()


@dataclass(frozen=True)
class Corpus:
    """The sample database split into entries, with each entry's frozen line."""

    header: str                      # the @string definitions
    bases: tuple[str, ...]           # base keys, in manuscript citation order
    entries: dict[str, tuple[str, str]]  # base key -> (entry type, body)
    expected: dict[str, str]         # base key -> frozen reference line


def manuscript_keys(tex: str) -> list[str]:
    """Cited keys in first-appearance order, ignoring ``%`` comments."""
    lines = [re.sub(r"(?<!\\)%.*", "", line) for line in tex.split("\n")]
    keys: list[str] = []
    for group in _CITE_RE.findall("\n".join(lines)):
        for key in (k.strip() for k in group.split(",")):
            if key and key not in keys:
                keys.append(key)
    return keys


def load_corpus(data: Path = DATA) -> Corpus:
    bib = (data / "vancouver.bib").read_text(encoding="utf-8")
    tex = (data / "manuscript.tex").read_text(encoding="utf-8")
    frozen = (data / "expected_refs.txt").read_text(encoding="utf-8").splitlines()
    entries = {key: (kind, body) for kind, key, body in _ENTRY_RE.findall(bib)}
    order = manuscript_keys(tex)
    if sorted(order) != sorted(entries) or len(order) != len(frozen):
        raise ValueError("sample corpus: manuscript, database and expected "
                         "list do not match")
    header = "\n".join(_STRING_RE.findall(bib)) + "\n"
    return Corpus(header, tuple(order), entries, dict(zip(order, frozen)))


@dataclass
class Workload:
    """Generated input files, the argv to run and the expected outcome."""

    name: str
    seed: int
    scale: float
    files: dict[str, str]            # file name -> content
    argv: list[str]                  # vanref arguments, file names relative
    exit_code: int
    expected_stdout: str | None = None   # format workloads: exact stdout
    checked: int | None = None           # check workload: 'checked N entries'
    injected: dict[str, int] = field(default_factory=dict)  # code -> count
    sizes: dict[str, int] = field(default_factory=dict)

    def write(self, directory: Path) -> list[str]:
        """Write the files into ``directory``; return argv with full paths."""
        for name, content in self.files.items():
            (directory / name).write_text(content, encoding="utf-8",
                                          newline="\n")
        return [str(directory / a) if a in self.files else a for a in self.argv]


def _rng(name: str, seed: int, scale: float) -> random.Random:
    # str seeds hash with SHA-512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}:{scale}")


def _entry(corpus: Corpus, key: str, base: str, inject: str = "") -> str:
    kind, body = corpus.entries[base]
    return f"@{kind}{{{key},\n{inject}{body}}}\n"


def _renamed(corpus: Corpus, count: int) -> list[tuple[str, str]]:
    """``count`` (key, base) pairs cycling through the corpus."""
    bases = corpus.bases
    return [(f"{bases[i % len(bases)]}+{i}", bases[i % len(bases)])
            for i in range(count)]


def _strata(rng: random.Random, count: int, length: int) -> list[float]:
    """``count`` positions in ``[0, length)``, one in each equal stretch."""
    return [(j + rng.random()) * length / count for j in range(count)]


def _sentence(rng: random.Random, lo: int, hi: int) -> str:
    words = rng.choices(_WORDS, k=rng.randint(lo, hi))
    return " ".join(words).capitalize()


def _group(rng: random.Random, keys: list[str]) -> str:
    return "\\cite{" + rng.choice((",", ", ")).join(keys) + "}"


def _manuscript(rng: random.Random, cites: list[str], ghost_prefix: str,
                group_sizes: tuple[int, ...], words: tuple[int, int],
                comment_every: int, doc_class: str) -> tuple[str, list[str]]:
    """Prose citing ``cites`` in order, plus cites hidden in comments.

    Returns the text and the keys in first-appearance order among the
    citations outside comments.  Comments cite keys that are not cited yet
    and keys that are not in the database, so a scanner that read comments
    would number differently or report missing keys.
    """
    lines = [f"% Generated manuscript ({doc_class}); cites in comments "
             "do not count: \\cite{" + ghost_prefix + "0}",
             f"\\documentclass{{{doc_class}}}", "\\begin{document}", ""]
    order: list[str] = []
    seen: set[str] = set()
    i = 0
    sentence_no = 0
    while i < len(cites):
        size = rng.choice(group_sizes)
        group = cites[i:i + size]
        i += size
        for key in group:
            if key not in seen:
                seen.add(key)
                order.append(key)
        sentence_no += 1
        text = f"{_sentence(rng, *words)}~{_group(rng, group)}."
        if sentence_no % comment_every == 0:
            later = cites[rng.randrange(i, len(cites))] if i < len(cites) \
                else group[0]
            hidden = rng.choice((later, f"{ghost_prefix}{sentence_no}"))
            if rng.random() < 0.5:
                text += f" % revisit \\cite{{{hidden}}}"
            else:
                lines.append(f"%\\cite{{{hidden}}} {_sentence(rng, 4, 8)}")
        lines.append(text)
        if sentence_no % 8 == 0:
            lines.append("")
    lines += ["", "\\end{document}", ""]
    return "\n".join(lines), order


def _format_workload(corpus: Corpus, rng: random.Random, name: str, seed: int,
                     scale: float, title: str, files: tuple[str, str],
                     pairs: list[tuple[str, str]], cites: list[str],
                     **manuscript) -> Workload:
    """A database of ``pairs`` and a manuscript citing ``cites`` in order."""
    bib_name, tex_name = files
    # comments only in the header, as in exported databases
    bib = (f"% {title}\n\n" + corpus.header + "\n"
           + "\n".join(_entry(corpus, k, b) for k, b in pairs))
    tex, order = _manuscript(rng, cites, **manuscript)
    base_of = dict(pairs)
    return Workload(
        name, seed, scale, {bib_name: bib, tex_name: tex},
        ["format", "--bib", bib_name, "--tex", tex_name], 0,
        expected_stdout="".join(f"{n}. {corpus.expected[base_of[key]]}\n"
                                for n, key in enumerate(order, start=1)),
        sizes={"entries": len(pairs), "cited_keys": len(order),
               "cites": len(cites), "bib_bytes": len(bib.encode()),
               "tex_bytes": len(tex.encode())})


def cite_shared_db(corpus: Corpus, seed: int, scale: float = 1.0) -> Workload:
    """A ~10k-entry shared lab database and an article citing ~250 of it."""
    name = "cite-shared-db"
    rng = _rng(name, seed, scale)
    pairs = _renamed(corpus, max(1, round(10_000 * scale)))
    rng.shuffle(pairs)
    cited = rng.sample([k for k, _ in pairs], max(1, round(250 * scale)))
    cites = [k for k in cited for _ in range(rng.randint(1, 3))]
    # first appearances in ``cited`` order, repeats after them
    firsts = list(dict.fromkeys(cites))
    repeats = cites[len(firsts):]
    rng.shuffle(repeats)
    return _format_workload(
        corpus, rng, name, seed, scale, "Lab reference database, exported.",
        ("lab.bib", "paper.tex"), pairs, firsts + repeats,
        ghost_prefix="draft:", group_sizes=(1, 1, 1, 2, 2, 3), words=(15, 45),
        comment_every=9, doc_class="article")


def thesis_all_cited(corpus: Corpus, seed: int, scale: float = 1.0) -> Workload:
    """A ~2.4k-entry thesis database, every entry cited ~9 times."""
    name = "thesis-all-cited"
    rng = _rng(name, seed, scale)
    pairs = _renamed(corpus, max(1, round(2_400 * scale)))
    rng.shuffle(pairs)
    cites = [k for k, _ in pairs for _ in range(rng.randint(6, 12))]
    rng.shuffle(cites)
    return _format_workload(
        corpus, rng, name, seed, scale, "Thesis bibliography.",
        ("thesis.bib", "thesis.tex"), pairs, cites,
        ghost_prefix="todo:", group_sizes=(1, 2, 2, 3, 4), words=(15, 45),
        comment_every=25, doc_class="book")


def check_dirty(corpus: Corpus, seed: int, scale: float = 1.0) -> Workload:
    """A ~4.8k-entry merged database with seeded, positioned defects."""
    name = "check-dirty"
    rng = _rng(name, seed, scale)
    total = max(4, round(4_800 * scale))
    malformed = max(1, round(5 * scale))
    duplicates = round(900 * scale)
    unique = total - malformed - duplicates
    pairs = _renamed(corpus, unique)
    rng.shuffle(pairs)
    # Defects are spread evenly, each at a random place in its own stretch:
    # diagnostics cost more the later they sit, so clustering them would
    # make the cost depend on the seed.
    placed = [(i + 0.5, pair) for i, pair in enumerate(pairs)]
    # a duplicate repeats an existing key with another entry's body
    placed += [(at, (rng.choice(pairs)[0], rng.choice(corpus.bases)))
               for at in _strata(rng, duplicates, unique)]
    blocks = [pair for _, pair in sorted(placed, key=lambda p: p[0])]
    inject = [""] * len(blocks)
    dup_fields = round(300 * scale)
    undefined = round(300 * scale)
    for at in _strata(rng, dup_fields, len(blocks)):
        inject[int(at)] += "  note = {merged from lab},\n  note = {merged again},\n"
    for n, at in enumerate(_strata(rng, undefined, len(blocks))):
        inject[int(at)] += f"  language = xundef{n},\n"
    texts = [_entry(corpus, k, b, s) for (k, b), s in zip(blocks, inject)]
    for n, at in enumerate(_strata(rng, malformed, len(texts))):
        # a field without '=': the parser skips the entry and resumes
        kind, body = corpus.entries[rng.choice(corpus.bases)]
        texts.insert(int(at) + n,
                     f"@{kind}{{broken+{n},\n{body.replace('=', '', 1)}}}\n")
    comment_lines = round(20_000 * scale)
    run = "".join(f"% {_sentence(rng, 3, 10)}\n" for _ in range(comment_lines))
    # a fixed place: every diagnostic after the run is reported at a larger
    # offset, so a random place would make the cost depend on the seed
    texts.insert(len(texts) // 2, run)
    bib = ("% Merged database: lab export plus collaborators' files.\n\n"
           + corpus.header + "\n" + "\n".join(texts))
    return Workload(
        name, seed, scale, {"merged.bib": bib}, ["check", "--bib", "merged.bib"],
        1, checked=unique,
        injected={"duplicate-key": duplicates, "duplicate-field": dup_fields,
                  "undefined-macro": undefined, "malformed-entry": malformed},
        sizes={"entries": total, "unique_entries": unique,
               "comment_lines": comment_lines, "bib_bytes": len(bib.encode())})


GENERATORS = {
    "cite-shared-db": cite_shared_db,
    "thesis-all-cited": thesis_all_cited,
    "check-dirty": check_dirty,
}


def generate(name: str, seed: int, scale: float = 1.0,
             corpus: Corpus | None = None) -> Workload:
    return GENERATORS[name](corpus or load_corpus(), seed, scale)


_CODE_RE = re.compile(r"\[([a-z-]+)\]$", re.M)
_CHECKED_RE = re.compile(r"^checked (\d+) entries: \d+ errors, \d+ warnings\n$")


def verify(workload: Workload, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one run's outcome; empty when it is correct."""
    problems = []
    if code != workload.exit_code:
        problems.append(f"exit code {code}, expected {workload.exit_code}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if workload.expected_stdout is not None:
        if stdout != workload.expected_stdout:
            got, want = stdout.splitlines(), workload.expected_stdout.splitlines()
            first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
            problems.append(f"stdout differs from the reference at line "
                            f"{first + 1} ({len(got)} lines, {len(want)} expected)")
    else:
        m = _CHECKED_RE.match(stdout)
        if m is None or int(m.group(1)) != workload.checked:
            problems.append(f"stdout {stdout[:80]!r}, expected "
                            f"'checked {workload.checked} entries: ...'")
        counts: dict[str, int] = {}
        for found in _CODE_RE.findall(stderr):
            counts[found] = counts.get(found, 0) + 1
        for found, want in workload.injected.items():
            if counts.get(found, 0) < want:
                problems.append(f"{counts.get(found, 0)} [{found}] diagnostics, "
                                f"{want} injected")
    return problems
