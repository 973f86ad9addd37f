"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they happen.
"""

import io
import random
import time

from vanref.bibtex import parse_database
from vanref.cli import RunConfig, cmd_format
from vanref.citescan import resolve, scan_citations
from vanref.model import BibRecord, ContributorList, EntryType, PersonName
from vanref.render import compress_page_range, format_contributors

from conftest import BIB_PATH, EXPECTED_PATH, TEX_PATH, serialize_database

# Reference strings read straight off the published sample list; the golden
# corpus line for each must reproduce them byte-for-byte.
SPOT_CHECKS = [
    "2002 Jul 25;347(4):284-7.",
    "Headache. 2002;42 Suppl 2:S93-9.",
    "Clin Orthop. 2002;(401):230-8.",
    "Bioethics. 2002;16(2):iii-v.",
    "Pagedas AC, inventor; Ancel Surgical R&D Inc., assignee. Flexible "
    "endoscopic grasping and cutting device and positioning tool assembly. "
    "United States patent US 20020103498. 2002 Aug 1.",
    "W.B. Saunders; 2000. Filamin; p. 675.",
    "c2000-01 [updated 2002 May 16; cited 2002 Jul 9]. "
    "Available from: http://www.cancer-pain.org/.",
]


def report(number, description, failed=0, total=None, elapsed=None):
    status = "PASS" if not failed else f"FAIL ({failed} failures)"
    detail = "" if total is None else f" [{total} cases"
    if elapsed is not None:
        detail += f", {elapsed:.2f}s"
    if detail:
        detail += "]"
    print(f"{status}: criterion {number} - {description}{detail}")
    assert not failed


def test_criterion_1_golden_corpus_byte_exact():
    started = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(bib_paths=[str(BIB_PATH)], tex_path=str(TEX_PATH))
    code = cmd_format(config, stdout=out, stderr=err)
    elapsed = time.perf_counter() - started
    expected = EXPECTED_PATH.read_text(encoding="utf-8").splitlines()
    got = out.getvalue().splitlines()
    failures = 0
    assert code == 0 and err.getvalue() == ""
    assert len(expected) == 48
    if len(got) != len(expected):
        failures += 1
    for number, (line, want) in enumerate(zip(got, expected), start=1):
        if line != f"{number}. {want}":
            failures += 1
            print(f"  line {number} differs:\n    got : {line!r}\n    want: {want!r}")
    body = out.getvalue()
    for fragment in SPOT_CHECKS:
        if fragment not in body:
            failures += 1
            print(f"  spot check missing: {fragment!r}")
    assert elapsed < 1.0, f"golden render took {elapsed:.2f}s"
    report(1, "golden corpus byte-exactness", failures, len(expected), elapsed)


def test_criterion_2_page_compression_oracle():
    started = time.perf_counter()
    strings = [str(i) for i in range(2001)]
    failures = 0
    cases = 0
    for a in range(1, 2001):
        first = strings[a]
        width = len(first)
        for b in range(a, 2001):
            last_full = strings[b]
            out = compress_page_range(first, last_full)
            cases += 1
            if "-" not in out:
                if a != b or out != first:
                    failures += 1
                continue
            head, _, suffix = out.partition("-")
            completed = (suffix if len(suffix) >= width
                         else first[:width - len(suffix)] + suffix)
            if head != first or completed != last_full:
                failures += 1
                continue
            # minimal suffix: every shorter one must fail to re-expand
            for k in range(1, len(suffix)):
                shorter = last_full[-k:]
                candidate = (shorter if k >= width
                             else first[:width - k] + shorter)
                if candidate == last_full:
                    failures += 1
                    break
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"
    report(2, "page-compression prefix oracle", failures, cases, elapsed)


def test_criterion_3_author_truncation_property():
    started = time.perf_counter()
    rng = random.Random(20020725)
    failures = 0
    cases = 10_000
    for _ in range(cases):
        n = rng.randint(1, 20)
        names = tuple(
            PersonName(family=f"Fam{rng.randrange(1000)}x{i}", given="Ann B.")
            for i in range(n))
        text = format_contributors((ContributorList(names),))
        shown = text.count("Fam")
        has_etal = "et al." in text
        if shown != min(n, 6) or has_etal != (n > 6):
            failures += 1
    report(3, "author truncation at six plus et al.", failures, cases,
           time.perf_counter() - started)


def _mutate(text: str, rng: random.Random) -> str:
    pool = "{}\"@#,=%\\ ()abcdefghijklmnopqrstuvwxyz0123456789\n"
    n = len(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        pos = rng.randrange(n) if n else 0
        if op == 0 and n:  # replace one character
            text = text[:pos] + rng.choice(pool) + text[pos + 1:]
        elif op == 1:      # insert a short burst
            burst = "".join(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            text = text[:pos] + burst + text[pos:]
        elif op == 2 and n:  # delete a slice
            end = min(n, pos + rng.randint(1, 40))
            text = text[:pos] + text[end:]
        else:              # truncate
            text = text[:pos]
        n = len(text)
    return text


def test_criterion_4_parser_fuzz_robustness():
    started = time.perf_counter()
    source = BIB_PATH.read_text(encoding="utf-8")
    rng = random.Random(336)
    failures = 0
    cases = 10_000
    for _ in range(cases):
        mutated = _mutate(source, rng)
        try:
            db = parse_database(mutated)
        except Exception as exc:  # any escape is a failed case
            failures += 1
            print(f"  parser raised {exc!r}")
            continue
        if any(d.offset is None for d in db.diagnostics):
            failures += 1
            print("  diagnostic without a position")
    report(4, "parser fuzz: no crashes, positioned rejections", failures,
           cases, time.perf_counter() - started)


def _oracle_first_occurrence(text: str) -> list[str]:
    """Independent linear scan: find \\cite{...} by string search alone."""
    # strip comments the simple way, line by line
    lines = []
    for line in text.split("\n"):
        cut = -1
        start = 0
        while True:
            idx = line.find("%", start)
            if idx == -1:
                break
            if idx == 0 or line[idx - 1] != "\\":
                cut = idx
                break
            start = idx + 1
        lines.append(line if cut == -1 else line[:cut])
    body = "\n".join(lines)
    seen: list[str] = []
    pos = 0
    while True:
        idx = body.find("\\cite{", pos)
        if idx == -1:
            return seen
        end = body.find("}", idx)
        if end == -1:
            return seen
        for piece in body[idx + 6:end].split(","):
            key = piece.strip()
            if key and key not in seen:
                seen.append(key)
        pos = end + 1


def test_criterion_5_citation_order_permutations():
    started = time.perf_counter()
    tex = TEX_PATH.read_text(encoding="utf-8")
    base_keys = list(scan_citations(tex).keys)
    assert len(base_keys) == 48
    records = [BibRecord(key=key, entry_type=EntryType.MISC) for key in base_keys]
    rng = random.Random(1997)
    failures = 0
    cases = 1_000
    for _ in range(cases):
        keys = base_keys[:]
        rng.shuffle(keys)
        manuscript = "Intro text.\n" + "\n".join(
            f"Sentence about something.\\cite{{{key}}}" for key in keys)
        index = scan_citations(manuscript)
        oracle = _oracle_first_occurrence(manuscript)
        if list(index.keys) != oracle:
            failures += 1
            continue
        pairs, _ = resolve(index.keys, records)
        if [(n, r.key) for n, r in pairs] != list(enumerate(oracle, start=1)):
            failures += 1
    report(5, "citation numbering equals first-occurrence order", failures,
           cases, time.perf_counter() - started)


def test_criterion_6_round_trip_equality():
    source = BIB_PATH.read_text(encoding="utf-8")
    first = parse_database(source)
    second = parse_database(serialize_database(first.entries))
    failures = 0
    if len(first.entries) != len(second.entries):
        failures += 1
    for a, b in zip(first.entries, second.entries):
        if (a.entry_type, a.key) != (b.entry_type, b.key) or a.fields != b.fields:
            failures += 1
            print(f"  entry {a.key} differs after round trip")
    report(6, "parse/serialize/parse field-for-field equality", failures,
           len(first.entries))
