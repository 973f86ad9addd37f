"""Tests of the benchmark itself: generator, reference, gate and tracer.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
TINY = 0.01


@pytest.fixture(scope="module")
def corpus():
    return workloads.load_corpus()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(corpus, name):
    first = workloads.generate(name, 7, 0.05, corpus)
    again = workloads.generate(name, 7, 0.05, workloads.load_corpus())
    other = workloads.generate(name, 8, 0.05, corpus)
    assert first.files == again.files
    assert first.expected_stdout == again.expected_stdout
    assert first.files != other.files


def test_corpus_pairs_each_cited_key_with_its_frozen_line(corpus):
    frozen = (workloads.DATA / "expected_refs.txt").read_text(encoding="utf-8")
    assert [corpus.expected[key] for key in corpus.bases] == frozen.splitlines()
    assert corpus.bases[:2] == ("uniform", "bibliographic")


def test_one_copy_of_the_corpus_references_every_frozen_line(corpus):
    # 2 400 * 0.02 = 48 entries: each sample entry once, all cited
    wl = workloads.generate("thesis-all-cited", 3, 0.02, corpus)
    frozen = (workloads.DATA / "expected_refs.txt").read_text(encoding="utf-8")
    frozen_of = dict(zip(corpus.bases, frozen.splitlines()))
    # scanning the generated manuscript again, comments stripped, must
    # give the order the generator recorded while writing it
    keys = workloads.manuscript_keys(wl.files["thesis.tex"])
    want = [f"{n}. {frozen_of[key.rsplit('+', 1)[0]]}"
            for n, key in enumerate(keys, start=1)]
    assert wl.expected_stdout.splitlines() == want
    assert sorted(frozen_of[key.rsplit("+", 1)[0]] for key in keys) == sorted(
        frozen.splitlines())


def test_shared_database_has_no_comment_after_the_header(corpus):
    bib = workloads.generate("cite-shared-db", 1, 0.05, corpus).files["lab.bib"]
    header, _, body = bib.partition("\n\n")
    assert "%" in header and "%" not in body


def test_gate_flags_wrong_outputs(corpus):
    wl = workloads.generate("cite-shared-db", 2, TINY, corpus)
    assert workloads.verify(wl, 0, wl.expected_stdout, "") == []
    lines = wl.expected_stdout.splitlines(keepends=True)
    swapped = "".join([lines[1], lines[0], *lines[2:]])
    assert workloads.verify(wl, 0, swapped, "")
    assert workloads.verify(wl, 1, wl.expected_stdout, "")
    assert workloads.verify(wl, 0, wl.expected_stdout,
                            "Traceback (most recent call last):\n")

    dirty = workloads.generate("check-dirty", 2, TINY, corpus)
    stdout = f"checked {dirty.checked} entries: 1 errors, 9 warnings\n"
    stderr = "".join(f"x.bib:1:1: warning: m [{code}]\n" * count
                     for code, count in dirty.injected.items())
    assert workloads.verify(dirty, 1, stdout, stderr) == []
    assert workloads.verify(dirty, 1, stdout.replace("checked", "checked 1"),
                            stderr)
    assert workloads.verify(dirty, 1, stdout,
                            stderr.replace("[duplicate-key]", "[other]"))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["cli", 0.0, 10.0, -1], ["bibtex", 1.0, 4.0, 0],
                    ["diagnostics", 2.0, 3.0, 1], ["model", 5.0, 6.0, 0]]
    times = tracer.self_times()
    assert times["cli"] == 6.0
    assert times["bibtex"] == 2.0
    assert times["diagnostics"] == 1.0
    assert times["model"] == 1.0
    assert tracer.root_seconds() == 10.0


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_has_no_wrong_output(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--scale", str(TINY)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
