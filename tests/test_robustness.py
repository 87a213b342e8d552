"""Seeded mutations of the documents the CLI reads and writes.

Each case mutates one document, runs one verb through ``cli.main`` and holds
it to the exit contract: exit 0 with nothing on stderr, or exit 1 (config
error) or 2 (i/o error) with exactly one stderr line.  No exception may leave
``main``.  The seeds and counts are fixed, so every run makes the same cases.

The documents: the mini manifest under ``run`` and ``ingest``, a run config
under ``run``, one stored report under ``score`` and ``diff``, one
scorecard file under ``report``, and each external detector sample under
``import-reports`` (DesigniteJava with and without ``--source``).

Mutation families, on a parsed document:
  * ``value``: one value (anywhere in the tree) replaced by one from VALUES;
  * ``drop``: one object key or list item removed;
  * ``extra``: one object gains a key, or one list repeats an item;
and on the document's text:
  * ``bytes``: one to three bytes or short runs from BYTES inserted,
    overwritten or cut, or the text truncated.  The external samples, which
    are XML or CSV, not JSON, take only this family, with MARKUP added to
    the pieces.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from smellscore.cli import main
from smellscore.rules.model import ALL_TYPES

MINI = Path(__file__).parent / "data" / "mini_corpus"
EXTERNAL = Path(__file__).parent / "data" / "external"

VALUES = (
    None, True, False, 0, -1, 1, 2, 3, 2**64, 1.0, 1.5, -0.0, float("nan"), float("inf"),
    "", "x", "all", "m1", "T01", "baseline", "\u0000", "a\u001fb", "a\nb", "\u007f", "é", "😀", "\ud800",
    "../up", "a/b", "a\\b", "1/0", "1/3", "-1/2", "topic/Array", "solutions/m1/T01.java",
    [], {}, [1], ["x"], [[1]], {"x": 1}, {"float": 0.5, "fraction": "1/2"},
)
BYTES = (b"\r", b"\r\n", b"\n", b"\x00", b"\xff", b"\xc3", b"\xe2\x82", b'"', b"\\", b",", b":",
         b"{", b"}", b"[", b"]", b"0", b"-", b"e9", b"null", b"NaN", b"\xef\xbb\xbf")
MARKUP = (b"<", b">", b"</", b"/>", b"=", b"&", b"'", b"<!--", b"]]>")
FAMILIES = ("value", "drop", "extra", "bytes")


def _slots(doc) -> list[tuple[object, object]]:
    """Every (container, key or index) in the document."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, value in items:
            slots.append((node, key))
            stack.append(value)
    return slots


def _containers(doc) -> list[object]:
    return [doc] + [c[k] for c, k in _slots(doc) if isinstance(c[k], (dict, list))]


def mutate(data: bytes, family: str, rng: random.Random, pieces: tuple[bytes, ...] = BYTES) -> tuple[bytes, str]:
    """One mutation of ``data``, a JSON document unless the family is
    ``bytes``, and what it did; that family draws its pieces from ``pieces``."""
    if family == "bytes":
        out = bytearray(data)
        steps = []
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(out) + 1)
            op = rng.choice(("insert", "overwrite", "cut", "truncate"))
            piece = rng.choice(pieces)
            if op == "insert":
                out[at:at] = piece
            elif op == "overwrite":
                out[at:at + len(piece)] = piece
            elif op == "cut":
                del out[at:at + rng.randint(1, 8)]
            else:
                del out[at:]
            steps.append(f"{op} {piece!r} at {at}")
        return bytes(out), "; ".join(steps)
    doc = json.loads(data)
    if family == "value":
        container, key = rng.choice(_slots(doc))
        container[key] = rng.choice(VALUES)
        what = f"{key!r} := {container[key]!r}"
    elif family == "drop":
        container, key = rng.choice(_slots(doc))
        del container[key]
        what = f"drop {key!r}"
    else:
        container = rng.choice(_containers(doc))
        if isinstance(container, dict):
            key = rng.choice(("unknown", "correct", "topic", "float", "1"))
            container.setdefault(key, rng.choice(VALUES))
            what = f"add {key!r}"
        elif container:
            container.append(rng.choice(container))
            what = "repeat a list item"
        else:
            container.append(rng.choice(VALUES))
            what = f"append {container[-1]!r}"
    return json.dumps(doc, ensure_ascii=rng.random() < 0.5).encode("utf-8", "surrogatepass"), what


class Gate:
    """Runs the cases of one document and collects every broken contract."""

    def __init__(self, capsys):
        self.capsys = capsys
        self.problems: list[str] = []
        self.exits: dict[int, int] = {}

    def cases(self, seed: int, count: int):
        rng = random.Random(seed)
        for i in range(count):
            yield i, FAMILIES[i % len(FAMILIES)], rng

    def call(self, argv: list[str], what: str) -> None:
        self.capsys.readouterr()
        try:
            code = main(argv)
        except Exception as e:  # any escape is what the gate records
            self.problems.append(f"{what}: {type(e).__name__}: {e}")
            return
        err = self.capsys.readouterr().err
        self.exits[code] = self.exits.get(code, 0) + 1
        lines = err.splitlines()
        if code == 0 and err:
            self.problems.append(f"{what}: exit 0 with stderr {err!r}")
        elif code in (1, 2) and (len(lines) != 1 or not err.endswith("\n")):
            self.problems.append(f"{what}: exit {code} with {len(lines)} stderr lines: {err!r}")
        elif code not in (0, 1, 2):
            self.problems.append(f"{what}: exit {code}")

    def check(self, *expected_exits: int) -> None:
        assert not self.problems, "\n".join(self.problems)
        assert set(self.exits) >= set(expected_exits), self.exits


SCENARIOS = ["--scenario", "all", "--scenario", "topic", "--scenario", "complexity:cyclomatic",
             "--scenario", "correctness:m1"]


def test_manifest_under_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    manifest = corpus / "corpus.json"
    original = manifest.read_bytes()
    assert main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "out"), *SCENARIOS]) == 0
    gate = Gate(capsys)
    for i, family, rng in gate.cases(seed=1701, count=100):
        data, what = mutate(original, family, rng)
        manifest.write_bytes(data)
        gate.call(["run", "--corpus", str(corpus), "--out", str(tmp_path / f"out{i}"), *SCENARIOS],
                  f"manifest case {i} ({family}: {what})")
    gate.check(0, 1)


def test_manifest_under_ingest(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    manifest = corpus / "corpus.json"
    original = manifest.read_bytes()
    assert main(["ingest", "--corpus", str(corpus)]) == 0
    gate = Gate(capsys)
    for i, family, rng in gate.cases(seed=1705, count=100):
        data, what = mutate(original, family, rng)
        manifest.write_bytes(data)
        gate.call(["ingest", "--corpus", str(corpus)], f"manifest case {i} ({family}: {what})")
    gate.check(0, 1)


def test_run_config_under_run(tmp_path, capsys, monkeypatch):
    # A mutated "out" may name any relative path: keep it inside tmp_path.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    def config_text(out: Path) -> bytes:
        return json.dumps({
            "corpus": str(MINI), "out": str(out),
            "subjects": ["baseline", "m1", "m2"],
            "scenarios": ["all", "topic", "correctness:m2"],
            "rulesets": ["all", "design", "type:magic-number"],
            "thresholds": {"line-length": {"max_line_length": 90}, "magic-number": {"ignore_numbers": [0, 1]},
                           "method-name": {"pattern": "^[a-z][a-zA-Z0-9]*$"}},
        }).encode("utf-8")

    config = tmp_path / "run.json"
    config.write_bytes(config_text(tmp_path / "out"))
    assert main(["run", "--config", str(config)]) == 0
    gate = Gate(capsys)
    for i, family, rng in gate.cases(seed=1702, count=60):
        data, what = mutate(config_text(tmp_path / f"out{i}"), family, rng)
        config.write_bytes(data)
        gate.call(["run", "--config", str(config)], f"config case {i} ({family}: {what})")
    gate.check(0, 1)


@pytest.fixture(scope="module")
def scored_tree(tmp_path_factory) -> Path:
    """A run of the mini corpus whose scores feed every heat map."""
    out = tmp_path_factory.mktemp("scored") / "out"
    rulesets = [arg for t in ALL_TYPES for arg in ("--ruleset", f"type:{t}")]
    assert main(["run", "--corpus", str(MINI), "--out", str(out), "--scenario", "topic",
                 "--scenario", "all", "--ruleset", "all", *rulesets]) == 0
    return out


def _mutate_one_file(gate: Gate, files: list[Path], seed: int, count: int, argv: list[str], name: str) -> None:
    assert main(argv) == 0
    for i, family, rng in gate.cases(seed, count):
        target = rng.choice(files)
        original = target.read_bytes()
        data, what = mutate(original, family, rng)
        target.write_bytes(data)
        try:
            gate.call(argv, f"{name} case {i} ({target.name}, {family}: {what})")
        finally:
            target.write_bytes(original)


def test_stored_report_under_score(scored_tree, capsys):
    reports = sorted(p for p in (scored_tree / "reports").rglob("*.json") if p.name != "_failures.json")
    gate = Gate(capsys)
    _mutate_one_file(gate, reports, seed=1703, count=80,
                     argv=["score", "--corpus", str(MINI), "--out", str(scored_tree), *SCENARIOS],
                     name="report")
    gate.check(1)  # a report's counts must agree with its violations, so nearly every mutation is refused


def test_stored_report_under_diff(scored_tree, tmp_path, capsys):
    """One side of ``diff`` is a mutated report, the other its original."""
    reports = sorted(p for p in (scored_tree / "reports").rglob("*.json") if p.name != "_failures.json")
    mutated, kept = tmp_path / "mutated.json", tmp_path / "kept.json"
    gate = Gate(capsys)
    for i, family, rng in gate.cases(seed=1706, count=80):
        target = rng.choice(reports)
        original = target.read_bytes()
        data, what = mutate(original, family, rng)
        mutated.write_bytes(data)
        kept.write_bytes(original)
        sides = [str(mutated), str(kept)] if i % 2 else [str(kept), str(mutated)]
        gate.call(["diff", "--native", sides[0], "--imported", sides[1]],
                  f"diff case {i} ({target.name}, {family}: {what})")
    gate.check(0, 1)


def test_scorecard_file_under_report(scored_tree, capsys):
    cards = [scored_tree / "scores" / "topic" / "all.json",
             *(scored_tree / "scores" / "all" / f"type-{t}.json" for t in ALL_TYPES)]
    gate = Gate(capsys)
    _mutate_one_file(gate, cards, seed=1704, count=80,
                     argv=["report", "--corpus", str(MINI), "--out", str(scored_tree)], name="scorecard")
    gate.check(1)  # a card's fields must agree, so nearly every mutation is refused


@pytest.mark.parametrize("fmt, sample, source, seed", [
    ("pmd_xml", "sample_pmd.xml", False, 1707),
    ("checkstyle_xml", "sample_checkstyle.xml", False, 1708),
    ("designite_csv", "sample_designite.csv", False, 1709),
    ("designite_csv", "sample_designite.csv", True, 1710),
], ids=["pmd", "checkstyle", "designite", "designite-with-source"])
def test_external_report_under_import_reports(tmp_path, capsys, fmt, sample, source, seed):
    original = (EXTERNAL / sample).read_bytes()
    report = tmp_path / sample
    argv = ["import-reports", "--format", fmt, "--in", str(report), "--out", str(tmp_path / "out"),
            "--subject", "T01:imported", *(["--source", str(EXTERNAL / "Subject.java")] if source else [])]
    report.write_bytes(original)
    assert main(argv) == 0
    gate = Gate(capsys)
    for i, _, rng in gate.cases(seed, count=100):
        data, what = mutate(original, "bytes", rng, BYTES + MARKUP)
        report.write_bytes(data)
        gate.call(argv, f"{sample} case {i} (bytes: {what})")
    gate.check(0, 1)
