"""Seeded mutations of the documents the CLI reads and writes.

Each case mutates one document, runs one verb through ``cli.main`` and holds
it to the exit contract: exit 0 with nothing on stderr, or exit 1 (config
error) or 2 (i/o error) with exactly one stderr line.  No exception may leave
``main``.  The seeds and counts are fixed, so every run makes the same cases.

The documents: the mini manifest under ``run`` and ``ingest``, a run config
under ``run``, an endpoint config under ``generate`` (with a fake transport
that fails the case if it is called for a config the gate expects to be
refused), one stored report under ``score`` and ``diff``, one scorecard file
under ``report``, and each external detector sample under ``import-reports``
(DesigniteJava with and without ``--source``).

Mutation families, on a parsed document:
  * ``value``: one value (anywhere in the tree) replaced by one from VALUES;
  * ``drop``: one object key or list item removed;
  * ``extra``: one object gains a key, or one list repeats an item;
and on the document's text:
  * ``bytes``: one to three bytes or short runs from BYTES inserted,
    overwritten or cut, or the text truncated.  The external samples, which
    are XML or CSV, not JSON, take only this family, with MARKUP added to
    the pieces.  The XML samples also take
  * ``attribute``: one attribute value, in the text, replaced by one from
    ATTRIBUTE_VALUES.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from smellscore import llm_gateway
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
# Attribute values, as they stand between the quotes of the XML text.
ATTRIBUTE_VALUES = (
    "", " ", "0", "-1", "1", "2", "7", "1.5", "1e3", "0x10", " 3 ", "+4", "1_0", "\u0663", "18446744073709551616",
    "x", "NaN", "Subject.java", "Other.java", "../up", "a/b", "&amp;", "&lt;", "&quot;", "&#10;", "&#0;",
    "&#xD800;", "&bogus;", "\u00e9", "\U0001f600", "UnusedLocalVariable", "EmptyCatchBlock",
    "com.puppycrawl.tools.checkstyle.checks.coding.MagicNumberCheck", "Check",
)
_ATTRIBUTE = re.compile(rb'(\s[\w:.-]+=)"([^"]*)"')


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


def mutate_attribute(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """``data``, an XML text, with one attribute value replaced."""
    found = rng.choice(list(_ATTRIBUTE.finditer(data)))
    value = rng.choice(ATTRIBUTE_VALUES)
    what = f"{found.group(1).decode().strip()} := {value!r}"
    return data[:found.start(2)] + value.encode("utf-8") + data[found.end(2):], what


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


@pytest.mark.parametrize("fmt, sample, seed", [
    ("pmd_xml", "sample_pmd.xml", 1711),
    ("checkstyle_xml", "sample_checkstyle.xml", 1712),
], ids=["pmd", "checkstyle"])
def test_external_report_attributes_under_import_reports(tmp_path, capsys, fmt, sample, seed):
    original = (EXTERNAL / sample).read_bytes()
    report = tmp_path / sample
    argv = ["import-reports", "--format", fmt, "--in", str(report), "--out", str(tmp_path / "out"),
            "--subject", "T01:imported"]
    gate = Gate(capsys)
    for i, _, rng in gate.cases(seed, count=100):
        data, what = mutate_attribute(original, rng)
        report.write_bytes(data)
        gate.call(argv, f"{sample} case {i} (attribute: {what})")
    gate.check(0, 1)


ENDPOINT_KEYS = {"url": (str,), "api_key_env": (str, type(None)), "request_template": (dict,),
                 "response_path": (str,), "delay_seconds": (int, float)}
REPLY = json.dumps({"choices": [{"text": "```java\nclass A {}\n```"}]})


def _refused(data: bytes) -> bool:
    """Whether README's endpoint config contract refuses the document: it is
    no UTF-8 JSON object with a string url, or it holds another key, a value
    of another type (exactly; true is no number), or a delay that is not
    from 0 to a day."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError:
        return True
    if not isinstance(doc, dict) or "url" not in doc:
        return True
    if any(key not in ENDPOINT_KEYS or type(value) not in ENDPOINT_KEYS[key] for key, value in doc.items()):
        return True
    return not 0 <= doc.get("delay_seconds", 0) <= 86400


def test_endpoint_config_under_generate(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    manifest = corpus / "corpus.json"
    tasks = json.loads(manifest.read_bytes())["tasks"]
    manifest_text = json.dumps({"tasks": tasks[:2]}).encode("utf-8")  # two requests per accepted config
    config = tmp_path / "endpoint.json"
    original = json.dumps({
        "url": "http://127.0.0.1:1/v1", "api_key_env": "SMELLSCORE_GATE_KEY",
        "request_template": {"model": "{model}", "messages": [{"role": "user", "content": "{prompt}"}], "n": 1},
        "response_path": "choices.0.text", "delay_seconds": 0,
    }).encode("utf-8")
    gate = Gate(capsys)
    refused = False
    slept: list[float] = []

    def transport(url, payload, headers, timeout):
        if refused:
            gate.problems.append(f"{current}: a request for a config that should be refused")
        return REPLY

    def sleep(seconds):
        if not (isinstance(seconds, (int, float)) and 0 <= seconds <= 86400):  # false for NaN and infinities
            gate.problems.append(f"{current}: sleep({seconds!r})")
        slept.append(seconds)

    monkeypatch.setattr(llm_gateway, "_http_post", transport)
    monkeypatch.setattr(llm_gateway.time, "sleep", sleep)
    argv = ["generate", "--corpus", str(corpus), "--model", "gen", "--endpoint-config", str(config)]
    config.write_bytes(original)
    manifest.write_bytes(manifest_text)
    current = "original"
    assert main(argv) == 0
    for i, family, rng in gate.cases(seed=1713, count=100):
        data, what = mutate(original, family, rng)
        config.write_bytes(data)
        manifest.write_bytes(manifest_text)
        shutil.rmtree(corpus / "solutions" / "gen", ignore_errors=True)
        refused, current = _refused(data), f"endpoint case {i} ({family}: {what})"
        gate.call(argv, current)
    gate.check(0, 1)
    assert slept  # some configs kept a delay, and generate waited it out
