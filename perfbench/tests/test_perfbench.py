"""Tests of the benchmark itself.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import smellscore.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RULE_IDS = run.rule_ids(SPEC)


def cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert smellscore.cli.main(list(argv)) == 0


@pytest.mark.parametrize("make", [
    lambda root, seed: workloads.replicated_corpus(root, seed, 3),
    lambda root, seed: workloads.long_corpus(root, seed),
])
def test_same_seed_gives_byte_identical_corpus(tmp_path, make):
    make(tmp_path / "a", 7)
    make(tmp_path / "b", 7)
    make(tmp_path / "c", 8)
    first = oracle.tree_digest(tmp_path / "a")
    assert first == oracle.tree_digest(tmp_path / "b")
    assert first != oracle.tree_digest(tmp_path / "c")


def test_other_seed_keeps_the_amount_of_work(tmp_path):
    a = workloads.long_corpus(tmp_path / "a", 1)
    b = workloads.long_corpus(tmp_path / "b", 2)
    assert (a.files, a.lines, a.planted) == (b.files, b.lines, b.planted)


def test_planted_counts_hold(tmp_path):
    corpus = workloads.long_corpus(tmp_path / "corpus", 3, sizes=(1, 2))
    cli("run", "--corpus", str(corpus.root), "--out", str(tmp_path / "out"))
    assert oracle.check_planted(tmp_path / "out", corpus.planted) == []
    assert sum(c["line-length"] for c in corpus.planted.values()) == 6


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    corpus = workloads.replicated_corpus(base / "corpus", 5, 2)
    out = base / "out"
    cli("run", "--corpus", str(corpus.root), "--out", str(out),
        *run.flags("scenario", run.RUN_SCENARIOS), *run.flags("ruleset", run.RUN_RULESETS))
    return corpus, out


def test_oracle_accepts_the_program_output(small_run):
    corpus, out = small_run
    assert oracle.check_replicated_reports(out, corpus.origin) == []
    assert oracle.check_vs_oracle(out, 2) == []
    assert oracle.check_derived_cards(out, corpus.origin, run.RUN_SCENARIOS) == []
    assert oracle.check_card_identities(out) == []


def test_oracle_flags_a_report_with_one_violation_added(small_run, tmp_path):
    corpus, out = small_run
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    path = broken / "reports" / "m1" / f"{sorted(corpus.origin)[0]}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    rule = next(iter(doc["per_rule_counts"]), "magic-number")
    doc["per_rule_counts"][rule] = doc["per_rule_counts"].get(rule, 0) + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    problems = oracle.check_replicated_reports(broken, corpus.origin)
    assert len(problems) == 1 and path.stem in problems[0]


def test_oracle_flags_a_scorecard_off_by_one(small_run, tmp_path):
    corpus, out = small_run
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    path = broken / "scores" / "topic" / "design.json"
    cards = json.loads(path.read_text(encoding="utf-8"))
    cards[0]["total_violations"] += 1
    path.write_text(json.dumps(cards), encoding="utf-8")
    assert len(oracle.check_card_identities(broken)) == 1


def test_tracer_reports_a_changed_signature_as_unmeasured(monkeypatch):
    import smellscore.scoreboard

    def partition(corpus, selector, extra=None):  # one parameter more than hooked
        raise AssertionError("not called")

    monkeypatch.setattr(smellscore.scoreboard, "partition", partition)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "scoreboard.partition" in tracer.unmeasured
        assert "java_syntax.lexer.tokenize" in tracer.hooked
    finally:
        tracer.uninstall()
    assert smellscore.scoreboard.partition is partition
    values, unmeasured = spans.layer_metrics(tracer, RULE_IDS, expects=[])
    assert "scoreboard.partition_s" in unmeasured and "scoreboard.partition_s" not in values
    assert "scoreboard.score_scenario_s" not in unmeasured


def traced_run(tmp_path, *extra: str) -> tuple[spans.Tracer, dict[str, float], dict[str, str]]:
    corpus = workloads.replicated_corpus(tmp_path / "corpus", 4, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli("run", "--corpus", str(corpus.root), "--out", str(tmp_path / "out"), *extra)
    finally:
        tracer.uninstall()
    values, unmeasured = spans.layer_metrics(tracer, RULE_IDS, list(run.ANALYSIS_SPANS))
    return tracer, values, unmeasured


def test_traced_run_measures_every_layer(tmp_path):
    tracer, values, unmeasured = traced_run(tmp_path)
    assert unmeasured == {}
    assert values["smell_engine.read_s"] > 0 and values["rules.check_s"] > 0
    assert all(values[f"rules.{r}.check_s"] > 0 for r in RULE_IDS)


def test_renamed_checker_leaves_its_rule_unmeasured(tmp_path, monkeypatch):
    import smellscore.rules.implementation as impl

    monkeypatch.setattr(impl, "check_todo_comments", impl.check_todo_comment, raising=False)
    monkeypatch.delattr(impl, "check_todo_comment")
    _, values, unmeasured = traced_run(tmp_path)
    assert "rules.todo-comment.check_s" in unmeasured
    assert "rules.todo-comment.check_s" not in values
    assert values["rules.check_s"] > 0 and "rules.line-length.check_s" in values


def test_files_analyzed_in_threads_keep_their_spans_apart(tmp_path):
    tracer, values, unmeasured = traced_run(tmp_path, "--jobs", "2")
    assert tracer.off_main
    # The time between two files no longer belongs to one of them.
    assert {"smell_engine.read_s", "smell_engine.file_p50_ms", "smell_engine.file_p99_ms"} <= set(unmeasured)
    assert "smell_engine.detect_file_s" in values and "rules.check_s" in values
    by_index = tracer.spans
    files = [s for s in by_index if s.name == "smell_engine.detect_file"]
    assert len({s.trace_id for s in files}) == len(files) == 30
    for s in by_index:
        if s.name.startswith(("rules.", "java_syntax.")) and s.parent >= 0:
            ancestor = s
            while ancestor.parent >= 0 and ancestor.name != "smell_engine.detect_file":
                ancestor = by_index[ancestor.parent]
            if ancestor.name == "smell_engine.detect_file":
                assert s.trace_id == ancestor.trace_id
                assert ancestor.start <= s.start and s.end <= ancestor.end


def test_a_function_never_called_leaves_its_metrics_unmeasured():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    values, unmeasured = spans.layer_metrics(tracer, RULE_IDS, list(run.ANALYSIS_SPANS))
    assert "smell_engine.detect_file_s" in unmeasured and "rules.check_s" in unmeasured
    # score-grid does not expect the lexer: its time is a measured 0 there.
    values, unmeasured = spans.layer_metrics(tracer, RULE_IDS, list(run.GRID_SPANS))
    assert values["java_syntax.lexer.tokenize_s"] == 0 and "scoreboard.cards" in unmeasured


def test_self_time_excludes_children():
    tracer = spans.Tracer(spans=[
        spans.Span("outer", 0.0, 10.0),
        spans.Span("inner", 2.0, 5.0, parent=0),
        spans.Span("inner", 6.0, 7.0, parent=0),
    ])
    assert tracer.self_times() == [6.0, 3.0, 1.0]


def test_workload_names_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-files", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    assert printed == set(expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
