"""CLI verbs end to end on the committed mini corpus."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from smellscore.cli import main
from smellscore.corpus import load_manifest
from smellscore.rules.model import ALL_TYPES, Violation
from smellscore.scoreboard import load_scorecards
from smellscore.smell_engine import read_report

MINI = Path(__file__).parent / "data" / "mini_corpus"
EXTERNAL = Path(__file__).parent / "data" / "external"
# JSON nested deeper than the decoder's stack allows.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def run(argv: list[str]) -> int:
    return main(argv)


class TestIngest:
    def test_prints_summary_and_exits_zero(self, capsys):
        assert run(["ingest", "--corpus", str(MINI)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tasks"] == 10
        assert doc["n_solutions"] == 20
        assert doc["per_source"]["textbook"]["n_tasks"] == 6
        assert doc["per_source"]["stackoverflow"]["n_tasks"] == 4

    def test_deeply_nested_manifest_is_config_error(self, tmp_path, capsys):
        (tmp_path / "corpus.json").write_text(DEEP_JSON, encoding="utf-8")
        assert run(["ingest", "--corpus", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {tmp_path / 'corpus.json'}: ") and err.count("\n") == 1

    def test_missing_corpus_is_config_error(self, tmp_path):
        assert run(["ingest", "--corpus", str(tmp_path / "nope")]) == 1

    def test_non_integer_complexity_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        doc["tasks"][0]["complexity"]["cyclomatic"] = "x"
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        assert run(["ingest", "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {corpus / 'corpus.json'}: $.tasks[0].complexity.cyclomatic: must be an integer or a float, got \"x\"\n"
        )

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: doc["tasks"][3].update(solution=doc["tasks"][3].pop("solutions")),
         "$.tasks[3]: unknown key 'solution'"),
        (lambda doc: doc["tasks"][3]["solutions"][0].update(corect=doc["tasks"][3]["solutions"][0].pop("correct")),
         "$.tasks[3].solutions[0]: unknown key 'corect'"),
        (lambda doc: doc["tasks"][0].update(input_lenght=doc["tasks"][0].pop("input_length")),
         "$.tasks[0]: unknown key 'input_lenght'"),
        (lambda doc: doc["tasks"][0]["complexity"].update(cyclomatc=doc["tasks"][0]["complexity"].pop("cyclomatic")),
         "$.tasks[0].complexity: unknown key 'cyclomatc'"),
        (lambda doc: doc["tasks"][0]["complexity"].update(halstead=3), "$.tasks[0].complexity: unknown key 'halstead'"),
        (lambda doc: doc.update(version=2), "$: unknown key 'version'"),
        (lambda doc: doc["tasks"][1].update(task_id=12), "$.tasks[1].task_id: must be a string, got 12"),
        (lambda doc: doc["tasks"][1].update(topic=7), "$.tasks[1].topic: must be a string, got 7"),
        (lambda doc: doc["tasks"][1]["solutions"][1].update(model_id=5), "$.tasks[1].solutions[1].model_id: must be a string, got 5"),
        (lambda doc: doc["tasks"][1].update(input_length=True), "$.tasks[1].input_length: must be an integer, got true"),
        (lambda doc: doc.update(tasks={}), "$.tasks: must be a list, got an object"),
    ], ids=["solutions-misspelled", "correct-misspelled", "input-length-misspelled", "complexity-key-misspelled",
            "complexity-extra-key", "top-level-extra-key", "int-task-id", "int-topic", "int-model-id",
            "bool-input-length", "tasks-not-a-list"])
    def test_manifest_that_does_not_fit_its_spec_is_config_error(self, tmp_path, capsys, mangle, message):
        """Before the spec, each of these loaded: a misspelled key was ignored
        and a number taken for an id."""
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        mangle(doc)
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        assert run(["ingest", "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == f"config error: {corpus / 'corpus.json'}: {message}\n"


class TestOutputIds:
    """Task and model ids name files under --out, so a path in one is a config error."""

    @pytest.mark.parametrize("field", ["task_id", "model_id"])
    def test_manifest_id_with_a_path_is_config_error(self, tmp_path, capsys, field):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        task = doc["tasks"][0]
        if field == "task_id":
            task["task_id"] = "../../../T1"
        else:
            task["solutions"][0]["model_id"] = "../../m"
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o" / "out"
        assert run(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "must be a plain name" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    @pytest.mark.parametrize("subject", ["../../../T9:x", "T9:../../x", "T9:a/b", ":x"])
    def test_import_subject_with_a_path_is_config_error(self, tmp_path, capsys, subject):
        out = tmp_path / "o" / "out"
        argv = [
            "import-reports", "--format", "checkstyle_xml", "--in", str(EXTERNAL / "sample_checkstyle.xml"),
            "--out", str(out), "--subject", subject,
        ]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("config error: --subject: ")
        assert not (tmp_path / "o").exists()

    def test_correctness_model_with_a_path_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o" / "out"
        argv = ["run", "--corpus", str(MINI), "--out", str(out), "--scenario", "correctness:/../../../x"]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("config error: model id must be a plain name")
        assert not (tmp_path / "o").exists()

    def test_generate_task_id_with_a_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        import smellscore.llm_gateway as gateway

        monkeypatch.setattr(gateway, "_http_post", lambda *args: pytest.fail("a request was made"))
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        doc["tasks"][-1]["task_id"] = "../T10"
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1"}), encoding="utf-8")
        argv = ["generate", "--corpus", str(corpus), "--model", "m3", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "config error: task id must be a plain name without '/', '\\' or '..': '../T10'\n"
        assert not (corpus / "generation.log.jsonl").exists()

    @pytest.mark.parametrize("field, name", [
        ("task_id", "T\u0000X"), ("task_id", "T\tX"), ("model_id", "m\u001f"), ("model_id", "m\u007f"),
    ], ids=["task-nul", "task-tab", "model-unit-separator", "model-del"])
    def test_manifest_id_with_a_control_character_is_config_error(self, tmp_path, capsys, field, name):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        task = doc["tasks"][0]
        if field == "task_id":
            task["task_id"] = name
        else:
            task["solutions"][0]["model_id"] = name
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o" / "out"
        assert run(["run", "--corpus", str(corpus), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"id must be a plain name without control characters: {name!r}\n")
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    @pytest.mark.parametrize("topic", ["loops\u0000x", "a\nb", "tab\there", "del\u007f"],
                             ids=["nul", "line-feed", "tab", "del"])
    def test_topic_with_a_control_character_is_config_error(self, tmp_path, capsys, topic):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        doc["tasks"][1]["topic"] = topic
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o" / "out"
        assert run(["run", "--corpus", str(corpus), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        task_id = doc["tasks"][1]["task_id"]
        assert err == f"config error: task {task_id}: topic must hold no control characters: {topic!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    @pytest.mark.parametrize("argv", [
        ["import-reports", "--format", "checkstyle_xml", "--in", str(EXTERNAL / "sample_checkstyle.xml"),
         "--subject", "T\u00009:x"],
        ["import-reports", "--format", "checkstyle_xml", "--in", str(EXTERNAL / "sample_checkstyle.xml"),
         "--subject", "T9:x\u0000"],
        ["run", "--corpus", str(MINI), "--scenario", "correctness:m\u0000"],
    ], ids=["import-task", "import-model", "correctness-model"])
    def test_cli_name_with_a_control_character_is_config_error(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path / "o" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "must be a plain name without control characters: " in err
        assert not (tmp_path / "o").exists()


class TestGenerate:
    def test_manifest_that_does_not_fit_its_spec_is_config_error(self, tmp_path, capsys, monkeypatch):
        import smellscore.llm_gateway as gateway

        monkeypatch.setattr(gateway, "_http_post", lambda *args: pytest.fail("a request was made"))
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        doc["tasks"][2]["task_id"] = 12
        (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1"}), encoding="utf-8")
        argv = ["generate", "--corpus", str(corpus), "--model", "m3", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"config error: {corpus / 'corpus.json'}: $.tasks[2].task_id: must be a string, got 12\n"
        assert not (corpus / "generation.log.jsonl").exists()

    @pytest.mark.parametrize("mangle, message", [
        (lambda tasks: tasks[4].update(source="blog"), "source must be one of"),
        (lambda tasks: tasks[6].update(task_id=tasks[5]["task_id"]), "duplicate task_id"),
        (lambda tasks: tasks[8].update(reference_path="../outside.java"), "path leaves the corpus root: ../outside.java"),
    ], ids=["unknown-source", "repeated-task-id", "reference-outside-root"])
    def test_manifest_that_ingest_rejects_is_config_error_before_any_request(
        self, tmp_path, capsys, monkeypatch, mangle, message
    ):
        import smellscore.llm_gateway as gateway

        requests = []
        monkeypatch.setattr(gateway, "_http_post", lambda *args: requests.append(args) or "{}")
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        (tmp_path / "outside.java").write_text("class Outside {}\n", encoding="utf-8")
        doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
        mangle(doc["tasks"])
        manifest = json.dumps(doc)
        (corpus / "corpus.json").write_text(manifest, encoding="utf-8")
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1"}), encoding="utf-8")
        argv = ["generate", "--corpus", str(corpus), "--model", "m3", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and err.count("\n") == 1
        assert requests == []
        assert (corpus / "corpus.json").read_text(encoding="utf-8") == manifest
        assert not (corpus / "generation.log.jsonl").exists()
        assert not (corpus / "solutions" / "m3").exists()

    def test_deeply_nested_endpoint_config_is_config_error(self, tmp_path, capsys, monkeypatch):
        import smellscore.llm_gateway as gateway

        monkeypatch.setattr(gateway, "_http_post", lambda *args: pytest.fail("a request was made"))
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(DEEP_JSON, encoding="utf-8")
        argv = ["generate", "--corpus", str(MINI), "--model", "m3", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {endpoint}: ") and err.count("\n") == 1

    def test_model_id_with_a_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        import smellscore.llm_gateway as gateway

        monkeypatch.setattr(gateway, "_http_post", lambda *args: pytest.fail("a request was made"))
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1"}), encoding="utf-8")
        argv = ["generate", "--corpus", str(corpus), "--model", "../../x", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("config error: model id must be a plain name")
        assert not (corpus / "generation.log.jsonl").exists()

    @pytest.mark.parametrize("doc, message", [
        ({}, "$: missing key 'url'"),
        ({"url": "http://127.0.0.1:1", "delay_seconds": "x"}, "$.delay_seconds: must be an integer or a float, got \"x\""),
        ({"url": 1}, "$.url: must be a string, got 1"),
        ({"url": "http://127.0.0.1:1", "request_template": "x"}, "$.request_template: must be an object, got \"x\""),
        ({"url": "http://127.0.0.1:1", "delay_seconds": True}, "$.delay_seconds: must be an integer or a float, got true"),
        ({"url": "http://127.0.0.1:1", "delay_second": 5}, "$: unknown key 'delay_second'"),
        ({"url": "http://127.0.0.1:1", "headers": {}}, "$: unknown key 'headers'"),
        ({"url": "http://127.0.0.1:1", "api_key_env": 7}, "$.api_key_env: must be a string or null, got 7"),
        ([], "$: must be an object, got a list"),
        ({"url": "http://127.0.0.1:1", "delay_seconds": -1}, "$.delay_seconds: must be from 0 to 86400, got -1"),
        ({"url": "http://127.0.0.1:1", "delay_seconds": 86400.5},
         "$.delay_seconds: must be from 0 to 86400, got 86400.5"),
        ({"url": "http://127.0.0.1:1", "delay_seconds": 2**64},
         "$.delay_seconds: must be from 0 to 86400, got 18446744073709551616"),
        ({"url": "http://127.0.0.1:1", "delay_seconds": float("inf")},
         "$.delay_seconds: must be from 0 to 86400, got Infinity"),
        ({"url": "http://127.0.0.1:1", "delay_seconds": float("nan")}, "$.delay_seconds: must be from 0 to 86400, got NaN"),
    ], ids=["no-url", "string-delay", "int-url", "string-template", "bool-delay", "misspelled-key", "unknown-key",
            "int-key-env", "not-an-object", "negative-delay", "delay-past-a-day", "huge-delay", "infinite-delay",
            "nan-delay"])
    def test_malformed_endpoint_config_is_config_error(self, tmp_path, capsys, monkeypatch, doc, message):
        import smellscore.llm_gateway as gateway

        monkeypatch.setattr(gateway, "_http_post", lambda *args: pytest.fail("a request was made"))
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["generate", "--corpus", str(corpus), "--model", "m9", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"config error: {endpoint}: {message}\n"
        assert not (corpus / "generation.log.jsonl").exists()

    def test_generate_model_with_a_control_character_is_config_error(self, tmp_path, capsys, monkeypatch):
        import smellscore.llm_gateway as gateway

        monkeypatch.setattr(gateway, "_http_post", lambda *args: pytest.fail("a request was made"))
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1"}), encoding="utf-8")
        argv = ["generate", "--corpus", str(corpus), "--model", "m\u0000", "--endpoint-config", str(endpoint)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "config error: model id must be a plain name without control characters: 'm\\x00'\n"
        assert not (corpus / "generation.log.jsonl").exists()


class TestRun:
    def test_full_pipeline_and_idempotence(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = [
            "run", "--corpus", str(MINI), "--out", str(out),
            "--scenario", "all", "--scenario", "topic",
            "--ruleset", "all", "--ruleset", "implementation", "--ruleset", "design",
        ]
        assert run(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["reports_written"] == 30
        assert first["parse_failures"] == {"m2": ["T09"]}
        assert first["recomputed"] > 0

        snapshot = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert run(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["recomputed"] == 0
        for path, data in snapshot.items():
            assert path.read_bytes() == data

    def test_scorecards_match_store(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["run", "--corpus", str(MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        cards = load_scorecards(out / "scores" / "all" / "all.json")
        by_subject = {c.subject: c for c in cards}
        reports_dir = out / "reports"
        for subject, card in by_subject.items():
            total = 0
            analyzed = 0
            for path in (reports_dir / subject).glob("*.json"):
                if path.name == "_failures.json":
                    continue
                doc = json.loads(path.read_text())
                if doc["parse_ok"]:
                    analyzed += 1
                    total += sum(doc["per_rule_counts"].values())
            assert card.total_violations == total
            assert card.n_analyzed == analyzed

    def test_config_file_mirrors_flags(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus": str(MINI),
            "out": str(out),
            "subjects": ["baseline", "m1"],
            "scenarios": ["all"],
            "rulesets": ["all"],
            "jobs": 2,
        }), encoding="utf-8")
        assert run(["run", "--config", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reports_written"] == 20  # two subjects only

    def test_reports_do_not_depend_on_where_the_corpus_lies(self, tmp_path, capsys):
        """A violation's file is its path in the manifest, not one joined to
        the corpus path as typed on the command line."""
        trees = []
        for where in ("a", "b/deeper"):
            corpus, out = tmp_path / where / "corpus", tmp_path / where / "out"
            shutil.copytree(MINI, corpus)
            assert run(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in (out / "reports").rglob("*") if p.is_file()})
        capsys.readouterr()
        assert trees[0].keys() == trees[1].keys()
        assert [str(p) for p, data in trees[0].items() if trees[1][p] != data] == []
        files = {v["file"] for v in json.loads(trees[0][Path("reports", "m1", "T01.json")])["violations"]}
        assert files == {"solutions/m1/T01.java"}

    @pytest.mark.parametrize("line_end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_reports_do_not_depend_on_the_line_ends_of_the_sources(self, tmp_path, capsys, line_end):
        """Each source is read with its line ends as they are, and CR LF, CR
        and LF each end a line, so analyze gives the reports of LF sources."""
        shutil.copytree(MINI, tmp_path / "corpus")
        for path in (tmp_path / "corpus").rglob("*.java"):
            path.write_bytes(path.read_bytes().replace(b"\n", line_end))
        trees = []
        for corpus in (MINI, tmp_path / "corpus"):
            out = tmp_path / f"out-{len(trees)}"
            assert run(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in (out / "reports").rglob("*") if p.is_file()})
        capsys.readouterr()
        assert len(trees[0]) == 33 and trees[1] == trees[0]

    def test_bad_scenario_is_config_error(self, tmp_path):
        assert run(["run", "--corpus", str(MINI), "--out", str(tmp_path), "--scenario", "bogus"]) == 1

    def _run_config(self, tmp_path, doc) -> int:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        return run(["run", "--config", str(config)])

    @pytest.mark.parametrize("missing", ["corpus", "out"])
    def test_config_missing_key_is_config_error(self, tmp_path, capsys, missing):
        doc = {"corpus": str(MINI), "out": str(tmp_path / "out")}
        del doc[missing]
        assert self._run_config(tmp_path, doc) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path / 'run.json'}: $: missing key '{missing}'\n"

    def test_config_non_integer_jobs_is_config_error(self, tmp_path, capsys):
        assert self._run_config(tmp_path, {"corpus": str(MINI), "out": str(tmp_path / "out"), "jobs": "x"}) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("extra, message", [
        ({"subjects": "baseline,m1"}, "$.subjects: must be a list, got \"baseline,m1\""),
        ({"scenario": ["topic"]}, "$: unknown key 'scenario'"),
        ({"jobs": 2.9}, "$.jobs: must be an integer, got 2.9"),
        ({"jobs": True}, "$.jobs: must be an integer, got true"),
        ({"rulesets": [1]}, "$.rulesets[0]: must be a string, got 1"),
        ({"scenarios": "all"}, "$.scenarios: must be a list, got \"all\""),
        ({"verbose": True}, "$: unknown key 'verbose'"),
        ({"corpus": 5}, "$.corpus: must be a string, got 5"),
        ({"subjects": ["baseline", 1]}, "$.subjects[1]: must be a string, got 1"),
    ], ids=["string-subjects", "misspelled-key", "float-jobs", "bool-jobs", "int-ruleset", "string-scenarios",
            "unknown-key", "int-corpus", "int-subject"])
    def test_mistyped_config_file_is_config_error(self, tmp_path, capsys, extra, message):
        doc = {"corpus": str(MINI), "out": str(tmp_path / "out"), **extra}
        assert self._run_config(tmp_path, doc) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path / 'run.json'}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(DEEP_JSON, encoding="utf-8")
        assert run(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: ") and err.count("\n") == 1

    def test_long_field_access_chain_is_analyzed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        chain = "a" + ".b" * 2000
        (corpus / "solutions" / "m1" / "T01.java").write_text(
            f"class A {{\n    void m(Object a) {{\n        if ({chain} instanceof String) {{}}\n"
            f"        if ({chain} instanceof String) {{}}\n    }}\n}}\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert "m1" not in json.loads(capsys.readouterr().out)["parse_failures"]
        assert read_report(out / "reports" / "m1" / "T01.json").parse_ok

    def test_unknown_smell_type_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["run", "--corpus", str(MINI), "--out", str(out), "--ruleset", "type:nope"]) == 1
        assert capsys.readouterr().err == "config error: unknown smell type 'nope'\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(MINI), "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == "config error: parallelism must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--subjects", "baseline,m1, m1"], "repeated subject 'm1'"),
        (["--scenario", "topic", "--scenario", "all", "--scenario", "topic"], "repeated scenario 'topic'"),
        (["--scenario", "complexity:loc", "--scenario", "complexity:loc"], "repeated scenario 'complexity-loc'"),
        (["--ruleset", "all", "--ruleset", "type:dead-code", "--ruleset", "type:dead-code"],
         "repeated ruleset 'type-dead-code'"),
    ], ids=["subject", "scenario", "complexity-scenario", "ruleset"])
    def test_repeated_flag_is_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert run(["run", "--corpus", str(MINI), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"subjects": ["baseline", "baseline"]}, "repeated subject 'baseline'"),
        ({"scenarios": ["source", "correctness:m1", "correctness:m1"]}, "repeated scenario 'correctness-m1'"),
        ({"rulesets": ["design", "all", "design"]}, "repeated ruleset 'design'"),
        ({"jobs": 0}, "parallelism must be >= 1"),
        ({"scenarios": ["bogus"]}, "unknown scenario 'bogus'"),
        ({"rulesets": ["type:nope"]}, "unknown smell type 'nope'"),
        ({"scenarios": ["complexity:"]}, "unknown complexity metric ''"),
        ({"scenarios": ["complexity:halstead"]}, "unknown complexity metric 'halstead'"),
        ({"scenarios": ["correctness:"]}, "model id must be a plain name without '/', '\\' or '..': ''"),
        ({"scenarios": ["correctness:../x"]}, "model id must be a plain name without '/', '\\' or '..': '../x'"),
        ({"scenarios": ["topic:x"]}, "unknown scenario 'topic:x'"),
        ({"rulesets": ["type:"]}, "unknown smell type ''"),
        ({"rulesets": ["bogus"]}, "unknown ruleset 'bogus'"),
    ], ids=["subject", "scenario", "ruleset", "jobs-zero", "unknown-scenario", "unknown-ruleset", "empty-metric",
            "unknown-metric", "empty-model", "model-path", "topic-argument", "empty-smell-type", "unknown-ruleset-form"])
    def test_repeated_config_entry_is_config_error(self, tmp_path, capsys, extra, message):
        """Every fault of a config file is named by the file, as a spec misfit is."""
        doc = {"corpus": str(MINI), "out": str(tmp_path / "out"), **extra}
        assert self._run_config(tmp_path, doc) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path / 'run.json'}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("thresholds, message", [
        ({"no-such-rule": {"x": 1}}, "$.thresholds: unknown key 'no-such-rule'"),
        ({"line-length": {"bogus": 1}}, "$.thresholds['line-length']: unknown key 'bogus'"),
    ], ids=["thresholds0-unknown rule id in thresholds: 'no-such-rule'",
            "thresholds1-unknown threshold 'bogus' for rule 'line-length'"])
    def test_unknown_threshold_override_is_config_error(self, tmp_path, capsys, thresholds, message):
        doc = {"corpus": str(MINI), "out": str(tmp_path / "out"), "thresholds": thresholds}
        assert self._run_config(tmp_path, doc) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path / 'run.json'}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("thresholds, message", [
        ([1], "{config}: $.thresholds: must be an object, got a list"),
        ({"line-length": 5}, "{config}: $.thresholds['line-length']: must be an object, got 5"),
        ({"line-length": {"max_line_length": "x"}},
         "{config}: $.thresholds['line-length'].max_line_length: must be an integer, got \"x\""),
        ({"line-length": {"max_line_length": True}},
         "{config}: $.thresholds['line-length'].max_line_length: must be an integer, got true"),
        ({"method-name": {"pattern": "("}},
         "{config}: threshold 'pattern' for rule 'method-name' is not a regex: missing ), unterminated subpattern at position 0"),
        ({"magic-number": {"ignore_numbers": 3}}, "{config}: $.thresholds['magic-number'].ignore_numbers: must be a list, got 3"),
        ({"magic-number": {"ignore_numbers": [1, "2"]}},
         "{config}: $.thresholds['magic-number'].ignore_numbers[1]: must be an integer, got \"2\""),
    ], ids=["list", "rule-not-object", "str-for-int", "bool-for-int", "bad-pattern", "int-for-list", "mixed-list"])
    def test_malformed_threshold_override_is_config_error(self, tmp_path, capsys, thresholds, message):
        doc = {"corpus": str(MINI), "out": str(tmp_path / "out"), "thresholds": thresholds}
        assert self._run_config(tmp_path, doc) == 1
        assert capsys.readouterr().err == f"config error: {message.format(config=tmp_path / 'run.json')}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--subjects", "baseline,m9"], "subject 'm9' is neither 'baseline' nor a model of the corpus"),
        (["--scenario", "correctness:m9"], "correctness model 'm9' is not a model of the corpus"),
    ], ids=["subject", "correctness-model"])
    @pytest.mark.parametrize("verb", ["run", "score"])
    def test_model_the_corpus_lacks_is_config_error(self, tmp_path, capsys, argv, message, verb):
        """Each once scored only the models the corpus has, or wrote an empty scorecard file."""
        out = tmp_path / "out"
        if verb == "score":
            assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
            capsys.readouterr()
        snapshot = sorted(p for p in tmp_path.rglob("*"))
        assert run([verb, "--corpus", str(MINI), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(p for p in tmp_path.rglob("*")) == snapshot

    def test_well_typed_threshold_overrides_run(self, tmp_path, capsys):
        thresholds = {"line-length": {"max_line_length": 80}, "magic-number": {"ignore_numbers": [0, 1]},
                      "method-name": {"pattern": "^[a-z]"}, "comment-content": {"disallowed_words": ["todo"]}}
        doc = {"corpus": str(MINI), "out": str(tmp_path / "out"), "thresholds": thresholds}
        assert self._run_config(tmp_path, doc) == 0
        assert json.loads(capsys.readouterr().out)["reports_written"] == 30

    def test_deeply_nested_source_is_a_recorded_failure(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI, corpus)
        nested = "(" * 2000 + "1" + ")" * 2000
        (corpus / "solutions" / "m1" / "T01.java").write_text(
            f"class A {{\n    int f() {{\n        return {nested};\n    }}\n}}\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["parse_failures"]["m1"] == ["T01"]
        roster = json.loads((out / "reports" / "m1" / "_failures.json").read_text(encoding="utf-8"))
        assert [r["task_id"] for r in roster] == ["T01"]
        assert roster[0]["error"].startswith("nesting too deep at (3, ")


class TestHeatmaps:
    def test_cells_copy_scorecards(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--corpus", str(MINI), "--out", str(out), "--scenario", "all", "--scenario", "topic"]
        args += ["--ruleset", "all"]
        for smell_type in ("magic-number", "documentation"):
            args += ["--ruleset", f"type:{smell_type}"]
        assert run(args) == 0
        capsys.readouterr()

        with open(out / "heatmaps" / "topic_vs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[0] == "topic"
        cards = load_scorecards(out / "scores" / "topic" / "all.json")
        lookup = {(c.scenario.split("/", 1)[1], c.subject): c for c in cards}
        for row in body:
            topic = row[0]
            for subject, cell in zip(header[1:], row[1:]):
                card = lookup.get((topic, subject))
                if cell == "":
                    assert card is None
                else:
                    assert cell == f"{float(card.vs):.3f}"

        with open(out / "heatmaps" / "smell-type_increase.csv", newline="") as fh:
            type_rows = list(csv.reader(fh))
        assert type_rows[0][0] == "smell-type"
        labels = [r[0] for r in type_rows[1:]]
        assert labels == ["magic-number", "documentation"]  # catalog order

    @pytest.mark.parametrize("scenario, ruleset, maps", [
        ("all", "all", []),
        ("topic", "all", ["topic_increase.csv", "topic_vs.csv"]),
    ], ids=["neither-input", "topic-only"])
    def test_report_renders_only_the_maps_with_inputs(self, tmp_path, capsys, scenario, ruleset, maps):
        out = tmp_path / "out"
        args = ["--corpus", str(MINI), "--out", str(out), "--scenario", scenario, "--ruleset", ruleset]
        assert run(["run", *args]) == 0
        capsys.readouterr()
        assert run(["report", *args]) == 0
        assert json.loads(capsys.readouterr().out)["heatmaps_written"] == len(maps)
        heatmaps = out / "heatmaps"
        if maps:
            assert sorted(p.name for p in heatmaps.iterdir()) == maps
        else:
            assert not heatmaps.exists()


class TestImportMalformedReports:
    """A report that does not match its format is a one-line config error, not a traceback."""

    @pytest.mark.parametrize("fmt, name, content, expected", [
        ("pmd_xml", "p.xml", b'<pmd><file name="A.java"><violation rule="X"/></file></pmd>',
         "<violation> needs rule and beginline attributes"),
        ("pmd_xml", "p.xml", b'<pmd><file name="A.java"><violation rule="X" beginline="7" begincolumn="c"/></file></pmd>',
         "<violation> attribute begincolumn='c' is not an integer"),
        ("checkstyle_xml", "c.xml", b"this is not XML", "not parseable XML"),
        ("checkstyle_xml", "c.xml", b'<checkstyle><file name="A.java"><error source="a.LineLengthCheck" line="x"/></file></checkstyle>',
         "<error> attribute line='x' is not an integer"),
        ("checkstyle_xml", "c.xml", b'<checkstyle><file name="A.java"><error source="a.LineLengthCheck" line="3" column="-"/></file></checkstyle>',
         "<error> attribute column='-' is not an integer"),
        ("designite_csv", "d.csv", b"Project Name,Package Name,Type Name,Method Name,Code Smell\nd,p,Caf\xe9,,Long Method\n",
         "not parseable CSV"),
        ("designite_csv", "d.csv", b"Project Name,Package Name,Type Name,Method Name,Code Smell\np,q\n",
         "line 2: fewer fields than the header's 5"),
        ("pmd_xml", "p.xml", b'<?xml version="1.0" encoding="UT"?><pmd></pmd>', "not parseable XML: unknown encoding: UT"),
    ], ids=["pmd-without-beginline", "pmd-begincolumn", "not-xml", "checkstyle-line", "checkstyle-column", "csv-not-utf8",
            "csv-short-row", "xml-unknown-encoding"])
    def test_malformed_report_is_config_error(self, tmp_path, capsys, fmt, name, content, expected):
        report = tmp_path / name
        report.write_bytes(content)
        argv = ["import-reports", "--format", fmt, "--in", str(report), "--out", str(tmp_path / "out"), "--subject", "T1:x"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {report}: ") and err.count("\n") == 1
        assert expected in err
        assert not (tmp_path / "out").exists()

    def test_source_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        source = tmp_path / "Subject.java"
        source.write_bytes(b'class Subject { String s = "caf\xe9"; }\n')
        argv = [
            "import-reports", "--format", "designite_csv", "--in", str(EXTERNAL / "sample_designite.csv"),
            "--out", str(tmp_path / "out"), "--subject", "T1:x", "--source", str(source),
        ]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {source}: the Java source is not UTF-8: ") and err.count("\n") == 1


class TestImportAndDiff:
    def test_import_then_diff_self_is_empty(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([
            "import-reports", "--format", "checkstyle_xml",
            "--in", str(EXTERNAL / "sample_checkstyle.xml"),
            "--out", str(out), "--subject", "T1:csimport",
        ]) == 0
        capsys.readouterr()
        report_path = out / "reports" / "csimport" / "T1.json"
        assert report_path.is_file()

        diff_csv = tmp_path / "diff.csv"
        assert run([
            "diff", "--native", str(report_path), "--imported", str(report_path), "--out", str(diff_csv),
        ]) == 0
        rows = diff_csv.read_text().splitlines()
        assert rows[0] == "rule_id,native_count,imported_count,delta"
        assert all(row.endswith(",0") for row in rows[1:])

        # a repeated diff leaves the CSV, and its mtime, as they are
        written = diff_csv.read_bytes()
        os.utime(diff_csv, ns=(0, 0))
        assert run(["diff", "--native", str(report_path), "--imported", str(report_path), "--out", str(diff_csv)]) == 0
        assert diff_csv.read_bytes() == written and diff_csv.stat().st_mtime_ns == 0


# One stored report's violations mangled so that they disagree with the spec
# or with per_rule_counts, and the message that names the misfit.
VIOLATION_MANGLES = pytest.mark.parametrize("mangle, message", [
    (lambda doc: {**doc, "violations": [{**doc["violations"][0], "rule_id": 7}]},
     "$.violations[0].rule_id: must be a string, got 7\n"),
    (lambda doc: {**doc, "violations": [{**doc["violations"][0], "span": ["a", None, 3, 4]}]},
     "$.violations[0].span[0]: must be an integer, got \"a\"\n"),
    (lambda doc: {**doc, "violations": [{**v, "rule_id": "no-such-rule"} for v in doc["violations"]]},
     "not a well-formed report: unknown rule id 'no-such-rule' in violations"),
    (lambda doc: {**doc, "violations": doc["violations"][1:]},
     "not a well-formed report: per_rule_counts "),
    (lambda doc: {**doc, "violations": [*doc["violations"][:1], {**doc["violations"][1], "span": [1, 2, 3]}]},
     "$.violations[1].span: must hold 4 items, got 3\n"),
], ids=["int-rule-id", "mistyped-span", "uncataloged-violation", "violation-missing", "short-span"])


class TestMalformedReportFiles:
    """A stored report that is not a well-formed report is a one-line config error naming the file."""

    @pytest.mark.parametrize("content, message", [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("{}", "$: missing key 'subject'"),
    ], ids=["not-json", "empty-object"])
    def test_diff_of_malformed_report_is_config_error(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        assert run(["diff", "--native", str(bad), "--imported", str(bad)]) == 1
        assert capsys.readouterr().err == f"config error: {bad}: {message}\n"

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: [], "$: must be an object, got a list"),
        (lambda doc: {**doc, "per_rule_counts": {"line-length": "x"}},
         "$.per_rule_counts['line-length']: must be an integer, got \"x\""),
        (lambda doc: {**doc, "score": 3}, "$: unknown key 'score'"),
        (lambda doc: {**doc, "parse_eror": "x"}, "$: unknown key 'parse_eror'"),
        (lambda doc: {**doc, "subject": {**doc["subject"], "task_id": 12}}, "$.subject.task_id: must be a string, got 12"),
        (lambda doc: {**doc, "subject": {**doc["subject"], "model_id": 5}}, "$.subject.model_id: must be a string, got 5"),
    ], ids=["list", "string-count", "unknown-key", "parse-error-misspelled", "int-task-id", "int-model-id"])
    def test_score_of_malformed_store_is_config_error(self, tmp_path, capsys, mangle, message):
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        bad = out / "reports" / "m1" / "T01.json"
        bad.write_text(json.dumps(mangle(json.loads(bad.read_text(encoding="utf-8")))), encoding="utf-8")
        assert run(["score", "--corpus", str(MINI), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {bad}: {message}\n"

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: {**doc, "per_rule_counts": {**doc["per_rule_counts"], "no-such-rule": 1}},
         "unknown rule id 'no-such-rule'"),
        (lambda doc: {**doc, "per_type_counts": {**doc["per_type_counts"], "magic-number": doc["per_type_counts"]["magic-number"] + 1}},
         "per_type_counts "),
    ], ids=["unknown-rule-id", "type-count-off-by-one"])
    def test_report_whose_counts_cannot_be_scored_is_config_error(self, tmp_path, capsys, mangle, message):
        """Scores sum per_type_counts, so they must be the per-type sums of cataloged rule counts."""
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        bad = out / "reports" / "m1" / "T01.json"
        bad.write_text(json.dumps(mangle(json.loads(bad.read_text(encoding="utf-8")))), encoding="utf-8")
        expected = f"config error: {bad}: not a well-formed report: {message}"
        assert run(["score", "--corpus", str(MINI), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1
        assert run(["diff", "--native", str(bad), "--imported", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1

    @VIOLATION_MANGLES
    def test_diff_of_report_whose_violations_disagree_is_config_error(self, tmp_path, capsys, mangle, message):
        """diff reads both the violations and per_rule_counts, so they must agree."""
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        good = out / "reports" / "m1" / "T01.json"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mangle(json.loads(good.read_text(encoding="utf-8")))), encoding="utf-8")
        assert run(["diff", "--native", str(bad), "--imported", str(good)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: {message}") and err.count("\n") == 1

    @VIOLATION_MANGLES
    def test_score_of_report_whose_violations_disagree_is_config_error(self, tmp_path, capsys, mangle, message):
        """score checks every violation too, though it builds none."""
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        bad = out / "reports" / "m1" / "T01.json"
        bad.write_text(json.dumps(mangle(json.loads(bad.read_text(encoding="utf-8")))), encoding="utf-8")
        assert run(["score", "--corpus", str(MINI), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: {message}") and err.count("\n") == 1

    def test_score_of_report_with_string_parse_ok_is_config_error(self, tmp_path, capsys):
        """A failed parse marked "no" would be counted as analyzed."""
        out = tmp_path / "out"
        assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
        capsys.readouterr()
        bad = out / "reports" / "m2" / "T09.json"
        doc = json.loads(bad.read_text(encoding="utf-8"))
        assert doc["parse_ok"] is False
        bad.write_text(json.dumps({**doc, "parse_ok": "no"}), encoding="utf-8")
        assert run(["score", "--corpus", str(MINI), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {bad}: $.parse_ok: must be a boolean, got \"no\"\n"


def test_a_message_prints_as_one_line(tmp_path, capsys):
    """A line break or a lone surrogate that a message carries from its input
    is printed escaped: one stderr line, which any stream can encode."""
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI, corpus)
    doc = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
    doc["tasks"][0]["reference_path"] = "refs/a\r\nb\u2028.java"
    (corpus / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(["run", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: task T01: file not found: refs/a\\r\\nb\\u2028.java\n"

    out = tmp_path / "out"
    assert run(["analyze", "--corpus", str(MINI), "--out", str(out)]) == 0
    report = out / "reports" / "m1" / "T01.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["violations"][0]["span"][0] = "\ud800"
    report.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the surrogate is written "\\ud800"
    capsys.readouterr()
    assert run(["score", "--corpus", str(MINI), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f'config error: {report}: $.violations[0].span[0]: must be an integer, got "\\ud800"\n'


def test_each_verb_loads_the_manifest_once(tmp_path, monkeypatch):
    """run validates the manifest once for both its stages, and analyze and
    score alone load it once each."""
    calls = []

    def counting(path):
        calls.append(path)
        return load_manifest(path)

    monkeypatch.setattr("smellscore.cli.load_manifest", counting)
    out = tmp_path / "out"
    counts = []
    for verb in ("run", "analyze", "score"):
        calls.clear()
        assert run([verb, "--corpus", str(MINI), "--out", str(out), "--scenario", "topic"]) == 0
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_score_builds_no_violation(tmp_path, monkeypatch):
    """score reads each stored report as counts: it builds no Violation and
    writes the same scores."""
    plain, counted = tmp_path / "plain", tmp_path / "counted"
    assert run(["analyze", "--corpus", str(MINI), "--out", str(plain)]) == 0
    shutil.copytree(plain, counted)
    assert run(["score", "--corpus", str(MINI), "--out", str(plain)]) == 0

    def refuse(doc):
        raise AssertionError("a Violation was built")

    monkeypatch.setattr(Violation, "from_json", refuse)
    with pytest.raises(AssertionError, match="a Violation was built"):
        read_report(counted / "reports" / "m1" / "T01.json")
    assert run(["score", "--corpus", str(MINI), "--out", str(counted)]) == 0
    assert _scores(plain) and _scores(counted) == _scores(plain)


def _scores(out: Path) -> dict[Path, bytes]:
    return {p.relative_to(out): p.read_bytes() for p in (out / "scores").rglob("*") if p.is_file()}


# sha256 over the relative path and bytes of every file under scores/ and
# heatmaps/, in path order, then the stdout, of a run over the mini corpus
# with every scenario form below and every rule-set form, as printed before
# the selectors became data.
SCORES_TREE_SHA256 = "4d6c151eae7029bb4fb48862a52ce971caf207c0ef4d6b49102067dbd42661ca"
TREE_SCENARIOS = ["all", "topic", "source", "complexity:cyclomatic", "complexity:cognitive", "complexity:loc",
                  "correctness:m1", "correctness:m2"]
TREE_RULESETS = ["all", "implementation", "design", *(f"type:{t}" for t in ALL_TYPES)]


def test_scores_tree_is_unchanged(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--corpus", str(MINI), "--out", str(out)]
    argv += [arg for s in TREE_SCENARIOS for arg in ("--scenario", s)]
    argv += [arg for r in TREE_RULESETS for arg in ("--ruleset", r)]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    files = sorted(p for tree in ("scores", "heatmaps") for p in (out / tree).rglob("*") if p.is_file())
    assert len(_scores(out)) == len(TREE_SCENARIOS) * len(TREE_RULESETS) == 128
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\n")
        digest.update(path.read_bytes())
    digest.update(stdout.encode())
    assert digest.hexdigest() == SCORES_TREE_SHA256


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("finished") / "out"
    argv = ["run", "--corpus", str(MINI), "--out", str(out), "--scenario", "all", "--scenario", "topic"]
    assert run([*argv, "--ruleset", "all", "--ruleset", "type:magic-number"]) == 0
    return out


TOPIC = "topic/all.json"


def _first_card_with(**fields):
    return lambda cards: [{**cards[0], **fields}]


class TestMalformedScorecardFiles:
    """A stored scorecard file that is not a list of scorecards is a one-line config error naming the file."""

    @pytest.mark.parametrize("bad_file, mangle, message", [
        (TOPIC, "not json", "Expecting value: line 1 column 1 (char 0)"),
        (TOPIC, lambda cards: {"x": 1}, "$: must be a list, got an object"),
        (TOPIC, lambda cards: [{"x": 1}], "$[0]: unknown key 'x'"),
        (TOPIC, _first_card_with(n_tasks="3"), "$[0].n_tasks: must be an integer, got \"3\""),
        (TOPIC, _first_card_with(vs={"fraction": "1/0", "float": 0.0}),
         "not a well-formed scorecard file: malformed fraction {'fraction': '1/0', 'float': 0.0}"),
        (TOPIC, _first_card_with(note="x"), "$[0]: unknown key 'note'"),
        (TOPIC, lambda cards: [{("n_task" if k == "n_tasks" else k): v for k, v in cards[0].items()}], "$[0]: unknown key 'n_task'"),
        (TOPIC, _first_card_with(subject=5), "$[0].subject: must be a string, got 5"),
        (TOPIC, _first_card_with(scenario=7), "$[0].scenario: must be a string, got 7"),
        (TOPIC, _first_card_with(increase_rate="1/2"),
         "not a well-formed scorecard file: malformed fraction '1/2'"),
        (TOPIC, lambda cards: [{**cards[0], "vs": {**cards[0]["vs"], "float": 99.0}}],
         "not a well-formed scorecard file: float 99.0 is not float(1/1)"),
        # a card outside the file its labels name once crashed report or filled another heat-map cell
        (TOPIC, _first_card_with(scenario="topicX"), "$[0].scenario: must be 'topic/<label>', got \"topicX\""),
        (TOPIC, _first_card_with(scenario="topic/"), "$[0].scenario: must be 'topic/<label>', got \"topic/\""),
        (TOPIC, _first_card_with(scenario="all/Array"), "$[0].scenario: must be 'topic/<label>', got \"all/Array\""),
        (TOPIC, _first_card_with(ruleset="type-dead-code"), "$[0].ruleset: must be 'all', got \"type-dead-code\""),
        # a second card for one cell once silently replaced the first in the heat map
        (TOPIC, lambda cards: [*cards[:2], {**cards[0], "vs": {"fraction": "99/1", "float": 99.0}}],
         "$[2]: repeats the card of ('topic/Array', 'baseline') at $[0]"),
        # scenario all has the one label all; another label once replaced its card in the smell-type map
        ("all/type-magic-number.json",
         lambda cards: [*cards, {**cards[0], "scenario": "all/x", "vs": {"fraction": "99/1", "float": 99.0}}],
         "$[3].scenario: must be 'all/all', got \"all/x\""),
    ], ids=["not-json", "not-a-list", "missing-field", "mistyped-field", "malformed-fraction", "unknown-key",
            "misspelled-key", "int-subject", "int-scenario", "string-rate", "float-not-fraction",
            "scenario-without-label", "empty-label", "scenario-of-another-directory", "ruleset-of-another-file",
            "duplicate-card", "label-under-all"])
    def test_report_of_malformed_scorecards_is_config_error(self, finished_run, tmp_path, capsys, bad_file, mangle, message):
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        bad = out / "scores" / bad_file
        text = mangle if isinstance(mangle, str) else json.dumps(mangle(json.loads(bad.read_text(encoding="utf-8"))))
        bad.write_text(text, encoding="utf-8")
        assert run(["report", "--corpus", str(MINI), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {bad}: {message}\n"


# Modules only generate (the HTTP client), import-reports and diff (the XML
# parser) or --jobs above 1 (the thread pool) need.
VERB_ONLY_MODULES = (
    "smellscore.llm_gateway", "smellscore.tool_adapters", "urllib.request", "http.client", "ssl",
    "xml.etree.ElementTree", "concurrent.futures",
)


def _child_env(**extra: str) -> dict[str, str]:
    """This environment with ``extra``, for a Python child that imports the package from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_importing_the_cli_loads_no_verb_only_module():
    code = "import json, sys, smellscore.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert "smellscore.cli" in loaded
    assert loaded.isdisjoint(VERB_ONLY_MODULES), sorted(loaded.intersection(VERB_ONLY_MODULES))


def test_run_does_not_depend_on_the_hash_seed(tmp_path):
    """Set and dict order never reaches an output: two processes with other
    string hashes write byte-identical trees and print the same summary."""
    argv = [
        sys.executable, "-m", "smellscore.cli", "run", "--corpus", str(MINI), "--out", "out",
        "--scenario", "all", "--scenario", "topic", "--scenario", "source", "--scenario", "complexity:cyclomatic",
        "--ruleset", "all", "--ruleset", "implementation", "--ruleset", "design",
    ]
    runs = []
    for seed in ("0", "1"):
        cwd = tmp_path / f"seed-{seed}"
        cwd.mkdir()
        done = subprocess.run(argv, cwd=cwd, env=_child_env(PYTHONHASHSEED=seed), capture_output=True, check=True)
        runs.append((done.stdout, {p.relative_to(cwd): p.read_bytes() for p in (cwd / "out").rglob("*") if p.is_file()}))
    assert runs[0][0] and runs[0][1]
    assert runs[1] == runs[0]
