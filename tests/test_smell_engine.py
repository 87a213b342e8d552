"""Engine-level invariants: dedup, aggregation, monotonicity, determinism,
per-corpus detection, and the single-class silence of hierarchy rules."""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from smellscore.java_syntax import SourceFile
from smellscore.outputs import json_text
from smellscore.rules.catalog import catalog, rule_by_id
from smellscore.rules.model import SmellRule
from smellscore.smell_engine import (
    _REGISTRY,
    BASELINE,
    StoredCounts,
    detect_corpus,
    detect_file,
    load_report_store,
    read_report,
    write_report_store,
)

from test_corpus import make_task, write_manifest
from test_java_syntax import count_tokens_built
from test_smell_rules import CASES
from smellscore.corpus import load_manifest

SMELLY = """\
public class Messy {
    public int count;

    public void grow(int amount) {
        int step = 86400;
        try {
            count = count + step + amount;
        } catch (Exception e) {
        }
    }
}
"""


def rules_for_category(category: str) -> list[SmellRule]:
    return [r for r in catalog() if r.category == category]


def rules_for_type(smell_type: str) -> list[SmellRule]:
    return [r for r in catalog() if r.smell_type == smell_type]


class TestCatalog:
    def test_deduplicated_row_count(self):
        assert len(catalog()) == 82  # 50 implementation + 32 design rows after merges
        assert len(rules_for_category("implementation")) == 50
        assert len(rules_for_category("design")) == 32

    def test_every_smell_type_has_rules(self):
        from smellscore.rules.model import ALL_TYPES

        assert len(ALL_TYPES) == 13
        for smell_type in ALL_TYPES:
            assert rules_for_type(smell_type), smell_type

    def test_merged_rule_is_one_entry_with_both_origins(self):
        entries = [r for r in catalog() if r.rule_id == "empty-catch-block"]
        assert len(entries) == 1
        assert entries[0].origin_tags == {"pmd", "checkstyle"}

    def test_rule_ids_unique(self):
        ids = [r.rule_id for r in catalog()]
        assert len(ids) == len(set(ids))


def _report(text: str, rules=None, path="Messy.java"):
    return detect_file(SourceFile.from_text(path, text), ("t", "m"), rules=rules)


class TestDetectFile:
    def test_parse_failure_yields_empty_report(self):
        report = _report("class A { void m( { }")
        assert not report.parse_ok
        assert report.violations == []
        assert report.parse_error

    def test_doc_after_shift_split_type_is_found(self):
        text = """\
class G {
    private java.util.Map<String, java.util.List<Integer>> m;

    /** Documented. */
    public void f() {
    }
}
"""
        report = _report(text, rules=[rule_by_id("javadoc-method")])
        assert report.violations == []

    def test_parenthesized_comparison_before_ternary_is_analyzed(self):
        report = _report("class A {\n    int min(int a, int b) {\n        return (a < b) ? a : b;\n    }\n}\n")
        assert report.parse_ok, report.parse_error

    def test_origin_tags_never_multiply_counts(self):
        rule = rule_by_id("empty-catch-block")
        once = _report(SMELLY, rules=[rule])
        twice = _report(SMELLY, rules=[rule, rule])
        assert once.per_rule_counts == twice.per_rule_counts
        assert once.per_rule_counts["empty-catch-block"] == 1

    def test_aggregation_identity(self):
        report = _report(SMELLY)
        assert sum(report.per_type_counts.values()) == len(report.violations)
        assert sum(report.per_rule_counts.values()) == len(report.violations)
        types = {r.rule_id: r.smell_type for r in catalog()}
        recount: dict[str, int] = {}
        for rule_id, count in report.per_rule_counts.items():
            recount[types[rule_id]] = recount.get(types[rule_id], 0) + count
        assert recount == report.per_type_counts

    def test_disjoint_rule_sets_are_additive(self):
        implementation = rules_for_category("implementation")
        design = rules_for_category("design")
        both = _report(SMELLY)
        left = _report(SMELLY, rules=implementation)
        right = _report(SMELLY, rules=design)
        assert len(both.violations) == len(left.violations) + len(right.violations)
        merged = sorted(
            [(v.rule_id, v.span.as_tuple()) for v in left.violations]
            + [(v.rule_id, v.span.as_tuple()) for v in right.violations]
        )
        assert merged == sorted((v.rule_id, v.span.as_tuple()) for v in both.violations)

    def test_determinism(self):
        assert _report(SMELLY) == _report(SMELLY)

    def test_violations_sorted_canonically(self):
        report = _report(SMELLY)
        keys = [v.sort_key() for v in report.violations]
        assert keys == sorted(keys)

    def test_hierarchy_rules_silent_on_single_class(self):
        samples = [
            "class A { void m() { x = 1; } }",
            # even a tag dispatch cannot fire hierarchy rules in a lone class
            "class A { void m(int k) { if (k == 1) { x = 1; } else if (k == 2) { x = 2; } else if (k == 3) { x = 3; } } }",
            "package a;\nimport a.Other;\nclass A { void m() { x = 1; } }",
        ]
        hierarchy = rules_for_type("hierarchy")
        for text in samples:
            report = _report(text, rules=hierarchy, path="A.java")
            assert report.parse_ok
            assert report.violations == [], text


    def test_tokenizes_each_file_once(self, monkeypatch):
        from smellscore.java_syntax import lexer, parse

        calls = 0
        original = lexer.tokenize

        def counting(source):
            nonlocal calls
            calls += 1
            return original(source)

        for name, module in list(sys.modules.items()):
            if name.startswith("smellscore") and getattr(module, "tokenize", None) is original:
                monkeypatch.setattr(module, "tokenize", counting)
        source = SourceFile.from_text("Messy.java", SMELLY)
        report = detect_file(source, ("t", "m"))
        assert calls == 1
        assert report.parse_ok and report.violations
        assert detect_file(source, ("t", "m"), outcome=parse(source)) == report
        assert calls == 2

    def test_deep_expression_is_analyzed(self):
        report = _report("class A {\n    int f(int a) {\n        return " + "+".join(["a"] * 3000) + ";\n    }\n}\n")
        assert report.parse_ok
        assert report.per_rule_counts.get("line-length") == 1

    def test_long_else_if_and_conditional_chains_are_analyzed(self):
        """The parser reads both chains in a loop, so no rule may recurse once per link."""
        branches = " else ".join(f"if (a == {i}) {{\n            a = {i};\n        }}" for i in range(2000))
        arms = " : ".join(f"a == {i} ? {i}" for i in range(2000))
        report = _report(
            f"class A {{\n    int f(int a) {{\n        {branches} else {{\n            a = -1;\n        }}\n"
            f"        return {arms} : -1;\n    }}\n}}\n"
        )
        assert report.parse_ok
        assert "indentation" not in report.per_rule_counts

    def test_long_field_access_chain_is_analyzed(self):
        """The parser reads a postfix chain in a loop; a rule reading a.b.c as a name must too."""
        chain = "a" + ".b" * 2000
        test = f"if ({chain} instanceof String) {{}}"
        report = _report(f"class A {{ void m(Object a) {{ {test} {test} }} }}")
        assert report.parse_ok


ROOT = Path(__file__).resolve().parent.parent

# sha256 over json_text(detect_file(...).to_json()) with the full catalog, for
# every tests/**/*.java file in path order and then every CASES fixture text
# (positive, then negative), as printed before the rule layer's fast paths.
DETECT_FILE_JSON_SHA256 = "8cb5ad529e8f4c138a1a1eae794ce2f0a635ba0ecd4fe6e45d925a6dd4acf289"


def _golden_sources() -> list[tuple[str, str]]:
    out = [
        (path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(ROOT.glob("tests/**/*.java"))
    ]
    for case in CASES:
        out += [(case.path, case.positive), (case.path, case.negative)]
    return out


def _wrap_everywhere(monkeypatch, fn, wrapper) -> None:
    """Put wrapper wherever a smellscore module holds fn: in its namespace or
    in a dict of its namespace, as the benchmark's tracer hooks checkers."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("smellscore") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, key, wrapper)
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is fn:
                        monkeypatch.setitem(value, k, wrapper)


class TestRuleLayer:
    def test_detect_file_json_is_unchanged(self):
        digest = hashlib.sha256()
        sources = _golden_sources()
        for path, text in sources:
            report = detect_file(SourceFile.from_text(path, text), ("golden", "test"))
            digest.update(json_text(report.to_json()).encode())
        assert len(sources) > 2 * len(CASES)
        assert digest.hexdigest() == DETECT_FILE_JSON_SHA256

    @pytest.mark.parametrize("ending", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_every_line_end_gives_the_report_of_line_feeds(self, ending):
        """JLS 3.4: CR LF, CR and LF each end a line, and a line's text
        leaves its line end out."""
        paths = sorted(ROOT.glob("tests/**/*.java"))
        assert len(paths) >= 31
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert "\r" not in text
            want = detect_file(SourceFile.from_text(path.name, text), ("t", "m")).to_json()
            got = detect_file(SourceFile.from_text(path.name, text.replace("\n", ending)), ("t", "m")).to_json()
            assert got == want, path

    def test_detect_file_builds_no_token_on_the_mini_corpus(self, monkeypatch):
        """The rules read the token table's columns and build a span only for a hit."""
        sources = [
            SourceFile.from_text(path.name, path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "tests" / "data" / "mini_corpus").rglob("*.java"))
        ]
        reports = []
        built = count_tokens_built(monkeypatch, lambda: reports.extend(detect_file(s, ("t", "m")) for s in sources))
        assert built == 0
        assert len(reports) >= 30 and sum(len(r.violations) for r in reports) > 0

    def test_every_checker_runs_once_per_parsed_file(self, monkeypatch):
        """A checker that skipped a file would leave its span unrecorded on a
        workload where every file skips it."""
        calls: Counter[str] = Counter()
        for rule_id, fn in list(_REGISTRY.items()):
            def counting(ctx, rule, fn=fn, rule_id=rule_id):
                calls[rule_id] += 1
                return fn(ctx, rule)

            _wrap_everywhere(monkeypatch, fn, counting)
        report = detect_file(SourceFile.from_text("A.java", "class A {}\n"), ("t", "m"))
        assert report.parse_ok
        assert len(_REGISTRY) == 82
        assert calls == {rule.rule_id: 1 for rule in catalog()}


class TestDetectCorpus:
    def _fixture(self, tmp_path):
        tasks = [make_task(tmp_path, f"T{i}", models=("m1",)) for i in range(10)]
        # plant one unparseable m1 solution
        (tmp_path / "solutions" / "m1" / "T3.java").write_text("class Broken {", encoding="utf-8")
        write_manifest(tmp_path, tasks)
        return load_manifest(tmp_path)

    def test_report_cardinality(self, tmp_path):
        corpus = self._fixture(tmp_path)
        results = detect_corpus(corpus, [BASELINE, "m1"])
        assert len(results[BASELINE]) == 10
        assert len(results["m1"]) == 10

    def test_parse_failure_lands_in_roster(self, tmp_path):
        corpus = self._fixture(tmp_path)
        out = tmp_path / "out"
        detect_corpus(corpus, [BASELINE, "m1"], out_dir=out)
        roster = json.loads((out / "reports" / "m1" / "_failures.json").read_text())
        assert [r["task_id"] for r in roster] == ["T3"]
        assert json.loads((out / "reports" / "baseline" / "_failures.json").read_text()) == []

    def test_source_that_is_not_utf8_is_a_recorded_failure(self, tmp_path):
        corpus = self._fixture(tmp_path)
        (tmp_path / "solutions" / "m1" / "T4.java").write_bytes(b"class A { String s = \"\xff\"; }\n")
        report = detect_corpus(corpus, ["m1"])["m1"]["T4"]
        assert not report.parse_ok
        assert report.parse_error.startswith("source is not valid UTF-8: 'utf-8' codec can't decode byte 0xff")

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = self._fixture(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        detect_corpus(corpus, [BASELINE, "m1"], out_dir=out_a)
        detect_corpus(corpus, [BASELINE, "m1"], out_dir=out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.json"))
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.json"))
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        corpus = self._fixture(tmp_path)
        serial = detect_corpus(corpus, [BASELINE, "m1"], jobs=1)
        parallel = detect_corpus(corpus, [BASELINE, "m1"], jobs=4)
        assert serial == parallel

    def test_non_utf8_source_is_a_recorded_failure(self, tmp_path):
        corpus = self._fixture(tmp_path)
        (tmp_path / "solutions" / "m1" / "T5.java").write_bytes(b'class A { String s = "caf\xe9"; }\n')
        out = tmp_path / "out"
        results = detect_corpus(corpus, [BASELINE, "m1"], out_dir=out)
        report = results["m1"]["T5"]
        assert not report.parse_ok and report.violations == []
        assert "UTF-8" in report.parse_error
        roster = json.loads((out / "reports" / "m1" / "_failures.json").read_text())
        assert [r["task_id"] for r in roster] == ["T3", "T5"]
        assert results["m1"]["T4"].parse_ok

    def test_rewrite_counts_only_changed_files(self, tmp_path):
        corpus = self._fixture(tmp_path)
        results = detect_corpus(corpus, [BASELINE, "m1"])
        out = tmp_path / "out"
        assert write_report_store(results, out) == 22  # 2 subjects x (10 reports + roster)
        assert write_report_store(results, out) == 0
        results["m1"]["T0"] = results["m1"]["T1"]
        assert write_report_store(results, out) == 1

    def test_store_round_trip(self, tmp_path):
        corpus = self._fixture(tmp_path)
        results = detect_corpus(corpus, [BASELINE, "m1"])
        out = tmp_path / "out"
        write_report_store(results, out)
        for subject, by_task in results.items():
            for task_id, report in by_task.items():
                assert read_report(out / "reports" / subject / f"{task_id}.json") == report
        assert load_report_store(out) == {
            subject: {task_id: StoredCounts(report.parse_ok, report.per_type_counts) for task_id, report in by_task.items()}
            for subject, by_task in results.items()
        }
