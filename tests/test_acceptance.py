"""Acceptance suite.

One test per criterion; each prints a PASS line once its checks hold, so a
verbose run reads as a checklist.  Tolerances are pinned here and nowhere
else: score arithmetic is exact rational (zero tolerance), statistics carry
1e-9, and the recorded-pair back-solve carries 0.005.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from smellscore.code_metrics import cognitive_complexity, method_metrics
from smellscore.corpus import CodingTask, ComplexityTriple, Corpus, GeneratedSolution, load_manifest
from smellscore.cli import RunConfig, run_pipeline
from smellscore.java_syntax import SourceFile, TokenKind, parse, parse_text, tokenize
from smellscore.java_syntax.lexer import Span
from smellscore.rules.catalog import catalog, multi_origin_rules, rule_types
from smellscore.rules.model import Violation, ViolationReport
from smellscore.scoreboard import (
    RuleSetSelector,
    ScenarioSelector,
    compute_increase,
    compute_vs,
    dispersion,
    load_scorecards,
    partition,
    pearson,
)
from smellscore.smell_engine import BASELINE, detect_file
from smellscore.tool_adapters import CHECKSTYLE_XML, DESIGNITE_CSV, PMD_XML, ExternalReport, diff_reports, import_reports

import test_smell_rules
import test_tool_adapters

DATA = Path(__file__).parent / "data"
MINI = DATA / "mini_corpus"
RULE_TYPES = rule_types()
ALL_RULE_IDS = [r.rule_id for r in catalog()]


def _synthetic_report(rng: random.Random, rule_pool: list[str], subject=("t", "m"), parse_ok=True) -> ViolationReport:
    violations = []
    for line, rule_id in enumerate(rng.choices(rule_pool, k=rng.randint(0, 12)), start=1):
        violations.append(
            Violation(rule_id=rule_id, file="f.java", span=Span(line, 1, line, 2), message="", snippet="")
        )
    return ViolationReport.build(subject, parse_ok=parse_ok, violations=violations, rule_types=RULE_TYPES)


def test_criterion_1_metric_oracle_equivalence():
    """compute_vs / baseline / increase match brute-force re-summation exactly."""
    rng = random.Random(20240817)
    started = time.monotonic()
    for _ in range(200):
        rule_pool = rng.sample(ALL_RULE_IDS, rng.randint(1, 10))
        selected = set(rng.sample(rule_pool, rng.randint(1, len(rule_pool))))
        n_tasks = rng.randint(1, 20)
        subject_reports = [
            _synthetic_report(rng, rule_pool, parse_ok=rng.random() > 0.1) for _ in range(n_tasks)
        ]
        baseline_reports = [_synthetic_report(rng, rule_pool) for _ in range(n_tasks)]

        # Brute force straight off the violation lists, never the count maps.
        def brute(reports):
            total = 0
            analyzed = 0
            for r in reports:
                if not r.parse_ok:
                    continue
                analyzed += 1
                total += sum(1 for v in r.violations if v.rule_id in selected)
            return total, analyzed

        total, analyzed = brute(subject_reports)
        if analyzed == 0:
            continue
        vs = compute_vs(subject_reports, selected)
        assert vs == Fraction(total, analyzed)

        b_total, b_analyzed = brute(baseline_reports)
        baseline_vs = compute_vs(baseline_reports, selected)
        assert baseline_vs == Fraction(b_total, b_analyzed)

        if baseline_vs > 0:
            expected = (Fraction(total, analyzed) - baseline_vs) / baseline_vs
            assert compute_increase(vs, baseline_vs) == expected
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 1 metric-oracle-equivalence: PASS")


def test_criterion_2_recorded_pairs_share_baseline():
    """The two recorded (score, increase) pairs back-solve to one baseline."""
    pairs = [(Fraction("27.571"), Fraction("0.4228")), (Fraction("35.844"), Fraction("0.8497"))]
    baselines = [vs / (1 + inc) for vs, inc in pairs]
    for (vs, inc), b in zip(pairs, baselines):
        assert compute_increase(vs, b) == inc  # exact round trip through the formula
    assert abs(float(baselines[0]) - float(baselines[1])) <= 0.005
    common = sum(float(b) for b in baselines) / 2
    assert abs(common - 19.378) <= 0.005
    print("ACCEPTANCE 2 recorded-pair-baseline: PASS")


def test_criterion_3_rule_fixture_suite():
    """Every cataloged rule has passing positive and negative fixtures."""
    started = time.monotonic()
    cases = test_smell_rules.CASES
    assert {c.rule_id for c in cases} == {r.rule_id for r in catalog()}
    for case in cases:
        test_smell_rules.test_positive_fixture(case)
        test_smell_rules.test_negative_fixture(case)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3 rule-fixture-suite: PASS ({len(cases)} rules, {elapsed:.2f}s)")


def test_criterion_4_multi_origin_findings_count_once(tmp_path):
    """Two detectors reporting the same finding produce one counted violation,
    for every rule carried by more than one origin."""
    merge = test_tool_adapters.TestCountOnceMerge()
    rules = multi_origin_rules()
    assert len(rules) >= 7
    for i, rule in enumerate(rules):
        case_dir = tmp_path / f"case{i}"
        case_dir.mkdir()
        merge.test_same_finding_from_two_origins_counts_once(rule, case_dir)
    print(f"ACCEPTANCE 4 count-once-merge: PASS ({len(rules)} multi-origin rules)")


def _random_corpus(rng: random.Random) -> Corpus:
    n = rng.randint(1, 30)
    topics = [f"Topic{i}" for i in range(rng.randint(1, 5))]
    tasks = []
    for i in range(n):
        flags = rng.choice([True, False, None])
        tasks.append(
            CodingTask(
                task_id=f"T{i}",
                source=rng.choice(["textbook", "stackoverflow"]),
                topic=rng.choice(topics),
                description="a task",
                input_length=2,
                complexity=ComplexityTriple(
                    cyclomatic=rng.randint(1, 8),
                    cognitive=rng.randint(0, 20),
                    loc=rng.randint(1, 60),
                ),
                reference_path="refs/x.java",
                solutions=(GeneratedSolution("m1", "s/x.java", correct=flags),),
            )
        )
    return Corpus(root=Path("."), tasks=tuple(tasks), models=frozenset({"m1"}))


def test_criterion_5_partition_exactness():
    """Covering partitions are disjoint and exhaustive for 100 random corpora."""
    rng = random.Random(99)
    selectors = [
        ScenarioSelector.parse("topic"),
        ScenarioSelector.parse("source"),
        ScenarioSelector.parse("complexity:cyclomatic"),
        ScenarioSelector.parse("complexity:cognitive"),
        ScenarioSelector.parse("complexity:loc"),
    ]
    for _ in range(100):
        corpus = _random_corpus(rng)
        all_ids = {t.task_id for t in corpus.tasks}
        for selector in selectors:
            parts = partition(corpus, selector)
            seen: list[str] = []
            for _, tasks in parts:
                seen.extend(t.task_id for t in tasks)
            assert len(seen) == len(set(seen)), "partition overlaps"
            assert set(seen) == all_ids, "partition does not cover the corpus"
        parts = partition(corpus, ScenarioSelector.parse("correctness:m1"))
        flagged = {
            t.task_id for t in corpus.tasks
            if t.solution_for("m1") is not None and t.solution_for("m1").correct is not None
        }
        seen = [t.task_id for _, tasks in parts for t in tasks]
        assert len(seen) == len(set(seen))
        assert set(seen) == flagged
    print("ACCEPTANCE 5 partition-exactness: PASS (100 corpora)")


def test_criterion_6_statistics_checks():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-9)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-9)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-9)

    rng = random.Random(5)
    checked = 0
    while checked < 100:
        xs = [rng.randint(-50, 50) for _ in range(rng.randint(3, 15))]
        ys = [rng.randint(-50, 50) for _ in range(len(xs))]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        a = rng.randint(1, 9)
        b = rng.randint(-20, 20)
        base = pearson(xs, ys)
        assert pearson([a * x + b for x in xs], ys) == pytest.approx(base, abs=1e-9)
        assert pearson([-x for x in xs], ys) == pytest.approx(-base, abs=1e-9)
        checked += 1

    assert dispersion({"a": 2, "b": 4}) == pytest.approx(1.0)
    print("ACCEPTANCE 6 statistics-checks: PASS")


_STMTS = [
    "x = x + 1;",
    "if (a > 0) { x = 1; }",
    "if (a > 0) { x = 1; } else { x = 2; }",
    "if (a > 0 && b > 0) { x = 1; }",
    "if (a > 0 || b > 0 && c > 0) { x = 1; }",
    "while (a > 0) { a = a - 1; }",
    "for (int i = 0; i < 9; i++) { x = x + i; }",
    "do { a = a - 1; } while (a > 0);",
    "x = a > 0 ? 1 : 2;",
    "try { x = 1; } catch (Exception e) { x = 2; }",
    "switch (k) { case 1: x = 1; break; case 2: x = 2; break; default: break; }",
    "for (int v : items) { x = x + v; }",
]


def _generate_method(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 6)):
        stmt = rng.choice(_STMTS)
        if rng.random() < 0.4:
            stmt = "if (a > b) { %s }" % stmt
        lines.append("        " + stmt)
    return "class G {\n    void m(int a, int b, int c, int k, int x, int[] items) {\n%s\n    }\n}\n" % "\n".join(lines)


def _token_decision_count(text: str, body_span) -> int:
    """Independent cyclomatic oracle: count decision tokens inside the body."""
    toks = tokenize(SourceFile.from_text("G.java", text))
    count = 0
    for t in toks:
        if t.span.start_line < body_span.start_line or t.span.start_line > body_span.end_line:
            continue
        if t.kind is TokenKind.KEYWORD and t.lexeme in ("if", "for", "while", "case", "catch"):
            count += 1
        elif t.kind is TokenKind.OPERATOR and t.lexeme in ("&&", "||", "?"):
            count += 1
    return count


HAND_SCORED_COGNITIVE = [
    ("x = 1;", 0),
    ("x = a + b;", 0),
    ("if (a > 0) { x = 1; }", 1),
    ("if (a > 0) { x = 1; } else { x = 2; }", 2),
    ("if (a > 0) { x = 1; } else if (b > 0) { x = 2; }", 2),
    ("if (a > 0) { x = 1; } else if (b > 0) { x = 2; } else { x = 3; }", 3),
    ("if (a > 0) { if (b > 0) { x = 1; } }", 3),
    ("while (a > 0) { a = a - 1; }", 1),
    ("while (a > 0) { if (b > 0) { b = 0; } a = a - 1; }", 3),
    ("for (int i = 0; i < 9; i++) { x = x + i; }", 1),
    ("do { a = a - 1; } while (a > 0);", 1),
    ("if (a > 0 && b > 0) { x = 1; }", 2),
    ("if (a > 0 && b > 0 || c > 0) { x = 1; }", 3),
    ("if (a > 0 && b > 0 && c > 0) { x = 1; }", 2),
    ("x = a > 0 ? 1 : 2;", 1),
    ("x = a > 0 ? (b > 0 ? 1 : 2) : 3;", 3),
    ("try { x = 1; } catch (Exception e) { x = 2; }", 1),
    ("try { x = 1; } catch (Exception e) { if (a > 0) { x = 2; } }", 3),
    ("switch (k) { case 1: x = 1; break; default: break; }", 1),
    ("outer: while (a > 0) { while (b > 0) { break outer; } }", 4),
]


def test_criterion_7_complexity_metrics():
    rng = random.Random(777)
    for _ in range(50):
        text = _generate_method(rng)
        out = parse_text("G.java", text)
        assert out.ok, out.failure
        method = out.ast.types[0].methods[0]
        metrics = method_metrics(method)
        oracle = 1 + _token_decision_count(text, method.body.span)
        assert metrics.cyclomatic == oracle, text

    for body, expected in HAND_SCORED_COGNITIVE:
        out = parse_text("G.java", "class G {\n    void m(int a, int b, int c, int k, int x) {\n        %s\n    }\n}\n" % body)
        assert out.ok, (body, out.failure)
        got = cognitive_complexity(out.ast.types[0].methods[0].body)
        assert got == expected, f"{body}: got {got}, scored {expected}"
    print("ACCEPTANCE 7 complexity-metrics: PASS (50 generated + 20 hand-scored)")


def test_criterion_8_parser_soundness(tmp_path):
    fixture_files = sorted(DATA.rglob("*.java"))
    assert fixture_files, "fixture corpus missing"
    for path in fixture_files:
        text = path.read_text(encoding="utf-8")
        toks = tokenize(SourceFile.from_text(str(path), text))
        assert "".join(t.lexeme for t in toks) == text, f"round-trip failed: {path}"

    corpus = load_manifest(MINI)
    for task in corpus.tasks:
        ref = corpus.resolve(task.reference_path)
        outcome = parse(SourceFile.from_text(str(ref), ref.read_text(encoding="utf-8")))
        assert outcome.ok, f"reference failed to parse: {ref}"

    broken = parse_text("B.java", "class B { void m( { }")
    assert not broken.ok and broken.failure.first_error_span.start_line == 1

    # End to end: the one broken m2 solution shrinks n_analyzed, never n_tasks.
    config = RunConfig(corpus_path=MINI, out_dir=tmp_path / "out")
    run_pipeline(config)
    cards = load_scorecards(tmp_path / "out" / "scores" / "all" / "all.json")
    by_subject = {c.subject: c for c in cards}
    assert by_subject["m2"].n_tasks == 10
    assert by_subject["m2"].n_analyzed == 9
    assert by_subject[BASELINE].n_analyzed == 10
    print(f"ACCEPTANCE 8 parser-soundness: PASS ({len(fixture_files)} fixture files)")


def test_criterion_9_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_pipeline(RunConfig(corpus_path=MINI, out_dir=out))
        trees.append({
            str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
        })
    assert trees[0].keys() == trees[1].keys()
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], f"nondeterministic output: {rel}"

    # Hand-audited oracle: per-task violation totals.
    out = tmp_path / "first"
    import csv as csv_mod

    with open(DATA / "mini_corpus_oracle.csv", newline="") as fh:
        for row in csv_mod.DictReader(fh):
            report_path = out / "reports" / row["subject"] / f"{row['task_id']}.json"
            import json

            doc = json.loads(report_path.read_text(encoding="utf-8"))
            assert doc["parse_ok"] == (row["parse_ok"] == "true"), (row, doc["parse_ok"])
            assert sum(doc["per_rule_counts"].values()) == int(row["total_violations"]), row

    # Hand-audited oracle: subject-level scorecards.
    cards = {c.subject: c for c in load_scorecards(out / "scores" / "all" / "all.json")}
    with open(DATA / "mini_corpus_vs_oracle.csv", newline="") as fh:
        for row in csv_mod.DictReader(fh):
            card = cards[row["subject"]]
            num, den = row["vs_fraction"].split("/")
            assert card.vs == Fraction(int(num), int(den)), row
            assert card.n_tasks == int(row["n_tasks"])
            assert card.n_analyzed == int(row["n_analyzed"])
            assert card.total_violations == int(row["total_violations"])
            inum, iden = row["increase_fraction"].split("/")
            assert card.increase_rate == Fraction(int(inum), int(iden)), row
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 9 end-to-end-determinism: PASS ({elapsed:.2f}s)")


def test_criterion_10_adapter_fidelity():
    external = DATA / "external"
    subject = ("T1", "m1")

    cs = import_reports([ExternalReport(format=CHECKSTYLE_XML, path=external / "sample_checkstyle.xml")], subject=subject)
    assert cs.report.per_rule_counts == {"javadoc-method": 1, "magic-number": 1}
    assert cs.unmapped_count == 1

    pmd = import_reports([ExternalReport(format=PMD_XML, path=external / "sample_pmd.xml")], subject=subject)
    assert pmd.report.per_rule_counts == {"empty-catch-block": 1, "unused-local-variable": 1}

    designite = import_reports(
        [ExternalReport(format=DESIGNITE_CSV, path=external / "sample_designite.csv")],
        subject=subject,
        source_path=external / "Subject.java",
    )
    assert designite.report.per_rule_counts == {"deficient-encapsulation": 1, "method-length": 1}

    for result in (cs, pmd, designite):
        assert diff_reports(result.report, result.report).is_empty

    # A native run over the same subject diffs cleanly against the import.
    source = SourceFile.from_text("Subject.java", (external / "Subject.java").read_text(encoding="utf-8"))
    native = detect_file(source, subject)
    summary = diff_reports(native, pmd.report)
    assert summary.per_rule["empty-catch-block"] == (0, 1)  # the crafted import disagrees on purpose
    print("ACCEPTANCE 10 adapter-fidelity: PASS")
