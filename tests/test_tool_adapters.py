"""External report import: format parsing, canonical mapping, the count-once
merge policy for multi-origin rules, and report diffing."""

from __future__ import annotations

from pathlib import Path

import pytest

from smellscore.java_syntax.lexer import Span
from smellscore.rules.catalog import CHECKSTYLE, DESIGNITE, PMD, catalog, multi_origin_rules, rule_types
from smellscore.rules.model import Violation, ViolationReport
from smellscore.tool_adapters import (
    CHECKSTYLE_XML,
    DESIGNITE_CSV,
    PMD_XML,
    ExternalReport,
    FormatError,
    UnknownDetectorError,
    diff_reports,
    import_reports,
)

DATA = Path(__file__).parent / "data" / "external"
SUBJECT = ("T1", "m1")


def _checkstyle(path: Path, errors: list[tuple[str, int]]) -> ExternalReport:
    rows = "\n".join(
        f'    <error line="{line}" source="com.example.{rule}Check" message="x"/>' for rule, line in errors
    )
    path.write_text(
        f'<?xml version="1.0"?>\n<checkstyle version="10">\n  <file name="Subject.java">\n{rows}\n  </file>\n</checkstyle>\n',
        encoding="utf-8",
    )
    return ExternalReport(format=CHECKSTYLE_XML, path=path)


def _pmd(path: Path, violations: list[tuple[str, int]]) -> ExternalReport:
    rows = "\n".join(
        f'    <violation beginline="{line}" rule="{rule}" ruleset="x">msg</violation>' for rule, line in violations
    )
    path.write_text(
        f'<?xml version="1.0"?>\n<pmd version="7">\n  <file name="Subject.java">\n{rows}\n  </file>\n</pmd>\n',
        encoding="utf-8",
    )
    return ExternalReport(format=PMD_XML, path=path)


def _designite(path: Path, rows: list[tuple[str, str, str]]) -> ExternalReport:
    body = "\n".join(f"demo,(default),{t},{m},{smell}" for t, m, smell in rows)
    path.write_text(
        "Project Name,Package Name,Type Name,Method Name,Code Smell\n" + body + "\n",
        encoding="utf-8",
    )
    return ExternalReport(format=DESIGNITE_CSV, path=path)


class TestImport:
    def test_checkstyle_magic_number(self, tmp_path):
        report = _checkstyle(tmp_path / "cs.xml", [("MagicNumber", 5)])
        result = import_reports([report], subject=SUBJECT)
        assert result.report.per_rule_counts == {"magic-number": 1}
        v = result.report.violations[0]
        assert v.span.start_line == 5
        assert v.file == "Subject.java"

    def test_empty_checkstyle_document(self, tmp_path):
        path = tmp_path / "empty.xml"
        path.write_text('<?xml version="1.0"?>\n<checkstyle version="10"/>\n', encoding="utf-8")
        result = import_reports([ExternalReport(format=CHECKSTYLE_XML, path=path)], subject=SUBJECT)
        assert result.report.total_violations == 0

    def test_committed_sample_files(self):
        cs = import_reports([ExternalReport(format=CHECKSTYLE_XML, path=DATA / "sample_checkstyle.xml")], subject=SUBJECT)
        assert cs.report.per_rule_counts == {"javadoc-method": 1, "magic-number": 1}
        assert cs.unmapped_count == 1  # the MadeUpCheck row is surfaced, not dropped

        pmd = import_reports([ExternalReport(format=PMD_XML, path=DATA / "sample_pmd.xml")], subject=SUBJECT)
        assert pmd.report.per_rule_counts == {"empty-catch-block": 1, "unused-local-variable": 1}
        assert pmd.unmapped_count == 0

        designite = import_reports(
            [ExternalReport(format=DESIGNITE_CSV, path=DATA / "sample_designite.csv")],
            subject=SUBJECT,
            source_path=DATA / "Subject.java",
        )
        assert designite.report.per_rule_counts == {"deficient-encapsulation": 1, "method-length": 1}
        assert designite.unmapped_count == 1
        by_rule = {v.rule_id: v for v in designite.report.violations}
        assert by_rule["method-length"].span.start_line == 4  # resolved to grow()
        assert by_rule["deficient-encapsulation"].span.start_line == 1  # whole-type span

    def test_designite_without_source_defaults_to_line_one(self, tmp_path):
        report = _designite(tmp_path / "d.csv", [("Subject", "", "Deficient Encapsulation")])
        result = import_reports([report], subject=SUBJECT)
        assert result.report.violations[0].span.start_line == 1

    def test_import_is_lossless_modulo_mapping(self, tmp_path):
        report = _checkstyle(
            tmp_path / "cs.xml",
            [("MagicNumber", 5), ("MagicNumber", 5), ("Unknown", 6), ("LineLength", 2)],
        )
        result = import_reports([report], subject=SUBJECT)
        external_findings = 4
        collapsed = 1  # the repeated MagicNumber line
        assert result.report.total_violations + result.unmapped_count == external_findings - collapsed

    def test_wrong_root_element(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<nonsense/>", encoding="utf-8")
        with pytest.raises(FormatError):
            import_reports([ExternalReport(format=CHECKSTYLE_XML, path=path)], subject=SUBJECT)
        with pytest.raises(FormatError):
            import_reports([ExternalReport(format=PMD_XML, path=path)], subject=SUBJECT)

    def test_missing_designite_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            import_reports([ExternalReport(format=DESIGNITE_CSV, path=path)], subject=SUBJECT)

    def test_unknown_detector(self, tmp_path):
        with pytest.raises(UnknownDetectorError):
            ExternalReport(format="lint_txt", path=tmp_path / "x")


class TestDeclaredOrigins:
    """Every (detector, native rule name) pair a catalog rule declares imports
    to a single violation of that rule."""

    ORIGINS = [(detector, native, rule.rule_id) for rule in catalog() for detector, native in rule.origins]

    @pytest.mark.parametrize("detector, native, rule_id", ORIGINS, ids=[f"{d}:{n}" for d, n, _ in ORIGINS])
    def test_origin_imports_to_its_rule(self, tmp_path, detector, native, rule_id):
        if detector == PMD:
            report = _pmd(tmp_path / "p.xml", [(native, 3)])
        elif detector == CHECKSTYLE:
            report = _checkstyle(tmp_path / "c.xml", [(native, 3)])
        else:
            assert detector == DESIGNITE
            report = _designite(tmp_path / "d.csv", [("Subject", "", native)])
        result = import_reports([report], subject=SUBJECT)
        assert [v.rule_id for v in result.report.violations] == [rule_id]
        assert result.unmapped_count == 0


class TestCountOnceMerge:
    """Every multi-origin rule imports to a single violation when two
    detectors report the same finding."""

    def _two_detector_reports(self, rule_id: str, tmp_path):
        line = 4  # grow() in Subject.java
        if rule_id == "local-variable-name":
            return [
                _pmd(tmp_path / "p.xml", [("LocalVariableNamingConventions", line)]),
                _checkstyle(tmp_path / "c.xml", [("LocalVariableName", line)]),
            ], None
        if rule_id == "method-name":
            return [
                _pmd(tmp_path / "p.xml", [("MethodNamingConventions", line)]),
                _checkstyle(tmp_path / "c.xml", [("MethodName", line)]),
            ], None
        if rule_id == "simplify-boolean-return":
            return [
                _pmd(tmp_path / "p.xml", [("SimplifyBooleanReturns", line)]),
                _checkstyle(tmp_path / "c.xml", [("SimplifyBooleanReturn", line)]),
            ], None
        if rule_id == "empty-catch-block":
            return [
                _pmd(tmp_path / "p.xml", [("EmptyCatchBlock", line)]),
                _checkstyle(tmp_path / "c.xml", [("EmptyCatchBlock", line)]),
            ], None
        if rule_id == "unused-local-variable":
            return [
                _pmd(tmp_path / "p.xml", [("UnusedLocalVariable", line)]),
                _checkstyle(tmp_path / "c.xml", [("UnusedLocalVariable", line)]),
            ], None
        if rule_id == "method-length":
            return [
                _checkstyle(tmp_path / "c.xml", [("MethodLength", line)]),
                _designite(tmp_path / "d.csv", [("Subject", "grow", "Long Method")]),
            ], DATA / "Subject.java"
        if rule_id == "excessive-parameter-list":
            return [
                _pmd(tmp_path / "p.xml", [("ExcessiveParameterList", line)]),
                _designite(tmp_path / "d.csv", [("Subject", "grow", "Long Parameter List")]),
            ], DATA / "Subject.java"
        raise AssertionError(f"no merge case for {rule_id}")

    @pytest.mark.parametrize("rule", multi_origin_rules(), ids=lambda r: r.rule_id)
    def test_same_finding_from_two_origins_counts_once(self, rule, tmp_path):
        reports, source = self._two_detector_reports(rule.rule_id, tmp_path)
        # the designite-backed cases anchor on the file the CSV resolves to
        if source is not None:
            for r in reports:
                if r.format != DESIGNITE_CSV:
                    text = r.path.read_text(encoding="utf-8").replace('name="Subject.java"', f'name="{source}"')
                    r.path.write_text(text, encoding="utf-8")
        result = import_reports(reports, subject=SUBJECT, source_path=source)
        assert result.report.per_rule_counts == {rule.rule_id: 1}, rule.rule_id


def _make_report(counts: dict[str, list[int]]) -> ViolationReport:
    violations = [
        Violation(rule_id=rule_id, file="Subject.java", span=Span(line, 1, line, 2), message="x", snippet="")
        for rule_id, lines in counts.items()
        for line in lines
    ]
    return ViolationReport.build(SUBJECT, parse_ok=True, violations=violations, rule_types=rule_types())


class TestDiff:
    def test_identical_reports_diff_empty(self):
        a = _make_report({"magic-number": [5, 9], "line-length": [2]})
        assert diff_reports(a, a).is_empty

    def test_one_extra_native_finding(self):
        native = _make_report({"magic-number": [5, 9]})
        imported = _make_report({"magic-number": [5]})
        summary = diff_reports(native, imported)
        assert summary.per_rule["magic-number"] == (2, 1)
        assert summary.only_in_native == [("magic-number", 9)]
        assert summary.only_in_imported == []

    def test_three_known_disagreements(self):
        native = _make_report({"magic-number": [5], "need-braces": [7]})
        imported = _make_report({"magic-number": [5], "empty-catch-block": [8], "todo-comment": [1]})
        summary = diff_reports(native, imported)
        disagreements = summary.only_in_native + summary.only_in_imported
        assert sorted(disagreements) == [
            ("empty-catch-block", 8),
            ("need-braces", 7),
            ("todo-comment", 1),
        ]
        assert sum(1 for a, b in summary.per_rule.values() if a != b) == 3

    def test_subject_mismatch_rejected(self):
        a = _make_report({"magic-number": [5]})
        b = ViolationReport.build(("T2", "m1"), True, [], rule_types())
        with pytest.raises(ValueError):
            diff_reports(a, b)

    def test_csv_shape(self):
        native = _make_report({"magic-number": [5, 9]})
        imported = _make_report({"magic-number": [5]})
        text = diff_reports(native, imported).to_csv()
        assert text.splitlines()[0] == "rule_id,native_count,imported_count,delta"
        assert "magic-number,2,1,-1" in text
