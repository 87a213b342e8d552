"""Importers for reports produced by external detectors (PMD XML, Checkstyle
XML, DesigniteJava CSV), mapped into canonical violation reports.

Rule names native to each detector are translated through the (detector,
native rule name) origins that each rule declares in the rule catalog;
findings no rule declares are collected in an unmapped bucket, counted,
never silently dropped.  Findings that reach the same canonical rule at the
same (file, line) collapse to one violation, so importing the same rule from
two detectors cannot double count.

Each adapter tolerates unknown extra attributes and fails only on missing
required ones.  Designite rows carry no line numbers; when the source file
is available the row is resolved to its method or type span, else line 1.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .java_syntax import SourceFile, parse
from .java_syntax import nodes as n
from .java_syntax.lexer import Span
from .rules.catalog import CHECKSTYLE, DESIGNITE, PMD, rule_for_origin, rule_types
from .rules.model import Violation, ViolationReport

PMD_XML = "pmd_xml"
CHECKSTYLE_XML = "checkstyle_xml"
DESIGNITE_CSV = "designite_csv"
FORMATS = (PMD_XML, CHECKSTYLE_XML, DESIGNITE_CSV)


class FormatError(Exception):
    """The file does not match its declared format."""


class UnknownDetectorError(Exception):
    """The declared format is not one of the supported detectors."""


@dataclass(frozen=True)
class ExternalReport:
    format: str
    path: Path

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise UnknownDetectorError(f"unsupported format {self.format!r}")


@dataclass
class ImportResult:
    report: ViolationReport
    unmapped: list[tuple[str, str]] = field(default_factory=list)  # (native rule, file)

    @property
    def unmapped_count(self) -> int:
        return len(self.unmapped)


@dataclass(frozen=True)
class _Finding:
    detector: str
    native_rule: str
    file: str
    line: int
    col: int
    message: str


def import_reports(
    reports: Iterable[ExternalReport],
    subject: tuple[str, str] = ("external", "imported"),
    source_path: str | Path | None = None,
) -> ImportResult:
    """Translate and merge several external reports for one subject.

    Findings mapping to the same (rule_id, file, line) collapse to a single
    violation, which is what makes footnote-merged rules count once when both
    detectors report them.
    """
    findings: list[_Finding] = []
    for report in reports:
        findings.extend(_read_findings(report, source_path))

    types = rule_types()
    unmapped: list[tuple[str, str]] = []
    seen: set[tuple[str, str, int]] = set()
    violations: list[Violation] = []
    for f in findings:
        rule_id = rule_for_origin(f.detector, f.native_rule)
        if rule_id is None:
            unmapped.append((f"{f.detector}:{f.native_rule}", f.file))
            continue
        key = (rule_id, f.file, f.line)
        if key in seen:
            continue
        seen.add(key)
        violations.append(
            Violation(
                rule_id=rule_id,
                file=f.file,
                span=Span(f.line, f.col, f.line, f.col + 1),
                message=f.message or f"{f.native_rule} ({f.detector})",
                snippet="",
            )
        )
    built = ViolationReport.build(subject, parse_ok=True, violations=violations, rule_types=types)
    return ImportResult(report=built, unmapped=sorted(unmapped))


def _read_findings(report: ExternalReport, source_path: str | Path | None) -> list[_Finding]:
    if report.format == CHECKSTYLE_XML:
        return _read_checkstyle(report.path)
    if report.format == PMD_XML:
        return _read_pmd(report.path)
    return _read_designite(report.path, source_path)


def _parse_xml(path: Path) -> ET.Element:
    try:
        return ET.parse(path).getroot()
    except (ET.ParseError, OSError, LookupError) as e:  # LookupError: an unknown declared encoding
        raise FormatError(f"{path}: not parseable XML: {e}") from e


def _integer(path: Path, tag: str, name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FormatError(f"{path}: <{tag}> attribute {name}={value!r} is not an integer") from None


def _read_checkstyle(path: Path) -> list[_Finding]:
    root = _parse_xml(path)
    if root.tag != "checkstyle":
        raise FormatError(f"{path}: root element is <{root.tag}>, expected <checkstyle>")
    out: list[_Finding] = []
    for file_el in root.findall("file"):
        name = file_el.get("name")
        if name is None:
            raise FormatError(f"{path}: <file> without name attribute")
        for err in file_el.findall("error"):
            source = err.get("source")
            line = err.get("line")
            if source is None or line is None:
                raise FormatError(f"{path}: <error> needs source and line attributes")
            native = source.rsplit(".", 1)[-1]
            if native.endswith("Check"):
                native = native[: -len("Check")]
            out.append(
                _Finding(
                    detector=CHECKSTYLE,
                    native_rule=native,
                    file=name,
                    line=_integer(path, "error", "line", line),
                    col=_integer(path, "error", "column", err.get("column", "1") or "1"),
                    message=err.get("message", ""),
                )
            )
    return out


def _read_pmd(path: Path) -> list[_Finding]:
    root = _parse_xml(path)
    tag = root.tag.split("}")[-1]  # tolerate the pmd namespace
    if tag != "pmd":
        raise FormatError(f"{path}: root element is <{root.tag}>, expected <pmd>")
    out: list[_Finding] = []
    for file_el in root.iter():
        if file_el.tag.split("}")[-1] != "file":
            continue
        name = file_el.get("name")
        if name is None:
            raise FormatError(f"{path}: <file> without name attribute")
        for violation in file_el:
            if violation.tag.split("}")[-1] != "violation":
                continue
            rule = violation.get("rule")
            beginline = violation.get("beginline")
            if rule is None or beginline is None:
                raise FormatError(f"{path}: <violation> needs rule and beginline attributes")
            out.append(
                _Finding(
                    detector=PMD,
                    native_rule=rule,
                    file=name,
                    line=_integer(path, "violation", "beginline", beginline),
                    col=_integer(path, "violation", "begincolumn", violation.get("begincolumn", "1") or "1"),
                    message=(violation.text or "").strip(),
                )
            )
    return out


_DESIGNITE_REQUIRED = ("Project Name", "Package Name", "Type Name", "Code Smell")


def _read_designite(path: Path, source_path: str | Path | None) -> list[_Finding]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise FormatError(f"{path}: empty CSV")
            missing = [c for c in _DESIGNITE_REQUIRED if c not in reader.fieldnames]
            if missing:
                raise FormatError(f"{path}: missing columns {missing}")
            rows = []
            for row in reader:
                if None in row.values():  # DictReader's filler for the fields a short row lacks
                    fields = len(reader.fieldnames)
                    raise FormatError(f"{path}: line {reader.line_num}: fewer fields than the header's {fields}")
                rows.append(row)
    except (csv.Error, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: not parseable CSV: {e}") from e

    spans = _designite_spans(source_path) if source_path is not None else ({}, {})
    type_lines, method_lines = spans
    out: list[_Finding] = []
    for row in rows:
        type_name = row["Type Name"].strip()
        method_name = (row.get("Method Name") or "").strip()
        line = 1
        if method_name and (type_name, method_name) in method_lines:
            line = method_lines[(type_name, method_name)]
        elif type_name in type_lines:
            line = type_lines[type_name]
        file_name = str(source_path) if source_path is not None else f"{row['Package Name'].strip()}.{type_name}"
        out.append(
            _Finding(
                detector=DESIGNITE,
                native_rule=row["Code Smell"].strip(),
                file=file_name,
                line=line,
                col=1,
                message=f"{row['Code Smell'].strip()} on {type_name}" + (f".{method_name}" if method_name else ""),
            )
        )
    return out


def _designite_spans(source_path: str | Path) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """Start lines for types and methods, used to anchor line-less CSV rows."""
    path = Path(source_path)
    if not path.is_file():
        return {}, {}
    try:
        source = SourceFile.read(path, str(path))
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: the Java source is not UTF-8: {e}") from e
    outcome = parse(source)
    if not outcome.ok:
        return {}, {}
    type_lines: dict[str, int] = {}
    method_lines: dict[tuple[str, str], int] = {}
    for decl in outcome.ast.all_types():
        type_lines.setdefault(decl.name, decl.span.start_line)
        for member in decl.members:
            if isinstance(member, n.MethodDecl):
                method_lines.setdefault((decl.name, member.name), member.span.start_line)
    return type_lines, method_lines


# --------------------------------------------------------------------------
# Cross-validation diff
# --------------------------------------------------------------------------

@dataclass
class DiffSummary:
    per_rule: dict[str, tuple[int, int]]  # rule_id -> (native count, imported count)
    only_in_native: list[tuple[str, int]]  # (rule_id, start line)
    only_in_imported: list[tuple[str, int]]

    @property
    def is_empty(self) -> bool:
        return not self.only_in_native and not self.only_in_imported and all(
            a == b for a, b in self.per_rule.values()
        )

    def to_csv(self) -> str:
        lines = ["rule_id,native_count,imported_count,delta"]
        for rule_id in sorted(self.per_rule):
            native, imported = self.per_rule[rule_id]
            lines.append(f"{rule_id},{native},{imported},{imported - native}")
        return "\n".join(lines) + "\n"


def diff_reports(native: ViolationReport, imported: ViolationReport) -> DiffSummary:
    """Exact symmetric difference on (rule_id, start_line), plus count deltas."""
    if native.subject != imported.subject:
        raise ValueError(f"subject mismatch: {native.subject} vs {imported.subject}")

    def keyed(report: ViolationReport) -> dict[tuple[str, int], int]:
        out: dict[tuple[str, int], int] = {}
        for v in report.violations:
            key = (v.rule_id, v.span.start_line)
            out[key] = out.get(key, 0) + 1
        return out

    native_keys = keyed(native)
    imported_keys = keyed(imported)

    only_native: list[tuple[str, int]] = []
    only_imported: list[tuple[str, int]] = []
    for key in sorted(set(native_keys) | set(imported_keys)):
        diff = native_keys.get(key, 0) - imported_keys.get(key, 0)
        if diff > 0:
            only_native.extend([key] * diff)
        elif diff < 0:
            only_imported.extend([key] * (-diff))

    per_rule: dict[str, tuple[int, int]] = {}
    for rule_id in sorted(set(native.per_rule_counts) | set(imported.per_rule_counts)):
        per_rule[rule_id] = (
            native.per_rule_counts.get(rule_id, 0),
            imported.per_rule_counts.get(rule_id, 0),
        )
    return DiffSummary(per_rule=per_rule, only_in_native=only_native, only_in_imported=only_imported)
