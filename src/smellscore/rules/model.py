"""Rule, violation, and report types shared by the detection engine and the
external-report adapters."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..java_syntax.lexer import Span
from ..outputs import optional

IMPLEMENTATION = "implementation"
DESIGN = "design"

IMPLEMENTATION_TYPES = (
    "inconsistent-naming",
    "excessive-complexity",
    "redundancy",
    "incompleteness",
    "improper-alignment",
    "magic-number",
    "dead-code",
    "resource-handling",
    "documentation",
)

DESIGN_TYPES = (
    "modularity",
    "encapsulation",
    "hierarchy",
    "abstraction",
)

ALL_TYPES = IMPLEMENTATION_TYPES + DESIGN_TYPES


@dataclass(frozen=True)
class SmellRule:
    rule_id: str
    smell_type: str
    origins: tuple[tuple[str, str], ...]  # (detector, native rule name)
    description: str
    thresholds: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.smell_type not in ALL_TYPES:
            raise ValueError(f"{self.rule_id}: {self.smell_type} is not a smell type")
        if not self.origins:
            raise ValueError(f"{self.rule_id}: needs at least one origin")

    @property
    def category(self) -> str:
        """implementation or design, by the smell type."""
        return IMPLEMENTATION if self.smell_type in IMPLEMENTATION_TYPES else DESIGN

    @property
    def origin_tags(self) -> frozenset[str]:
        """The detectors that implement this rule."""
        return frozenset(detector for detector, _ in self.origins)

    def threshold(self, name: str) -> Any:
        return self.thresholds[name]

    def with_thresholds(self, **overrides: Any) -> "SmellRule":
        return replace(self, thresholds={**self.thresholds, **overrides})


@dataclass(frozen=True)
class Violation:
    rule_id: str
    file: str
    span: Span
    message: str
    snippet: str

    def sort_key(self) -> tuple:
        return (self.file, self.span.start_line, self.span.start_col, self.rule_id)

    def to_json(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "file": self.file,
            "span": list(self.span.as_tuple()),
            "message": self.message,
            "snippet": self.snippet,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Violation":
        """Inverse of to_json, for a doc that fits _VIOLATION_SPEC."""
        return cls(doc["rule_id"], doc["file"], Span(*doc["span"]), doc["message"], doc["snippet"])


_VIOLATION_SPEC = {"rule_id": str, "file": str, "span": [int] * 4, "message": str, "snippet": str}


@dataclass
class ViolationReport:
    subject: tuple[str, str]  # (task_id, model_id or "baseline")
    parse_ok: bool
    violations: list[Violation]
    per_rule_counts: dict[str, int]
    per_type_counts: dict[str, int]
    parse_error: str | None = None

    @classmethod
    def build(
        cls,
        subject: tuple[str, str],
        parse_ok: bool,
        violations: list[Violation],
        rule_types: dict[str, str],
        parse_error: str | None = None,
    ) -> "ViolationReport":
        ordered = sorted(violations, key=Violation.sort_key)
        per_rule: dict[str, int] = {}
        for v in ordered:
            per_rule[v.rule_id] = per_rule.get(v.rule_id, 0) + 1
        per_type: dict[str, int] = {}
        for rule_id, count in per_rule.items():
            t = rule_types[rule_id]
            per_type[t] = per_type.get(t, 0) + count
        return cls(
            subject=subject,
            parse_ok=parse_ok,
            violations=ordered,
            per_rule_counts=dict(sorted(per_rule.items())),
            per_type_counts=dict(sorted(per_type.items())),
            parse_error=parse_error,
        )

    @property
    def total_violations(self) -> int:
        return len(self.violations)

    def count_for_rules(self, rule_ids: set[str]) -> int:
        return sum(c for r, c in self.per_rule_counts.items() if r in rule_ids)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "subject": {"task_id": self.subject[0], "model_id": self.subject[1]},
            "parse_ok": self.parse_ok,
            "violations": [v.to_json() for v in self.violations],
            "per_rule_counts": self.per_rule_counts,
            "per_type_counts": self.per_type_counts,
        }
        if self.parse_error is not None:
            out["parse_error"] = self.parse_error
        return out

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ViolationReport":
        """Inverse of to_json, for a doc that fits REPORT_SPEC."""
        subject = doc["subject"]
        violations = [Violation.from_json(v) for v in doc["violations"]]
        return cls(**{**doc, "subject": (subject["task_id"], subject["model_id"]), "violations": violations})


REPORT_SPEC = {
    "subject": {"task_id": str, "model_id": str}, "parse_ok": bool, "violations": [_VIOLATION_SPEC],
    "per_rule_counts": {str: int}, "per_type_counts": {str: int}, optional("parse_error"): str,
}
