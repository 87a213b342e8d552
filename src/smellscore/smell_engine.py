"""Detection engine: runs the rule catalog over parsed sources and persists
one report per (subject, task) into the report store.

Report store layout under an output directory:

    reports/<subject>/<task_id>.json   one ViolationReport, fields verbatim
    reports/<subject>/_failures.json   task ids whose source failed to parse
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .corpus import Corpus
from .java_syntax import ParseOutcome, SourceFile, parse
from .outputs import DocumentError, json_text, read_json, write_files
from .rules import design as design_checks
from .rules import implementation as impl_checks
from .rules.catalog import catalog, rule_types
from .rules.context import FileFacts, RuleContext
from .rules.model import REPORT_SPEC, SmellRule, ViolationReport

BASELINE = "baseline"


def _build_registry() -> dict[str, object]:
    registry: dict[str, object] = {}
    for rule in catalog():
        fn_name = "check_" + rule.rule_id.replace("-", "_")
        fn = getattr(impl_checks, fn_name, None) or getattr(design_checks, fn_name, None)
        if fn is None:
            raise RuntimeError(f"no checker implemented for rule {rule.rule_id}")
        registry[rule.rule_id] = fn
    return registry


_REGISTRY = _build_registry()
_RULE_TYPES = rule_types()


class _UniqueRules(tuple):
    """Rules already collapsed by rule_id, first occurrence kept."""


_CATALOG_RULES = _UniqueRules(catalog())  # catalog ids are unique


def _unique_rules(rules: Sequence[SmellRule] | None) -> _UniqueRules:
    """rules (default: the full catalog) collapsed by rule_id."""
    if rules is None:
        return _CATALOG_RULES
    if isinstance(rules, _UniqueRules):
        return rules
    unique: dict[str, SmellRule] = {}
    for r in rules:
        unique.setdefault(r.rule_id, r)
    return _UniqueRules(unique.values())


def detect_file(
    source: SourceFile,
    subject: tuple[str, str],
    rules: Sequence[SmellRule] | None = None,
    outcome: ParseOutcome | None = None,
) -> ViolationReport:
    """Run the given rules (default: full catalog) over one source file.

    A parse failure produces a report with parse_ok=False and no violations.
    Duplicate rules in the input are collapsed by rule_id, the first one
    kept, so a rule passed twice cannot multiply counts.
    """
    unique = _unique_rules(rules)
    if outcome is None:
        outcome = parse(source)
    if not outcome.ok:
        failure = outcome.failure
        return _failure_report(subject, f"{failure.message} at {failure.first_error_span.as_tuple()}")

    ctx = RuleContext(source=source, facts=FileFacts(outcome.ast), tokens=outcome.tokens)

    violations = []
    for rule in unique:
        violations += _REGISTRY[rule.rule_id](ctx, rule)  # looked up per call: a hook may replace the entry
    return ViolationReport.build(subject, parse_ok=True, violations=violations, rule_types=_RULE_TYPES)


def _failure_report(subject: tuple[str, str], message: str) -> ViolationReport:
    return ViolationReport.build(subject, parse_ok=False, violations=[], rule_types=_RULE_TYPES, parse_error=message)


def detect_corpus(
    corpus: Corpus,
    subjects: Iterable[str],
    rules: Sequence[SmellRule] | None = None,
    out_dir: str | Path | None = None,
    jobs: int = 1,
) -> dict[str, dict[str, ViolationReport]]:
    """One report per (subject, task).  Subjects are model ids or 'baseline'.

    Per-file parse and decode failures are recorded in the reports, never
    raised.  When out_dir is given the reports are written with
    write_report_store; no file's bytes depend on which worker analyzed or
    wrote it.
    """
    rules = _unique_rules(rules)  # once, not once per file
    work: list[tuple[str, str, str]] = []
    for subject in sorted(set(subjects)):
        for task in corpus.tasks:
            if subject == BASELINE:
                rel = task.reference_path
            else:
                solution = task.solution_for(subject)
                if solution is None:
                    continue
                rel = solution.path
            work.append((subject, task.task_id, rel))

    def run(item: tuple[str, str, str]) -> tuple[str, str, ViolationReport]:
        subject, task_id, rel = item
        # named by its manifest path, so that a report does not depend on where the corpus lies
        try:
            source = SourceFile.read(corpus.resolve(rel), rel)
        except UnicodeDecodeError as e:
            return subject, task_id, _failure_report((task_id, subject), f"source is not valid UTF-8: {e}")
        return subject, task_id, detect_file(source, (task_id, subject), rules)

    results: dict[str, dict[str, ViolationReport]] = {}
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: one worker needs no thread pool

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(run, work))
    else:
        done = [run(item) for item in work]
    for subject, task_id, report in done:
        results.setdefault(subject, {})[task_id] = report

    if out_dir is not None:
        write_report_store(results, out_dir)
    return results


# --------------------------------------------------------------------------
# Report store
# --------------------------------------------------------------------------

def write_report_store(results: dict[str, dict[str, ViolationReport]], out_dir: str | Path) -> int:
    """Write one file per report and a failure roster per subject through
    outputs.write_files, each only when its bytes change; returns how many
    files changed.  Any of the writer threads may write a file, but its
    bytes are those of its report alone."""
    return write_files(_report_store_files(results, Path(out_dir) / "reports"))


def _report_store_files(results: dict[str, dict[str, ViolationReport]], base: Path) -> Iterator[tuple[Path, str]]:
    """Per subject, each report file and then the failure roster, in
    canonical order, each text built only when it is asked for."""
    for subject in sorted(results):
        failures: list[dict] = []
        for task_id in sorted(results[subject]):
            report = results[subject][task_id]
            yield base / subject / f"{task_id}.json", json_text(report.to_json())
            if not report.parse_ok:
                failures.append({"task_id": task_id, "error": report.parse_error})
        yield base / subject / "_failures.json", json_text(failures)


class StoredCounts(NamedTuple):
    """What scoring reads of one stored report."""

    parse_ok: bool
    per_type_counts: dict[str, int]


def load_report_store(out_dir: str | Path) -> dict[str, dict[str, StoredCounts]]:
    """Each stored report's StoredCounts by subject and task id.  Every report
    passes read_report's checks, but no Violation is built."""
    base = os.path.join(Path(out_dir), "reports")
    results: dict[str, dict[str, StoredCounts]] = {}
    if not os.path.isdir(base):
        return results
    for subject in sorted(entry.name for entry in os.scandir(base) if entry.is_dir()):
        prefix = os.path.join(base, subject, "")
        by_task = results[subject] = {}
        for name in sorted(os.listdir(prefix)):
            if name.endswith(".json") and name != "_failures.json":
                doc = _checked_report(prefix + name)
                by_task[name[:-5]] = StoredCounts(doc["parse_ok"], doc["per_type_counts"])
    return results


def read_report(path: str | Path) -> ViolationReport:
    """One stored report; a file that is not a well-formed report raises
    DocumentError naming it."""
    return ViolationReport.from_json(_checked_report(path))


def _checked_report(path: str | Path) -> dict[str, Any]:
    """The JSON document of a well-formed stored report, else DocumentError.

    Scores are summed from per_type_counts, so those must be exactly the
    per-type sums of per_rule_counts, and every rule id must be cataloged.
    per_rule_counts must be the counts of the violations, since diff reads both.
    """
    doc = read_json(path, REPORT_SPEC, DocumentError)
    per_rule_counts, per_type_counts = doc["per_rule_counts"], doc["per_type_counts"]
    per_type: dict[str, int] = {}
    for rule_id, count in per_rule_counts.items():
        smell_type = _RULE_TYPES.get(rule_id)
        if smell_type is None:
            raise DocumentError(f"{path}: not a well-formed report: unknown rule id {rule_id!r}")
        per_type[smell_type] = per_type.get(smell_type, 0) + count
    if per_type != per_type_counts:
        raise DocumentError(
            f"{path}: not a well-formed report: per_type_counts {per_type_counts} "
            f"are not the per-type sums of per_rule_counts {per_type}"
        )
    per_rule: dict[str, int] = {}
    for v in doc["violations"]:
        rule_id = v["rule_id"]
        per_rule[rule_id] = per_rule.get(rule_id, 0) + 1
    if per_rule != per_rule_counts:  # equal counts have only cataloged ids
        unknown = sorted(per_rule.keys() - _RULE_TYPES.keys())
        if unknown:
            raise DocumentError(f"{path}: not a well-formed report: unknown rule id {unknown[0]!r} in violations")
        raise DocumentError(
            f"{path}: not a well-formed report: per_rule_counts {per_rule_counts} "
            f"are not the counts of the violations {dict(sorted(per_rule.items()))}"
        )
    return doc
