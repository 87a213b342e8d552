"""Command-line front end.

Verbs: ingest, generate, analyze, import-reports, score, report, diff, and
run (analyze then score then report).  Outputs are a pure function of the
corpus content and configuration: files are rewritten only when their bytes
change, so a rerun over unchanged inputs reports zero recomputed files and
leaves byte-identical trees.

Exit codes: 0 ok, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

from .corpus import (
    Corpus,
    DuplicateTaskError,
    ManifestSyntaxError,
    MissingFileError,
    load_manifest,
    require_plain_name,
    validate_corpus,
)
from .outputs import DocumentError, json_text, optional, read_json, write_files
from .rules.catalog import catalog
from .rules.model import SmellRule, ViolationReport
from .scoreboard import (
    ReportCounts,
    RuleSetSelector,
    ScenarioSelector,
    ScoreCard,
    score_scenario,
    write_heatmaps,
    write_scorecards,
)
from .smell_engine import (
    BASELINE,
    detect_corpus,
    load_report_store,
    read_report,
    write_report_store,
)


class ConfigError(Exception):
    pass


class IoError(Exception):
    pass


@dataclass
class RunConfig:
    corpus_path: Path
    out_dir: Path
    subjects: list[str] = field(default_factory=list)
    scenarios: list[ScenarioSelector] = field(default_factory=lambda: [ScenarioSelector.parse("all")])
    rulesets: list[RuleSetSelector] = field(default_factory=lambda: [RuleSetSelector.parse("all")])
    threshold_overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        # Each subject is a column and each (scenario, ruleset) a file: a
        # repeat would duplicate cards or overwrite a file it already wrote.
        for what, labels in (
            ("subject", self.subjects),
            ("scenario", [s.label for s in self.scenarios]),
            ("ruleset", [r.label for r in self.rulesets]),
        ):
            seen: set[str] = set()
            for label in labels:
                if label in seen:
                    raise ConfigError(f"repeated {what} {label!r}")
                seen.add(label)

    @cached_property
    def corpus(self) -> Corpus:
        """The config's corpus, which must hold every model that the config's
        subjects and correctness scenarios name.  It is loaded on first read
        and kept, so the stages of one run share one load."""
        corpus = load_manifest(self.corpus_path)
        for subject in self.subjects:
            if subject != BASELINE and subject not in corpus.models:
                raise ConfigError(f"subject {subject!r} is neither {BASELINE!r} nor a model of the corpus")
        for scenario in self.scenarios:
            if scenario.model_id is not None and scenario.model_id not in corpus.models:
                raise ConfigError(f"correctness model {scenario.model_id!r} is not a model of the corpus")
        return corpus

    def rules(self) -> list[SmellRule]:
        out = []
        for rule in catalog():
            overrides = self.threshold_overrides.get(rule.rule_id)
            out.append(rule.with_thresholds(**overrides) if overrides else rule)
        return out

    @classmethod
    def from_json_file(cls, path: Path) -> "RunConfig":
        try:
            doc = read_json(path, _config_spec(), ConfigError)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e
        thresholds = doc.get("thresholds", {})
        try:
            for rule_id, overrides in thresholds.items():
                if "pattern" in overrides:
                    try:
                        re.compile(overrides["pattern"])
                    except re.error as e:
                        raise ConfigError(f"threshold 'pattern' for rule {rule_id!r} is not a regex: {e}") from e
            return cls(
                corpus_path=Path(doc["corpus"]),
                out_dir=Path(doc["out"]),
                subjects=doc.get("subjects", []),
                scenarios=[ScenarioSelector.parse(s) for s in doc.get("scenarios", ["all"])],
                rulesets=[RuleSetSelector.parse(r) for r in doc.get("rulesets", ["all"])],
                threshold_overrides=thresholds,
                parallelism=doc.get("jobs", 1),
            )
        except (ConfigError, ValueError) as e:  # named by the file, as read_json names spec misfits
            raise ConfigError(f"{path}: {e}") from e


def _config_spec() -> dict[Any, Any]:
    """The run config's spec: a threshold takes the type of its catalog
    default, or a list of the items of a tuple default."""
    thresholds = {
        optional(rule.rule_id): {
            optional(key): [type(default[0])] if type(default) is tuple else type(default)
            for key, default in rule.thresholds.items()
        }
        for rule in catalog()
    }
    return {
        "corpus": str, "out": str, optional("subjects"): [str], optional("scenarios"): [str],
        optional("rulesets"): [str], optional("thresholds"): thresholds, optional("jobs"): int,
    }


@dataclass
class RunSummary:
    reports_written: int = 0
    scorecards_written: int = 0
    heatmaps_written: int = 0
    files_changed: int = 0
    parse_failures: dict[str, list[str]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "reports_written": self.reports_written,
            "scorecards_written": self.scorecards_written,
            "heatmaps_written": self.heatmaps_written,
            "recomputed": self.files_changed,
            "parse_failures": self.parse_failures,
        }


# --------------------------------------------------------------------------
# Pipeline stages
# --------------------------------------------------------------------------

def run_analyze(config: RunConfig, summary: RunSummary) -> dict[str, dict[str, ViolationReport]]:
    corpus = config.corpus
    subjects = config.subjects or [BASELINE, *sorted(corpus.models)]
    reports = detect_corpus(corpus, subjects, rules=config.rules(), jobs=config.parallelism)
    summary.files_changed += write_report_store(reports, config.out_dir)
    for subject, by_task in reports.items():
        summary.reports_written += len(by_task)
        failed = sorted(task_id for task_id, report in by_task.items() if not report.parse_ok)
        if failed:
            summary.parse_failures[subject] = failed
    return reports


def run_score(config: RunConfig, summary: RunSummary, reports=None) -> list[ScoreCard]:
    corpus = config.corpus
    if reports is None:
        reports = load_report_store(config.out_dir)
        if not reports:
            raise IoError(f"no report store under {config.out_dir}")
    subjects = config.subjects or sorted(reports)
    counts = ReportCounts(corpus, reports)
    cells: list[tuple[str, str, list[ScoreCard]]] = []
    for scenario in config.scenarios:
        for ruleset in config.rulesets:
            cards = score_scenario(corpus, counts, scenario, ruleset, subjects)
            cells.append((scenario.label, ruleset.label, cards))
            summary.scorecards_written += len(cards)
    summary.files_changed += write_scorecards(cells, config.out_dir)
    return [card for _, _, cards in cells for card in cards]


def run_report(config: RunConfig, summary: RunSummary) -> None:
    if not (config.out_dir / "scores").is_dir():
        raise IoError(f"no scores under {config.out_dir}")
    written, changed = write_heatmaps(config.out_dir)
    summary.heatmaps_written += written
    summary.files_changed += changed


def run_pipeline(config: RunConfig) -> RunSummary:
    """analyze, then score, then report; idempotent on unchanged inputs."""
    summary = RunSummary()
    reports = run_analyze(config, summary)
    run_score(config, summary, reports=reports)
    run_report(config, summary)
    return summary


# --------------------------------------------------------------------------
# argparse wiring
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", type=Path, help="corpus directory or corpus.json path")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--config", type=Path, help="JSON config file mirroring the run options")
    p.add_argument("--subjects", help="comma-separated subject list (e.g. baseline,m1)")
    p.add_argument("--scenario", action="append", default=None,
                   help="all | topic | source | complexity:<metric> | correctness:<model>")
    p.add_argument("--ruleset", action="append", default=None,
                   help="all | implementation | design | type:<name>")
    p.add_argument("--jobs", type=int, default=None, help="parallel analysis workers")


def _build_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        config = RunConfig.from_json_file(args.config)
    else:
        if not getattr(args, "corpus", None):
            raise ConfigError("--corpus is required (or provide --config)")
        if not getattr(args, "out", None):
            raise ConfigError("--out is required (or provide --config)")
        config = RunConfig(corpus_path=args.corpus, out_dir=args.out)
    flags: dict[str, Any] = {}
    if getattr(args, "corpus", None):
        flags["corpus_path"] = args.corpus
    if getattr(args, "out", None):
        flags["out_dir"] = args.out
    if getattr(args, "subjects", None):
        flags["subjects"] = [s.strip() for s in args.subjects.split(",") if s.strip()]
    try:
        if getattr(args, "scenario", None):
            flags["scenarios"] = [ScenarioSelector.parse(s) for s in args.scenario]
        if getattr(args, "ruleset", None):
            flags["rulesets"] = [RuleSetSelector.parse(r) for r in args.ruleset]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if getattr(args, "jobs", None) is not None:
        flags["parallelism"] = args.jobs
    config = replace(config, **flags)  # replace() runs __post_init__'s checks on the flags too
    if not config.corpus_path.exists():
        raise ConfigError(f"corpus not found: {config.corpus_path}")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smellscore", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ingest", help="load and validate a corpus, print its profile")
    p.add_argument("--corpus", type=Path, required=True)

    p = sub.add_parser("generate", help="populate solutions by querying an HTTP endpoint")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--endpoint-config", type=Path, required=True,
                   help="JSON: {url, api_key_env?, request_template?, response_path?, delay_seconds?}")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--retries", type=int, default=2)

    for verb in ("analyze", "score", "report", "run"):
        p = sub.add_parser(verb)
        _add_common(p)

    p = sub.add_parser("import-reports", help="convert external detector reports into the report store")
    p.add_argument("--format", required=True, choices=["pmd_xml", "checkstyle_xml", "designite_csv"])
    p.add_argument("--in", dest="inputs", type=Path, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--subject", required=True, help="task_id:model_id for the imported report")
    p.add_argument("--source", type=Path, help="Java source file for span resolution")

    p = sub.add_parser("diff", help="compare a native report with an imported one")
    p.add_argument("--native", type=Path, required=True)
    p.add_argument("--imported", type=Path, required=True)
    p.add_argument("--out", type=Path, help="CSV output path (default stdout)")

    return parser


# A control character (line breaks included) or a lone surrogate, which a
# message may carry from a path or a document's text.  A pattern, not a
# compiled one: compiling it takes most of a millisecond, which only a
# failing run should pay.
_UNPRINTABLE = "[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]"


def _one_line(message: str) -> str:
    """``message`` with each control character or lone surrogate escaped, so
    that it prints as one line on any stream."""
    return re.sub(_UNPRINTABLE, lambda m: m.group().encode("unicode_escape").decode("ascii"), message)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, DocumentError, ManifestSyntaxError, DuplicateTaskError, MissingFileError) as e:
        print(f"config error: {_one_line(str(e))}", file=sys.stderr)
        return 1
    except (IoError, OSError) as e:
        print(f"i/o error: {_one_line(str(e))}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "ingest":
        corpus = load_manifest(args.corpus)
        summary = validate_corpus(corpus)
        print(json_text(summary.to_json()), end="")
        return 0

    # generate, import-reports and diff import their modules here, so that the
    # other verbs load neither the HTTP client nor the XML parser.
    if args.verb == "generate":
        from .llm_gateway import EndpointConfig, run_generation_batch

        try:
            endpoint = EndpointConfig.from_json(json.loads(args.endpoint_config.read_text(encoding="utf-8")))
        except (OSError, ValueError, RecursionError) as e:  # unreadable, not JSON (or too deep), or not an endpoint config
            raise ConfigError(f"{args.endpoint_config}: {e}") from e
        corpus_root = args.corpus if args.corpus.is_dir() else args.corpus.parent
        try:
            records = run_generation_batch(
                corpus_root, args.model, endpoint, timeout=args.timeout, max_retries=args.retries,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e
        counts: dict[str, int] = {}
        for r in records:
            counts[r.status] = counts.get(r.status, 0) + 1
        print(json.dumps({"generated": len(records), "by_status": counts}, sort_keys=True))
        return 0

    if args.verb == "import-reports":
        from .tool_adapters import ExternalReport, FormatError, import_reports

        task_id, _, model_id = args.subject.partition(":")
        if not model_id:
            raise ConfigError("--subject must look like task_id:model_id")
        try:
            require_plain_name("task id", task_id)
            require_plain_name("model id", model_id)
        except ValueError as e:
            raise ConfigError(f"--subject: {e}") from e
        externals = [ExternalReport(format=args.format, path=p) for p in args.inputs]
        try:
            result = import_reports(externals, subject=(task_id, model_id), source_path=args.source)
        except FormatError as e:
            raise ConfigError(str(e)) from e
        write_report_store({model_id: {task_id: result.report}}, args.out)
        print(json.dumps(
            {"violations": result.report.total_violations, "unmapped": result.unmapped_count},
            sort_keys=True,
        ))
        return 0

    if args.verb == "diff":
        from .tool_adapters import diff_reports

        native = read_report(args.native)
        imported = read_report(args.imported)
        try:
            summary = diff_reports(native, imported)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        text = summary.to_csv()
        if args.out:
            write_files([(args.out, text)])
        else:
            print(text, end="")
        return 0

    config = _build_config(args)
    summary = RunSummary()
    if args.verb == "analyze":
        run_analyze(config, summary)
    elif args.verb == "score":
        run_score(config, summary)
    elif args.verb == "report":
        run_report(config, summary)
    elif args.verb == "run":
        summary = run_pipeline(config)
    print(json_text(summary.to_json()), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
