"""Violations-per-solution scoring, scenario partitioning, the scorecard
files under scores/ and the heat maps rendered from them under heatmaps/, and
the descriptive statistics used in reports.

All score arithmetic is exact rational arithmetic; floats appear only in the
correlation and dispersion helpers where square roots are unavoidable.
Solutions that failed to parse are excluded from both the numerator and the
denominator of every score; the report store lists them in _failures.json.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from .corpus import CodingTask, Corpus, require_plain_name
from .outputs import DocumentError, json_text, read_json, write_files
from .rules.model import (
    ALL_TYPES, DESIGN, DESIGN_TYPES, IMPLEMENTATION, IMPLEMENTATION_TYPES, SmellRule, ViolationReport,
)
from .smell_engine import BASELINE, StoredCounts


class EmptyScenarioError(Exception):
    """No analyzable solutions remain in a scenario."""


class UndefinedBaselineError(Exception):
    """Increase rate is undefined because the baseline score is zero."""


class DegenerateInputError(Exception):
    """Correlation input has zero variance or too few points."""


# --------------------------------------------------------------------------
# Selectors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSelector:
    """A scenario: the label that names its directory under scores/, the task
    field its labels group on (``topic``, ``source`` or a complexity metric;
    None for ``all``) and the model whose correctness flags split the tasks
    (a correctness scenario only)."""

    label: str
    group_by: str | None = None
    model_id: str | None = None

    DEFAULT_WIDTHS = {"cyclomatic": 1, "cognitive": 5, "loc": 10}

    @classmethod
    def parse(cls, text: str) -> "ScenarioSelector":
        """Parse CLI syntax: all | topic | source | complexity:<metric> | correctness:<model>."""
        if text == "all":
            return cls("all")
        if text in ("topic", "source"):
            return cls(text, group_by=text)
        if text.startswith("complexity:"):
            metric = text.split(":", 1)[1]
            if metric not in cls.DEFAULT_WIDTHS:
                raise ValueError(f"unknown complexity metric {metric!r}")
            return cls(f"complexity-{metric}", group_by=metric)
        if text.startswith("correctness:"):
            # the label names a directory under scores/
            model_id = require_plain_name("model id", text.split(":", 1)[1])
            return cls(f"correctness-{model_id}", model_id=model_id)
        raise ValueError(f"unknown scenario {text!r}")


_CATEGORY_TYPES = {"all": ALL_TYPES, IMPLEMENTATION: IMPLEMENTATION_TYPES, DESIGN: DESIGN_TYPES}


@dataclass(frozen=True)
class RuleSetSelector:
    """A rule set: the label that names its scorecard files and the smell
    types whose rules make up the set.  Every selector takes whole types, so
    a report's count for the set is the sum of its per-type counts for these
    types."""

    label: str
    smell_types: tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "RuleSetSelector":
        """Parse CLI syntax: all | implementation | design | type:<name>."""
        if text in _CATEGORY_TYPES:
            return cls(text, _CATEGORY_TYPES[text])
        if text.startswith("type:"):
            smell_type = text.split(":", 1)[1]
            if smell_type not in ALL_TYPES:
                raise ValueError(f"unknown smell type {smell_type!r}")
            return cls(f"type-{smell_type}", (smell_type,))
        raise ValueError(f"unknown ruleset {text!r}")


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------

def partition(corpus: Corpus, selector: ScenarioSelector) -> list[tuple[str, list[CodingTask]]]:
    """Split the corpus into labeled, disjoint task subsets.

    A correctness scenario splits the tasks whose solution by its model
    carries a known flag into correct and incorrect; every other scenario
    covers the whole corpus.  Topic and source labels sort by name,
    complexity labels (a value, or a bucket of DEFAULT_WIDTHS values) by
    value.
    """
    tasks = list(corpus.tasks)
    if selector.model_id is not None:
        flags: dict[str, list[CodingTask]] = {"correct": [], "incorrect": []}
        for task in tasks:
            solution = task.solution_for(selector.model_id)
            if solution is None or solution.correct is None:
                continue
            flags["correct" if solution.correct else "incorrect"].append(task)
        return list(flags.items())
    group_by = selector.group_by
    if group_by is None:
        return [("all", tasks)]

    width = ScenarioSelector.DEFAULT_WIDTHS.get(group_by)  # None: a topic or source name
    groups: dict[str | int, list[CodingTask]] = {}
    for task in tasks:
        key = getattr(task, group_by) if width is None else getattr(task.complexity, group_by) // width * width
        groups.setdefault(key, []).append(task)
    return [
        (str(key) if width is None or width == 1 else f"{key}-{key + width - 1}", groups[key])
        for key in sorted(groups)
    ]


# --------------------------------------------------------------------------
# Core metrics
# --------------------------------------------------------------------------

def compute_vs(reports: Iterable[ViolationReport], rules: Sequence[SmellRule] | set[str]) -> Fraction:
    """Average rule violations per analyzed (parse-clean) solution."""
    rule_ids = {r.rule_id for r in rules} if not isinstance(rules, set) else rules
    total, analyzed = _tally(reports, rule_ids)
    if analyzed == 0:
        raise EmptyScenarioError("no analyzable solutions in scenario")
    return Fraction(total, analyzed)


def _tally(reports: Iterable[ViolationReport], rule_ids: set[str]) -> tuple[int, int]:
    """(violations of the given rules, parse-clean reports) over a collection."""
    total = 0
    analyzed = 0
    for report in reports:
        if report.parse_ok:
            analyzed += 1
            total += report.count_for_rules(rule_ids)
    return total, analyzed


def compute_increase(vs: Fraction, baseline_vs: Fraction) -> Fraction:
    """Relative change of a subject's score against the baseline."""
    if baseline_vs == 0:
        raise UndefinedBaselineError("baseline score is zero; increase rate is undefined")
    return (vs - baseline_vs) / baseline_vs


# --------------------------------------------------------------------------
# Scorecards
# --------------------------------------------------------------------------

@dataclass
class ScoreCard:
    subject: str
    scenario: str  # e.g. "topic/Inheritance"
    ruleset: str
    n_tasks: int
    n_analyzed: int
    total_violations: int
    vs: Fraction
    baseline_vs: Fraction | None = None
    increase_rate: Fraction | None = None  # None = undefined

    @property
    def label(self) -> str:
        """The label of the scenario this card scores, e.g. 'Inheritance'."""
        return self.scenario.split("/", 1)[1]

    def to_json(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "scenario": self.scenario,
            "ruleset": self.ruleset,
            "n_tasks": self.n_tasks,
            "n_analyzed": self.n_analyzed,
            "total_violations": self.total_violations,
            "vs": _frac_json(self.vs),
            "baseline_vs": _frac_json(self.baseline_vs) if self.baseline_vs is not None else None,
            "increase_rate": _frac_json(self.increase_rate) if self.increase_rate is not None else "undefined",
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ScoreCard":
        """Inverse of to_json, for a doc that fits _SCORECARD_SPEC; a malformed
        fraction, or a float that is not float() of its fraction, raises
        ValueError."""
        baseline_vs, increase_rate = doc["baseline_vs"], doc["increase_rate"]
        return cls(**{
            **doc,
            "vs": _frac_parse(doc["vs"]),
            "baseline_vs": None if baseline_vs is None else _frac_parse(baseline_vs),
            "increase_rate": None if increase_rate == "undefined" else _frac_parse(increase_rate),
        })


_FRACTION_SPEC = {"fraction": str, "float": float}
_SCORECARD_SPEC = {
    "subject": str, "scenario": str, "ruleset": str, "n_tasks": int, "n_analyzed": int, "total_violations": int,
    "vs": _FRACTION_SPEC, "baseline_vs": (_FRACTION_SPEC, type(None)), "increase_rate": (_FRACTION_SPEC, str),
}


def _frac_json(value: Fraction) -> dict[str, Any]:
    return {"fraction": f"{value.numerator}/{value.denominator}", "float": float(value)}


_FRACTION = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _frac_parse(doc: dict[str, Any] | str) -> Fraction:
    match = None if type(doc) is str else _FRACTION.fullmatch(doc["fraction"])
    if match is None or int(match[2]) == 0:
        raise ValueError(f"malformed fraction {doc!r}")
    value = Fraction(int(match[1]), int(match[2]))
    if doc["float"] != float(value):
        raise ValueError(f"float {doc['float']!r} is not float({doc['fraction']})")
    return value


class LabelCounts(NamedTuple):
    """One non-empty label of a scenario: its task count, and per subject of
    the store the parse-clean reports and the violations per smell type over
    the label's tasks (``clean``, ``by_type``).  A type without a column in
    ReportCounts has no key here and counts 0."""

    label: str
    n_tasks: int
    clean: dict[str, int]
    by_type: dict[str, dict[str, int]]

    def cell(self, subject: str, smell_types: Sequence[str]) -> tuple[int, int]:
        """(violations of the given types, parse-clean reports) of a subject;
        (0, 0) for a subject the store lacks."""
        by_type = self.by_type.get(subject)
        if by_type is None:
            return 0, 0
        return sum(by_type.get(t, 0) for t in smell_types), self.clean[subject]


class ReportCounts:
    """The counts scoring reads from a report store, built in one pass.

    Each report is a ViolationReport or the StoredCounts load_report_store
    gives; only its parse_ok and per_type_counts are read.  For each subject,
    ``columns[subject][smell_type]`` holds each task's count of that type and
    ``clean[subject]`` 1 for each parse-clean report, both indexed by the
    task's row in ``corpus.tasks`` (``rows`` maps a task id to it).  A task
    without a parse-clean report counts 0 everywhere, a type no report has
    gets no column, and a report whose task the manifest lacks is ignored.

    ``labels`` sums those columns once per scenario: every rule set of the
    scenario then reads its cells from the same LabelCounts.
    """

    def __init__(self, corpus: Corpus, reports: dict[str, dict[str, ViolationReport | StoredCounts]]):
        self.rows = {task.task_id: row for row, task in enumerate(corpus.tasks)}
        size = len(self.rows)
        self.columns: dict[str, dict[str, list[int]]] = {}
        self.clean: dict[str, list[int]] = {}
        self._labels: dict[ScenarioSelector, list[LabelCounts]] = {}
        for subject, by_task in reports.items():
            columns: dict[str, list[int]] = {}
            clean = [0] * size
            for task_id, report in by_task.items():
                row = self.rows.get(task_id)
                if row is None or not report.parse_ok:
                    continue
                clean[row] = 1
                for smell_type, count in report.per_type_counts.items():
                    column = columns.get(smell_type)
                    if column is None:
                        column = columns[smell_type] = [0] * size
                    column[row] = count
            self.columns[subject] = columns
            self.clean[subject] = clean

    def labels(self, corpus: Corpus, scenario: ScenarioSelector) -> list[LabelCounts]:
        """The scenario's non-empty labels in partition order, each with its
        sums; the first call for a scenario partitions the corpus, later calls
        return the same list."""
        table = self._labels.get(scenario)
        if table is None:
            table = []
            for label, tasks in partition(corpus, scenario):
                if not tasks:
                    continue
                rows = [self.rows[t.task_id] for t in tasks]
                clean = {subject: sum(map(flags.__getitem__, rows)) for subject, flags in self.clean.items()}
                by_type = {
                    subject: {t: sum(map(column.__getitem__, rows)) for t, column in columns.items()}
                    for subject, columns in self.columns.items()
                }
                table.append(LabelCounts(label, len(tasks), clean, by_type))
            self._labels[scenario] = table
        return table


def score_scenario(
    corpus: Corpus,
    reports: ReportCounts,
    scenario: ScenarioSelector,
    ruleset: RuleSetSelector,
    subjects: Sequence[str],
) -> list[ScoreCard]:
    """ScoreCards for every (label, subject) cell of a scenario, summed from
    the scenario's label counts in the count table of the report store.

    Labels whose task subset has no analyzable solutions for a subject are
    skipped rather than reported as zero.
    """
    types = ruleset.smell_types
    cards: list[ScoreCard] = []
    for counts in reports.labels(corpus, scenario):
        baseline_total, baseline_analyzed = counts.cell(BASELINE, types)
        baseline_vs = Fraction(baseline_total, baseline_analyzed) if baseline_analyzed else None

        for subject in subjects:
            total, analyzed = counts.cell(subject, types)
            if not analyzed:
                continue
            vs = Fraction(total, analyzed)
            increase: Fraction | None = None
            if baseline_vs is not None and baseline_vs > 0:
                increase = compute_increase(vs, baseline_vs)
            cards.append(
                ScoreCard(
                    subject=subject,
                    scenario=f"{scenario.label}/{counts.label}",
                    ruleset=ruleset.label,
                    n_tasks=counts.n_tasks,
                    n_analyzed=analyzed,
                    total_violations=total,
                    vs=vs,
                    baseline_vs=baseline_vs,
                    increase_rate=increase,
                )
            )
    return cards


def write_scorecards(cells: Iterable[tuple[str, str, Sequence[ScoreCard]]], out_dir: str | Path) -> int:
    """Write one file per (scenario, ruleset, cards) cell grid, in the order
    given, with its cards in canonical order, each file only when its bytes
    change; returns how many files changed."""
    return write_files(
        (
            Path(out_dir) / "scores" / scenario / f"{ruleset}.json",
            json_text([c.to_json() for c in sorted(cards, key=lambda c: (c.scenario, c.subject))]),
        )
        for scenario, ruleset, cards in cells
    )


def load_scorecards(path: str | Path) -> list[ScoreCard]:
    """Scorecards stored by write_scorecards; a file that is not a JSON list
    of well-formed scorecards, each with the ruleset of the file's stem, a
    scenario '<directory>/<label>' of the file's directory ('all/all' under
    all/, whose one label partition gives is 'all') and a (scenario, subject)
    no other card has, raises DocumentError naming it."""
    path = Path(path)
    doc = read_json(path, [_SCORECARD_SPEC], DocumentError)
    directory = path.parent.name
    shape = "all/all" if directory == "all" else f"{directory}/<label>"
    seen: dict[tuple[str, str], int] = {}
    for at, item in enumerate(doc):
        scenario, ruleset = item["scenario"], item["ruleset"]
        head, _, label = scenario.partition("/")
        if head != directory or not label or (directory == "all" and label != "all"):
            raise DocumentError(f"{path}: $[{at}].scenario: must be '{shape}', got {json.dumps(scenario, ensure_ascii=False)}")
        if ruleset != path.stem:
            raise DocumentError(f"{path}: $[{at}].ruleset: must be {path.stem!r}, got {json.dumps(ruleset, ensure_ascii=False)}")
        cell = (scenario, item["subject"])
        if cell in seen:
            raise DocumentError(f"{path}: $[{at}]: repeats the card of {cell!r} at $[{seen[cell]}]")
        seen[cell] = at
    try:
        return [ScoreCard.from_json(item) for item in doc]
    except ValueError as e:  # a malformed fraction, or a float that disagrees with it
        raise DocumentError(f"{path}: not a well-formed scorecard file: {e}") from e


# --------------------------------------------------------------------------
# Heat maps
# --------------------------------------------------------------------------

# A map's two files, each with the cell it renders from a card: the score, and
# the increase rate in percent (empty where undefined).
_HEATMAP_CELLS = (
    ("vs", lambda card: f"{float(card.vs):.3f}"),
    ("increase", lambda card: "" if card.increase_rate is None else f"{float(card.increase_rate) * 100:.2f}"),
)


def write_heatmaps(out_dir: str | Path) -> tuple[int, int]:
    """Render heatmaps/ from the scorecards under scores/, each file only when
    its bytes change; returns how many files were rendered and how many of
    them changed.

    The topic map has a row per topic of scores/topic/all.json, sorted; the
    smell-type map a row per scores/all/type-<t>.json that holds cards, in
    catalog order.  Both have a column per subject, sorted, and are written as
    <row kind>_vs.csv and <row kind>_increase.csv.  A cell without a card is
    empty.  A map without cards is not written.  Every input is read before
    any file is written.
    """
    out = Path(out_dir)
    by_topic: dict[str, dict[str, ScoreCard]] = {}
    for card in _stored_cards(out / "scores" / "topic" / "all.json"):
        by_topic.setdefault(card.label, {})[card.subject] = card
    by_type: dict[str, dict[str, ScoreCard]] = {}
    for smell_type in ALL_TYPES:
        for card in _stored_cards(out / "scores" / "all" / f"type-{smell_type}.json"):
            by_type.setdefault(smell_type, {})[card.subject] = card

    files: list[tuple[Path, str]] = []
    for row_kind, table in (("topic", dict(sorted(by_topic.items()))), ("smell-type", by_type)):
        if not table:
            continue
        subjects = sorted({subject for cards in table.values() for subject in cards})
        for suffix, cell in _HEATMAP_CELLS:
            text = io.StringIO()
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow([row_kind, *subjects])
            for row, cards in table.items():
                writer.writerow([row, *(cell(cards[s]) if s in cards else "" for s in subjects)])
            files.append((out / "heatmaps" / f"{row_kind}_{suffix}.csv", text.getvalue()))
    return len(files), write_files(files)


def _stored_cards(path: Path) -> list[ScoreCard]:
    return load_scorecards(path) if path.is_file() else []


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def pearson(xs: Sequence[float | Fraction], ys: Sequence[float | Fraction]) -> float:
    """Pearson correlation coefficient; undefined inputs raise, never return 0."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise DegenerateInputError("pearson needs two equal-length vectors of size >= 2")
    n = len(xs)
    fx = [float(x) for x in xs]
    fy = [float(y) for y in ys]
    mx = math.fsum(fx) / n
    my = math.fsum(fy) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(fx, fy))
    var_x = math.fsum((x - mx) ** 2 for x in fx)
    var_y = math.fsum((y - my) ** 2 for y in fy)
    if var_x == 0 or var_y == 0:
        raise DegenerateInputError("pearson is undefined for zero-variance input")
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def dispersion(vs_by_label: dict[str, float | Fraction]) -> float:
    """Population standard deviation of the labeled values."""
    if len(vs_by_label) < 2:
        raise DegenerateInputError("dispersion needs at least two labels")
    values = [float(v) for v in vs_by_label.values()]
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


@dataclass
class TopicRankings:
    best: list[tuple[str, Fraction]]
    worst: list[tuple[str, Fraction]]
    most_improved: list[tuple[str, Fraction]]
    most_worsened: list[tuple[str, Fraction]]


def rank_topics(cards: Sequence[ScoreCard], k: int) -> TopicRankings:
    """Best/worst topics by score and most improved/worsened by increase rate.

    Ties break lexicographically by topic name; ordering is stable.
    """
    by_vs = sorted(((c.label, c.vs) for c in cards), key=lambda kv: (kv[1], kv[0]))
    with_rate = [(c.label, c.increase_rate) for c in cards if c.increase_rate is not None]
    by_rate = sorted(with_rate, key=lambda kv: (kv[1], kv[0]))
    return TopicRankings(
        best=by_vs[:k],
        worst=sorted(by_vs, key=lambda kv: (-kv[1], kv[0]))[:k],
        most_improved=by_rate[:k],
        most_worsened=sorted(by_rate, key=lambda kv: (-kv[1], kv[0]))[:k],
    )
