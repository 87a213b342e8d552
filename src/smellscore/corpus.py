"""Benchmark corpus data model, manifest loading, and validation.

A corpus lives in a directory with a ``corpus.json`` manifest; all paths in
the manifest are relative to the manifest's directory and use forward
slashes.  The corpus is immutable after load and safe to share across
analysis workers.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .outputs import optional, read_json

VALID_SOURCES = ("textbook", "stackoverflow")


class ManifestSyntaxError(Exception):
    """Malformed manifest: bad JSON, missing keys, or invariant violations."""


class MissingFileError(Exception):
    """A reference or solution path does not resolve to a readable file."""


class DuplicateTaskError(Exception):
    """A task_id (or task/model pair) occurs more than once."""


@dataclass(frozen=True)
class ComplexityTriple:
    cyclomatic: int
    cognitive: int
    loc: int

    def __post_init__(self) -> None:
        if self.cyclomatic < 1:
            raise ManifestSyntaxError(f"cyclomatic must be >= 1, got {self.cyclomatic}")
        if self.cognitive < 0:
            raise ManifestSyntaxError(f"cognitive must be >= 0, got {self.cognitive}")
        if self.loc < 1:
            raise ManifestSyntaxError(f"loc must be >= 1, got {self.loc}")


@dataclass(frozen=True)
class GeneratedSolution:
    model_id: str
    path: str  # relative, forward slashes
    correct: bool | None = None  # None = unknown


@dataclass(frozen=True)
class CodingTask:
    task_id: str
    source: str
    topic: str
    description: str
    input_length: int
    complexity: ComplexityTriple
    reference_path: str
    solutions: tuple[GeneratedSolution, ...] = ()

    def solution_for(self, model_id: str) -> GeneratedSolution | None:
        for s in self.solutions:
            if s.model_id == model_id:
                return s
        return None


@dataclass(frozen=True)
class Corpus:
    root: Path
    tasks: tuple[CodingTask, ...]
    models: frozenset[str]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ManifestSyntaxError("corpus has no tasks")

    def resolve(self, rel_path: str) -> Path:
        _check_inside(rel_path)
        return self.root / rel_path


def require_plain_name(what: str, name: str) -> str:
    """``name``, if it can be one segment of a path: task and model ids name
    directories and files under the output and solutions trees.  A name that is
    empty or holds '/', '\\', '..' or a control character raises ValueError."""
    if not name or "/" in name or "\\" in name or ".." in name:
        raise ValueError(f"{what} must be a plain name without '/', '\\' or '..': {name!r}")
    if _has_control_character(name):
        raise ValueError(f"{what} must be a plain name without control characters: {name!r}")
    return name


# A match when a text holds U+0000 to U+001F or DEL, which no name or label may hold.
_has_control_character = re.compile("[\x00-\x1f\x7f]").search


def load_manifest(path: str | Path) -> Corpus:
    """Load and validate a corpus manifest.

    Raises ManifestSyntaxError for malformed documents, DuplicateTaskError for
    repeated task ids, and MissingFileError for unresolvable source paths.
    """
    manifest_path = Path(path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "corpus.json"
    if not manifest_path.is_file():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    root = manifest_path.parent

    doc = read_json(manifest_path, MANIFEST_SPEC, ManifestSyntaxError)
    tasks: list[CodingTask] = []
    seen_ids: set[str] = set()
    models: set[str] = set()

    for raw in doc["tasks"]:
        task = _parse_task(raw, root)
        if task.task_id in seen_ids:
            raise DuplicateTaskError(f"duplicate task_id {task.task_id!r}")
        seen_ids.add(task.task_id)
        models.update(s.model_id for s in task.solutions)
        tasks.append(task)

    return Corpus(root=root, tasks=tuple(tasks), models=frozenset(models))


_COUNT = (int, float)  # integral, which _parse_task checks
MANIFEST_SPEC = {"tasks": [{
    "task_id": str, "source": str, "topic": str, "description": str, optional("input_length"): int,
    "complexity": {"cyclomatic": _COUNT, "cognitive": _COUNT, "loc": _COUNT}, "reference_path": str,
    optional("solutions"): [{"model_id": str, "path": str, optional("correct"): (bool, type(None))}],
}]}


def _parse_task(raw: dict[str, Any], root: Path) -> CodingTask:
    """One task of a manifest that fits MANIFEST_SPEC."""
    try:
        task_id = require_plain_name("task id", raw["task_id"])
    except ValueError as e:
        raise ManifestSyntaxError(str(e)) from e
    if raw["source"] not in VALID_SOURCES:
        raise ManifestSyntaxError(f"task {task_id}: source must be one of {VALID_SOURCES}, got {raw['source']!r}")
    if not raw["topic"]:
        raise ManifestSyntaxError(f"task {task_id}: topic must be non-empty")
    if _has_control_character(raw["topic"]):  # a topic labels a row of the heat-map CSVs
        raise ManifestSyntaxError(f"task {task_id}: topic must hold no control characters: {raw['topic']!r}")

    word_count = len(raw["description"].split())
    input_length = raw.get("input_length", word_count)
    if input_length != word_count:
        raise ManifestSyntaxError(
            f"task {task_id}: input_length {input_length!r} does not match description word count {word_count}"
        )

    for key, value in raw["complexity"].items():
        if type(value) is float and not value.is_integer():
            raise ManifestSyntaxError(f"task {task_id}: complexity {key} must be an integer, got {value!r}")
    complexity = ComplexityTriple(**{key: int(value) for key, value in raw["complexity"].items()})

    _require_file(root, raw["reference_path"], task_id)

    solutions: list[GeneratedSolution] = []
    for sol_raw in raw.get("solutions", []):
        try:
            model_id = require_plain_name("model id", sol_raw["model_id"])
        except ValueError as e:
            raise ManifestSyntaxError(f"task {task_id}: {e}") from e
        if any(s.model_id == model_id for s in solutions):
            raise DuplicateTaskError(f"task {task_id}: duplicate solution for model {model_id!r}")
        _require_file(root, sol_raw["path"], task_id)
        solutions.append(GeneratedSolution(**sol_raw))

    return CodingTask(**{
        **raw, "input_length": word_count, "complexity": complexity, "solutions": tuple(solutions),
    })


def _check_inside(rel: str, task_id: str | None = None) -> None:
    """Refuse a relative path that leads out of the root.  The test is on the
    path's text, so a symlink inside the root may point anywhere."""
    normal = os.path.normpath(rel)
    if os.path.isabs(normal) or normal == os.pardir or normal.startswith(os.pardir + os.sep):
        where = f"task {task_id}: " if task_id else ""
        raise ManifestSyntaxError(f"{where}path leaves the corpus root: {rel}")


def _require_file(root: Path, rel: str, task_id: str) -> None:
    _check_inside(rel, task_id)
    if not os.path.isfile(os.path.join(root, rel)):  # a string join: a Path per file costs more than the stat
        raise MissingFileError(f"task {task_id}: file not found: {rel}")


# --------------------------------------------------------------------------
# Validation summary
# --------------------------------------------------------------------------

@dataclass
class SourceProfile:
    n_tasks: int = 0
    n_topics: int = 0
    tasks_per_topic_avg: float = 0.0
    tasks_per_topic_max: int = 0
    tasks_per_topic_min: int = 0
    input_length_avg: float = 0.0
    input_length_max: int = 0
    input_length_min: int = 0
    complexity_avg: float = 0.0
    complexity_max: int = 0
    complexity_min: int = 0


@dataclass
class ValidationSummary:
    n_tasks: int
    n_solutions: int
    n_topics: int
    per_source: dict[str, SourceProfile] = field(default_factory=dict)
    complexity_min: int = 0
    complexity_avg: float = 0.0
    complexity_max: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "n_tasks": self.n_tasks,
            "n_solutions": self.n_solutions,
            "n_topics": self.n_topics,
            "complexity": {
                "min": self.complexity_min,
                "avg": self.complexity_avg,
                "max": self.complexity_max,
            },
            "per_source": {
                name: vars(profile) for name, profile in sorted(self.per_source.items())
            },
        }


def validate_corpus(corpus: Corpus) -> ValidationSummary:
    """Pure aggregation over the task list; counts match brute-force recounts."""
    tasks = corpus.tasks
    cyclomatics = [t.complexity.cyclomatic for t in tasks]
    summary = ValidationSummary(
        n_tasks=len(tasks),
        n_solutions=sum(len(t.solutions) for t in tasks),
        n_topics=len({t.topic for t in tasks}),
        complexity_min=min(cyclomatics),
        complexity_avg=sum(cyclomatics) / len(cyclomatics),
        complexity_max=max(cyclomatics),
    )
    for source in sorted({t.source for t in tasks}):
        subset = [t for t in tasks if t.source == source]
        by_topic: dict[str, int] = {}
        for t in subset:
            by_topic[t.topic] = by_topic.get(t.topic, 0) + 1
        lengths = [t.input_length for t in subset]
        cycs = [t.complexity.cyclomatic for t in subset]
        counts = list(by_topic.values())
        summary.per_source[source] = SourceProfile(
            n_tasks=len(subset),
            n_topics=len(by_topic),
            tasks_per_topic_avg=len(subset) / len(by_topic),
            tasks_per_topic_max=max(counts),
            tasks_per_topic_min=min(counts),
            input_length_avg=sum(lengths) / len(lengths),
            input_length_max=max(lengths),
            input_length_min=min(lengths),
            complexity_avg=sum(cycs) / len(cycs),
            complexity_max=max(cycs),
            complexity_min=min(cycs),
        )
    return summary
