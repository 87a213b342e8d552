"""Manifest loading, validation errors, round-trip, and summary counting."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from smellscore.corpus import (
    Corpus,
    DuplicateTaskError,
    ManifestSyntaxError,
    MissingFileError,
    load_manifest,
    validate_corpus,
)

JAVA = "class A {\n}\n"


def make_task(root: Path, task_id: str, models=("m1",), topic="String", source="textbook",
              correct_flags=None, cyclomatic=1):
    ref = root / "refs" / f"{task_id}.java"
    ref.parent.mkdir(parents=True, exist_ok=True)
    ref.write_text(JAVA, encoding="utf-8")
    solutions = []
    for i, model in enumerate(models):
        sol = root / "solutions" / model / f"{task_id}.java"
        sol.parent.mkdir(parents=True, exist_ok=True)
        sol.write_text(JAVA, encoding="utf-8")
        entry = {"model_id": model, "path": f"solutions/{model}/{task_id}.java"}
        if correct_flags is not None and correct_flags[i] is not None:
            entry["correct"] = correct_flags[i]
        solutions.append(entry)
    description = f"Write a program for {task_id}"
    return {
        "task_id": task_id,
        "source": source,
        "topic": topic,
        "description": description,
        "input_length": len(description.split()),
        "complexity": {"cyclomatic": cyclomatic, "cognitive": 0, "loc": 2},
        "reference_path": f"refs/{task_id}.java",
        "solutions": solutions,
    }


def write_manifest(root: Path, tasks: list[dict]) -> Path:
    path = root / "corpus.json"
    path.write_text(json.dumps({"tasks": tasks}, indent=2), encoding="utf-8")
    return path


class TestLoadManifest:
    def test_two_tasks_one_model(self, tmp_path):
        write_manifest(tmp_path, [make_task(tmp_path, "T1"), make_task(tmp_path, "T2")])
        corpus = load_manifest(tmp_path)
        assert len(corpus.tasks) == 2
        assert corpus.models == {"m1"}

    def test_duplicate_task_id(self, tmp_path):
        write_manifest(tmp_path, [make_task(tmp_path, "T7"), make_task(tmp_path, "T7")])
        with pytest.raises(DuplicateTaskError):
            load_manifest(tmp_path)

    def test_missing_solution_file(self, tmp_path):
        task = make_task(tmp_path, "T1")
        (tmp_path / "solutions" / "m1" / "T1.java").unlink()
        write_manifest(tmp_path, [task])
        with pytest.raises(MissingFileError):
            load_manifest(tmp_path)

    def test_solution_path_that_is_a_directory(self, tmp_path):
        task = make_task(tmp_path, "T1")
        task["solutions"][0]["path"] = "solutions/m1"
        write_manifest(tmp_path, [task])
        with pytest.raises(MissingFileError, match="^task T1: file not found: solutions/m1$"):
            load_manifest(tmp_path)

    def test_malformed_json(self, tmp_path):
        (tmp_path / "corpus.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestSyntaxError):
            load_manifest(tmp_path)

    def test_input_length_must_match_description(self, tmp_path):
        task = make_task(tmp_path, "T1")
        task["input_length"] = 999
        write_manifest(tmp_path, [task])
        with pytest.raises(ManifestSyntaxError):
            load_manifest(tmp_path)

    def test_bad_source_value(self, tmp_path):
        task = make_task(tmp_path, "T1")
        task["source"] = "wiki"
        write_manifest(tmp_path, [task])
        with pytest.raises(ManifestSyntaxError):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("value, message", [
        ("x", '{manifest}: $.tasks[0].complexity.cyclomatic: must be an integer or a float, got "x"'),
        ("3", '{manifest}: $.tasks[0].complexity.cyclomatic: must be an integer or a float, got "3"'),
        (True, "{manifest}: $.tasks[0].complexity.cyclomatic: must be an integer or a float, got true"),
        (1.5, "task T1: complexity cyclomatic must be an integer, got 1.5"),
        (None, "{manifest}: $.tasks[0].complexity.cyclomatic: must be an integer or a float, got null"),
        ([1], "{manifest}: $.tasks[0].complexity.cyclomatic: must be an integer or a float, got a list"),
    ], ids=["x", "3", "True", "1.5", "None", "value5"])
    def test_non_integer_complexity(self, tmp_path, value, message):
        task = make_task(tmp_path, "T1")
        task["complexity"]["cyclomatic"] = value
        write_manifest(tmp_path, [task])
        with pytest.raises(ManifestSyntaxError) as err:
            load_manifest(tmp_path)
        assert str(err.value) == message.format(manifest=tmp_path / "corpus.json")

    def test_integral_float_complexity_is_an_integer(self, tmp_path):
        task = make_task(tmp_path, "T1")
        task["complexity"]["loc"] = 7.0
        write_manifest(tmp_path, [task])
        assert load_manifest(tmp_path).tasks[0].complexity.loc == 7

    @pytest.mark.parametrize("field", ["reference", "solution", "absolute"])
    def test_paths_stay_inside_the_root(self, tmp_path, field):
        other = tmp_path / "c"
        make_task(other, "T2")
        root = tmp_path / "d"
        task = make_task(root, "T1")
        if field == "reference":
            task["reference_path"] = "../c/refs/T2.java"
        elif field == "solution":
            task["solutions"][0]["path"] = "solutions/../../c/solutions/m1/T2.java"
        else:
            task["reference_path"] = str(other / "refs" / "T2.java")
        write_manifest(root, [task])
        with pytest.raises(ManifestSyntaxError, match="^task T1: path leaves the corpus root: "):
            load_manifest(root)

    @pytest.mark.parametrize("field, name", [
        ("task_id", "../../../T1"), ("task_id", "a/T1"), ("task_id", ""),
        ("model_id", "../../m"), ("model_id", "m\\x"), ("model_id", ".."),
    ])
    def test_ids_are_plain_names(self, tmp_path, field, name):
        task = make_task(tmp_path, "T1")
        if field == "task_id":
            task["task_id"] = name
            expected = f"task id must be a plain name without '/', '\\' or '..': {name!r}"
        else:
            task["solutions"][0]["model_id"] = name
            expected = f"task T1: model id must be a plain name without '/', '\\' or '..': {name!r}"
        write_manifest(tmp_path, [task])
        with pytest.raises(ManifestSyntaxError) as err:
            load_manifest(tmp_path)
        assert str(err.value) == expected

    def test_resolve_refuses_a_path_out_of_the_root(self, tmp_path):
        write_manifest(tmp_path, [make_task(tmp_path, "T1")])
        corpus = load_manifest(tmp_path)
        assert corpus.resolve("refs/../refs/T1.java") == tmp_path / "refs/../refs/T1.java"
        with pytest.raises(ManifestSyntaxError):
            corpus.resolve("refs/../../T1.java")

    def test_ten_tasks_two_models_three_unknown_flags(self, tmp_path):
        flags = {
            "T1": (True, True), "T2": (True, None), "T3": (False, True), "T4": (True, True),
            "T5": (None, True), "T6": (True, False), "T7": (True, True), "T8": (False, True),
            "T9": (True, None), "T10": (True, True),
        }
        tasks = [
            make_task(tmp_path, tid, models=("m1", "m2"), correct_flags=flags[tid])
            for tid in flags
        ]
        write_manifest(tmp_path, tasks)
        corpus = load_manifest(tmp_path)
        solutions = [s for t in corpus.tasks for s in t.solutions]
        assert len(solutions) == 20
        assert sum(1 for s in solutions if s.correct is None) == 3


class TestValidateCorpus:
    def _corpus(self, tmp_path, tasks) -> Corpus:
        write_manifest(tmp_path, tasks)
        return load_manifest(tmp_path)

    def test_summary_counts_match_recount(self, tmp_path):
        tasks = [
            make_task(tmp_path, f"T{i}", topic=f"Topic{i % 3}", cyclomatic=i + 1)
            for i in range(10)
        ]
        corpus = self._corpus(tmp_path, tasks)
        summary = validate_corpus(corpus)
        assert summary.n_tasks == 10
        assert summary.n_solutions == 10
        assert summary.n_topics == 3
        assert summary.complexity_min == 1
        assert summary.complexity_max == 10
        assert summary.complexity_avg == sum(range(1, 11)) / 10

    def test_counts_invariant_under_permutation(self, tmp_path):
        tasks = [make_task(tmp_path, f"T{i}", topic=f"Topic{i % 4}") for i in range(8)]
        corpus_a = self._corpus(tmp_path, tasks)
        shuffled = list(tasks)
        random.Random(7).shuffle(shuffled)
        write_manifest(tmp_path, shuffled)
        corpus_b = load_manifest(tmp_path)
        assert validate_corpus(corpus_a) == validate_corpus(corpus_b)

    def test_per_source_counts_sum_to_total(self, tmp_path):
        tasks = [
            make_task(tmp_path, f"A{i}", source="textbook") for i in range(3)
        ] + [
            make_task(tmp_path, f"B{i}", source="stackoverflow") for i in range(5)
        ]
        summary = validate_corpus(self._corpus(tmp_path, tasks))
        assert sum(p.n_tasks for p in summary.per_source.values()) == summary.n_tasks

    def test_benchmark_scale_profile(self, tmp_path):
        """A 1000-task manifest at benchmark scale: 500 + 500 tasks over
        25 and 18 topics; the summary must reproduce those counts."""
        ref = tmp_path / "refs" / "shared.java"
        ref.parent.mkdir(parents=True)
        ref.write_text(JAVA, encoding="utf-8")

        def tasks_for(source: str, prefix: str, topic_counts: list[int]) -> list[dict]:
            out = []
            serial = 0
            for topic_idx, count in enumerate(topic_counts):
                for _ in range(count):
                    description = f"Task {prefix}{serial} does something small"
                    out.append({
                        "task_id": f"{prefix}{serial}",
                        "source": source,
                        "topic": f"{prefix}Topic{topic_idx}",
                        "description": description,
                        "input_length": len(description.split()),
                        "complexity": {"cyclomatic": 1 + serial % 6, "cognitive": 0, "loc": 2},
                        "reference_path": "refs/shared.java",
                        "solutions": [],
                    })
                    serial += 1
            return out

        textbook_counts = [79, 8] + [18] * 22 + [17]  # 25 topics, 500 tasks
        assert sum(textbook_counts) == 500 and len(textbook_counts) == 25
        real_counts = [61, 5] + [27] * 14 + [28] * 2  # 18 topics, 500 tasks
        assert sum(real_counts) == 500 and len(real_counts) == 18

        tasks = tasks_for("textbook", "tb", textbook_counts) + tasks_for("stackoverflow", "so", real_counts)
        write_manifest(tmp_path, tasks)
        summary = validate_corpus(load_manifest(tmp_path))

        assert summary.n_tasks == 1000
        tb = summary.per_source["textbook"]
        so = summary.per_source["stackoverflow"]
        assert (tb.n_tasks, so.n_tasks) == (500, 500)
        assert (tb.n_topics, so.n_topics) == (25, 18)
        assert tb.tasks_per_topic_avg == 20.0
        assert (tb.tasks_per_topic_max, tb.tasks_per_topic_min) == (79, 8)
        assert (so.tasks_per_topic_max, so.tasks_per_topic_min) == (61, 5)
        assert round(so.tasks_per_topic_avg, 2) == 27.78
        assert summary.complexity_min == 1 and summary.complexity_max == 6
