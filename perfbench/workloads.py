"""Seeded input generators for the benchmark workloads.

The program under test sees only what these functions write: a corpus
directory holding a ``corpus.json`` manifest and its Java sources.  The same
seed always gives byte-identical files; the seed changes names, literal
values, task order and where violations are planted, never the amount of
work, so runs with different seeds measure the same load.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# The mini corpus and its hand-audited oracle CSVs, shared with the test suite.
DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
MINI = DATA / "mini_corpus"

# small-files and rerun: the ten-task mini corpus (30 files, 5-17 lines each)
# replicated this many times.  Sized so that one cold `run` takes a few
# seconds on two cores, which lets one measured run hold several repetitions.
SMALL_COPIES = 20
# score-grid: replicas in the report store (30 reports per replica).
GRID_COPIES = 200
# long-files: tasks of (reference, m1 solution); each file is one generated
# class of LONG_METHODS[i] methods of 95 lines each.
LONG_METHODS = (2, 3, 8)

# Planted per long file, per method: the oracle counts for the three rules.
PLANTED_RULES = ("line-length", "empty-catch-block", "local-variable-name")


@dataclass
class Inputs:
    """What a generator wrote, as the oracles need it."""

    root: Path
    files: int = 0
    lines: int = 0
    # replica task id -> mini-corpus task id (small-files, score-grid)
    origin: dict[str, str] = field(default_factory=dict)
    # "<subject>/<task_id>" -> {rule_id: planted count} (long-files)
    planted: dict[str, dict[str, int]] = field(default_factory=dict)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


def _line_count(text: str) -> int:
    return len(text.splitlines())


def mini_manifest() -> list[dict]:
    return json.loads((MINI / "corpus.json").read_text(encoding="utf-8"))["tasks"]


def replicated_corpus(root: Path, seed: int, copies: int) -> Inputs:
    """The mini corpus replicated ``copies`` times, in a seeded task order.

    Every replica is a byte-distinct copy of its original: a trailing line
    comment carries a seeded tag, so a content-keyed shortcut cannot treat
    replicas as one file, while every rule count stays that of the original.
    """
    rng = random.Random(seed)
    out = Inputs(root=root)
    tasks = []
    for original in mini_manifest():
        sources = [original["reference_path"], *(s["path"] for s in original["solutions"])]
        texts = {rel: (MINI / rel).read_text(encoding="utf-8") for rel in sources}
        for copy in range(copies):
            task_id = f"{original['task_id']}-{copy:04d}"
            out.origin[task_id] = original["task_id"]
            tag = f"// replica {rng.getrandbits(48):012x}\n"
            renamed = {}
            for rel, text in texts.items():
                new_rel = rel.replace(f"{original['task_id']}.java", f"{task_id}.java")
                _write(root / new_rel, text + tag)
                renamed[rel] = new_rel
                out.files += 1
                out.lines += _line_count(text + tag)
            task = dict(original, task_id=task_id, reference_path=renamed[original["reference_path"]])
            task["solutions"] = [dict(s, path=renamed[s["path"]]) for s in original["solutions"]]
            tasks.append(task)
    rng.shuffle(tasks)
    _write(root / "corpus.json", json.dumps({"tasks": tasks}, indent=2, sort_keys=True) + "\n")
    return out


# --------------------------------------------------------------------------
# long-files
# --------------------------------------------------------------------------

_WORDS = ("alpha", "bravo", "delta", "echo", "gamma", "kilo", "lima", "omega", "sigma", "tango")


def _ident(rng: random.Random, prefix: str) -> str:
    return prefix + rng.choice(_WORDS).capitalize() + str(rng.randrange(10, 99))


def _block_loop(rng: random.Random, i: int) -> list[str]:
    acc, idx, cur = f"sum{i}", f"idx{i}", f"cur{i}"
    return [
        f"int {acc} = {rng.randrange(0, 9)};",
        f"for (int {idx} = 0; {idx} < values.length; {idx}++) {{",
        f"    int {cur} = values[{idx}];",
        f"    if ({cur} > limit) {{",
        f"        {acc} += {cur};",
        "    } else {",
        f"        {acc} -= {rng.randrange(1, 9)};",
        "    }",
        "}",
        f"total += {acc};",
    ]


def _block_try(rng: random.Random, i: int, empty: bool) -> list[str]:
    parsed = f"parsed{i}"
    handler = [] if empty else [f"    total -= {rng.randrange(1, 9)};"]
    exc = rng.choice(("NumberFormatException", "IllegalArgumentException", "RuntimeException"))
    return [
        f"int {parsed} = 0;",
        "try {",
        f"    {parsed} = Integer.parseInt(label.trim());",
        f"    total += {parsed};",
        f"}} catch ({exc} problem) {{",
        *handler,
        "}",
    ]


def _block_text(rng: random.Random, i: int, long_line: bool) -> list[str]:
    text, word = f"text{i}", f"word{i}"
    word_text = rng.choice(_WORDS)
    # A planted line is 117-137 characters long, every other line at most 100.
    literal = (word_text * 30)[: rng.randrange(90, 110)] if long_line else word_text * 3
    return [
        f"StringBuilder {text} = new StringBuilder();",
        f"for (String {word} : names) {{",
        f"    {text}.append({word}).append(',');",
        "}",
        f'String note{i} = "{literal}";',
        f"{text}.append(note{i});",
        f"builder.append({text});",
    ]


def _block_locals(rng: random.Random, i: int, bad_name: bool) -> list[str]:
    first = f"Bad_{i}" if bad_name else f"first{i}"
    return [
        f"int {first} = values.length + {rng.randrange(1, 50)};",
        f"int second{i} = {first} * {rng.randrange(2, 9)};",
        f"long third{i} = (long) second{i} - limit;",
        f"if (third{i} > {rng.randrange(100, 999)}L) {{",
        f"    total += (int) (third{i} % {rng.randrange(3, 17)});",
        "}",
    ]


def _method(rng: random.Random, m: int, counts: dict[str, int]) -> list[str]:
    """One method of 12 blocks; exactly one planted violation per rule."""
    kinds = ["loop"] * 3 + ["try"] * 3 + ["text"] * 3 + ["locals"] * 3
    rng.shuffle(kinds)
    planted = {kind: rng.randrange(3) for kind in ("try", "text", "locals")}
    seen = {kind: 0 for kind in ("try", "text", "locals")}
    body: list[str] = ["int total = 0;", "StringBuilder builder = new StringBuilder();"]
    for i, kind in enumerate(kinds):
        if kind == "loop":
            body += _block_loop(rng, i)
            continue
        plant = seen[kind] == planted[kind]
        seen[kind] += 1
        if kind == "try":
            body += _block_try(rng, i, empty=plant)
        elif kind == "text":
            body += _block_text(rng, i, long_line=plant)
        else:
            body += _block_locals(rng, i, bad_name=plant)
    for rule in PLANTED_RULES:
        counts[rule] += 1
    body += ["log.append(builder);", "return total + builder.length();"]
    name = _ident(rng, "compute")
    header = f"public int {name}{m}(int[] values, String[] names, String label, int limit) {{"
    return ["    " + header, *("        " + line for line in body), "    }"]


def long_class(rng: random.Random, class_name: str, methods: int) -> tuple[str, dict[str, int]]:
    counts = {rule: 0 for rule in PLANTED_RULES}
    lines = [
        "import java.util.List;",
        "",
        "/** Generated benchmark input. */",
        f"public class {class_name} {{",
        "    private final StringBuilder log = new StringBuilder();",
        "",
    ]
    for m in range(methods):
        lines += _method(rng, m, counts)
        lines.append("")
    lines += ["    public String history() {", "        return log.toString();", "    }", "}"]
    return "\n".join(lines) + "\n", counts


def long_corpus(root: Path, seed: int, sizes: tuple[int, ...] = LONG_METHODS) -> Inputs:
    """Tasks whose reference and m1 solution are long generated classes."""
    rng = random.Random(seed)
    out = Inputs(root=root)
    tasks = []
    for t, methods in enumerate(sizes):
        task_id = f"L{t + 1:02d}"
        task = {
            "task_id": task_id,
            "source": rng.choice(("textbook", "stackoverflow")),
            "topic": rng.choice(("Loops", "Strings", "Exceptions")),
            "description": "Process values names and a label",
            "input_length": 6,
            "complexity": {"cyclomatic": 4, "cognitive": 6, "loc": methods * 95},
        }
        for subject, rel in (("baseline", f"refs/{task_id}.java"), ("m1", f"solutions/m1/{task_id}.java")):
            text, counts = long_class(rng, _ident(rng, "Gen"), methods)
            _write(root / rel, text)
            out.files += 1
            out.lines += _line_count(text)
            out.planted[f"{subject}/{task_id}"] = counts
        task["reference_path"] = f"refs/{task_id}.java"
        task["solutions"] = [{"model_id": "m1", "path": f"solutions/m1/{task_id}.java", "correct": True}]
        tasks.append(task)
    rng.shuffle(tasks)
    _write(root / "corpus.json", json.dumps({"tasks": tasks}, indent=2, sort_keys=True) + "\n")
    return out
