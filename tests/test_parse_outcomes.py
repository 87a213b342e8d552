"""Parse outcomes of generated Java sources against a committed golden file.

The inputs come from one seeded generator:

* token mutations of every ``tests/**/*.java`` source: 1-3 tokens deleted,
  duplicated, swapped with their neighbour, replaced by one of their kind
  or by any lexeme, or preceded by an inserted one;
* methods ``return <expr>;`` whose expressions mix every binary operator
  level, ``instanceof``, casts, ternaries, unary operators, assignments and
  parentheses, every fourth of them token-mutated as well;
* nested parentheses at a few fixed depths.

For each input the golden file holds the parse failure (message and span) or
the sha256 of ``repr`` of the tree, so a change to the parser that alters any
outcome shows here, case by case.  After a deliberate change, regenerate the
file and review what moved:

    PYTHONPATH=src python tests/test_parse_outcomes.py

which rewrites ``tests/data/parse_outcomes.txt`` and prints the changed
outcomes grouped by class.
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import defaultdict
from pathlib import Path

from smellscore.java_syntax import SourceFile, TokenKind, TokenTable, parse, parse_text, tokenize
from smellscore.java_syntax.parser import _Parser

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "parse_outcomes.txt"
SEED = 20261019
MUTATIONS_PER_SOURCE = 80
EXPRESSIONS = 1200
NESTING_DEPTHS = (10, 40, 100, 2000)

BINARY_OPS = ("||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=", "<<", ">>", ">>>", "+", "-", "*", "/", "%")
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=")
TYPES = ("int", "long", "String", "Object", "int[]", "List<String>", "java.util.Map<K, V>", "Integer", "boolean")
ATOMS = ("a", "b", "c", "x.y", "f()", "g(a, b)", "arr[i]", "1", "0x1F", "2.5", "'c'", '"s"', "true", "null", "this", "i++")
# Sources at the edge of _Parser._may_start, the lookahead before a
# speculative local variable, cast or lambda head.
LOOKAHEAD_STATEMENTS = ("a.b c;", "a.b(c);", "a.b<C> d;", "a[] b;", "a[0] = b;", "a.b = c;")
LOOKAHEAD_EXPRESSIONS = ("(a) b", "(a.b) -c", "(a) -> a", "(a, b) -> a", "(String... s) -> s", "(int) x")
# Extra lexemes a mutation may insert or substitute, beside those of the sources.
VOCABULARY = BINARY_OPS + ASSIGN_OPS + (
    "instanceof", "?", ":", "(", ")", "[", "]", "{", "}", ";", ",", ".", "->", "::", "@", "...", "!", "~",
    "++", "--", "new", "int", "final", "return", "if", "else", "class", "x", "1",
)


def _mutate(tokens: TokenTable, rng: random.Random, vocabulary: dict[TokenKind, list[str]]) -> str:
    """The source with 1-3 token edits.  ``tokens`` holds every token, trivia
    included, so that the untouched parts keep their layout; half the edits
    replace a token by another of its kind, which mostly keeps the source
    parseable and changes its tree."""
    out = [t.lexeme for t in tokens]
    significant = list(tokens.significant)
    if not significant:
        return "".join(out)
    for _ in range(rng.randint(1, 3)):
        at = rng.choice(significant)
        op = rng.randrange(8)
        if op == 0:
            out[at] = " "
        elif op == 1:
            out[at] = f"{out[at]} {out[at]}"
        elif op == 2:
            after = significant.index(at) + 1
            if after < len(significant):
                j = significant[after]
                out[at], out[j] = out[j], out[at]
        elif op == 3:
            out[at] = f" {rng.choice(VOCABULARY)} "
        elif op == 4:
            out[at] = f" {rng.choice(VOCABULARY)} {out[at]}"
        else:
            out[at] = f" {rng.choice(vocabulary[tokens[at].kind])} "
    return "".join(out)


def _expression(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(ATOMS)
    shape = rng.randrange(10)
    if shape < 4:
        return f"{_expression(rng, depth - 1)} {rng.choice(BINARY_OPS)} {_expression(rng, depth - 1)}"
    if shape == 4:
        return f"{_expression(rng, depth - 1)} instanceof {rng.choice(TYPES)}"
    if shape == 5:
        return f"({rng.choice(TYPES)}) {_expression(rng, depth - 1)}"
    if shape == 6:
        return f"{_expression(rng, depth - 1)} ? {_expression(rng, depth - 1)} : {_expression(rng, depth - 1)}"
    if shape == 7:
        return f"({_expression(rng, depth - 1)})"
    if shape == 8:
        return f"{rng.choice(('-', '!', '~', '+', '++', '--'))}{_expression(rng, depth - 1)}"
    return f"{rng.choice(('a', 'b', 'x.y', 'arr[i]'))} {rng.choice(ASSIGN_OPS)} {_expression(rng, depth - 1)}"


def _method(body: str) -> str:
    return f"class G {{\n    Object m() {{\n        return {body};\n    }}\n}}\n"


def _tokens(text: str) -> TokenTable:
    return tokenize(SourceFile.from_text("G.java", text))


def _vocabulary(tokens: TokenTable) -> dict[TokenKind, list[str]]:
    """The lexemes of each kind among ``tokens`` and the fixed lexemes."""
    by_kind: dict[TokenKind, set[str]] = defaultdict(set)
    for t in list(tokens) + list(_tokens(" ".join(VOCABULARY + ATOMS))):
        by_kind[t.kind].add(t.lexeme)
    return {kind: sorted(lexemes) for kind, lexemes in by_kind.items()}


def cases() -> list[tuple[str, str]]:
    """Every generated input, as (case id, source text), in a fixed order.

    Each source and the expressions draw from their own seeded generator, so
    adding a test source adds cases without changing any other.
    """
    out = []
    for path in sorted(TESTS.rglob("*.java")):
        name = f"{path.parent.name}/{path.stem}"
        rng = random.Random(f"{SEED}:{name}")
        tokens = _tokens(path.read_text(encoding="utf-8"))
        vocabulary = _vocabulary(tokens)
        out += [(f"{name}.{k:02d}", _mutate(tokens, rng, vocabulary)) for k in range(MUTATIONS_PER_SOURCE)]
    rng = random.Random(f"{SEED}:expressions")
    vocabulary = _vocabulary([])
    for k in range(EXPRESSIONS):
        text = _method(_expression(rng, rng.randint(1, 6)))
        if k % 4 == 3:
            text = _mutate(_tokens(text), rng, vocabulary)
        out.append((f"e{k:04d}", text))
    for depth in NESTING_DEPTHS:
        out.append((f"n{depth}", _method("(" * depth + "1" + ")" * depth)))
    return out


def outcome(text: str) -> str:
    """``fail <span> <message>`` or ``ok <digest of repr(tree)>``."""
    result = parse_text("G.java", text)
    if result.ok:
        return "ok " + hashlib.sha256(repr(result.ast).encode()).hexdigest()[:16]
    span = result.failure.first_error_span
    return f"fail {span.start_line}:{span.start_col}-{span.end_line}:{span.end_col} {result.failure.message}"


def outcomes(inputs: list[tuple[str, str]] | None = None) -> dict[str, str]:
    """The outcome of every case, or of each (id, text) input, computed on a
    new thread: Python's recursion limit counts the caller's frames too, and a
    thread starts with none, so where "nesting too deep" strikes does not
    depend on who asks."""
    inputs = cases() if inputs is None else inputs
    result: dict[str, str] = {}
    worker = threading.Thread(target=lambda: result.update((i, outcome(text)) for i, text in inputs))
    worker.start()
    worker.join()
    return result


def read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines)


def _class_of(old: str | None, new: str | None) -> str:
    if old is None or new is None:
        return "added" if old is None else "removed"
    old_kind, new_kind = old.split(" ", 1)[0], new.split(" ", 1)[0]
    if old_kind != new_kind:
        return f"{old_kind} -> {new_kind}"
    return "tree changed" if new_kind == "ok" else "failure moved or reworded"


def changes(old: dict[str, str], new: dict[str, str]) -> dict[str, list[str]]:
    """Changed case ids grouped by class of change."""
    grouped: dict[str, list[str]] = defaultdict(list)
    for case_id in sorted(old.keys() | new.keys()):
        if old.get(case_id) != new.get(case_id):
            grouped[_class_of(old.get(case_id), new.get(case_id))].append(case_id)
    return dict(grouped)


def test_generator_covers_sources_expressions_and_both_outcomes():
    got = read_golden()
    sources = len(list(TESTS.rglob("*.java")))
    assert sources >= 31
    assert len(got) == sources * MUTATIONS_PER_SOURCE + EXPRESSIONS + len(NESTING_DEPTHS)
    failures = sum(v.startswith("fail ") for v in got.values())
    assert 500 < failures < len(got) - 500
    assert GOLDEN.stat().st_size < 300_000


def test_parse_outcomes_match_the_golden_file():
    old, new = read_golden(), outcomes()
    moved = changes(old, new)
    detail = {cls: [(i, old.get(i), new.get(i)) for i in ids[:3]] for cls, ids in moved.items()}
    assert not moved, f"parse outcomes changed; review and regenerate with this module's command: {detail}"


def _count_errors(monkeypatch) -> list[str]:
    """The messages of the parse errors _Parser.error makes from now on."""
    made: list[str] = []
    error = _Parser.error
    monkeypatch.setattr(_Parser, "error", lambda self, message, *kind: made.append(message) or error(self, message, *kind))
    return made


def test_the_lookahead_skips_only_heads_that_would_fail(monkeypatch):
    """With _Parser._may_start always allowing the speculative head, every
    input parses to the same tree or fails with the same message and span."""
    inputs = cases()
    inputs += [(str(path), path.read_text(encoding="utf-8")) for path in sorted(TESTS.rglob("*.java"))]
    inputs += [(stmt, f"class G {{\n    void m() {{\n        {stmt}\n    }}\n}}\n") for stmt in LOOKAHEAD_STATEMENTS]
    inputs += [(expr, _method(expr)) for expr in LOOKAHEAD_EXPRESSIONS]
    errors = _count_errors(monkeypatch)
    skipping = outcomes(inputs)
    skipping_errors = len(errors)
    monkeypatch.setattr(_Parser, "_may_start", lambda self, j, follow: True)
    assert outcomes(inputs) == skipping
    assert len(errors) - skipping_errors > skipping_errors  # the lookahead skipped heads that would fail


def test_the_mini_corpus_makes_one_parse_error(monkeypatch):
    """Its one failing source is the only parse error: no speculative head fails."""
    errors = _count_errors(monkeypatch)
    failed = []
    for path in sorted((TESTS / "data" / "mini_corpus").rglob("*.java")):
        if not parse(SourceFile.read(path, path.name)).ok:
            failed.append(f"{path.parent.name}/{path.name}")
    assert (failed, errors) == (["m2/T09.java"], ["expected ')', found '{'"])


if __name__ == "__main__":
    before = read_golden() if GOLDEN.exists() else {}
    after = outcomes()
    GOLDEN.write_text("".join(f"{case_id} {result}\n" for case_id, result in after.items()), encoding="utf-8")
    for cls, ids in changes(before, after).items():
        print(f"{cls}: {len(ids)}")
        for case_id in ids:
            print(f"  {case_id}: {before.get(case_id)} => {after.get(case_id)}")
