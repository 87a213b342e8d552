"""FileFacts, the per-file AST index the rules share, against reference walks.

The reference implementations below are the reflective ``iter_child_nodes``,
the recursive ``walk`` and the body-rescanning ``local_decls`` the rules used
before the index existed.  The index must reproduce them exactly, node for
node and in order, on every rule fixture and every mini-corpus file.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterator

from smellscore.java_syntax import SourceFile, nodes as n, parse
from smellscore.rules.context import FileFacts
from smellscore.smell_engine import detect_file

from test_smell_rules import CASES

MINI = Path(__file__).parent / "data" / "mini_corpus"


def reference_children(node: n.Node) -> Iterator[n.Node]:
    for f in dataclasses.fields(node):
        if f.name == "span":
            continue
        value = getattr(node, f.name)
        if isinstance(value, n.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, n.Node):
                    yield item


def reference_walk(node: n.Node) -> Iterator[n.Node]:
    yield node
    for child in reference_children(node):
        yield from reference_walk(child)


def reference_local_decls(body: n.Block) -> Iterator[tuple[n.LocalVarDecl, n.VarDeclarator, str]]:
    for node in reference_walk(body):
        if isinstance(node, n.ForStmt):
            for stmt in node.init:
                if isinstance(stmt, n.LocalVarDecl):
                    for d in stmt.declarators:
                        yield stmt, d, "for"
        elif isinstance(node, n.TryStmt):
            for res in node.resources:
                for d in res.declarators:
                    yield res, d, "resource"
        elif isinstance(node, n.LocalVarDecl):
            if reference_is_for_init_or_resource(node, body):
                continue
            for d in node.declarators:
                yield node, d, "plain"


def reference_is_for_init_or_resource(decl: n.LocalVarDecl, body: n.Block) -> bool:
    for node in reference_walk(body):
        if isinstance(node, n.ForStmt) and decl in node.init:
            return True
        if isinstance(node, n.TryStmt) and decl in node.resources:
            return True
    return False


def _sources() -> list[tuple[str, str]]:
    out = [(str(p), p.read_text(encoding="utf-8")) for p in sorted(MINI.rglob("*.java"))]
    for case in CASES:
        out.append((f"{case.rule_id}+{case.path}", case.positive))
        out.append((f"{case.rule_id}-{case.path}", case.negative))
    return out


def _parsed() -> list[tuple[SourceFile, n.CompilationUnit]]:
    units = []
    for path, text in _sources():
        source = SourceFile.from_text(path, text)
        outcome = parse(source)
        if outcome.ok:
            units.append((source, outcome.ast))
    return units


UNITS = _parsed()


def _ids(nodes) -> list[int]:
    return [id(node) for node in nodes]


def test_inputs_cover_fixtures_and_corpus():
    # every fixture parses; only the corpus's deliberate failure is missing
    assert len(UNITS) == len(_sources()) - 1


def test_subtrees_match_reference_walk():
    for source, unit in UNITS:
        facts = FileFacts(unit)
        assert _ids(facts.nodes) == _ids(reference_walk(unit)), source.path
        for node in facts.nodes:
            expected = _ids(reference_walk(node))
            assert _ids(facts.subtree(node)) == expected, (source.path, node.span)
            assert _ids(n.walk(node)) == expected, (source.path, node.span)
            assert _ids(n.iter_child_nodes(node)) == _ids(reference_children(node)), (source.path, node.span)


def test_local_decls_match_reference():
    for source, unit in UNITS:
        facts = FileFacts(unit)
        for _, _, body in facts.bodies:
            got = [(id(decl), id(d), origin) for decl, d, origin in facts.local_decls(body)]
            want = [(id(decl), id(d), origin) for decl, d, origin in reference_local_decls(body)]
            assert got == want, (source.path, body.span)


def test_typed_queries_and_parents_match_reference():
    kinds = (n.Block, n.LocalVarDecl, n.Name, n.MethodCall, n.TypeRef)
    for source, unit in UNITS:
        facts = FileFacts(unit)
        assert facts.parent(unit) is None
        for node in facts.nodes:
            below = reference_walk(node)
            assert _ids(facts.of_type(*kinds, within=node)) == _ids(x for x in below if isinstance(x, kinds))
            for child in reference_children(node):
                assert facts.parent(child) is node, (source.path, child.span)


def test_rule_checks_walk_each_node_at_most_twice(monkeypatch):
    """One indexing pass per file: the rules may not add walks of their own."""
    files = [SourceFile.from_text(str(p), p.read_text(encoding="utf-8")) for p in sorted(MINI.rglob("*.java"))]
    outcomes = [(source, parse(source)) for source in files]
    nodes = sum(len(list(reference_walk(o.ast))) for _, o in outcomes if o.ok)
    calls = 0
    original = n.iter_child_nodes

    def counting(node):
        nonlocal calls
        calls += 1
        return original(node)

    monkeypatch.setattr(n, "iter_child_nodes", counting)
    for source, outcome in outcomes:
        detect_file(source, ("t", "s"), outcome=outcome)
    assert nodes > 0
    assert calls <= 2 * nodes, f"{calls} child iterations for {nodes} nodes"
