"""FileFacts, the per-file AST index and facts the rules share, against
reference walks and derivations.

The reference implementations below are the reflective ``iter_child_nodes``,
the recursive ``walk`` and the body-rescanning ``local_decls`` the rules used
before the index existed, and the class lists, name maps, member loops and
reference edges and type graphs each checker once derived and walked for
itself.  FileFacts must reproduce them exactly, node for node and in order,
on every rule fixture and every Java file under tests/.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterator

from smellscore.java_syntax import SourceFile, nodes as n, parse
from smellscore.java_syntax.lexer import PRIMITIVE_TYPES
from smellscore.rules.catalog import rule_by_id
from smellscore.rules.context import FileFacts, declared_span, reachable
from smellscore.smell_engine import detect_file

from test_smell_rules import CASES

TESTS = Path(__file__).parent


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
    out = [(str(p), p.read_text(encoding="utf-8")) for p in sorted(TESTS.rglob("*.java"))]
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


def test_declared_names_build_a_span_only_when_asked(monkeypatch):
    """The naming table holds nodes; declared_span builds a name's span, at
    the name, and the node keeps it."""
    built = []
    extent_span = n.extent_span
    monkeypatch.setattr(n, "extent_span", lambda extent: built.append(extent) or extent_span(extent))
    for path, text in _sources():
        source = SourceFile.from_text(path, text)
        outcome = parse(source)
        if not outcome.ok:
            continue
        names = FileFacts(outcome.ast).declared_names
        assert not built, path
        for kind, name, node in names:
            span = declared_span(node)
            assert span is declared_span(node)
            assert source.line_text(span.start_line)[span.start_col - 1 :].startswith(name), (path, kind, name)
        assert len(built) == len({id(node) for _, _, node in names}), path
        built.clear()


def test_detect_file_walks_each_tree_once(monkeypatch):
    """One indexing pass per file, and no walk of the rules' own: detect_file
    asks each node for its children exactly once."""
    files = [SourceFile.from_text(str(p), p.read_text(encoding="utf-8")) for p in sorted(TESTS.rglob("*.java"))]
    outcomes = [(source, parse(source)) for source in files]
    expected = [len(FileFacts(o.ast).nodes) if o.ok else 0 for _, o in outcomes]
    calls = 0
    original = n.iter_child_nodes

    def counting(node):
        nonlocal calls
        calls += 1
        return original(node)

    monkeypatch.setattr(n, "iter_child_nodes", counting)
    got = []
    for source, outcome in outcomes:
        calls = 0
        detect_file(source, ("t", "s"), outcome=outcome)
        got.append(calls)
    assert len(files) >= 31 and sum(expected) > 0
    assert got == expected


# ---- the shared per-file facts, against the per-checker derivations they replace

# Inputs that the fixtures do not hold: nested types, two types of one name,
# a class and an interface of one name declared after it, a parent named
# twice, and an inheritance cycle.
EXTRA_SOURCES = {
    "nested": (
        "class Outer<T> extends Base implements Api {\n"
        "  Inner first; int n;\n"
        "  Outer() {}\n"
        "  <U> U pick(U u, Other o) { Helper h = null; return u; }\n"
        "  static { }\n"
        "  class Inner extends Outer<String> { Outer back; void go() { Deep.run(); } }\n"
        "  interface Api { int X = 1; void call(Inner i); }\n"
        "  enum Mode { A, B; Mode next() { return A; } }\n"
        "}\n"
        "class Deep { static void run() { Outer o = new Outer(); } }\n"
    ),
    "same-name": "class A { B b; }\nclass B { A a; }\nclass A extends B { void m() {} }\n",
    "class-and-interface": "class A {}\nclass B extends A {}\nclass C extends B { I i; }\ninterface B { C c(); }\ninterface I {}\n",
    "repeated-parent": (
        "interface X {}\ninterface Y extends X {}\nclass A implements X, X {}\nclass A implements Y {}\n"
        "class B extends A implements Y, X {}\nclass C extends B {}\n"
    ),
    "cycle": "class A extends C { B b; }\nclass B extends A {}\nclass C extends B {}\nclass D extends D {}\n",
}


def reference_referenced_type_names(decl: n.TypeDecl) -> set[str]:
    """The type names a class references, as code_metrics derived them by walking each member."""
    excluded = {decl.name, "void", "var", ""} | PRIMITIVE_TYPES
    excluded.update(tp.name for tp in decl.type_params)
    for member in decl.members:
        if isinstance(member, n.MethodDecl):
            excluded.update(tp.name for tp in member.type_params)
    names: set[str] = set()
    refs = list(decl.extends + decl.implements)
    for member in decl.members:
        if not isinstance(member, n.TypeDecl):
            refs += [node for node in reference_walk(member) if isinstance(node, n.TypeRef)]
    for ref in refs:
        names.update(name for name in ref.referenced_names() if name not in excluded)
    return names


def reference_edges(unit: n.CompilationUnit) -> dict[str, set[str]]:
    """The in-unit reference edges, as the design rules built them per checker."""
    types = list(unit.all_types())
    declared = {t.name for t in types}
    edges: dict[str, set[str]] = {name: set() for name in declared}
    for decl in types:
        refs: set[str] = set()
        for ref in decl.extends + decl.implements:
            refs.add(ref.simple_name)
        for member in decl.members:
            if isinstance(member, n.TypeDecl):
                continue
            for node in reference_walk(member):
                if isinstance(node, n.TypeRef):
                    refs.update(node.referenced_names())
                elif isinstance(node, n.Name):
                    refs.add(node.identifier)
        edges[decl.name] = {r for r in refs & declared if r != decl.name}
    return edges


def _fact_units() -> list[tuple[str, n.CompilationUnit]]:
    units = [(source.path, unit) for source, unit in UNITS]
    for name, text in EXTRA_SOURCES.items():
        outcome = parse(SourceFile.from_text(name, text))
        assert outcome.ok, (name, outcome.failure)
        units.append((name, outcome.ast))
    return units


def _pair_ids(pairs) -> list[tuple[int, ...]]:
    return [tuple(id(x) for x in pair) for pair in pairs]


def test_type_facts_match_reference():
    for path, unit in _fact_units():
        facts = FileFacts(unit)
        types = list(unit.all_types())
        assert _ids(facts.types) == _ids(types), path
        assert _ids(facts.classes) == _ids(t for t in types if t.kind == "class"), path
        assert {k: id(v) for k, v in facts.by_name.items()} == {t.name: id(t) for t in types}, path
        class_map = {t.name: id(t) for t in types if t.kind == "class"}
        assert {k: id(v) for k, v in facts.class_by_name.items()} == class_map, path
        gate = len(types) > 1 or any(t.extends or t.implements for t in types)
        assert facts.hierarchy_applies == gate, path


def test_member_pairs_match_nested_member_loops():
    for path, unit in _fact_units():
        facts = FileFacts(unit)
        members, methods, fields, bodies = [], [], [], []
        for decl in unit.all_types():
            for member in decl.members:
                members.append((decl, member))
                if isinstance(member, n.MethodDecl):
                    methods.append((decl, member))
                    if member.body is not None:
                        bodies.append((decl, member, member.body))
                elif isinstance(member, n.FieldDecl):
                    fields.append((decl, member))
                elif isinstance(member, n.Initializer):
                    bodies.append((decl, member, member.body))
        assert _pair_ids(facts.members) == _pair_ids(members), path
        assert _pair_ids(facts.methods) == _pair_ids(methods), path
        assert _pair_ids(facts.fields) == _pair_ids(fields), path
        assert _pair_ids(facts.bodies) == _pair_ids(bodies), path


def test_reference_facts_match_reference():
    for path, unit in _fact_units():
        facts = FileFacts(unit)
        assert facts.edges == reference_edges(unit), path
        classes = [t for t in unit.all_types() if t.kind == "class"]
        assert _pair_ids((decl,) for decl, _ in facts.class_refs) == _pair_ids((decl,) for decl in classes), path
        assert [names for _, names in facts.class_refs] == [reference_referenced_type_names(d) for d in classes], path


def test_type_members_match_type_properties():
    for path, unit in _fact_units():
        facts = FileFacts(unit)
        for decl in facts.types:
            got = facts.type_members(decl)
            assert _ids(got.methods) == _ids(decl.methods), (path, decl.name)
            assert _ids(got.constructors) == _ids(decl.constructors), (path, decl.name)
            assert _ids(got.fields) == _ids(decl.fields), (path, decl.name)
            assert got.field_names == [d.name for f in decl.fields for d in f.declarators], (path, decl.name)
            assert facts.type_members(decl) is got


def test_member_nodes_match_member_walks():
    for path, unit in _fact_units():
        facts = FileFacts(unit)
        for decl in facts.types:
            for cls in (n.TypeRef, n.Name, n.MethodCall):
                want = [
                    node
                    for member in decl.members
                    if not isinstance(member, n.TypeDecl)
                    for node in reference_walk(member)
                    if type(node) is cls
                ]
                assert _ids(facts.member_nodes(decl, cls)) == _ids(want), (path, decl.name, cls)


def test_extra_sources_exercise_the_facts():
    facts = {name: FileFacts(unit) for name, unit in _fact_units() if name in EXTRA_SOURCES}
    nested = facts["nested"]
    assert [t.name for t in nested.types] == ["Outer", "Inner", "Api", "Mode", "Deep"]
    assert nested.edges["Outer"] == {"Api", "Inner"} and nested.edges["Inner"] == {"Outer", "Deep"}
    assert nested.class_refs[0][1] == {"Base", "Api", "Inner", "Other", "Helper"}
    same = facts["same-name"]
    assert len(same.types) == 3 and same.by_name["A"] is same.types[2]
    mixed = facts["class-and-interface"]
    assert mixed.by_name["B"].kind == "interface" and mixed.class_by_name["B"].kind == "class"
    repeated = facts["repeated-parent"]
    first_a, second_a = repeated.types[2], repeated.types[3]
    assert repeated.supertypes(first_a) == ["X", "X"] and repeated.supertypes(second_a) == ["Y"]
    assert repeated.subtypes["X"] == ["Y", "A", "A", "B"] and repeated.subtypes["A"] == ["B"]
    cycle = facts["cycle"]
    assert reachable(cycle.subtypes.__getitem__, cycle.subtypes["A"]) == {"A", "B", "C"}
    assert reachable(cycle.subtypes.__getitem__, cycle.subtypes["D"]) == {"D"}


# ---- the type graphs and their walks, against the hierarchy checkers' own

def reference_direct_parents(decl: n.TypeDecl, declared: dict[str, n.TypeDecl]) -> list[str]:
    names = [r.simple_name for r in decl.extends + decl.implements]
    return [p for p in names if p in declared]


def reference_descendants(types: list[n.TypeDecl], name: str) -> set[str]:
    """The transitive subtypes of a name, as cyclic-hierarchy derived them."""
    declared = {t.name: t for t in types}
    subtypes: dict[str, set[str]] = {}
    for decl in types:
        for parent in reference_direct_parents(decl, declared):
            subtypes.setdefault(parent, set()).add(decl.name)
    seen: set[str] = set()
    stack = list(subtypes.get(name, ()))
    while stack:
        s = stack.pop()
        if s not in seen:
            seen.add(s)
            stack.extend(subtypes.get(s, ()))
    return seen


def reference_closure(declared: dict[str, n.TypeDecl], name: str) -> set[str]:
    """The transitive supertypes of a name, as multipath-hierarchy derived them."""
    seen: set[str] = set()
    stack = [name]
    while stack:
        decl = declared.get(stack.pop())
        if decl is None:
            continue
        for p in reference_direct_parents(decl, declared):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def reference_in_cycle(edges: dict[str, set[str]]) -> set[str]:
    """The names on a reference cycle, as cyclically-dependent-modularization found them."""
    in_cycle: set[str] = set()
    for start in edges:
        stack = [(start, [start])]
        visited: set[str] = set()
        while stack:
            node, path = stack.pop()
            for succ in edges.get(node, ()):
                if succ == start:
                    in_cycle.update(path)
                elif succ not in visited:
                    visited.add(succ)
                    stack.append((succ, path + [succ]))
    return in_cycle


def test_type_graph_matches_reference():
    for path, unit in _fact_units():
        facts = FileFacts(unit)
        types = list(unit.all_types())
        declared = {t.name: t for t in types}
        width: dict[str, int] = dict.fromkeys(declared, 0)  # as wide-hierarchy counted direct subtypes
        for decl in types:
            parents = reference_direct_parents(decl, declared)
            assert facts.supertypes(decl) == parents, (path, decl.name)
            assert facts.supertypes(decl) is facts.supertypes(decl)
            for parent in parents:
                width[parent] += 1
        assert {name: len(subs) for name, subs in facts.subtypes.items()} == width, path

        def parents_of(name: str) -> list[str]:
            return facts.supertypes(facts.by_name[name])

        for name in declared:
            assert reachable(facts.subtypes.__getitem__, facts.subtypes[name]) == reference_descendants(types, name), path
            assert reachable(parents_of, [name]) == reference_closure(declared, name) | {name}, path
        edges = facts.edges
        in_cycle = {name for name, succs in edges.items() if name in reachable(edges.__getitem__, succs)}
        assert in_cycle == reference_in_cycle(edges), path


def test_graph_inputs_hold_hierarchies_and_cycles():
    units = [FileFacts(unit) for _, unit in _fact_units()]
    assert sum(any(facts.subtypes.values()) for facts in units) >= 10
    assert sum(bool(reference_in_cycle(facts.edges)) for facts in units) >= 3


def test_multipath_counts_a_parent_named_twice():
    text = EXTRA_SOURCES["repeated-parent"]
    report = detect_file(SourceFile.from_text("R.java", text), ("t", "s"), rules=[rule_by_id("multipath-hierarchy")])
    assert [(v.span.start_line, v.message) for v in report.violations] == [
        (3, "'A' inherits 'X' through multiple paths"),
        (5, "'B' inherits 'X' through multiple paths"),
    ]
