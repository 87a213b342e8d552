"""Shared detection context and AST convenience helpers for rule checkers."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from ..code_metrics import referenced_type_names
from ..java_syntax import nodes as n
from ..java_syntax.lexer import SourceFile, Span, Token, TokenKind
from .model import SmellRule, Violation


Body = tuple[n.TypeDecl, n.MethodDecl | n.Initializer, n.Block]


class FileFacts:
    """One file's AST, indexed in a single preorder pass, and the per-file
    facts the rules share.

    ``nodes`` lists the unit's nodes in the order ``n.walk(unit)`` yields
    them, so every subtree is a contiguous slice of it that starts at its
    root.  A subtree walk is therefore a slice, and a typed query on a
    subtree bisects the sorted positions of that type.  The engine builds
    one index per parsed file and drops it with the file's RuleContext.

    The facts, each derived once per file:

    * ``types``: the top-level and member types, outer first; ``classes``:
      those of kind class;
    * ``by_name``: every type by simple name; ``class_by_name``: the classes
      alone (a later declaration of a name wins in both);
    * ``members``: (type, member) pairs of every type's members, each
      type's together and in declaration order; ``methods`` and ``fields``:
      those whose member is a method (constructors included) or a field;
    * ``bodies``: (type, member, block) for each method body and initializer;
    * ``hierarchy_applies``: whether the unit declares several types or
      uses extends/implements, which gates the hierarchy rules;
    * ``edges`` (lazy): the in-unit reference edges between types;
    * ``class_refs`` (lazy): each class with its referenced type names.

    A checker reads these and derives none of them itself.
    """

    def __init__(self, unit: n.CompilationUnit) -> None:
        nodes: list[n.Node] = []
        parents: list[int] = []
        stack: list[tuple[n.Node, int]] = [(unit, -1)]
        while stack:
            node, parent = stack.pop()
            here = len(nodes)
            nodes.append(node)
            parents.append(parent)
            children = [(child, here) for child in n.iter_child_nodes(node)]
            children.reverse()
            stack.extend(children)
        # Descendants follow their ancestors, so one backward sweep settles
        # every subtree's end before it is propagated to the parent.
        end = list(range(1, len(nodes) + 1))
        for i in range(len(nodes) - 1, 0, -1):
            p = parents[i]
            if end[i] > end[p]:
                end[p] = end[i]
        positions: dict[type, list[int]] = {}
        for i, node in enumerate(nodes):
            positions.setdefault(type(node), []).append(i)

        self.unit = unit
        self.nodes = nodes
        self._end = end
        self._parents = parents
        self._index = {id(node): i for i, node in enumerate(nodes)}
        self._positions = positions
        self.types: list[n.TypeDecl] = list(unit.all_types())
        self.classes = [t for t in self.types if t.kind == "class"]
        self.by_name = {t.name: t for t in self.types}
        self.class_by_name = {t.name: t for t in self.classes}
        self.members: list[tuple[n.TypeDecl, n.Node]] = [(decl, member) for decl in self.types for member in decl.members]
        self.methods: list[tuple[n.TypeDecl, n.MethodDecl]] = [p for p in self.members if isinstance(p[1], n.MethodDecl)]
        self.fields: list[tuple[n.TypeDecl, n.FieldDecl]] = [p for p in self.members if isinstance(p[1], n.FieldDecl)]
        self.bodies: list[Body] = [
            (decl, member, member.body)
            for decl, member in self.members
            if isinstance(member, n.Initializer) or isinstance(member, n.MethodDecl) and member.body is not None
        ]
        self.hierarchy_applies = len(self.types) > 1 or any(t.extends or t.implements for t in self.types)

    @cached_property
    def edges(self) -> dict[str, set[str]]:
        """Each declared type name with the other declared type names that
        its header and its own members (not its nested types) mention."""
        declared = self.by_name.keys()
        edges: dict[str, set[str]] = {name: set() for name in declared}
        for decl in self.types:
            refs = {ref.simple_name for ref in decl.extends + decl.implements}
            for member in decl.members:
                if isinstance(member, n.TypeDecl):
                    continue  # nested types collect their own edges
                for node in self.of_type(n.TypeRef, n.Name, within=member):
                    if isinstance(node, n.TypeRef):
                        refs.update(node.referenced_names())
                    else:
                        refs.add(node.identifier)
            refs.discard(decl.name)
            edges[decl.name] = refs & declared
        return edges

    @cached_property
    def class_refs(self) -> list[tuple[n.TypeDecl, set[str]]]:
        """Each class with the type names it references (code_metrics.referenced_type_names)."""
        return [(decl, referenced_type_names(decl, self)) for decl in self.classes]

    def subtree(self, node: n.Node) -> list[n.Node]:
        """node and all its descendants, in ``n.walk`` order."""
        i = self._index[id(node)]
        return self.nodes[i : self._end[i]]

    def of_type(self, *classes: type, within: n.Node | None = None) -> list[n.Node]:
        """Nodes whose class is exactly one of ``classes``, in ``n.walk`` order.

        With ``within``, only that node's subtree (the node included) is
        searched.
        """
        if within is None:
            lo, hi = 0, len(self.nodes)
        else:
            lo = self._index[id(within)]
            hi = self._end[lo]
        found: list[int] = []
        for cls in classes:
            pos = self._positions.get(cls)
            if pos:
                found.extend(pos[bisect_left(pos, lo) : bisect_left(pos, hi)])
        if len(classes) > 1:
            found.sort()
        nodes = self.nodes
        return [nodes[i] for i in found]

    def ancestors(self, node: n.Node) -> Iterator[n.Node]:
        """The enclosing nodes of node, innermost first."""
        p = self._parents[self._index[id(node)]]
        while p >= 0:
            yield self.nodes[p]
            p = self._parents[p]

    def parent(self, node: n.Node) -> n.Node | None:
        return next(self.ancestors(node), None)

    def local_decls(self, body: n.Block) -> Iterator[tuple[n.LocalVarDecl, n.VarDeclarator, str]]:
        """All local declarations in body with their origin: plain, for, or resource.

        For-init and resource declarations are yielded at their for or try
        statement, ahead of anything declared inside them.
        """
        for node in self.of_type(n.ForStmt, n.TryStmt, n.LocalVarDecl, within=body):
            if isinstance(node, n.ForStmt):
                for stmt in node.init:
                    if isinstance(stmt, n.LocalVarDecl):
                        for d in stmt.declarators:
                            yield stmt, d, "for"
            elif isinstance(node, n.TryStmt):
                for res in node.resources:
                    for d in res.declarators:
                        yield res, d, "resource"
            elif not self._in_header(node):
                for d in node.declarators:
                    yield node, d, "plain"

    def _in_header(self, decl: n.LocalVarDecl) -> bool:
        """True when decl is a for-init or a try-resource declaration."""
        owner = self.parent(decl)
        if isinstance(owner, n.ForStmt):
            return any(stmt is decl for stmt in owner.init)
        if isinstance(owner, n.TryStmt):
            return any(res is decl for res in owner.resources)
        return False

    def names_used(self, node: n.Node) -> set[str]:
        """Identifiers read via simple names or member access anywhere below node."""
        return {
            sub.identifier if isinstance(sub, n.Name) else sub.name
            for sub in self.of_type(n.Name, n.FieldAccess, within=node)
        }

    def simple_names(self, node: n.Node) -> set[str]:
        """Identifiers used as simple names below node."""
        return {sub.identifier for sub in self.of_type(n.Name, within=node)}

    def call_names(self, node: n.Node) -> set[str]:
        return {sub.name for sub in self.of_type(n.MethodCall, n.MethodRef, within=node)}


@dataclass
class RuleContext:
    source: SourceFile
    facts: FileFacts
    tokens: list[Token]  # lossless stream
    sig: list[Token]  # significant tokens only

    @property
    def unit(self) -> n.CompilationUnit:
        return self.facts.unit

    def snippet(self, span: Span) -> str:
        return self.source.line_text(span.start_line)

    def violation(self, rule: SmellRule, span: Span, message: str) -> Violation:
        return Violation(
            rule_id=rule.rule_id,
            file=self.source.path,
            span=span,
            message=message,
            snippet=self.snippet(span),
        )

    def offset_of(self, line: int, col: int) -> int:
        return self.source.line_index[line - 1] + col - 1

    def first_on_line(self, span: Span) -> bool:
        """True when nothing but whitespace precedes the span on its line."""
        text = self.source.line_text(span.start_line)
        return text[: span.start_col - 1].strip() == ""


def strip_parens(expr: n.Expr) -> n.Expr:
    while isinstance(expr, n.Paren):
        expr = expr.expr
    return expr


def is_bool_literal(expr: n.Expr) -> bool:
    e = strip_parens(expr)
    return isinstance(e, n.Literal) and e.kind is TokenKind.BOOL


def expr_source_name(expr: n.Expr) -> str | None:
    """Dotted source text for simple name chains (a, a.b, this.a), else None."""
    names: list[str] = []
    e = strip_parens(expr)
    while isinstance(e, n.FieldAccess):  # a loop: the parser reads chains of any length
        names.append(e.name)
        e = strip_parens(e.receiver)
    if isinstance(e, n.Name):
        names.append(e.identifier)
    elif isinstance(e, n.ThisExpr):
        names.append("this")
    else:
        return None
    return ".".join(reversed(names))
