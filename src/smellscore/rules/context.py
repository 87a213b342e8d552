"""Shared detection context and AST convenience helpers for rule checkers."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

from ..java_syntax import nodes as n
from ..java_syntax.lexer import PRIMITIVE_TYPES, SourceFile, Span, TokenKind, TokenTable
from .model import SmellRule, Violation


Body = tuple[n.TypeDecl, n.MethodDecl | n.Initializer, n.Block]


class TypeMembers(NamedTuple):
    """A type's members by kind, each in declaration order."""

    methods: list[n.MethodDecl]  # constructors excluded
    constructors: list[n.MethodDecl]
    fields: list[n.FieldDecl]
    field_names: list[str]  # the names the fields declare


class FileFacts:
    """One file's AST, indexed in a single preorder pass, and the per-file
    facts the rules share.

    ``nodes`` lists the unit's nodes in the order ``n.walk(unit)`` yields
    them, so every subtree is a contiguous slice of it that starts at its
    root.  A subtree walk is therefore a slice, and a typed query on a
    subtree bisects the sorted positions of that type and slices the list
    of that type's nodes.  The engine builds one index per parsed file and
    drops it with the file's RuleContext.

    The facts, each derived once per file:

    * ``types``: the top-level and member types, outer first; ``classes``:
      those of kind class;
    * ``by_name``: every type by simple name; ``class_by_name``: the classes
      alone (a later declaration of a name wins in both);
    * ``members``: (type, member) pairs of every type's members, each
      type's together and in declaration order; ``methods`` and ``fields``:
      those whose member is a method (constructors included) or a field;
    * ``bodies``: (type, member, block) for each method body and initializer;
    * ``type_members(decl)`` (lazy, per type): decl's members by kind;
    * ``local_decls(body)`` (lazy, per body): the body's local declarations;
    * ``hierarchy_applies``: whether the unit declares several types or
      uses extends/implements, which gates the hierarchy rules;
    * ``supertypes(decl)`` (lazy, per type): the declared types decl
      extends or implements; ``subtypes`` (lazy): each declared type's
      direct subtypes, by name;
    * ``inheritance_depth(decl)``: the length of decl's extends chain;
    * ``declared_names`` (lazy): (kind, name, node) of every declaration a
      naming rule reads: types, type parameters, fields, constants,
      methods, parameters, locals, resources, loop variables and catch
      parameters; ``declared_span(node)`` is the span of the name;
    * ``edges`` (lazy): the in-unit reference edges between types;
    * ``class_refs`` (lazy): each class with its referenced type names.

    A checker reads these and derives none of them itself; ``reachable``
    walks the type graphs among them.  The one checker that walks the tree
    itself is ``indentation``, which needs each statement's nesting depth.
    """

    def __init__(self, unit: n.CompilationUnit) -> None:
        nodes: list[n.Node] = []
        parents: list[int] = []
        children_of = n.iter_child_nodes
        # Nodes still to visit, and the position of each one's parent.
        stack: list[n.Node] = [unit]
        parent_of: list[int] = [-1]
        while stack:
            node = stack.pop()
            parents.append(parent_of.pop())
            nodes.append(node)
            children = children_of(node)
            if children:
                children.reverse()
                stack += children
                parent_of += [len(nodes) - 1] * len(children)
        positions: dict[type, list[int]] = {}
        by_class: dict[type, list[n.Node]] = {}
        for i, node in enumerate(nodes):
            cls = type(node)
            if cls in positions:
                positions[cls].append(i)
                by_class[cls].append(node)
            else:
                positions[cls] = [i]
                by_class[cls] = [node]
        # Descendants follow their ancestors, so one backward sweep settles
        # every subtree's end before it is propagated to the parent.
        end = list(range(1, len(nodes) + 1))
        for i in range(len(nodes) - 1, 0, -1):
            p = parents[i]
            if end[i] > end[p]:
                end[p] = end[i]

        self.unit = unit
        self.nodes = nodes
        self._end = end
        self._parents = parents
        self._index = dict(zip(map(id, nodes), range(len(nodes))))
        self._positions = positions
        self._by_class = by_class
        self._local_decls: dict[int, list[tuple[n.LocalVarDecl, n.VarDeclarator, str]]] = {}
        self._type_members: dict[int, TypeMembers] = {}
        self._supertypes: dict[int, list[str]] = {}
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
            # Nested type arguments are TypeRefs of the members too, so each
            # reference's own simple name is all it adds.
            refs.update([node.simple_name for node in self.member_nodes(decl, n.TypeRef)])
            refs.update([node.identifier for node in self.member_nodes(decl, n.Name)])
            refs.discard(decl.name)
            edges[decl.name] = refs & declared
        return edges

    @cached_property
    def declared_names(self) -> list[tuple[str, str, n.Node]]:
        """(kind, name, node) for every declaration a naming rule reads.

        The kinds are ``type``, ``type parameter``, ``field``, ``constant``
        (a static final or interface field), ``method`` (constructors
        excluded), ``parameter`` (constructors' included), ``local`` (plain
        and for-init), ``resource``, ``loop variable`` (a for-each's) and
        ``catch parameter``; the last four are read in the bodies.  The
        entries follow ``types``, ``fields``, ``methods`` and ``bodies`` in
        turn; within a body, locals and resources come in ``local_decls``
        order, then loop variables, then catch parameters.  The table holds
        nodes, not spans: a checker builds the span (declared_span) of a
        name it reports, and most names break no rule.
        """
        out: list[tuple[str, str, n.Node]] = [("type", decl.name, decl) for decl in self.types]
        out += [("type parameter", tp.name, tp) for decl in self.types for tp in decl.type_params]
        for decl, member in self.fields:
            kind = "constant" if member.is_static_final or decl.kind == "interface" else "field"
            out += [(kind, d.name, d) for d in member.declarators]
        for _, member in self.methods:
            if not member.is_constructor:
                out.append(("method", member.name, member))
            if member.type_params:
                out += [("type parameter", tp.name, tp) for tp in member.type_params]
            out += [("parameter", p.name, p) for p in member.params]
        for _, _, body in self.bodies:
            out += [
                ("resource" if origin == "resource" else "local", d.name, d)
                for _, d, origin in self.local_decls(body)
            ]
            out += [("loop variable", s.var_name, s) for s in self.of_type(n.ForEachStmt, within=body)]
            out += [("catch parameter", c.name, c) for c in self.of_type(n.CatchClause, within=body)]
        return out

    @cached_property
    def class_refs(self) -> list[tuple[n.TypeDecl, set[str]]]:
        """Each class with the type names it references."""
        return [(decl, self.referenced_type_names(decl)) for decl in self.classes]

    def referenced_type_names(self, decl: n.TypeDecl) -> set[str]:
        """Distinct simple type names referenced from type positions in a class.

        Name-based and per-file: primitives, wildcards, the class's own name,
        and its type-parameter names are excluded.
        """
        excluded = {decl.name, "void", "var", "", "?"} | PRIMITIVE_TYPES  # '?': a wildcard names no type
        excluded.update(tp.name for tp in decl.type_params)
        for member in decl.members:
            if isinstance(member, n.MethodDecl):
                excluded.update(tp.name for tp in member.type_params)
        names = {name for ref in decl.extends + decl.implements for name in ref.referenced_names()}
        # Nested type arguments are TypeRefs of the members as well, so each
        # reference's own simple name is all it adds; nested types count their own.
        names.update([ref.simple_name for ref in self.member_nodes(decl, n.TypeRef)])
        return names - excluded

    def supertypes(self, decl: n.TypeDecl) -> list[str]:
        """The declared types that decl extends or implements, by simple name
        in source order; a parent named twice is listed twice."""
        found = self._supertypes.get(id(decl))
        if found is None:
            declared = self.by_name
            refs = decl.extends + decl.implements
            found = self._supertypes[id(decl)] = [r.simple_name for r in refs if r.simple_name in declared]
        return found

    @cached_property
    def subtypes(self) -> dict[str, list[str]]:
        """Each declared type name with the names of the declarations that
        extend or implement it: one entry per (declaration, parent) pair."""
        subtypes: dict[str, list[str]] = {name: [] for name in self.by_name}
        for decl in self.types:
            for parent in self.supertypes(decl):
                subtypes[parent].append(decl.name)
        return subtypes

    def inheritance_depth(self, decl: n.TypeDecl) -> int:
        """Length of the extends chain walkable from a class.

        The first edge counts even when the parent is not declared in the
        file; beyond that only classes declared in the file extend the chain.
        """
        if decl.kind != "class" or not decl.extends:
            return 0
        depth = 0
        seen = {decl.name}
        current: n.TypeDecl | None = decl
        while current is not None and current.extends:
            depth += 1
            parent_name = current.extends[0].simple_name
            if parent_name in seen:
                break
            seen.add(parent_name)
            current = self.class_by_name.get(parent_name)
        return depth

    def subtree(self, node: n.Node) -> list[n.Node]:
        """node and all its descendants, in ``n.walk`` order."""
        i = self._index[id(node)]
        return self.nodes[i : self._end[i]]

    def of_type(self, *classes: type, within: n.Node | None = None) -> list[n.Node]:
        """Nodes whose class is exactly one of ``classes``, in ``n.walk`` order.

        With ``within``, only that node's subtree (the node included) is
        searched.
        """
        positions = self._positions
        if len(classes) == 1:  # a slice of the class's own nodes
            cls = classes[0]
            if cls not in positions:
                return []
            if within is None:
                return self._by_class[cls][:]
            pos = positions[cls]
            lo = self._index[id(within)]
            start = bisect_left(pos, lo)
            return self._by_class[cls][start : bisect_left(pos, self._end[lo], start)]
        if within is None:  # the whole file: every position, nothing to bisect
            found = [i for cls in classes for i in positions.get(cls, ())]
        else:
            lo = self._index[id(within)]
            hi = self._end[lo]
            found = []
            for cls in classes:
                pos = positions.get(cls)
                if pos:
                    found += pos[bisect_left(pos, lo) : bisect_left(pos, hi)]
        found.sort()
        return list(map(self.nodes.__getitem__, found))

    def type_members(self, decl: n.TypeDecl) -> TypeMembers:
        """decl's members by kind, partitioned once per type."""
        found = self._type_members.get(id(decl))
        if found is None:
            methods, constructors, fields = [], [], []
            for member in decl.members:
                cls = type(member)
                if cls is n.MethodDecl:
                    (constructors if member.is_constructor else methods).append(member)
                elif cls is n.FieldDecl:
                    fields.append(member)
            names = [d.name for f in fields for d in f.declarators]
            found = self._type_members[id(decl)] = TypeMembers(methods, constructors, fields, names)
        return found

    def member_nodes(self, decl: n.TypeDecl, cls: type) -> list[n.Node]:
        """Nodes whose class is exactly ``cls`` in decl's members, in ``n.walk``
        order; nested types are members that collect their own."""
        pos = self._positions.get(cls)
        if not pos or not decl.members:
            return []
        of_cls = self._by_class[cls]
        index, end = self._index, self._end
        # The members' subtrees follow one another, so only the nested types
        # cut holes into one range of positions.
        lo = index[id(decl.members[0])]
        found: list[n.Node] = []
        for member in decl.members:
            if type(member) is n.TypeDecl:
                i = index[id(member)]
                found += of_cls[bisect_left(pos, lo) : bisect_left(pos, i)]
                lo = end[i]
        return found + of_cls[bisect_left(pos, lo) : bisect_left(pos, end[index[id(decl.members[-1])]])]

    def parent(self, node: n.Node) -> n.Node | None:
        p = self._parents[self._index[id(node)]]
        return self.nodes[p] if p >= 0 else None

    def local_decls(self, body: n.Block) -> list[tuple[n.LocalVarDecl, n.VarDeclarator, str]]:
        """All local declarations in body with their origin: plain, for, or resource.

        For-init and resource declarations come at their for or try
        statement, ahead of anything declared inside them.  Several rules
        read each body's list, so it is built once per body and shared:
        callers must not change it.
        """
        found = self._local_decls.get(id(body))
        if found is not None:
            return found
        found = self._local_decls[id(body)] = []
        for node in self.of_type(n.ForStmt, n.TryStmt, n.LocalVarDecl, within=body):
            if isinstance(node, n.ForStmt):
                inits = [stmt for stmt in node.init if isinstance(stmt, n.LocalVarDecl)]
                found += [(stmt, d, "for") for stmt in inits for d in stmt.declarators]
            elif isinstance(node, n.TryStmt):
                found += [(res, d, "resource") for res in node.resources for d in res.declarators]
            elif not self._in_header(node):
                found += [(node, d, "plain") for d in node.declarators]
        return found

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
    """What a checker reads of one parsed file.  ``tokens`` is the parse
    outcome's TokenTable of significant tokens (no whitespace or comments,
    '>>' unsplit): read its ``lexemes``, ``kinds`` and ``offsets`` columns,
    and build a span with ``tokens.span(i)`` only for a hit."""

    source: SourceFile
    facts: FileFacts
    tokens: TokenTable

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
        start = self.source.line_index[span.start_line - 1]
        return not self.source.text[start : start + span.start_col - 1].strip()


def reachable(graph: Callable[[str], Iterable[str]], starts: Iterable[str]) -> set[str]:
    """``starts`` and every node reachable from them, where ``graph(node)``
    gives node's successors.  A node lies on a cycle exactly when it is
    reachable from its own successors."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for succ in graph(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


# The field holding the span of the name a declared_names node declares,
# where it is not ``name_span``.
_NAME_SPAN_FIELD = {n.TypeParam: "span", n.ForEachStmt: "var_name_span"}


def declared_span(node: n.Node) -> Span:
    """The span of the name that a node of FileFacts.declared_names declares."""
    return getattr(node, _NAME_SPAN_FIELD.get(node.__class__, "name_span"))


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
