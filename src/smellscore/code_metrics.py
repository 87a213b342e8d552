"""Source metrics: lines of code, cyclomatic and cognitive complexity, and
the type references and inheritance depth of a class.

Cyclomatic complexity is 1 plus the number of decision points: if, loop,
non-default case label, catch clause, ternary, and each && or || operator.

Cognitive complexity follows the published increment scheme:

* +1 plus the current nesting level for: if (unless it continues an else-if
  chain), ternary, switch, for, for-each, while, do-while, catch clause.
* +1 flat for: else, else-if, and a labeled break or continue.
* +1 per run of same-operator && / || sequences in a boolean expression
  (``a && b && c`` is one run, ``a && b || c`` is two).
* Nesting increases inside branch and loop bodies, switch arms, catch
  bodies, ternary sub-expressions, and lambda bodies.  Lambdas themselves
  add no structural increment.  try and finally bodies do not nest.

Recursion detection is out of scope (no call resolution), so recursive calls
never add an increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .java_syntax import nodes as n
from .java_syntax.lexer import PRIMITIVE_TYPES


class AbstractBodyError(Exception):
    """Raised when metrics are requested for a bodiless declaration."""


@dataclass
class MethodMetrics:
    name: str
    loc: int
    cyclomatic: int
    cognitive: int


_LOOPS = (n.WhileStmt, n.DoWhileStmt, n.ForStmt, n.ForEachStmt)


def method_metrics(method: n.MethodDecl) -> MethodMetrics:
    if method.body is None:
        raise AbstractBodyError(f"method {method.name} has no body")
    body = method.body
    return MethodMetrics(
        name=method.name,
        loc=body.span.end_line - body.span.start_line + 1,
        cyclomatic=cyclomatic_complexity(body),
        cognitive=cognitive_complexity(body),
    )


def cyclomatic_complexity(body: n.Block, subtree: Callable[[n.Node], Iterable[n.Node]] = n.walk) -> int:
    """Decision points in body plus one.

    ``subtree`` yields a node and its descendants in walk order; callers
    holding a prebuilt index pass its lookup instead of re-walking.
    """
    count = 1
    for node in subtree(body):
        if isinstance(node, (n.IfStmt, *_LOOPS, n.Ternary, n.CatchClause)):
            count += 1
        elif isinstance(node, n.SwitchStmt):
            count += node.case_label_count()
        elif isinstance(node, n.Binary) and node.op in ("&&", "||"):
            count += 1
    return count


def cognitive_complexity(body: n.Block) -> int:
    return _CognitiveWalker().walk_block(body, 0)


class _CognitiveWalker:
    def __init__(self) -> None:
        self.total = 0

    # -- statements ---------------------------------------------------------

    def walk_block(self, block: n.Block, nesting: int) -> int:
        for stmt in block.statements:
            self.walk_stmt(stmt, nesting)
        return self.total

    def walk_stmt(self, stmt: n.Stmt, nesting: int) -> None:
        if isinstance(stmt, n.Block):
            self.walk_block(stmt, nesting)
        elif isinstance(stmt, n.IfStmt):
            self._walk_if(stmt, nesting, chained=False)
        elif isinstance(stmt, _LOOPS):
            self.total += 1 + nesting
            if isinstance(stmt, n.ForStmt):
                for s in stmt.init:
                    self.walk_stmt(s, nesting)
                if stmt.cond is not None:
                    self.walk_expr(stmt.cond, nesting)
                for e in stmt.update:
                    self.walk_expr(e, nesting)
            elif isinstance(stmt, n.ForEachStmt):
                self.walk_expr(stmt.iterable, nesting)
            else:
                self.walk_expr(stmt.cond, nesting)
            self.walk_stmt(stmt.body, nesting + 1)
        elif isinstance(stmt, n.SwitchStmt):
            self.total += 1 + nesting
            self.walk_expr(stmt.selector, nesting)
            for arm in stmt.arms:
                for s in arm.statements:
                    self.walk_stmt(s, nesting + 1)
        elif isinstance(stmt, n.TryStmt):
            for res in stmt.resources:
                self.walk_stmt(res, nesting)
            self.walk_block(stmt.body, nesting)
            for catch in stmt.catches:
                self.total += 1 + nesting
                self.walk_block(catch.body, nesting + 1)
            if stmt.finally_block is not None:
                self.walk_block(stmt.finally_block, nesting)
        elif isinstance(stmt, (n.BreakStmt, n.ContinueStmt)):
            if stmt.label is not None:
                self.total += 1
        elif isinstance(stmt, n.LabeledStmt):
            self.walk_stmt(stmt.stmt, nesting)
        elif isinstance(stmt, n.SynchronizedStmt):
            self.walk_expr(stmt.lock, nesting)
            self.walk_block(stmt.body, nesting)
        elif isinstance(stmt, n.LocalVarDecl):
            for d in stmt.declarators:
                if d.init is not None:
                    self.walk_expr(d.init, nesting)
        elif isinstance(stmt, n.ExprStmt):
            self.walk_expr(stmt.expr, nesting)
        elif isinstance(stmt, n.ReturnStmt):
            if stmt.value is not None:
                self.walk_expr(stmt.value, nesting)
        elif isinstance(stmt, n.ThrowStmt):
            self.walk_expr(stmt.expr, nesting)
        elif isinstance(stmt, n.AssertStmt):
            self.walk_expr(stmt.cond, nesting)
            if stmt.message is not None:
                self.walk_expr(stmt.message, nesting)
        elif isinstance(stmt, (n.EmptyStmt, n.LocalTypeDecl)):
            pass

    def _walk_if(self, stmt: n.IfStmt, nesting: int, chained: bool) -> None:
        self.total += 1 if chained else 1 + nesting
        self.walk_expr(stmt.cond, nesting)
        self.walk_stmt(stmt.then, nesting + 1)
        if stmt.orelse is None:
            return
        if isinstance(stmt.orelse, n.IfStmt):
            self._walk_if(stmt.orelse, nesting, chained=True)
        else:
            self.total += 1
            self.walk_stmt(stmt.orelse, nesting + 1)

    # -- expressions ----------------------------------------------------------

    def walk_expr(self, expr: n.Expr, nesting: int) -> None:
        if isinstance(expr, n.Binary) and expr.op in ("&&", "||"):
            ops: list[str] = []
            self._collect_bool_ops(expr, ops, nesting)
            runs = 1 + sum(1 for a, b in zip(ops, ops[1:]) if a != b)
            self.total += runs
        elif isinstance(expr, n.Ternary):
            self.total += 1 + nesting
            self.walk_expr(expr.cond, nesting)
            self.walk_expr(expr.if_true, nesting + 1)
            self.walk_expr(expr.if_false, nesting + 1)
        elif isinstance(expr, n.Lambda):
            if isinstance(expr.body, n.Block):
                self.walk_block(expr.body, nesting + 1)
            else:
                self.walk_expr(expr.body, nesting + 1)
        else:
            for child in n.iter_child_nodes(expr):
                if isinstance(child, n.Expr):
                    self.walk_expr(child, nesting)
                elif isinstance(child, n.Block):
                    self.walk_block(child, nesting)

    def _collect_bool_ops(self, expr: n.Expr, ops: list[str], nesting: int) -> None:
        """In-order && / || operator collection, transparent through parens."""
        if isinstance(expr, n.Binary) and expr.op in ("&&", "||"):
            self._collect_bool_ops(expr.left, ops, nesting)
            ops.append(expr.op)
            self._collect_bool_ops(expr.right, ops, nesting)
        elif isinstance(expr, n.Paren):
            self._collect_bool_ops(expr.expr, ops, nesting)
        elif isinstance(expr, n.Unary) and expr.op == "!":
            self._collect_bool_ops(expr.operand, ops, nesting)
        else:
            self.walk_expr(expr, nesting)


# --------------------------------------------------------------------------
# Class structure
# --------------------------------------------------------------------------

def referenced_type_names(decl: n.TypeDecl, subtree: Callable[[n.Node], Iterable[n.Node]]) -> set[str]:
    """Distinct simple type names referenced from type positions in a class.

    Name-based and per-file: primitives, wildcards, the class's own name, and
    its type-parameter names are excluded.  ``subtree`` is as for
    cyclomatic_complexity.
    """
    excluded = {decl.name, "void", "var", ""} | PRIMITIVE_TYPES
    excluded.update(tp.name for tp in decl.type_params)
    for member in decl.members:
        if isinstance(member, n.MethodDecl):
            excluded.update(tp.name for tp in member.type_params)

    names: set[str] = set()

    def add(ref: n.TypeRef | None) -> None:
        if ref is None:
            return
        for name in ref.referenced_names():
            if name not in excluded:
                names.add(name)

    for ref in decl.extends + decl.implements:
        add(ref)
    for member in decl.members:
        if isinstance(member, n.TypeDecl):
            continue  # nested types count their own references
        for node in subtree(member):
            if isinstance(node, n.TypeRef):
                add(node)
    return names


def inheritance_depth_hint(decl: n.TypeDecl, unit: n.CompilationUnit) -> int:
    """Length of the extends chain walkable from this class.

    The first edge counts even when the parent is not declared in the file;
    beyond that only classes declared in the same unit extend the chain.
    """
    if decl.kind != "class" or not decl.extends:
        return 0
    by_name = {t.name: t for t in unit.all_types() if t.kind == "class"}
    depth = 0
    seen = {decl.name}
    current: n.TypeDecl | None = decl
    while current is not None and current.extends:
        depth += 1
        parent_name = current.extends[0].simple_name
        if parent_name in seen:
            break
        seen.add(parent_name)
        current = by_name.get(parent_name)
    return depth

