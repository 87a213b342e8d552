"""Source metrics: lines of code, cyclomatic and cognitive complexity.

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
never add an increment.  The tables ``_STRUCTURES`` and ``_DEEPER`` restate
this scheme, and one loop over an explicit stack applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .java_syntax import nodes as n


class AbstractBodyError(Exception):
    """Raised when metrics are requested for a bodiless declaration."""


@dataclass
class MethodMetrics:
    name: str
    loc: int
    cyclomatic: int
    cognitive: int


_LOOPS = (n.WhileStmt, n.DoWhileStmt, n.ForStmt, n.ForEachStmt)
_BOOL_OPS = ("&&", "||")
# Node classes that add one decision point each (no node class subclasses another).
_DECISIONS = frozenset({n.IfStmt, *_LOOPS, n.Ternary, n.CatchClause})


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
        cls = type(node)
        if cls in _DECISIONS:
            count += 1
        elif cls is n.SwitchStmt:
            count += node.case_label_count()
        elif cls is n.Binary and node.op in _BOOL_OPS:
            count += 1
    return count


# README's cognitive increment table as data.  Each of these adds +1 plus
# the current nesting; an if does so only as the head of its else-if chain.
_STRUCTURES = _DECISIONS | {n.SwitchStmt}
# The (node class, field) pairs whose nodes sit one nesting level deeper.
_DEEPER = frozenset({
    *((loop, "body") for loop in _LOOPS), (n.CatchClause, "body"), (n.Lambda, "body"),
    (n.IfStmt, "then"), (n.IfStmt, "orelse"), (n.SwitchStmt, "arms"),
    (n.Ternary, "if_true"), (n.Ternary, "if_false"),
})
# Fields that are not walked: members of an anonymous class, and case labels.
_SKIPPED = frozenset({(n.NewObject, "anon_body"), (n.SwitchArm, "labels")})


def cognitive_complexity(body: n.Node) -> int:
    total = 0
    else_ifs: set[int] = set()  # ids of the ifs that continue an else-if chain
    stack: list[tuple[n.Node, int]] = [(body, 0)]
    while stack:
        node, nesting = stack.pop()
        cls = type(node)
        if cls is n.LocalTypeDecl:  # a local class counts its own methods
            continue
        if cls in _STRUCTURES and id(node) not in else_ifs:
            total += 1 + nesting
        elif isinstance(node, (n.BreakStmt, n.ContinueStmt)):
            total += node.label is not None
        elif isinstance(node, n.Binary) and node.op in _BOOL_OPS:
            ops, operands = _bool_tree(node)
            total += 1 + sum(a != b for a, b in zip(ops, ops[1:]))
            stack += ((operand, nesting) for operand in operands)
            continue
        for name in n.child_fields(cls):
            if (cls, name) in _SKIPPED:
                continue
            value = getattr(node, name)
            depth = nesting + 1 if (cls, name) in _DEEPER else nesting
            if cls is n.IfStmt and name == "orelse" and value is not None:
                total += 1  # else or else-if
                if type(value) is n.IfStmt:  # else-if: flat, at this nesting
                    else_ifs.add(id(value))
                    depth = nesting
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, n.Node):
                    stack.append((child, depth))
    return total


def _bool_tree(expr: n.Binary) -> tuple[list[str], list[n.Expr]]:
    """The && / || operators of a boolean expression tree in source order,
    read through parentheses and !, and the operands that are not part of it."""
    ops: list[str] = []
    operands: list[n.Expr] = []
    stack: list[n.Expr | str] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            ops.append(item)
        elif type(item) is n.Binary and item.op in _BOOL_OPS:
            stack += (item.right, item.op, item.left)
        elif type(item) is n.Paren:
            stack.append(item.expr)
        elif type(item) is n.Unary and item.op == "!":
            stack.append(item.operand)
        else:
            operands.append(item)
    return ops, operands
