"""Checkers for the implementation-smell rules.

Each checker takes the shared RuleContext plus its SmellRule (for thresholds)
and returns the violations it found.  Checkers are pure and deterministic;
ordering is normalized later by the engine.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add, is_

from ..java_syntax import nodes as n
from ..java_syntax.lexer import LINE_END, WHITESPACE, TokenKind, numeric_value
from .context import FileFacts, RuleContext, declared_span, expr_source_name, is_bool_literal, strip_parens
from .model import SmellRule, Violation

# A checker's pattern comes from its rule's thresholds, so it is compiled
# once per distinct value, never once per call.
_regex = lru_cache(maxsize=64)(re.compile)
_LOOPS = (n.WhileStmt, n.DoWhileStmt, n.ForStmt, n.ForEachStmt)
_LOOP_CLASSES = frozenset(_LOOPS)


# ---- inconsistent-naming ---------------------------------------------------

# A kind of FileFacts.declared_names as a naming message calls it, where
# the two differ.
_WHAT = {"local": "local variable", "resource": "local variable"}


def _misnamed(ctx: RuleContext, rule: SmellRule, kinds: tuple[str, ...], advice: str) -> list[Violation]:
    """A violation for each declaration of one of ``kinds`` whose name the
    rule's pattern does not match."""
    match = _regex(rule.threshold("pattern")).match
    return [
        ctx.violation(rule, declared_span(node), f"{_WHAT.get(kind, kind)} '{name}' {advice}")
        for kind, name, node in ctx.facts.declared_names
        if kind in kinds and not match(name)
    ]


def check_local_variable_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("local", "resource", "loop variable"), "is not lowerCamelCase")


def check_parameter_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("parameter",), "is not lowerCamelCase")


def check_method_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("method",), "is not lowerCamelCase")


def check_class_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("type",), "is not UpperCamelCase")


def check_generics_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("type parameter",), "should be a single capital")


# The kinds abbreviation-as-word-in-name reads: constants are exempt, and
# resources, type parameters and catch parameters are not checked.
_ABBREVIATION_KINDS = frozenset({"type", "field", "method", "parameter", "local", "loop variable"})


def check_abbreviation_as_word_in_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_consecutive_capitals")
    run = _regex(r"[A-Z]{%d,}" % (limit + 1)).search
    return [
        ctx.violation(rule, declared_span(node), f"'{name}' embeds an abbreviation of more than {limit} capitals")
        for kind, name, node in ctx.facts.declared_names
        if kind in _ABBREVIATION_KINDS and run(name)
    ]


def check_abstract_class_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    pattern = _regex(rule.threshold("pattern"))
    out = []
    for decl in ctx.facts.classes:
        if decl.is_abstract and not pattern.match(decl.name):
            out.append(ctx.violation(rule, decl.name_span, f"abstract class '{decl.name}' should be named Abstract..."))
    return out


def check_catch_parameter_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("catch parameter",), "breaks the naming convention")


def check_constant_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return _misnamed(ctx, rule, ("constant",), "is not UPPER_SNAKE_CASE")


_ILLEGAL_WORDS = frozenset({"var", "record", "yield", "permits", "sealed"})
_ILLEGAL_KINDS = _ABBREVIATION_KINDS | {"constant"}


def check_illegal_identifier_name(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    return [
        ctx.violation(rule, declared_span(node), f"'{name}' is a restricted identifier")
        for kind, name, node in ctx.facts.declared_names
        if kind in _ILLEGAL_KINDS and name.lower() in _ILLEGAL_WORDS
    ]


# ---- excessive-complexity ------------------------------------------------------

def check_simplify_boolean_expression(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.Binary, n.Unary):
        if isinstance(node, n.Binary) and node.op in ("==", "!=", "&&", "||"):
            if is_bool_literal(node.left) or is_bool_literal(node.right):
                out.append(ctx.violation(rule, node.span, f"boolean expression with literal can be simplified"))
        elif isinstance(node, n.Unary) and node.op == "!" and is_bool_literal(node.operand):
            out.append(ctx.violation(rule, node.span, "negated boolean literal"))
    return out


def _null_check(expr: n.Expr, op: str) -> str | None:
    e = strip_parens(expr)
    if isinstance(e, n.Binary) and e.op == op:
        left, right = strip_parens(e.left), strip_parens(e.right)
        if isinstance(right, n.Literal) and right.kind is TokenKind.NULL:
            return expr_source_name(left)
        if isinstance(left, n.Literal) and left.kind is TokenKind.NULL:
            return expr_source_name(right)
    return None


def _instanceof_name(expr: n.Expr, negated: bool) -> str | None:
    e = strip_parens(expr)
    if negated:
        if isinstance(e, n.Unary) and e.op == "!":
            e = strip_parens(e.operand)
        else:
            return None
    if isinstance(e, n.InstanceOf):
        return expr_source_name(e.expr)
    return None


def check_simplify_conditional(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.Binary):
        if node.op == "&&":
            for a, b in ((node.left, node.right), (node.right, node.left)):
                name = _null_check(a, "!=")
                inst = _instanceof_name(b, negated=False)
                if name is not None and name == inst:
                    out.append(ctx.violation(rule, node.span, f"null check on '{name}' is implied by instanceof"))
                    break
        elif node.op == "||":
            for a, b in ((node.left, node.right), (node.right, node.left)):
                name = _null_check(a, "==")
                inst = _instanceof_name(b, negated=True)
                if name is not None and name == inst:
                    out.append(ctx.violation(rule, node.span, f"null check on '{name}' is implied by instanceof"))
                    break
    return out


def _bool_return(stmt: n.Stmt | None) -> bool:
    while isinstance(stmt, n.Block) and len(stmt.statements) == 1:
        stmt = stmt.statements[0]
    return isinstance(stmt, n.ReturnStmt) and stmt.value is not None and is_bool_literal(stmt.value)


def check_simplify_boolean_return(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.Block):
        stmts = node.statements
        for i, stmt in enumerate(stmts):
            if not isinstance(stmt, n.IfStmt) or not _bool_return(stmt.then):
                continue
            if _bool_return(stmt.orelse):
                out.append(ctx.violation(rule, stmt.span, "if/else returning boolean literals"))
            elif stmt.orelse is None and i + 1 < len(stmts) and _bool_return(stmts[i + 1]):
                out.append(ctx.violation(rule, stmt.span, "if returning a boolean literal followed by the opposite return"))
    return out


def check_simplified_ternary(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.Ternary):
        if is_bool_literal(node.if_true) or is_bool_literal(node.if_false):
            out.append(ctx.violation(rule, node.span, "ternary with a boolean-literal branch"))
    return out


def check_line_length(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_line_length")
    lines = ctx.source.lines
    if max(map(len, lines)) <= limit:
        return []
    out = []
    for line, text in enumerate(lines, 1):
        if len(text) > limit:
            span = n.Span(line, limit + 1, line, len(text) + 1)
            out.append(ctx.violation(rule, span, f"line is {len(text)} characters (max {limit})"))
    return out


def check_method_length(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_method_lines")
    out = []
    for _, member in ctx.facts.methods:
        if member.body is not None:
            lines = member.body.span.end_line - member.span.start_line + 1
            if lines > limit:
                out.append(ctx.violation(rule, member.name_span, f"method '{member.name}' spans {lines} lines (max {limit})"))
    return out


def check_excessive_parameter_list(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_parameters")
    out = []
    for _, member in ctx.facts.methods:
        if len(member.params) > limit:
            out.append(
                ctx.violation(rule, member.name_span, f"'{member.name}' takes {len(member.params)} parameters (max {limit})")
            )
    return out


# ---- redundancy ------------------------------------------------------------

def check_redundant_import(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    seen: set[tuple[str, bool, bool]] = set()
    own_package = ctx.unit.package.name if ctx.unit.package else None
    for imp in ctx.unit.imports:
        key = (imp.name, imp.is_static, imp.on_demand)
        if key in seen:
            out.append(ctx.violation(rule, imp.span, f"duplicate import of {imp.name}"))
            continue
        seen.add(key)
        if imp.is_static:
            continue
        if imp.on_demand and imp.name == "java.lang":
            out.append(ctx.violation(rule, imp.span, "java.lang is imported implicitly"))
        elif not imp.on_demand and imp.name.startswith("java.lang.") and imp.name.count(".") == 2:
            out.append(ctx.violation(rule, imp.span, "java.lang types are imported implicitly"))
        elif own_package is not None:
            container = imp.name if imp.on_demand else imp.name.rsplit(".", 1)[0]
            if container == own_package:
                out.append(ctx.violation(rule, imp.span, "import from the file's own package"))
    return out


def check_redundant_modifier(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl, member in ctx.facts.methods:
        if decl.kind == "interface":
            for mod in ("public", "abstract"):
                if mod in member.modifiers:
                    out.append(ctx.violation(rule, member.name_span, f"'{mod}' is redundant on an interface method"))
        elif "final" in decl.modifiers and "final" in member.modifiers and not member.is_constructor:
            out.append(ctx.violation(rule, member.name_span, "'final' is redundant in a final class"))
    for decl, member in ctx.facts.fields:
        if decl.kind == "interface":
            for mod in ("public", "static", "final"):
                if mod in member.modifiers:
                    out.append(ctx.violation(rule, member.span, f"'{mod}' is redundant on an interface field"))
    for decl in ctx.facts.types:
        for member in decl.nested_types:
            if decl.kind == "interface":
                for mod in ("public", "static"):
                    if mod in member.modifiers:
                        out.append(ctx.violation(rule, member.name_span, f"'{mod}' is redundant on a nested interface type"))
            elif member.kind in ("interface", "enum") and "static" in member.modifiers:
                out.append(ctx.violation(rule, member.name_span, f"'static' is redundant on a nested {member.kind}"))
    return out


def check_copy_paste(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    window = rule.threshold("min_duplicate_tokens")
    toks = ctx.tokens
    total = len(toks)
    if total < 2 * window:
        return []
    lex = toks.lexemes
    # A window is keyed by the text of its lexemes, each followed by a newline.
    # The parser rejects a line break inside a literal, so no lexeme of a
    # parsed file holds one, and two windows are equal exactly when their
    # texts are.
    text = "\n".join(lex) + "\n"
    starts = list(map(add, accumulate(map(len, lex), initial=0), range(total + 1)))  # token k's offset in text
    out = []
    first_seen: dict[str, int] = {}
    i = 0
    while i <= total - window:
        key = text[starts[i] : starts[i + window]]
        j = first_seen.get(key)
        if j is not None and j + window <= i:
            length = window
            while i + length < total and j + length < i and lex[j + length] == lex[i + length]:
                length += 1
            first, last = toks.span(i), toks.span(i + length - 1)
            span = n.Span(first.start_line, first.start_col, last.end_line, last.end_col)
            out.append(
                ctx.violation(rule, span, f"{length} tokens duplicate line {toks.span(j).start_line}")
            )
            i += length
            continue
        if j is None:
            first_seen[key] = i
        i += 1
    return out


# ---- incompleteness ------------------------------------------------------------

def check_missing_switch_default(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.SwitchStmt):
        if not node.has_default:
            out.append(ctx.violation(rule, node.span, "switch without a default arm"))
    return out


_TODO = re.compile(r"\b(TODO|FIXME)\b")


def check_todo_comment(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for c in ctx.unit.comments:
        if _TODO.search(c.text):
            out.append(ctx.violation(rule, c.span, "comment marks unfinished work"))
    return out


def _is_empty_body(stmt: n.Stmt | None) -> bool:
    if isinstance(stmt, n.EmptyStmt):
        return True
    return isinstance(stmt, n.Block) and not stmt.statements


def check_empty_control_statement(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.IfStmt, *_LOOPS, n.SwitchStmt):
        if isinstance(node, n.IfStmt):
            if _is_empty_body(node.then):
                out.append(ctx.violation(rule, node.span, "empty if body"))
            if node.orelse is not None and not isinstance(node.orelse, n.IfStmt) and _is_empty_body(node.orelse):
                out.append(ctx.violation(rule, node.orelse.span, "empty else body"))
        elif isinstance(node, _LOOPS):
            if _is_empty_body(node.body):
                out.append(ctx.violation(rule, node.span, "empty loop body"))
        elif not node.arms:
            out.append(ctx.violation(rule, node.span, "switch with no arms"))
    for stmt in ctx.facts.of_type(n.EmptyStmt):
        if type(ctx.facts.parent(stmt)) is n.Block:
            out.append(ctx.violation(rule, stmt.span, "stray semicolon"))
    return out


def check_empty_catch_block(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.CatchClause):
        if not node.body.statements:
            out.append(ctx.violation(rule, node.span, f"empty catch block for '{node.name}'"))
    return out


def check_empty_block(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.TryStmt, n.SynchronizedStmt, n.Initializer):
        if isinstance(node, n.TryStmt):
            if not node.body.statements:
                out.append(ctx.violation(rule, node.body.span, "empty try block"))
            if node.finally_block is not None and not node.finally_block.statements:
                out.append(ctx.violation(rule, node.finally_block.span, "empty finally block"))
        elif isinstance(node, n.SynchronizedStmt) and not node.body.statements:
            out.append(ctx.violation(rule, node.body.span, "empty synchronized block"))
        elif isinstance(node, n.Initializer) and not node.body.statements:
            out.append(ctx.violation(rule, node.span, "empty initializer block"))
    return out


# ---- improper-alignment -------------------------------------------------------

def check_indentation(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    width = rule.threshold("indent_width")
    out: list[Violation] = []

    # (node, depth) pairs over an explicit stack, each node's children pushed
    # last first so they come off in source order.  A block stands for its
    # statements one level deeper; a control-structure body that is a single
    # statement nests one level deeper itself.
    todo: list[tuple[n.Node, int]] = [(decl, 0) for decl in reversed(ctx.unit.types)]
    while todo:
        node, depth = todo.pop()
        cls = type(node)
        if cls is n.Block:
            todo += [(s, depth + 1) for s in reversed(node.statements)]
            continue
        if isinstance(node, n.Stmt):
            what = "statement"
            if cls is n.IfStmt:
                orelse = node.orelse
                if type(orelse) is n.IfStmt:  # an else-if continues the chain at this depth
                    todo.append((orelse, depth))
                elif orelse is not None:
                    todo.append((orelse, depth if type(orelse) is n.Block else depth + 1))
                todo.append((node.then, depth if type(node.then) is n.Block else depth + 1))
            elif cls in _LOOP_CLASSES:
                todo.append((node.body, depth if type(node.body) is n.Block else depth + 1))
            elif cls is n.SwitchStmt:
                todo += [(arm, depth + 1) for arm in reversed(node.arms)]
            elif cls is n.TryStmt:
                if node.finally_block is not None:
                    todo.append((node.finally_block, depth))
                todo += [(c.body, depth) for c in reversed(node.catches)]
                todo.append((node.body, depth))
            elif cls is n.SynchronizedStmt:
                todo.append((node.body, depth))
            elif cls is n.LabeledStmt:
                todo.append((node.stmt, depth))
            elif cls is n.LocalTypeDecl:
                todo.append((node.decl, depth))
        elif cls is n.SwitchArm:
            what = "case label"
            todo += [(s, depth + 1) for s in reversed(node.statements)]
        elif cls is n.TypeDecl:
            what = "type declaration"
            todo += [(member, depth + 1) for member in reversed(node.members)]
        else:  # a field, method or initializer
            what = "member declaration"
            if cls is not n.FieldDecl and node.body is not None:
                todo.append((node.body, depth))
        expected = depth * width
        actual = node.span.start_col - 1
        if actual != expected and ctx.first_on_line(node.span):
            out.append(ctx.violation(rule, node.span, f"{what} indented {actual} columns, expected {expected}"))
    return out


def check_file_tab_character(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if "\t" not in ctx.source.text:
        return []
    out = []
    for line, text in enumerate(ctx.source.lines, 1):
        col = text.find("\t")
        if col >= 0:
            span = n.Span(line, col + 1, line, col + 2)
            out.append(ctx.violation(rule, span, "tab character"))
    return out


def check_need_braces(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for node in ctx.facts.of_type(n.IfStmt, *_LOOPS):
        if isinstance(node, n.IfStmt):
            if not isinstance(node.then, n.Block):
                out.append(ctx.violation(rule, node.span, "if body without braces"))
            if node.orelse is not None and not isinstance(node.orelse, (n.Block, n.IfStmt)):
                out.append(ctx.violation(rule, node.orelse.span, "else body without braces"))
        else:
            if not isinstance(node.body, n.Block):
                out.append(ctx.violation(rule, node.span, "loop body without braces"))
    return out


_ATOMS = (n.Literal, n.Name, n.FieldAccess, n.MethodCall, n.Paren, n.ThisExpr, n.SuperExpr, n.ClassLiteral, n.ArrayAccess)
# The field of each node class in which a parenthesized expression needs no
# parentheses.  Method call arguments and a parenthesized atom are the others.
_PAREN_FIELDS = {
    n.ReturnStmt: "value", n.ThrowStmt: "expr", n.Assign: "value", n.VarDeclarator: "init",
    n.IfStmt: "cond", n.WhileStmt: "cond", n.DoWhileStmt: "cond", n.SwitchStmt: "selector",
    n.SynchronizedStmt: "lock", n.AssertStmt: "cond", n.ForEachStmt: "iterable", n.ArrayAccess: "index",
}


def check_useless_parentheses(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    flagged = []
    for paren in ctx.facts.of_type(n.Paren):  # few, so each is asked where it sits
        if not isinstance(paren.expr, _ATOMS):
            owner = ctx.facts.parent(paren)
            cls = type(owner)
            if cls is n.MethodCall:
                if not any(arg is paren for arg in owner.args):
                    continue
            elif cls not in _PAREN_FIELDS or getattr(owner, _PAREN_FIELDS[cls]) is not paren:
                continue
        flagged.append(paren)

    ordered = sorted(flagged, key=lambda p: (p.span.start_line, p.span.start_col))
    return [ctx.violation(rule, p.span, "parentheses are not needed here") for p in ordered]


def _curly_blocks(ctx: RuleContext) -> list[n.Span]:
    """Where the blocks start whose opening brace should close the preceding
    header line: type bodies, member bodies, then statement blocks."""
    facts = ctx.facts
    # a type body's brace is the first '{' token after the type's name
    spans = [brace for decl in facts.types if (brace := _brace_after(ctx, decl.name_span)) is not None]
    spans += [body.span for _, _, body in facts.bodies]
    for node in facts.of_type(n.IfStmt, *_LOOPS, n.TryStmt, n.SynchronizedStmt):
        cls = type(node)
        if cls is n.IfStmt:
            spans += [part.span for part in (node.then, node.orelse) if type(part) is n.Block]
        elif cls is n.TryStmt:
            spans.append(node.body.span)
            spans += [c.body.span for c in node.catches]
            if node.finally_block is not None:
                spans.append(node.finally_block.span)
        elif cls is n.SynchronizedStmt or type(node.body) is n.Block:
            spans.append(node.body.span)
    return spans


def check_left_curly(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    seen: set[tuple[int, int]] = set()
    for span in _curly_blocks(ctx):
        line, col = key = span[:2]
        if key in seen:
            continue
        seen.add(key)
        if ctx.first_on_line(span):
            out.append(ctx.violation(rule, n.Span(line, col, line, col + 1), "opening brace should end the previous line"))
    return out


def _brace_after(ctx: RuleContext, span: n.Span) -> n.Span | None:
    """The first '{' token that starts at or after span's end."""
    toks = ctx.tokens
    try:
        i = toks.lexemes.index("{", bisect_left(toks.offsets, ctx.offset_of(span.end_line, span.end_col)))
    except ValueError:
        return None
    return toks.span(i)


def check_right_curly(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []

    def check_pair(closing: n.Stmt, next_start_line: int, what: str) -> None:
        if isinstance(closing, n.Block) and closing.span.end_line != next_start_line:
            span = n.Span(closing.span.end_line, closing.span.end_col - 1, closing.span.end_line, closing.span.end_col)
            out.append(ctx.violation(rule, span, f"closing brace should share the line with '{what}'"))

    for node in ctx.facts.of_type(n.IfStmt, n.DoWhileStmt, n.TryStmt):
        if isinstance(node, n.IfStmt) and node.orelse is not None:
            check_pair(node.then, node.orelse.span.start_line, "else")
        elif isinstance(node, n.DoWhileStmt):
            check_pair(node.body, node.cond.span.start_line, "while")
        elif isinstance(node, n.TryStmt):
            parts: list[tuple[n.Stmt, int, str]] = []
            previous: n.Stmt = node.body
            for c in node.catches:
                parts.append((previous, c.span.start_line, "catch"))
                previous = c.body
            if node.finally_block is not None:
                parts.append((previous, node.finally_block.span.start_line, "finally"))
            for part, anchor, what in parts:
                check_pair(part, anchor, what)
    return out


# A whitespace token without a line end starts and ends with one of these
# characters, so a text neither pattern is found in has no padded parenthesis.
# (Two searches run faster than one alternation.)
_SPACE_AFTER_OPEN = re.compile(r"\([ \t\f]")
_SPACE_BEFORE_CLOSE = re.compile(r"[ \t\f]\)")
# The lexer's whitespace token that ends where the searched text ends.
_BLANKS_AT_END = re.compile(WHITESPACE.pattern + r"\Z")


def check_paren_pad(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    text = ctx.source.text
    if not (_SPACE_AFTER_OPEN.search(text) or _SPACE_BEFORE_CLOSE.search(text)):
        return []
    out = []
    toks = ctx.tokens
    lexemes, offsets = toks.lexemes, toks.offsets
    for i, lexeme in enumerate(lexemes):
        if lexeme == "(":
            blanks = WHITESPACE.match(text, offsets[i] + 1)
            message = "space after '('"
        elif lexeme == ")":
            # Only trivia lies between the previous token's end and the ')'.
            start = offsets[i - 1] + len(lexemes[i - 1])
            blanks = _BLANKS_AT_END.search(text, start, offsets[i])
            message = "space before ')'"
        else:
            continue
        if blanks and not LINE_END.search(text, blanks.start(), blanks.end()):
            out.append(ctx.violation(rule, toks.span(i), message))
    return out


def check_method_param_pad(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    name_spans = [(member.name_span, member.name) for _, member in ctx.facts.methods]
    for node in ctx.facts.of_type(n.MethodCall):
        name_spans.append((node.name_span, node.name))
    for span, name in name_spans:
        offset = ctx.offset_of(span.end_line, span.end_col)
        if offset < len(ctx.source.text) and ctx.source.text[offset] != "(":
            out.append(ctx.violation(rule, span, f"whitespace between '{name}' and '('"))
    return out


def check_variable_declaration_usage_distance(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_distance")
    out = []
    for node in ctx.facts.of_type(n.Block):
        stmts = node.statements
        used: list[set[str] | None] = [None] * len(stmts)
        for i, stmt in enumerate(stmts):
            if not isinstance(stmt, n.LocalVarDecl):
                continue
            for d in stmt.declarators:
                for j in range(i + 1, len(stmts)):
                    if used[j] is None:
                        used[j] = ctx.facts.simple_names(stmts[j])
                    if d.name in used[j]:
                        distance = j - i - 1
                        if distance > limit:
                            out.append(
                                ctx.violation(
                                    rule, d.name_span,
                                    f"'{d.name}' is first used {distance} statements after its declaration (max {limit})",
                                )
                            )
                        break
    return out


_ORDER = {"static-field": 1, "field": 2, "constructor": 3, "method": 4}


def check_declaration_order(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    owner, max_seen = None, 0
    for decl, member in ctx.facts.members:
        if decl is not owner:  # each type's members come one after another
            owner, max_seen = decl, 0
        if isinstance(member, n.FieldDecl):
            cat = "static-field" if "static" in member.modifiers else "field"
            span = member.span
        elif isinstance(member, n.MethodDecl):
            cat = "constructor" if member.is_constructor else "method"
            span = member.name_span
        else:
            continue
        rank = _ORDER[cat]
        if rank < max_seen:
            out.append(ctx.violation(rule, span, f"{cat.replace('-', ' ')} declared after later-ranked members"))
        max_seen = max(max_seen, rank)
    return out


# ---- magic-number ---------------------------------------------------------

def check_magic_number(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    numbers = [lit for lit in ctx.facts.of_type(n.Literal) if lit.kind is TokenKind.NUMBER]
    if not numbers:
        return []
    ignore = set(rule.threshold("ignore_numbers"))
    constant = _constant_literals(ctx.facts)
    out: list[Violation] = []
    for lit in numbers:
        if id(lit) in constant:
            continue
        value = numeric_value(lit.lexeme, lit.radix, lit.suffix)  # a literal that parsed has digits
        owner = ctx.facts.parent(lit)
        if isinstance(owner, n.Unary) and owner.op == "-" and owner.prefix:
            if -value not in ignore:
                out.append(ctx.violation(rule, lit.span, f"magic number {owner.op}{lit.lexeme}"))
        elif value not in ignore:
            out.append(ctx.violation(rule, lit.span, f"magic number {lit.lexeme}"))
    return out


def _constant_literals(facts: FileFacts) -> set[int]:
    """ids of the literals inside a static final field or an interface field, where numbers name constants."""
    found: set[int] = set()
    for field in facts.of_type(n.FieldDecl):
        owner = facts.parent(field)
        if field.is_static_final or isinstance(owner, n.TypeDecl) and owner.kind == "interface":
            found.update([id(lit) for lit in facts.of_type(n.Literal, within=field)])
    return found


# ---- dead-code -------------------------------------------------------------

def check_unused_formal_parameter(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for _, member in ctx.facts.methods:
        if member.is_constructor or "private" not in member.modifiers or member.body is None:
            continue
        used = ctx.facts.simple_names(member.body)
        for p in member.params:
            if p.name not in used:
                out.append(ctx.violation(rule, p.name_span, f"parameter '{p.name}' is never used"))
    return out


def check_unused_local_variable(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for _, _, body in ctx.facts.bodies:
        used = ctx.facts.simple_names(body)
        for _, d, origin in ctx.facts.local_decls(body):
            if origin == "resource":
                continue
            if d.name not in used:
                out.append(ctx.violation(rule, d.name_span, f"local variable '{d.name}' is never used"))
    return out


def check_unused_private_field(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    used = ctx.facts.names_used(ctx.unit)
    for _, member in ctx.facts.fields:
        if "private" in member.modifiers:
            for d in member.declarators:
                if d.name != "serialVersionUID" and d.name not in used:
                    out.append(ctx.violation(rule, d.name_span, f"private field '{d.name}' is never used"))
    return out


def check_unused_private_method(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    called = ctx.facts.call_names(ctx.unit)
    for _, m in ctx.facts.methods:
        if not m.is_constructor and "private" in m.modifiers and m.name not in called:
            out.append(ctx.violation(rule, m.name_span, f"private method '{m.name}' is never called"))
    return out


def check_unused_import(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    imports = ctx.unit.imports
    if not imports:
        return []
    out = []
    import_lines = {line for imp in imports for line in range(imp.span.start_line, imp.span.end_line + 1)}
    toks = ctx.tokens
    kinds, lexemes, offsets = toks.kinds, toks.lexemes, toks.offsets
    line_index = ctx.source.line_index
    # Tokens from the line after the last import line on share no line with an import.
    last = max(import_lines)
    body = bisect_left(offsets, line_index[last]) if last < len(line_index) else len(lexemes)
    body_idents = set(compress(lexemes[body:], map(is_, kinds[body:], repeat(TokenKind.IDENTIFIER))))
    body_idents.update(
        lexemes[i]
        for i in range(body)
        if kinds[i] is TokenKind.IDENTIFIER and bisect_right(line_index, offsets[i]) not in import_lines
    )
    for imp in imports:
        if imp.on_demand:
            continue
        simple = imp.name.rsplit(".", 1)[-1]
        if simple not in body_idents:
            out.append(ctx.violation(rule, imp.span, f"import {imp.name} is never used"))
    return out


# ---- resource-handling ---------------------------------------------------------

_RESOURCE_SUFFIXES = ("Stream", "Reader", "Writer", "Channel")
_RESOURCE_TYPES = frozenset(
    {
        "Connection", "Statement", "PreparedStatement", "CallableStatement",
        "ResultSet", "Scanner", "Socket", "ServerSocket", "RandomAccessFile",
    }
)


def _is_resource_type(name: str) -> bool:
    return name in _RESOURCE_TYPES or any(name.endswith(sfx) for sfx in _RESOURCE_SUFFIXES)


def check_close_resource(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for _, _, body in ctx.facts.bodies:
        closed: set[str] = set()
        for node in ctx.facts.of_type(n.MethodCall, within=body):
            if node.name == "close":
                receiver = expr_source_name(node.receiver) if node.receiver is not None else None
                if receiver:
                    closed.add(receiver.split(".")[-1])
        for _, d, origin in ctx.facts.local_decls(body):
            if origin == "resource":
                continue
            init = strip_parens(d.init) if d.init is not None else None
            if isinstance(init, n.NewObject) and _is_resource_type(init.type.simple_name):
                if d.name not in closed:
                    out.append(ctx.violation(rule, d.name_span, f"'{d.name}' ({init.type.simple_name}) is never closed"))
    return out


def check_avoid_instantiating_objects_in_loops(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    seen: set[int] = set()
    out = []
    for node in ctx.facts.of_type(*_LOOPS):
        for sub in ctx.facts.of_type(n.NewObject, n.NewArray, within=node.body):
            if id(sub) not in seen:
                    seen.add(id(sub))
                    out.append(ctx.violation(rule, sub.span, "object created inside a loop"))
    return out


# ---- documentation -------------------------------------------------------------

def check_comment_required(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.types:
        if decl.kind == "class" and "public" in decl.modifiers and decl.doc is None:
            out.append(ctx.violation(rule, decl.name_span, f"public class '{decl.name}' has no header comment"))
    return out


def check_comment_size(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_comment_lines")
    out = []
    for c in ctx.unit.comments:
        if c.line_span > limit:
            out.append(ctx.violation(rule, c.span, f"comment spans {c.line_span} lines (max {limit})"))
    return out


def check_comment_content(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    pattern = _any_word(tuple(rule.threshold("disallowed_words")))
    out = []
    for c in ctx.unit.comments:
        m = pattern.search(c.text)
        if m:
            out.append(ctx.violation(rule, c.span, f"comment contains disallowed word '{m.group(1)}'"))
    return out


@lru_cache(maxsize=64)
def _any_word(words: tuple[str, ...]) -> re.Pattern[str]:
    return re.compile(r"\b(" + "|".join(re.escape(w) for w in words) + r")\b", re.IGNORECASE)


def _has_override(member: n.MethodDecl) -> bool:
    return any(a.name == "Override" for a in member.annotations)


def check_javadoc_method(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl, member in ctx.facts.methods:
        visible = member.visibility() in ("public", "protected") or decl.kind == "interface"
        if not visible or _has_override(member):
            continue
        if member.doc is None or not member.doc.is_javadoc:
            kind = "constructor" if member.is_constructor else "method"
            out.append(ctx.violation(rule, member.name_span, f"{kind} '{member.name}' has no Javadoc"))
    return out


def check_javadoc_type(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.types:
        if decl.visibility() in ("public", "protected"):
            if decl.doc is None or not decl.doc.is_javadoc:
                out.append(ctx.violation(rule, decl.name_span, f"type '{decl.name}' has no Javadoc"))
    return out


def check_missing_javadoc_package(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    path = ctx.source.path.replace("\\", "/").rsplit("/", 1)[-1]
    if path != "package-info.java":
        return []
    pkg = ctx.unit.package
    if pkg is None:
        span = n.Span(1, 1, 1, 2)
        return [ctx.violation(rule, span, "package-info.java without a package declaration")]
    for c in ctx.unit.comments:
        if c.is_javadoc and (c.span.end_line < pkg.span.start_line or (
            c.span.end_line == pkg.span.start_line and c.span.end_col <= pkg.span.start_col
        )):
            return []
    return [ctx.violation(rule, pkg.span, "package declaration has no Javadoc")]


def check_javadoc_variable(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for _, member in ctx.facts.fields:
        if member.doc is None or not member.doc.is_javadoc:
            names = ", ".join(d.name for d in member.declarators)
            out.append(ctx.violation(rule, member.span, f"field '{names}' has no Javadoc"))
    return out
