"""Recursive-descent parser for a pragmatic Java subset.

Covers the compilation-unit grammar needed by the rule catalog and metrics:
class/interface/enum declarations, generics and annotations parsed
structurally, lambdas, classic switch statements, and the full statement and
expression grammar listed in nodes.py.  Anything outside the subset stops at
the first error and is reported as a ParseFailure value; there is no error
recovery, so a report is either built from a complete tree or not at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexer import (
    COMMENT_KINDS,
    PRIMITIVE_TYPES,
    LexError,
    SourceFile,
    Span,
    Token,
    TokenKind,
    numeric_value,
    tokenize,
)
from . import nodes as n

MODIFIER_WORDS = frozenset(
    "public protected private static final abstract native synchronized transient volatile strictfp default".split()
)
_FINAL = frozenset(["final"])  # the one modifier of a parameter or local variable

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="])

# Binary operator precedence, low to high.
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
)
# Each binary operator's binding power: its level above.
_BINARY_POWER = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}
_TOP_POWER = len(_BINARY_LEVELS) - 1

# Nesting bound.  Expressions, calls, statements and types each add about the stack
# frames one level of them takes to _Parser.depth; past _MAX_DEPTH the parse
# fails with "nesting too deep".  So where that failure strikes depends on the
# input alone, and not, as a RecursionError does, on how deep the caller's
# stack already was.  _MAX_DEPTH lets about 115 parentheses or 98 lambdas
# nest in a method, and leaves room below Python's default limit of 1000 frames
# for callers up to about 250 frames deep.  RecursionError stays the backstop
# for what does not count: chains of prefix operators, nested class bodies,
# array initializers and element values, and the frames some nestings take
# beyond their count.
_EXPRESSION_DEPTH = 6  # expression, ternary, binary, unary, postfix, primary: one parenthesis
_LAMBDA_DEPTH = 1  # _finish_lambda, on top of the expression that is a lambda's body
_CALL_DEPTH = 2  # _call_args and separated, on top of an expression: one call's arguments
_STATEMENT_DEPTH = 3  # statement, _statement and the block or if that holds the next one
_TYPE_DEPTH = 4  # parse_type, parse_type_args, separated, parse_type_arg: one type argument
_MAX_DEPTH = 700

_LITERAL_KINDS = (TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR, TokenKind.BOOL, TokenKind.NULL)
_CHECKED_LITERAL_KINDS = (TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR)  # the lexer lets malformed ones through


@dataclass
class ParseFailure:
    first_error_span: Span
    message: str


@dataclass
class ParseOutcome:
    ast: n.CompilationUnit | None = None
    failure: ParseFailure | None = None
    tokens: list[Token] = field(default_factory=list)  # the AST's significant tokens, '>>' unsplit; empty on failure

    @property
    def ok(self) -> bool:
        return self.ast is not None


class _ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


class _NoReading(_ParseError):
    """No reading of the tokens allows a repeated modifier, a malformed
    literal or a varargs parameter that is not last, so _attempt lets this
    error through instead of trying another rule."""


class _TooDeep(_ParseError):
    """Nesting past _MAX_DEPTH; _attempt lets it through, as _NoReading."""


def parse(source: SourceFile) -> ParseOutcome:
    """Parse a source file; failure is a value, never an exception."""
    try:
        tokens = tokenize(source)
    except LexError as e:
        span = Span(e.line, e.col, e.line, e.col + 1)
        return ParseOutcome(failure=ParseFailure(span, e.message))
    parser = _Parser(tokens)
    try:
        return ParseOutcome(ast=parser.compilation_unit(), tokens=parser.significant)
    except _ParseError as e:
        error = e
    except RecursionError:  # located at the token the parser had reached
        error = parser.error("nesting too deep")
    return ParseOutcome(failure=ParseFailure(error.span, error.message))


def parse_text(path: str, text: str) -> ParseOutcome:
    return parse(SourceFile.from_text(path, text))


class _Parser:
    def __init__(self, all_tokens: list[Token]):
        self.all_tokens = all_tokens
        # The significant tokens; the copy split_gt rewrites; for each, its
        # index in the full stream (for comment attachment); and their
        # lexemes, padded with None for end of file as far as any lookahead
        # reaches, for the hot lexeme tests.
        self.full_index = [i for i, t in enumerate(all_tokens) if not t.is_trivia]
        self.significant = [all_tokens[i] for i in self.full_index]
        self.toks = self.significant[:]
        self.lexemes: list[str | None] = [t.lexeme for t in self.toks] + [None] * 3
        self.i = 0
        self.depth = 0  # see _MAX_DEPTH
        self.splits: list[tuple[int, Token]] = []  # (index, token) of each split '>>', for _attempt to undo
        self.negated = -1  # index of the token right after the last unary '-' read
        self.comments = [
            n.Comment(span=t.span, kind=t.kind, text=t.lexeme) for t in all_tokens if t.kind in COMMENT_KINDS
        ]

    # ---- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else None

    def at(self, lexeme: str, offset: int = 0) -> bool:
        return self.lexemes[self.i + offset] == lexeme  # no caller looks further ahead than the padding

    def at_kind(self, kind: TokenKind, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.kind is kind

    def next(self) -> Token:
        i = self.i
        if self.lexemes[i] is None:
            raise self.error("unexpected end of file")
        self.i = i + 1
        return self.toks[i]

    def expect(self, lexeme: str) -> Token:
        i = self.i
        got = self.lexemes[i]
        if got != lexeme:
            got = "end of file" if got is None else got
            raise self.error(f"expected {lexeme!r}, found {got!r}")
        self.i = i + 1
        return self.toks[i]

    def expect_ident(self) -> Token:
        t = self.peek()
        if t is None or t.kind is not TokenKind.IDENTIFIER:
            got = t.lexeme if t else "end of file"
            raise self.error(f"expected identifier, found {got!r}")
        self.i += 1
        return t

    def here(self) -> Span:
        """The current token's span; end of file is a parse error."""
        if self.peek() is None:
            raise self.error("unexpected end of file")
        return self.peek().span

    def error(self, message: str, kind: type[_ParseError] = _ParseError) -> _ParseError:
        """An error at the current token, or at the last one at end of file."""
        t = self.peek()
        span = t.span if t else (self.toks[-1].span if self.toks else Span(1, 1, 1, 1))
        return kind(message, span)

    def check_literal(self, t: Token, negated: bool) -> None:
        """Raise at a NUMBER, STRING or CHAR token that is no Java literal;
        ``negated`` as for _malformed_literal."""
        malformed = _malformed_literal(t, negated)
        if malformed:
            raise _NoReading(malformed, t.span)

    def nest(self, frames: int) -> None:
        """Count one more level of nesting that takes ``frames`` stack frames;
        the caller takes them off ``depth`` again when the level returns."""
        self.depth += frames
        if self.depth > _MAX_DEPTH:
            raise self.error("nesting too deep", _TooDeep)

    def separated(self, item, sep: str = ",", close: str | None = None, trailing: tuple[str, ...] = ()) -> list:
        """``item (sep item)*``.  Before a token in ``trailing``, one more
        ``sep`` may end the list (JLS 8.9.1, 9.7.1, 10.6, 14.20.3).  Given
        ``close``, the list may be empty: no items when ``close`` or a token
        in ``trailing`` comes next, or a lone ``sep`` before one, as in ``{,}``."""
        lexemes = self.lexemes
        if close is not None:
            if lexemes[self.i] == sep and lexemes[self.i + 1] in trailing:
                self.i += 1
            if lexemes[self.i] == close or lexemes[self.i] in trailing:
                return []
        items = [item()]
        while lexemes[self.i] == sep:
            self.i += 1
            if lexemes[self.i] in trailing:
                break
            items.append(item())
        return items

    def split_gt(self) -> Token:
        """Consume a single '>' even when lexed as part of a shift operator."""
        t = self.peek()
        if t is None:
            raise self.error("expected '>'")
        if t.lexeme == ">":
            return self.next()
        if t.lexeme.startswith(">") and t.lexeme in (">>", ">>>", ">=", ">>=", ">>>="):
            head = Token(
                TokenKind.OPERATOR,
                ">",
                Span(t.span.start_line, t.span.start_col, t.span.start_line, t.span.start_col + 1),
            )
            rest = Token(
                TokenKind.OPERATOR,
                t.lexeme[1:],
                Span(t.span.start_line, t.span.start_col + 1, t.span.end_line, t.span.end_col),
            )
            self.splits.append((self.i, t))
            self.toks[self.i : self.i + 1] = [head, rest]
            self.lexemes[self.i : self.i + 1] = [head.lexeme, rest.lexeme]
            self.full_index.insert(self.i, self.full_index[self.i])
            return self.next()
        raise self.error("expected '>'")

    def _attempt(self, rule):
        """The result of ``rule()``, or None with the position, the nesting
        depth and any '>>' splits undone."""
        i, splits, depth = self.i, len(self.splits), self.depth
        try:
            return rule()
        except (_NoReading, _TooDeep):
            raise
        except _ParseError:
            while len(self.splits) > splits:
                j, t = self.splits.pop()
                self.toks[j : j + 2] = [t]
                self.lexemes[j : j + 2] = [t.lexeme]
                del self.full_index[j]
            self.i, self.depth = i, depth
            return None

    def preceding_comment(self, tok_index: int) -> n.Comment | None:
        """The comment directly above a declaration's first token, if only whitespace parts them."""
        j = self.full_index[tok_index] - 1
        while j >= 0 and self.all_tokens[j].kind is TokenKind.WHITESPACE:
            j -= 1
        if j >= 0 and self.all_tokens[j].kind in COMMENT_KINDS:
            t = self.all_tokens[j]
            return n.Comment(span=t.span, kind=t.kind, text=t.lexeme)
        return None

    def span_between(self, start: Span, end: Span) -> Span:
        return Span(start.start_line, start.start_col, end.end_line, end.end_col)

    # ---- compilation unit ---------------------------------------------------

    def compilation_unit(self) -> n.CompilationUnit:
        start = self.peek().span if self.peek() else Span(1, 1, 1, 1)
        package = None
        imports: list[n.ImportDecl] = []

        self.parse_annotations()
        if self.at("package"):
            pkg_tok = self.next()
            name = self.qualified_name()
            end = self.expect(";")
            package = n.PackageDecl(span=self.span_between(pkg_tok.span, end.span), name=name)
        else:
            self.i = 0  # no package: the annotations open the first type declaration

        while self.at("import"):
            imp_tok = self.next()
            is_static = False
            if self.at("static"):
                self.next()
                is_static = True
            name_parts = [self.expect_ident().lexeme]
            on_demand = False
            while self.at("."):
                self.next()
                if self.at("*"):
                    self.next()
                    on_demand = True
                    break
                name_parts.append(self.expect_ident().lexeme)
            end = self.expect(";")
            imports.append(
                n.ImportDecl(
                    span=self.span_between(imp_tok.span, end.span),
                    name=".".join(name_parts),
                    is_static=is_static,
                    on_demand=on_demand,
                )
            )

        types: list[n.TypeDecl] = []
        while self.peek() is not None:
            if self.at(";"):
                self.next()
                continue
            types.append(self.type_declaration())

        end_span = self.toks[-1].span if self.toks else start
        return n.CompilationUnit(
            span=self.span_between(start, end_span),
            package=package,
            imports=imports,
            types=types,
            comments=self.comments,
        )

    def qualified_name(self) -> str:
        parts = [self.expect_ident().lexeme]
        while self.at(".") and self.at_kind(TokenKind.IDENTIFIER, 1):
            self.next()
            parts.append(self.expect_ident().lexeme)
        return ".".join(parts)

    # ---- declarations -------------------------------------------------------

    def parse_annotations(self) -> list[n.Annotation]:
        anns: list[n.Annotation] = []
        while self.at("@") and not self.at("interface", 1):
            anns.append(self.annotation())
        return anns

    def annotation(self) -> n.Annotation:
        """'@' name and its arguments (JLS 9.7.1): element-value pairs
        ``name = value``, or one element value.  The values are checked and
        dropped; the tree keeps only the name."""
        at_tok = self.next()
        name = self.qualified_name()
        end_span = self.toks[self.i - 1].span
        if self.at("("):
            self.next()
            if self.at_kind(TokenKind.IDENTIFIER) and self.at("=", 1):
                self.separated(self.element_value_pair)
            elif not self.at(")"):
                self.element_value()
            end_span = self.expect(")").span
        return n.Annotation(span=self.span_between(at_tok.span, end_span), name=name)

    def element_value_pair(self) -> None:
        self.expect_ident()
        self.expect("=")
        self.element_value()

    def element_value(self) -> None:
        """An annotation, an expression, or element values in braces."""
        if self.at("@"):
            self.annotation()
        elif self.at("{"):
            self.next()
            self.separated(self.element_value, close="}", trailing=("}",))
            self.expect("}")
        else:
            self.expression()

    def parse_modifiers(self, words: frozenset[str] = MODIFIER_WORDS) -> tuple[list[str], list[n.Annotation]]:
        """Annotations, and the modifiers among ``words`` between them, each
        at most once (JLS 8.1.1, 8.3.1, 8.4.1, 8.4.3, 14.4)."""
        mods: list[str] = []
        anns: list[n.Annotation] = []
        while True:
            anns.extend(self.parse_annotations())
            word = self.lexemes[self.i]
            if word not in words:  # every modifier word is a keyword, so no other token spells one
                return mods, anns
            if word in mods:
                raise _NoReading(f"repeated modifier {word!r}", self.peek().span)
            mods.append(self.next().lexeme)

    def type_declaration(self) -> n.TypeDecl:
        decl_start = self.i
        mods, anns = self.parse_modifiers()
        t = self.peek()
        if t is None:
            raise self.error("expected type declaration")
        if t.lexeme not in ("class", "interface", "enum"):
            raise self.error(f"expected class, interface, or enum, found {t.lexeme!r}")
        return self.class_body_decl(mods, anns, decl_start)

    def class_body_decl(self, mods: list[str], anns: list[n.Annotation], decl_start: int) -> n.TypeDecl:
        kw = self.next()
        kind = kw.lexeme
        name_tok = self.expect_ident()
        type_params = self.parse_type_params() if self.at("<") else []

        extends: list[n.TypeRef] = []
        implements: list[n.TypeRef] = []
        if self.at("extends"):
            self.next()
            extends = self.separated(self.parse_type) if kind == "interface" else [self.parse_type()]
        if self.at("implements"):
            self.next()
            implements = self.separated(self.parse_type)

        self.expect("{")
        enum_constants: list[n.EnumConstant] = []
        if kind == "enum":
            enum_constants = self.parse_enum_constants()

        members = self.parse_members(name_tok.lexeme)
        close = self.expect("}")

        start_span = self.toks[decl_start].span if decl_start < len(self.toks) else kw.span
        doc = self.preceding_comment(decl_start)
        return n.TypeDecl(
            span=self.span_between(start_span, close.span),
            kind=kind,
            name=name_tok.lexeme,
            name_span=name_tok.span,
            modifiers=mods,
            annotations=anns,
            type_params=type_params,
            extends=extends,
            implements=implements,
            members=members,
            enum_constants=enum_constants,
            doc=doc,
        )

    def parse_enum_constants(self) -> list[n.EnumConstant]:
        """The constants of an enum body, and the ';' that ends them unless the body does."""
        constants = self.separated(self.enum_constant, close="}", trailing=("}", ";"))
        if not self.at("}"):
            self.expect(";")
        return constants

    def enum_constant(self) -> n.EnumConstant:
        self.parse_annotations()
        name_tok = self.expect_ident()
        args: list[n.Expr] = []
        end_span = name_tok.span
        if self.at("("):
            args, end_span = self._call_args()
        if self.at("{"):  # constant class body, parsed structurally
            self.next()
            self.parse_members("")
            end_span = self.expect("}").span
        return n.EnumConstant(span=self.span_between(name_tok.span, end_span), name=name_tok.lexeme, args=args)

    def parse_members(self, enclosing_name: str) -> list:
        members: list = []
        while not self.at("}"):
            if self.peek() is None:
                raise self.error("unterminated type body")
            if self.at(";"):
                self.next()
                continue
            members.append(self.parse_member(enclosing_name))
        return members

    def parse_member(self, enclosing_name: str):
        decl_start = self.i
        mods, anns = self.parse_modifiers()

        if self.at("class") or self.at("interface") or self.at("enum"):
            return self.class_body_decl(mods, anns, decl_start)

        if self.at("{"):  # initializer block
            body = self.block()
            is_static = "static" in mods
            start_span = self.toks[decl_start].span
            return n.Initializer(span=self.span_between(start_span, body.span), static=is_static, body=body)

        type_params = self.parse_type_params() if self.at("<") else []

        # Constructor: Name '('
        if (
            self.at_kind(TokenKind.IDENTIFIER)
            and self.peek().lexeme == enclosing_name
            and self.at("(", 1)
        ):
            name_tok = self.next()
            return self.finish_method(decl_start, mods, anns, type_params, None, name_tok, is_constructor=True)

        ret_type = self.parse_type(allow_void=True)

        name_tok = self.expect_ident()
        if self.at("("):
            return self.finish_method(decl_start, mods, anns, type_params, ret_type, name_tok, is_constructor=False)

        declarators = self.var_declarators(name_tok)  # a field
        end = self.expect(";")
        start_span = self.toks[decl_start].span
        doc = self.preceding_comment(decl_start)
        return n.FieldDecl(
            span=self.span_between(start_span, end.span),
            modifiers=mods,
            annotations=anns,
            type=ret_type,
            declarators=declarators,
            doc=doc,
        )

    def var_declarators(self, name_tok: Token) -> list[n.VarDeclarator]:
        """The declarators of a field or local variable whose first name is already read."""
        first = [name_tok]
        return self.separated(lambda: self.parse_declarator(first.pop() if first else self.expect_ident()))

    def parse_declarator(self, name_tok: Token) -> n.VarDeclarator:
        extra_dims, end_span = self.name_dims(name_tok.span)
        init = None
        if self.at("="):
            self.next()
            init = self.variable_initializer()
            end_span = init.span
        return n.VarDeclarator(
            span=self.span_between(name_tok.span, end_span),
            name=name_tok.lexeme,
            name_span=name_tok.span,
            extra_dims=extra_dims,
            init=init,
        )

    def name_dims(self, end_span: Span) -> tuple[int, Span]:
        """The '[]' pairs after a declared name (int a[]), and the span that ends there."""
        dims = 0
        while self.at("["):
            self.next()
            end_span = self.expect("]").span
            dims += 1
        return dims, end_span

    def finish_method(
        self,
        decl_start: int,
        mods: list[str],
        anns: list[n.Annotation],
        type_params: list[n.TypeParam],
        ret_type: n.TypeRef | None,
        name_tok: Token,
        is_constructor: bool,
    ) -> n.MethodDecl:
        self.expect("(")
        params = self.separated(self.parse_param, close=")")
        self.name_dims(self.expect(")").span)  # archaic int m()[] form

        throws: list[n.TypeRef] = []
        if self.at("throws"):
            self.next()
            throws = self.separated(self.parse_type)

        body = None
        if self.at("{"):
            body = self.block()
            end_span = body.span
        else:
            end_span = self.expect(";").span

        start_span = self.toks[decl_start].span
        doc = self.preceding_comment(decl_start)
        return n.MethodDecl(
            span=self.span_between(start_span, end_span),
            modifiers=mods,
            annotations=anns,
            type_params=type_params,
            return_type=ret_type,
            name=name_tok.lexeme,
            name_span=name_tok.span,
            params=params,
            throws=throws,
            body=body,
            is_constructor=is_constructor,
            doc=doc,
        )

    def parse_param(self) -> n.Param:
        start = self.here()
        mods, anns = self.parse_modifiers(_FINAL)
        ptype = self.parse_type()
        dots = self.next() if self.at("...") else None
        name_tok = self.expect_ident()
        extra_dims, end_span = self.name_dims(name_tok.span)
        if dots is not None and self.at(","):  # JLS 8.4.1: only the last parameter may be variable arity
            raise _NoReading("varargs parameter must be the last parameter", dots.span)
        ptype.array_dims += extra_dims
        return n.Param(
            span=self.span_between(start, end_span),
            type=ptype,
            name=name_tok.lexeme,
            name_span=name_tok.span,
            modifiers=mods,
            annotations=anns,
            varargs=dots is not None,
        )

    # ---- types ----------------------------------------------------------------

    def parse_type_params(self) -> list[n.TypeParam]:
        self.expect("<")
        params = self.separated(self.parse_type_param)
        self.split_gt()
        return params

    def parse_type_param(self) -> n.TypeParam:
        start = self.here()
        self.parse_annotations()
        name_tok = self.expect_ident()
        bounds: list[n.TypeRef] = []
        if self.at("extends"):
            self.next()
            bounds = self.separated(self.parse_type, "&")
        end_span = bounds[-1].span if bounds else name_tok.span
        return n.TypeParam(span=self.span_between(start, end_span), name=name_tok.lexeme, bounds=bounds)

    def parse_type(self, allow_void: bool = False) -> n.TypeRef:
        self.parse_annotations()
        t = self.peek()
        if t is None:
            raise self.error("expected type")

        if t.lexeme == "void" and allow_void:
            self.next()
            return n.TypeRef(span=t.span, name="void")
        if t.lexeme in PRIMITIVE_TYPES and t.kind is TokenKind.KEYWORD:
            self.next()
            ref = n.TypeRef(span=t.span, name=t.lexeme)
        elif t.kind is TokenKind.IDENTIFIER:
            start = t.span
            name = self.qualified_name()
            ref = n.TypeRef(span=self.span_between(start, self.toks[self.i - 1].span), name=name)
            if self.at("<"):
                self.nest(_TYPE_DEPTH)
                ref.type_args = self.parse_type_args()
                self.depth -= _TYPE_DEPTH
                ref.span = self.span_between(start, self.toks[self.i - 1].span)
        else:
            raise self.error(f"expected type, found {t.lexeme!r}")
        return self.array_dims(ref)

    def array_dims(self, ref: n.TypeRef) -> n.TypeRef:
        """``ref`` with each following '[]' added to its dimensions and span."""
        while self.at("[") and self.at("]", 1):
            self.next()
            end = self.next()
            ref.array_dims += 1
            ref.span = self.span_between(ref.span, end.span)
        return ref

    def parse_type_args(self) -> list[n.TypeRef]:
        self.expect("<")
        if self.at(">") or (self.peek() and self.peek().lexeme.startswith(">")):
            self.split_gt()  # diamond <>
            return []
        args = self.separated(self.parse_type_arg)
        self.split_gt()
        return args

    def parse_type_arg(self) -> n.TypeRef:
        """A type, or a wildcard: '?' with an optional bound."""
        self.parse_annotations()
        t = self.peek()
        if t is None or t.lexeme != "?":
            return self.parse_type()
        self.next()
        ref = n.TypeRef(span=t.span, name="?")
        if self.at("extends") or self.at("super"):
            ref.bound_kind = self.next().lexeme
            ref.bound = self.parse_type()
            ref.span = self.span_between(t.span, ref.bound.span)
        return ref

    # ---- statements -------------------------------------------------------------

    def block(self) -> n.Block:
        open_tok = self.expect("{")
        stmts: list[n.Stmt] = []
        while not self.at("}"):
            if self.peek() is None:
                raise self.error("unterminated block")
            stmts.append(self.statement())
        close = self.expect("}")
        return n.Block(span=self.span_between(open_tok.span, close.span), statements=stmts)

    def statement(self) -> n.Stmt:
        self.nest(_STATEMENT_DEPTH)
        stmt = self._statement()
        self.depth -= _STATEMENT_DEPTH
        return stmt

    def _statement(self) -> n.Stmt:
        t = self.peek()
        if t is None:
            raise self.error("expected statement")
        lex = t.lexeme

        if lex == "{":
            return self.block()
        if lex == ";":
            tok = self.next()
            return n.EmptyStmt(span=tok.span)
        if lex == "if":
            return self.if_statement()
        if lex == "while":
            return self.while_statement()
        if lex == "do":
            return self.do_statement()
        if lex == "for":
            return self.for_statement()
        if lex == "switch":
            return self.switch_statement()
        if lex == "try":
            return self.try_statement()
        if lex == "return":
            tok = self.next()
            value = None if self.at(";") else self.expression()
            end = self.expect(";")
            return n.ReturnStmt(span=self.span_between(tok.span, end.span), value=value)
        if lex == "throw":
            tok = self.next()
            expr = self.expression()
            end = self.expect(";")
            return n.ThrowStmt(span=self.span_between(tok.span, end.span), expr=expr)
        if lex in ("break", "continue"):
            tok = self.next()
            label = self.next().lexeme if self.at_kind(TokenKind.IDENTIFIER) else None
            end = self.expect(";")
            jump = n.BreakStmt if lex == "break" else n.ContinueStmt
            return jump(span=self.span_between(tok.span, end.span), label=label)
        if lex == "synchronized":
            tok = self.next()
            lock = self.parenthesized()
            body = self.block()
            return n.SynchronizedStmt(span=self.span_between(tok.span, body.span), lock=lock, body=body)
        if lex == "assert":
            tok = self.next()
            cond = self.expression()
            message = None
            if self.at(":"):
                self.next()
                message = self.expression()
            end = self.expect(";")
            return n.AssertStmt(span=self.span_between(tok.span, end.span), cond=cond, message=message)
        if t.kind is TokenKind.IDENTIFIER and self.at(":", 1) and not self.at(":", 2):
            label_tok = self.next()
            self.next()  # ':'
            stmt = self.statement()
            return n.LabeledStmt(span=self.span_between(label_tok.span, stmt.span), label=label_tok.lexeme, stmt=stmt)

        head = self._attempt(self.local_var_head)
        if head is not None:
            decl = self.local_var_declarators(head)
            end = self.expect(";")
            decl.span = self.span_between(decl.span, end.span)
            return decl
        if lex in ("@", "class", "interface", "enum", "abstract", "final", "static"):  # none can start an expression
            decl = self.type_declaration()
            return n.LocalTypeDecl(span=decl.span, decl=decl)

        expr = self.expression()
        end = self.expect(";")
        return n.ExprStmt(span=self.span_between(expr.span, end.span), expr=expr)

    def parenthesized(self) -> n.Expr:
        """'(' expression ')', as after if, while, switch and synchronized."""
        self.expect("(")
        expr = self.expression()
        self.expect(")")
        return expr

    def if_statement(self) -> n.IfStmt:
        """An if statement.  An else-if chain is read in a loop, so its length
        adds no nesting; each else-if is the orelse of the if before it."""
        heads: list[tuple[Token, n.Expr, n.Stmt]] = []
        orelse: n.Stmt | None = None
        while True:
            tok = self.expect("if")
            cond = self.parenthesized()
            then = self.statement()
            heads.append((tok, cond, then))
            if not self.at("else"):
                break
            self.next()
            if not self.at("if"):
                orelse = self.statement()
                break
        end_span = (then if orelse is None else orelse).span
        for tok, cond, then in reversed(heads):
            orelse = n.IfStmt(span=self.span_between(tok.span, end_span), cond=cond, then=then, orelse=orelse)
        return orelse

    def while_statement(self) -> n.WhileStmt:
        tok = self.expect("while")
        cond = self.parenthesized()
        body = self.statement()
        return n.WhileStmt(span=self.span_between(tok.span, body.span), cond=cond, body=body)

    def do_statement(self) -> n.DoWhileStmt:
        tok = self.expect("do")
        body = self.statement()
        self.expect("while")
        cond = self.parenthesized()
        end = self.expect(";")
        return n.DoWhileStmt(span=self.span_between(tok.span, end.span), body=body, cond=cond)

    def for_statement(self) -> n.Stmt:
        tok = self.expect("for")
        self.expect("(")

        head = self._attempt(self.local_var_head)
        if head is not None and self.at(":"):
            decl, name_tok = head
            self.next()
            iterable = self.expression()
            self.expect(")")
            body = self.statement()
            return n.ForEachStmt(
                span=self.span_between(tok.span, body.span),
                var_modifiers=decl.modifiers,
                var_type=decl.type,
                var_name=name_tok.lexeme,
                var_name_span=name_tok.span,
                iterable=iterable,
                body=body,
            )

        if head is not None:
            init: list[n.Stmt] = [self.local_var_declarators(head)]
        else:
            init = [n.ExprStmt(span=e.span, expr=e) for e in self.separated(self.expression, close=";")]
        self.expect(";")

        cond = None
        if not self.at(";"):
            cond = self.expression()
        self.expect(";")

        update = self.separated(self.expression, close=")")
        self.expect(")")
        body = self.statement()
        return n.ForStmt(span=self.span_between(tok.span, body.span), init=init, cond=cond, update=update, body=body)

    def local_var_head(self) -> tuple[n.LocalVarDecl, Token]:
        """Annotations and 'final', a type, then the first variable's name.

        Returns the declaration without declarators, and that name.
        """
        first = self.peek()
        mods, anns = self.parse_modifiers(_FINAL)
        var_type = self.parse_type()
        name_tok = self.expect_ident()
        decl = n.LocalVarDecl(span=first.span, modifiers=mods, annotations=anns, type=var_type, declarators=[])
        return decl, name_tok

    def local_var_declarators(self, head: tuple[n.LocalVarDecl, Token]) -> n.LocalVarDecl:
        decl, name_tok = head
        decl.declarators = self.var_declarators(name_tok)
        decl.span = self.span_between(decl.span, decl.declarators[-1].span)
        return decl

    def switch_statement(self) -> n.SwitchStmt:
        tok = self.expect("switch")
        selector = self.parenthesized()
        self.expect("{")
        arms: list[n.SwitchArm] = []
        while not self.at("}"):
            if self.peek() is None:
                raise self.error("unterminated switch")
            labels: list[n.Expr | None] = []
            label_start = self.peek().span
            while self.at("case") or self.at("default"):
                if self.at("case"):
                    self.next()
                    labels.append(self.expression())
                else:
                    self.next()
                    labels.append(None)
                self.expect(":")
            if not labels:
                raise self.error("expected 'case' or 'default' label")
            stmts: list[n.Stmt] = []
            while not (self.at("case") or self.at("default") or self.at("}")):
                stmts.append(self.statement())
            end_span = stmts[-1].span if stmts else label_start
            arms.append(n.SwitchArm(span=self.span_between(label_start, end_span), labels=labels, statements=stmts))
        close = self.expect("}")
        return n.SwitchStmt(span=self.span_between(tok.span, close.span), selector=selector, arms=arms)

    def try_statement(self) -> n.TryStmt:
        tok = self.expect("try")
        resources: list[n.LocalVarDecl] = []
        if self.at("("):
            self.next()
            resources = self.separated(self.resource, ";", trailing=(")",))
            self.expect(")")
        body = self.block()
        catches: list[n.CatchClause] = []
        end_span = body.span
        while self.at("catch"):
            c_tok = self.next()
            self.expect("(")
            mods, _ = self.parse_modifiers(_FINAL)  # a catch parameter's annotations are not kept
            types = self.separated(self.parse_type, "|")
            name_tok = self.expect_ident()
            self.expect(")")
            c_body = self.block()
            catches.append(
                n.CatchClause(
                    span=self.span_between(c_tok.span, c_body.span),
                    types=types,
                    name=name_tok.lexeme,
                    name_span=name_tok.span,
                    modifiers=mods,
                    body=c_body,
                )
            )
            end_span = c_body.span
        finally_block = None
        if self.at("finally"):
            self.next()
            finally_block = self.block()
            end_span = finally_block.span
        if not catches and finally_block is None and not resources:
            raise self.error("try statement requires catch, finally, or resources")
        return n.TryStmt(
            span=self.span_between(tok.span, end_span),
            resources=resources,
            body=body,
            catches=catches,
            finally_block=finally_block,
        )

    def resource(self) -> n.LocalVarDecl:
        """One try resource: a single variable with an initializer (JLS 14.20.3)."""
        decl, name_tok = self.local_var_head()
        declarator = self.parse_declarator(name_tok)
        if declarator.init is None:
            raise self.error("try resource needs an initializer")
        if self.at(","):
            raise self.error("try resource declares more than one variable")
        decl.declarators = [declarator]
        decl.span = self.span_between(decl.span, declarator.span)
        return decl

    # ---- expressions ---------------------------------------------------------

    def expression(self) -> n.Expr:
        """An assignment (right-associative), or else a conditional expression."""
        self.nest(_EXPRESSION_DEPTH)
        expr = self.ternary()
        self.depth -= _EXPRESSION_DEPTH
        return expr

    def ternary(self) -> n.Expr:
        """An assignment or a conditional expression.  A chain
        ``a ? b : c ? d : e`` is read in a loop, so its length adds no
        nesting, and nests to the right; its last false arm, like an
        expression without '?', may be an assignment or a lambda."""
        heads: list[tuple[n.Expr, n.Expr]] = []
        expr = self.binary()
        lexemes = self.lexemes
        while lexemes[self.i] == "?":
            self.i += 1
            if_true = self.expression()
            self.expect(":")
            heads.append((expr, if_true))
            expr = self.binary()
        if lexemes[self.i] in _ASSIGN_OPS:
            op = self.next().lexeme
            value = self.expression()
            expr = n.Assign(span=self.span_between(expr.span, value.span), target=expr, op=op, value=value)
        while heads:
            cond, if_true = heads.pop()
            expr = n.Ternary(span=self.span_between(cond.span, expr.span), cond=cond, if_true=if_true, if_false=expr)
        return expr

    def binary(self, min_power: int = 0) -> n.Expr:
        """Binary operators and instanceof, by precedence climbing.

        The loop takes each operator whose power (_BINARY_POWER) is at least
        ``min_power``; its right operand takes only operators of higher power,
        which makes every level left-associative.  After an operator of power
        p, the loop takes only operators of power p or lower, as a grammar
        with one rule per level would: so in ``a instanceof T - b`` the '-'
        ends the expression instead of taking the instanceof as its operand.
        """
        left = self.unary()
        lexemes = self.lexemes
        ceiling = _TOP_POWER
        while True:
            lex = lexemes[self.i]
            power = _BINARY_POWER.get(lex)
            if power is None or power < min_power or power > ceiling:
                return left
            self.i += 1
            ceiling = power
            if lex == "instanceof":
                ty = self.parse_type()
                if ty.name in PRIMITIVE_TYPES and not ty.array_dims:  # JLS 15.20.2
                    raise _ParseError(f"instanceof needs a reference type, found {ty.name!r}", ty.span)
                left = n.InstanceOf(span=self.span_between(left.span, ty.span), expr=left, type=ty)
                continue
            # '<' here may open type arguments of a method call like
            # Collections.<String>emptyList(); the subset does not support
            # that form, and plain '<' comparison is far more common.
            right = self.binary(power + 1)
            left = n.Binary(span=self.span_between(left.span, right.span), op=lex, left=left, right=right)

    def unary(self) -> n.Expr:
        t = self.peek()
        if t is None:
            raise self.error("expected expression")
        if t.lexeme in ("+", "-", "!", "~", "++", "--"):
            op_tok = self.next()
            if op_tok.lexeme == "-":
                self.negated = self.i
            operand = self.unary()
            return n.Unary(span=self.span_between(op_tok.span, operand.span), op=op_tok.lexeme, operand=operand, prefix=True)
        if t.lexeme == "(":
            head = self._attempt(self._cast_head)
            if head is not None:
                open_tok, ctype = head
                expr = self.unary()
                return n.Cast(span=self.span_between(open_tok.span, expr.span), type=ctype, expr=expr)
        return self.postfix()

    def _cast_head(self) -> tuple[Token, n.TypeRef]:
        """'(' type ')' followed by a token that can start the cast's operand.

        A primitive, array or generic type cannot be an expression, so any
        operand start will do; a plain name needs an operand that cannot
        continue a binary expression, which keeps '(a) - b' a subtraction.
        """
        open_tok = self.expect("(")
        ctype = self.parse_type()
        generic = self.at(">", -1)  # a type ends in '>' only after type arguments
        self.expect(")")
        t = self.peek()
        if ctype.name in PRIMITIVE_TYPES or ctype.array_dims or generic:
            operand = t is not None and t.lexeme not in (")", "]", ";", ",", ".")
        else:
            operand = t is not None and (
                t.kind is TokenKind.IDENTIFIER or t.kind in _LITERAL_KINDS or t.lexeme in ("(", "!", "~", "new", "this", "super")
            )
        if not operand:
            raise self.error("not a cast")
        return open_tok, ctype

    def postfix(self) -> n.Expr:
        expr = self.primary()
        while not isinstance(expr, n.MethodRef):  # a method reference takes no selector (JLS 15.13)
            t = self.peek()
            if t is None:
                return expr
            if (t.lexeme == "." and self.at("class", 1)) or (t.lexeme == "[" and self.at("]", 1)):
                name = _dotted_name(expr)
                if name is not None:  # a type: String.class, Foo[]::new, java.lang.String[].class
                    expr = self._type_literal(n.TypeRef(span=expr.span, name=name), "type")
                    continue
            if t.lexeme == ".":
                nxt = self.peek(1)
                if nxt is not None and nxt.lexeme == "new":
                    self.next()
                    self.next()
                    expr = self._object_creation(expr.span)
                    continue
                if nxt is not None and nxt.lexeme in ("this", "super"):
                    self.next()
                    end = self.next()
                    expr = n.FieldAccess(span=self.span_between(expr.span, end.span), receiver=expr, name=end.lexeme)
                    continue
                self.next()
                name_tok = self.expect_ident()
                if self.at("("):
                    expr = self._method_call(expr, name_tok, *self._call_args())
                else:
                    expr = n.FieldAccess(span=self.span_between(expr.span, name_tok.span), receiver=expr, name=name_tok.lexeme)
                continue
            if t.lexeme == "[":
                self.next()
                index = self.expression()
                end = self.expect("]")
                expr = n.ArrayAccess(span=self.span_between(expr.span, end.span), array=expr, index=index)
                continue
            if t.lexeme == "::":
                expr = self._method_ref(expr)
                continue
            if t.lexeme in ("++", "--"):
                op_tok = self.next()
                expr = n.Unary(span=self.span_between(expr.span, op_tok.span), op=op_tok.lexeme, operand=expr, prefix=False)
                continue
            return expr
        return expr

    def _method_call(self, receiver: n.Expr | None, name_tok: Token, args: list[n.Expr], end: Span) -> n.MethodCall:
        """The call of ``name_tok`` (a method name, 'this' or 'super') on
        ``receiver`` or on none, with the arguments that _call_args read.  The
        caller reads them, so a call nests as many frames as _CALL_DEPTH counts."""
        start = name_tok.span if receiver is None else receiver.span
        return n.MethodCall(
            span=self.span_between(start, end), receiver=receiver, name=name_tok.lexeme, name_span=name_tok.span, args=args
        )

    def _call_args(self) -> tuple[list[n.Expr], Span]:
        self.expect("(")
        self.nest(_CALL_DEPTH)
        args = self.separated(self.expression, close=")")
        self.depth -= _CALL_DEPTH
        end = self.expect(")")
        return args, end.span

    def primary(self) -> n.Expr:
        t = self.peek()
        if t is None:
            raise self.error("expected expression")
        lex = t.lexeme

        # Lambda forms: Ident -> ...   and   ( params ) -> ...
        if t.kind is TokenKind.IDENTIFIER and self.at("->", 1):
            param = self._inferred_param()
            self.next()
            return self._finish_lambda(t.span, [param])
        if lex == "(":
            head = self._attempt(self._lambda_head)
            if head is not None:
                open_tok, params = head
                return self._finish_lambda(open_tok.span, params)
            open_tok = self.next()
            inner = self.expression()
            close = self.expect(")")
            return n.Paren(span=self.span_between(open_tok.span, close.span), expr=inner)

        if t.kind in _LITERAL_KINDS:
            if t.kind in _CHECKED_LITERAL_KINDS:
                self.check_literal(t, self.negated == self.i)
            self.next()
            return n.Literal(span=t.span, kind=t.kind, lexeme=t.lexeme, radix=t.radix, suffix=t.suffix)

        if t.kind is TokenKind.IDENTIFIER or lex == "this" or lex == "super":
            self.next()
            if self.at("("):
                return self._method_call(None, t, *self._call_args())
            if lex == "this":
                return n.ThisExpr(span=t.span)
            if lex == "super":
                return n.SuperExpr(span=t.span)
            return n.Name(span=t.span, identifier=lex)

        if lex == "new":
            new_tok = self.next()
            return self._object_creation(new_tok.span)

        if t.kind is TokenKind.KEYWORD and lex in PRIMITIVE_TYPES or lex == "void":
            self.next()
            return self._type_literal(n.TypeRef(span=t.span, name=lex), "type keyword")

        raise self.error(f"unexpected token {lex!r} in expression")

    def _type_literal(self, ref: n.TypeRef, what: str) -> n.Expr:
        """What follows a primitive, void or (dotted) type name that must be a
        type: a class literal on it or its array type, or a method reference
        on its array type: int.class, int[].class, Foo[]::new,
        java.lang.String[]::new, int[]::clone."""
        self.array_dims(ref)
        if self.at("::") and ref.array_dims:
            return self._method_ref(ref)
        if self.at(".") and self.at("class", 1):
            self.next()
            end = self.next()
            return n.ClassLiteral(span=self.span_between(ref.span, end.span), type=ref)
        raise self.error(f"unexpected {what} {ref.name!r} in expression")

    def _method_ref(self, receiver: n.Expr | n.TypeRef) -> n.MethodRef:
        """'::' and a method name or 'new' after the receiver."""
        self.expect("::")
        end = self.next() if self.at("new") else self.expect_ident()
        return n.MethodRef(span=self.span_between(receiver.span, end.span), receiver=receiver, name=end.lexeme)

    def _lambda_head(self) -> tuple[Token, list[n.Param]]:
        """'(' parameters ')' '->'."""
        open_tok = self.expect("(")
        params = self.separated(self._lambda_param, close=")")
        self.expect(")")
        self.expect("->")
        return open_tok, params

    def _lambda_param(self) -> n.Param:
        """A typed parameter, or else an inferred one."""
        return self._attempt(self.parse_param) or self._inferred_param()

    def _inferred_param(self) -> n.Param:
        """A bare name, perhaps with modifiers."""
        mods, _ = self.parse_modifiers(_FINAL)  # an inferred parameter's annotations are not kept
        name_tok = self.expect_ident()
        return n.Param(
            span=name_tok.span,
            type=n.TypeRef(span=name_tok.span, name=""),
            name=name_tok.lexeme,
            name_span=name_tok.span,
            modifiers=mods,
        )

    def _finish_lambda(self, start: Span, params: list[n.Param]) -> n.Lambda:
        if self.at("{"):
            body: n.Expr | n.Block = self.block()
        else:
            self.nest(_LAMBDA_DEPTH)
            body = self.expression()
            self.depth -= _LAMBDA_DEPTH
        return n.Lambda(span=self.span_between(start, body.span), params=params, body=body)

    def _object_creation(self, start: Span) -> n.Expr:
        """What follows 'new'; a qualified creation (outer.new Inner()) keeps only the inner type."""
        ctype = self.parse_type()
        if ctype.array_dims or self.at("["):
            # parse_type consumes empty bracket pairs, so new int[]{...}
            # arrives here with its dims already on the type.  JLS 15.10.1:
            # dimension expressions and then empty pairs, or empty pairs and
            # an initializer.
            dim_exprs: list[n.Expr] = []
            extra_dims = ctype.array_dims
            end_span = ctype.span
            while self.at("["):
                self.next()
                if self.at("]"):
                    end = self.next()
                    extra_dims += 1
                    end_span = end.span
                elif extra_dims:
                    raise self.error("array dimension expression after '[]'")
                else:
                    dim_exprs.append(self.expression())
                    end = self.expect("]")
                    end_span = end.span
            initializer = None
            if self.at("{"):
                if dim_exprs:
                    raise self.error("array creation with dimension expressions takes no initializer")
                initializer = self.array_initializer()
                end_span = initializer.span
            elif not dim_exprs:
                raise self.error("array creation needs a dimension expression or an initializer")
            return n.NewArray(
                span=self.span_between(start, end_span),
                type=ctype,
                dim_exprs=dim_exprs,
                extra_dims=extra_dims,
                initializer=initializer,
            )
        args, end_span = self._call_args()
        anon_body = None
        if self.at("{"):
            self.next()
            anon_body = self.parse_members("")
            end = self.expect("}")
            end_span = end.span
        return n.NewObject(span=self.span_between(start, end_span), type=ctype, args=args, anon_body=anon_body)

    def variable_initializer(self) -> n.Expr:
        """What a variable or array element is initialized with: an array initializer or an expression."""
        return self.array_initializer() if self.at("{") else self.expression()

    def array_initializer(self) -> n.ArrayInitializer:
        open_tok = self.expect("{")
        values = self.separated(self.variable_initializer, close="}", trailing=("}",))
        close = self.expect("}")
        return n.ArrayInitializer(span=self.span_between(open_tok.span, close.span), values=values)


# (largest decimal, largest hex, octal or binary) literal of int and of long:
# the largest decimal one only as the operand of unary minus (JLS 3.10.1).
_INTEGER_LIMITS = {None: (2**31, 2**32 - 1), "l": (2**63, 2**64 - 1), "L": (2**63, 2**64 - 1)}
# A unicode escape (JLS 3.3): its backslash follows an even number of
# backslashes (group 1), and four hex digits (group 2) give its character.
_UNICODE_ESCAPE = re.compile(r"(?<!\\)((?:\\\\)*)\\u+([0-9a-fA-F]{4})")
# The text of an unbroken string or char literal once its unicode escapes are
# translated: each quote of its kind is escaped, and each backslash escapes a character.
_UNBROKEN = {
    TokenKind.STRING: re.compile(r'(?:[^"\\]|\\[\s\S])*'),
    TokenKind.CHAR: re.compile(r"(?:[^'\\]|\\[\s\S])*"),
}
# One escape sequence (JLS 3.10.7): an octal escape takes at most three digits
# and stays below \400.  Group 1 holds a character no escape may start with.
_ESCAPE = re.compile(r"\\(?:[0-3][0-7]{0,2}|[4-7][0-7]?|[btnfrs\"'\\]|([\s\S]))")
# An underscore whose run has no digit on one side; hex digits count only in a hex literal.
_STRAY_UNDERSCORE = re.compile(r"(?<![0-9_])_|_(?![0-9_])")
_STRAY_HEX_UNDERSCORE = re.compile(r"(?<![0-9a-fA-F_])_|_(?![0-9a-fA-F_])")


def _malformed_literal(t: Token, negated: bool) -> str | None:
    """Why the lexer's literal token is no Java literal, or None: a string
    or char literal whose unicode escapes (JLS 3.3) give a line terminator or
    break it (JLS 3.10.4, 3.10.5), or with an invalid escape sequence (JLS
    3.10.7); a char literal that is empty, holds more than one character, or
    holds one that needs two UTF-16 code units (JLS 3.10.4); a number with an
    underscore that does not stand between two digits, or a binary one with
    a floating-point suffix (JLS 3.10.1, 3.10.2); an integer literal with a
    decimal digit after a leading 0, without digits, or out of its type's
    range (JLS 3.10.1).  ``negated``: the token is the operand of unary
    minus."""
    lexeme = t.lexeme
    if t.kind is not TokenKind.NUMBER:  # a string or char literal
        body = lexeme[1:-1]
        if "\\u" in body:
            body = _UNICODE_ESCAPE.sub(lambda m: m.group(1) + chr(int(m.group(2), 16)), body)
            if "\n" in body or "\r" in body:
                return f"line terminator in literal {lexeme}"
            if not _UNBROKEN[t.kind].fullmatch(body):
                return f"literal {lexeme} does not end at its closing quote"
        if "\\" in body:
            for m in _ESCAPE.finditer(body):
                if m.group(1) is not None:
                    return f"invalid escape character {m.group(1)!r} after a backslash"
            body = _ESCAPE.sub("x", body)  # one character for each escape
        if t.kind is TokenKind.STRING:
            return None
        if not body:
            return "empty char literal"
        if len(body) > 1:
            return f"char literal {lexeme} holds more than one character"
        return f"char literal {lexeme} needs two UTF-16 code units" if body > "\uffff" else None
    if len(lexeme) < 10 and lexeme.isdigit() and (lexeme[0] != "0" or len(lexeme) == 1):
        return None  # the common case: a decimal int literal of at most 9 digits
    if "_" in lexeme and (_STRAY_HEX_UNDERSCORE if t.radix == 16 else _STRAY_UNDERSCORE).search(lexeme):
        return f"underscore not between digits in literal {lexeme!r}"
    if t.suffix in ("f", "F", "d", "D"):
        if lexeme[:2] in ("0b", "0B"):
            return f"binary literal {lexeme!r} has a floating-point suffix"
        return None
    if t.radix == 10 and ("." in lexeme or "e" in lexeme or "E" in lexeme):  # floating point
        return None
    if t.radix == 10 and lexeme[0] == "0" and lexeme.rstrip("lL") != "0":
        return f"digit 8 or 9 in octal literal {lexeme!r}"
    try:
        value = numeric_value(lexeme, t.radix, t.suffix)
    except ValueError:
        return f"integer literal {lexeme!r} has no digits"
    decimal_max, other_max = _INTEGER_LIMITS[t.suffix]
    if t.radix == 10:
        too_large = value > decimal_max or (value == decimal_max and not negated)
    else:
        too_large = value > other_max
    if too_large:
        return f"{'int' if t.suffix is None else 'long'} literal {lexeme!r} out of range"
    return None


def _dotted_name(expr: n.Expr) -> str | None:
    """The name an expression spells when it is only names and dots
    (``java.lang.String``), else None."""
    parts: list[str] = []
    while isinstance(expr, n.FieldAccess):
        parts.append(expr.name)
        expr = expr.receiver
    if not isinstance(expr, n.Name):
        return None
    parts.append(expr.identifier)
    return ".".join(reversed(parts))
