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
    TokenKind,
    TokenTable,
    numeric_value,
    radix_and_suffix,
    extent_span,
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

# What may follow a dotted name that starts a local variable's type, a cast's
# type or a lambda's first parameter: a name or one of these (see _may_start).
_DECLARATION_FOLLOW = frozenset(["<", "[", "@"])
_CAST_FOLLOW = _DECLARATION_FOLLOW | {")"}
_LAMBDA_FOLLOW = _DECLARATION_FOLLOW | {")", ",", "..."}

_LITERAL_KINDS = (TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR, TokenKind.BOOL, TokenKind.NULL)
_CHECKED_LITERAL_KINDS = (TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR)  # the lexer lets malformed ones through


@dataclass
class ParseFailure:
    first_error_span: Span
    message: str


@dataclass
class ParseOutcome:
    """A tree or a failure.  ``tokens`` is a TokenTable of the tree's
    significant tokens (no whitespace or comments, '>>' unsplit), whose
    ``lexemes`` and ``kinds`` columns the rules read; empty on failure."""

    ast: n.CompilationUnit | None = None
    failure: ParseFailure | None = None
    tokens: TokenTable | list = field(default_factory=list)

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
        table = tokenize(source)
    except LexError as e:
        span = Span(e.line, e.col, e.line, e.col + 1)
        return ParseOutcome(failure=ParseFailure(span, e.message))
    parser = _Parser(table)
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
    """Reads the significant tokens by position: a token is its index into
    the parser's own kind, lexeme and offset lists, which split_gt rewrites.
    A node gets the extent of the text it covers, ``(line_index, start,
    end)``, in place of its Span (nodes._spans_on_demand); only errors get a
    Span.  No span is read while parsing, so a parsed node's ``_span`` slot
    still holds its extent when a parent takes offsets from it."""

    def __init__(self, table: TokenTable):
        self.table = table
        self.significant = table.significant_tokens()
        # The copies split_gt rewrites: kinds and lexemes padded with None for
        # end of file as far as any lookahead reaches, and for each token its
        # row in the full table (for comment attachment).
        self.kinds: list[TokenKind | None] = self.significant.kinds + [None] * 3
        self.lexemes: list[str | None] = self.significant.lexemes + [None] * 3
        self.offsets = self.significant.offsets[:]
        self.rows = list(table.significant)
        self.line_index = table.line_index
        self.i = 0
        self.depth = 0  # see _MAX_DEPTH
        self.splits: list[tuple[int, str]] = []  # (index, lexeme) of each split '>>', for _attempt to undo
        self.negated = -1  # index of the token right after the last unary '-' read
        self.comments = [self.comment(row) for row in table.comments]

    # ---- token plumbing ---------------------------------------------------

    def span(self, j: int) -> Span:
        """Token j's span."""
        return extent_span(self.extent(j, j))

    def end_of(self, j: int) -> int:
        """The text offset right after token j."""
        return self.offsets[j] + len(self.lexemes[j])

    def extent(self, first: int, last: int) -> tuple[list[int], int, int]:
        """The span, until read, of tokens first to last."""
        return (self.line_index, self.offsets[first], self.offsets[last] + len(self.lexemes[last]))

    def extent_to(self, first: int, node: n.Node) -> tuple[list[int], int, int]:
        """The span, until read, from token first to the end of a parsed node."""
        return (self.line_index, self.offsets[first], node._span[2])

    def at(self, lexeme: str, offset: int = 0) -> bool:
        return self.lexemes[self.i + offset] == lexeme  # no caller looks further ahead than the padding

    def at_kind(self, kind: TokenKind, offset: int = 0) -> bool:
        return self.kinds[self.i + offset] is kind

    def next(self) -> int:
        i = self.i
        if self.lexemes[i] is None:
            raise self.error("unexpected end of file")
        self.i = i + 1
        return i

    def expect(self, lexeme: str) -> int:
        i = self.i
        got = self.lexemes[i]
        if got != lexeme:
            got = "end of file" if got is None else got
            raise self.error(f"expected {lexeme!r}, found {got!r}")
        self.i = i + 1
        return i

    def expect_ident(self) -> int:
        i = self.i
        if self.kinds[i] is not TokenKind.IDENTIFIER:
            got = self.lexemes[i]
            got = "end of file" if got is None else got
            raise self.error(f"expected identifier, found {got!r}")
        self.i = i + 1
        return i

    def here(self) -> int:
        """The current token; end of file is a parse error."""
        if self.lexemes[self.i] is None:
            raise self.error("unexpected end of file")
        return self.i

    def error(self, message: str, kind: type[_ParseError] = _ParseError) -> _ParseError:
        """An error at the current token, or at the last one at end of file."""
        if self.lexemes[self.i] is not None:
            span = self.span(self.i)
        else:
            span = self.span(len(self.offsets) - 1) if self.offsets else Span(1, 1, 1, 1)
        return kind(message, span)

    def check_literal(self, j: int, radix: int | None, suffix: str | None) -> None:
        """Raise at a NUMBER, STRING or CHAR token j that is no Java literal."""
        malformed = _malformed_literal(self.lexemes[j], self.kinds[j], radix, suffix, self.negated == j)
        if malformed:
            raise _NoReading(malformed, self.span(j))

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

    def split_gt(self) -> None:
        """Consume a single '>' even when lexed as part of a shift operator."""
        i = self.i
        lexeme = self.lexemes[i]
        if lexeme in (">>", ">>>", ">=", ">>=", ">>>="):
            self.splits.append((i, lexeme))
            self.lexemes[i : i + 1] = [">", lexeme[1:]]
            self.kinds.insert(i, TokenKind.OPERATOR)
            self.offsets.insert(i + 1, self.offsets[i] + 1)
            self.rows.insert(i, self.rows[i])
        elif lexeme != ">":
            raise self.error("expected '>'")
        self.i = i + 1

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
                j, lexeme = self.splits.pop()
                self.lexemes[j : j + 2] = [lexeme]
                del self.kinds[j], self.offsets[j + 1], self.rows[j]
            self.i, self.depth = i, depth
            return None

    def _may_start(self, j: int, follow: frozenset[str]) -> bool:
        """False where tokens from j on are a dotted name (``a`` or ``a.b.c``)
        followed by neither a name nor a lexeme in ``follow``.  No type then
        starts at j that local_var_head, _cast_head or _lambda_head could
        read, so their _attempt would only raise a plain _ParseError."""
        kinds, lexemes = self.kinds, self.lexemes
        if kinds[j] is not TokenKind.IDENTIFIER:
            return True
        j += 1
        while lexemes[j] == "." and kinds[j + 1] is TokenKind.IDENTIFIER:
            j += 2
        return kinds[j] is TokenKind.IDENTIFIER or lexemes[j] in follow

    def comment(self, row: int) -> n.Comment:
        """The comment at a row of the full table."""
        table = self.table
        text, start = table.lexemes[row], table.offsets[row]
        return n.Comment(span=(self.line_index, start, start + len(text)), kind=table.kinds[row], text=text)

    def preceding_comment(self, j: int) -> n.Comment | None:
        """The comment directly above a declaration's first token j, if only whitespace parts them."""
        kinds = self.table.kinds
        row = self.rows[j] - 1
        while row >= 0 and kinds[row] is TokenKind.WHITESPACE:
            row -= 1
        return self.comment(row) if row >= 0 and kinds[row] in COMMENT_KINDS else None

    # ---- compilation unit ---------------------------------------------------

    def compilation_unit(self) -> n.CompilationUnit:
        package = None
        imports: list[n.ImportDecl] = []

        self.parse_annotations()
        if self.at("package"):
            pkg_tok = self.next()
            name = self.qualified_name()
            end = self.expect(";")
            package = n.PackageDecl(span=self.extent(pkg_tok, end), name=name)
        else:
            self.i = 0  # no package: the annotations open the first type declaration

        while self.at("import"):
            imp_tok = self.next()
            is_static = False
            if self.at("static"):
                self.next()
                is_static = True
            name_parts = [self.lexemes[self.expect_ident()]]
            on_demand = False
            while self.at("."):
                self.next()
                if self.at("*"):
                    self.next()
                    on_demand = True
                    break
                name_parts.append(self.lexemes[self.expect_ident()])
            end = self.expect(";")
            imports.append(
                n.ImportDecl(
                    span=self.extent(imp_tok, end),
                    name=".".join(name_parts),
                    is_static=is_static,
                    on_demand=on_demand,
                )
            )

        types: list[n.TypeDecl] = []
        while self.lexemes[self.i] is not None:
            if self.at(";"):
                self.next()
                continue
            types.append(self.type_declaration())

        return n.CompilationUnit(
            span=self.extent(0, len(self.offsets) - 1) if self.offsets else (self.line_index, 0, 0),
            package=package,
            imports=imports,
            types=types,
            comments=self.comments,
        )

    def qualified_name(self) -> str:
        parts = [self.lexemes[self.expect_ident()]]
        while self.at(".") and self.at_kind(TokenKind.IDENTIFIER, 1):
            self.next()
            parts.append(self.lexemes[self.expect_ident()])
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
        end = self.i - 1
        if self.at("("):
            self.next()
            if self.at_kind(TokenKind.IDENTIFIER) and self.at("=", 1):
                self.separated(self.element_value_pair)
            elif not self.at(")"):
                self.element_value()
            end = self.expect(")")
        return n.Annotation(span=self.extent(at_tok, end), name=name)

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
                raise _NoReading(f"repeated modifier {word!r}", self.span(self.i))
            mods.append(word)
            self.i += 1

    def type_declaration(self) -> n.TypeDecl:
        decl_start = self.i
        mods, anns = self.parse_modifiers()
        lexeme = self.lexemes[self.i]
        if lexeme is None:
            raise self.error("expected type declaration")
        if lexeme not in ("class", "interface", "enum"):
            raise self.error(f"expected class, interface, or enum, found {lexeme!r}")
        return self.class_body_decl(mods, anns, decl_start)

    def class_body_decl(self, mods: list[str], anns: list[n.Annotation], decl_start: int) -> n.TypeDecl:
        kw = self.next()
        kind = self.lexemes[kw]
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

        members = self.parse_members(self.lexemes[name_tok])
        close = self.expect("}")

        doc = self.preceding_comment(decl_start)
        return n.TypeDecl(
            span=self.extent(decl_start, close),
            kind=kind,
            name=self.lexemes[name_tok],
            name_span=self.extent(name_tok, name_tok),
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
        end = name_tok
        if self.at("("):
            args, end = self._call_args()
        if self.at("{"):  # constant class body, parsed structurally
            self.next()
            self.parse_members("")
            end = self.expect("}")
        return n.EnumConstant(span=self.extent(name_tok, end), name=self.lexemes[name_tok], args=args)

    def parse_members(self, enclosing_name: str) -> list:
        members: list = []
        while not self.at("}"):
            if self.lexemes[self.i] is None:
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
            return n.Initializer(span=self.extent_to(decl_start, body), static=is_static, body=body)

        type_params = self.parse_type_params() if self.at("<") else []

        # Constructor: Name '('
        if self.at_kind(TokenKind.IDENTIFIER) and self.at(enclosing_name) and self.at("(", 1):
            name_tok = self.next()
            return self.finish_method(decl_start, mods, anns, type_params, None, name_tok, is_constructor=True)

        ret_type = self.parse_type(allow_void=True)

        name_tok = self.expect_ident()
        if self.at("("):
            return self.finish_method(decl_start, mods, anns, type_params, ret_type, name_tok, is_constructor=False)

        declarators = self.var_declarators(name_tok)  # a field
        end = self.expect(";")
        if ret_type.name == "void":  # JLS 8.3: a field has a type
            raise _ParseError("a field cannot have type 'void'", ret_type.span)
        doc = self.preceding_comment(decl_start)
        return n.FieldDecl(
            span=self.extent(decl_start, end),
            modifiers=mods,
            annotations=anns,
            type=ret_type,
            declarators=declarators,
            doc=doc,
        )

    def var_declarators(self, name_tok: int) -> list[n.VarDeclarator]:
        """The declarators of a field or local variable whose first name is already read."""
        first = [name_tok]
        return self.separated(lambda: self.parse_declarator(first.pop() if first else self.expect_ident()))

    def parse_declarator(self, name_tok: int) -> n.VarDeclarator:
        extra_dims, last = self.name_dims(name_tok)
        init = None
        if self.at("="):
            self.next()
            init = self.variable_initializer()
        return n.VarDeclarator(
            span=self.extent(name_tok, last) if init is None else self.extent_to(name_tok, init),
            name=self.lexemes[name_tok],
            name_span=self.extent(name_tok, name_tok),
            extra_dims=extra_dims,
            init=init,
        )

    def name_dims(self, last: int) -> tuple[int, int]:
        """The '[]' pairs after a declared name (int a[]) whose last token so
        far is ``last``, and the last token after them."""
        dims = 0
        while self.at("["):
            self.next()
            last = self.expect("]")
            dims += 1
        return dims, last

    def finish_method(
        self,
        decl_start: int,
        mods: list[str],
        anns: list[n.Annotation],
        type_params: list[n.TypeParam],
        ret_type: n.TypeRef | None,
        name_tok: int,
        is_constructor: bool,
    ) -> n.MethodDecl:
        self.expect("(")
        params = self.separated(self.parse_param, close=")")
        self.name_dims(self.expect(")"))  # archaic int m()[] form

        throws: list[n.TypeRef] = []
        if self.at("throws"):
            self.next()
            throws = self.separated(self.parse_type)

        body = None
        if self.at("{"):
            body = self.block()
            span = self.extent_to(decl_start, body)
        else:
            span = self.extent(decl_start, self.expect(";"))

        doc = self.preceding_comment(decl_start)
        return n.MethodDecl(
            span=span,
            modifiers=mods,
            annotations=anns,
            type_params=type_params,
            return_type=ret_type,
            name=self.lexemes[name_tok],
            name_span=self.extent(name_tok, name_tok),
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
        extra_dims, last = self.name_dims(name_tok)
        if dots is not None and self.at(","):  # JLS 8.4.1: only the last parameter may be variable arity
            raise _NoReading("varargs parameter must be the last parameter", self.span(dots))
        ptype.array_dims += extra_dims
        return n.Param(
            span=self.extent(start, last),
            type=ptype,
            name=self.lexemes[name_tok],
            name_span=self.extent(name_tok, name_tok),
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
        span = self.extent_to(start, bounds[-1]) if bounds else self.extent(start, name_tok)
        return n.TypeParam(span=span, name=self.lexemes[name_tok], bounds=bounds)

    def parse_type(self, allow_void: bool = False) -> n.TypeRef:
        self.parse_annotations()
        t = self.i
        lexeme, kind = self.lexemes[t], self.kinds[t]
        if lexeme is None:
            raise self.error("expected type")

        if lexeme == "void" and allow_void:
            self.i += 1
            return n.TypeRef(span=self.extent(t, t), name="void")
        if lexeme in PRIMITIVE_TYPES and kind is TokenKind.KEYWORD:
            self.i += 1
            ref = n.TypeRef(span=self.extent(t, t), name=lexeme)
        elif kind is TokenKind.IDENTIFIER:
            name = self.qualified_name()
            ref = n.TypeRef(span=self.extent(t, self.i - 1), name=name)
            if self.at("<"):
                self.nest(_TYPE_DEPTH)
                ref.type_args = self.parse_type_args()
                self.depth -= _TYPE_DEPTH
                ref.span = self.extent(t, self.i - 1)
        else:
            raise self.error(f"expected type, found {lexeme!r}")
        return self.array_dims(ref)

    def array_dims(self, ref: n.TypeRef) -> n.TypeRef:
        """``ref`` with each following '[]' added to its dimensions and span."""
        while self.at("[") and self.at("]", 1):
            self.i += 2
            ref.array_dims += 1
            ref.span = (self.line_index, ref._span[1], self.end_of(self.i - 1))
        return ref

    def parse_type_args(self) -> list[n.TypeRef]:
        self.expect("<")
        if (self.lexemes[self.i] or "").startswith(">"):
            self.split_gt()  # diamond <>
            return []
        args = self.separated(self.parse_type_arg)
        self.split_gt()
        return args

    def parse_type_arg(self) -> n.TypeRef:
        """A reference type, or a wildcard: '?' with an optional bound that is
        one (JLS 4.5.1)."""
        self.parse_annotations()
        if not self.at("?"):
            return self.reference_type()
        start = self.next()
        ref = n.TypeRef(span=self.extent(start, start), name="?")
        if self.at("extends") or self.at("super"):
            ref.bound_kind = self.lexemes[self.next()]
            ref.bound = self.reference_type()
            ref.span = self.extent_to(start, ref.bound)
        return ref

    def reference_type(self) -> n.TypeRef:
        """A type that is no primitive; an array of one is (List<int[]>)."""
        ref = self.parse_type()
        if ref.name in PRIMITIVE_TYPES and not ref.array_dims:
            raise _ParseError(f"type argument needs a reference type, found {ref.name!r}", ref.span)
        return ref

    # ---- statements -------------------------------------------------------------

    def block(self) -> n.Block:
        open_tok = self.expect("{")
        stmts: list[n.Stmt] = []
        while not self.at("}"):
            if self.lexemes[self.i] is None:
                raise self.error("unterminated block")
            stmts.append(self.statement())
        close = self.expect("}")
        return n.Block(span=self.extent(open_tok, close), statements=stmts)

    def statement(self) -> n.Stmt:
        self.nest(_STATEMENT_DEPTH)
        stmt = self._statement()
        self.depth -= _STATEMENT_DEPTH
        return stmt

    def _statement(self) -> n.Stmt:
        lex = self.lexemes[self.i]
        if lex is None:
            raise self.error("expected statement")

        if lex == "{":
            return self.block()
        if lex == ";":
            tok = self.next()
            return n.EmptyStmt(span=self.extent(tok, tok))
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
            return n.ReturnStmt(span=self.extent(tok, end), value=value)
        if lex == "throw":
            tok = self.next()
            expr = self.expression()
            end = self.expect(";")
            return n.ThrowStmt(span=self.extent(tok, end), expr=expr)
        if lex in ("break", "continue"):
            tok = self.next()
            label = self.lexemes[self.next()] if self.at_kind(TokenKind.IDENTIFIER) else None
            end = self.expect(";")
            jump = n.BreakStmt if lex == "break" else n.ContinueStmt
            return jump(span=self.extent(tok, end), label=label)
        if lex == "synchronized":
            tok = self.next()
            lock = self.parenthesized()
            body = self.block()
            return n.SynchronizedStmt(span=self.extent_to(tok, body), lock=lock, body=body)
        if lex == "assert":
            tok = self.next()
            cond = self.expression()
            message = None
            if self.at(":"):
                self.next()
                message = self.expression()
            end = self.expect(";")
            return n.AssertStmt(span=self.extent(tok, end), cond=cond, message=message)
        if self.at_kind(TokenKind.IDENTIFIER) and self.at(":", 1) and not self.at(":", 2):
            label_tok = self.next()
            self.next()  # ':'
            stmt = self.statement()
            return n.LabeledStmt(span=self.extent_to(label_tok, stmt), label=lex, stmt=stmt)

        head = self._attempt(self.local_var_head) if self._may_start(self.i, _DECLARATION_FOLLOW) else None
        if head is not None:
            decl = self.local_var_declarators(head)
            decl.span = (self.line_index, decl._span[1], self.end_of(self.expect(";")))
            return decl
        if lex in ("@", "class", "interface", "enum", "abstract", "final", "static"):  # none can start an expression
            decl = self.type_declaration()
            return n.LocalTypeDecl(span=decl._span, decl=decl)

        expr = self.expression()
        end = self.expect(";")
        return n.ExprStmt(span=(self.line_index, expr._span[1], self.end_of(end)), expr=expr)

    def parenthesized(self) -> n.Expr:
        """'(' expression ')', as after if, while, switch and synchronized."""
        self.expect("(")
        expr = self.expression()
        self.expect(")")
        return expr

    def if_statement(self) -> n.IfStmt:
        """An if statement.  An else-if chain is read in a loop, so its length
        adds no nesting; each else-if is the orelse of the if before it."""
        heads: list[tuple[int, n.Expr, n.Stmt]] = []
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
        last = then if orelse is None else orelse
        for tok, cond, then in reversed(heads):
            orelse = n.IfStmt(span=self.extent_to(tok, last), cond=cond, then=then, orelse=orelse)
        return orelse

    def while_statement(self) -> n.WhileStmt:
        tok = self.expect("while")
        cond = self.parenthesized()
        body = self.statement()
        return n.WhileStmt(span=self.extent_to(tok, body), cond=cond, body=body)

    def do_statement(self) -> n.DoWhileStmt:
        tok = self.expect("do")
        body = self.statement()
        self.expect("while")
        cond = self.parenthesized()
        end = self.expect(";")
        return n.DoWhileStmt(span=self.extent(tok, end), body=body, cond=cond)

    def for_statement(self) -> n.Stmt:
        tok = self.expect("for")
        self.expect("(")

        head = self._attempt(self.local_var_head) if self._may_start(self.i, _DECLARATION_FOLLOW) else None
        if head is not None and self.at(":"):
            decl, name_tok = head
            self.next()
            iterable = self.expression()
            self.expect(")")
            body = self.statement()
            return n.ForEachStmt(
                span=self.extent_to(tok, body),
                var_modifiers=decl.modifiers,
                var_type=decl.type,
                var_name=self.lexemes[name_tok],
                var_name_span=self.extent(name_tok, name_tok),
                iterable=iterable,
                body=body,
            )

        if head is not None:
            init: list[n.Stmt] = [self.local_var_declarators(head)]
        else:
            init = [n.ExprStmt(span=e._span, expr=e) for e in self.separated(self.expression, close=";")]
        self.expect(";")

        cond = None
        if not self.at(";"):
            cond = self.expression()
        self.expect(";")

        update = self.separated(self.expression, close=")")
        self.expect(")")
        body = self.statement()
        return n.ForStmt(span=self.extent_to(tok, body), init=init, cond=cond, update=update, body=body)

    def local_var_head(self) -> tuple[n.LocalVarDecl, int]:
        """Annotations and 'final', a type, then the first variable's name.

        Returns the declaration without declarators, and that name.
        """
        first = self.i
        mods, anns = self.parse_modifiers(_FINAL)
        var_type = self.parse_type()
        name_tok = self.expect_ident()
        decl = n.LocalVarDecl(span=self.extent(first, first), modifiers=mods, annotations=anns, type=var_type, declarators=[])
        return decl, name_tok

    def local_var_declarators(self, head: tuple[n.LocalVarDecl, int]) -> n.LocalVarDecl:
        decl, name_tok = head
        decl.declarators = self.var_declarators(name_tok)
        decl.span = (self.line_index, decl._span[1], decl.declarators[-1]._span[2])
        return decl

    def switch_statement(self) -> n.SwitchStmt:
        tok = self.expect("switch")
        selector = self.parenthesized()
        self.expect("{")
        arms: list[n.SwitchArm] = []
        while not self.at("}"):
            if self.lexemes[self.i] is None:
                raise self.error("unterminated switch")
            labels: list[n.Expr | None] = []
            label_start = self.i
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
            span = self.extent_to(label_start, stmts[-1]) if stmts else self.extent(label_start, label_start)
            arms.append(n.SwitchArm(span=span, labels=labels, statements=stmts))
        close = self.expect("}")
        return n.SwitchStmt(span=self.extent(tok, close), selector=selector, arms=arms)

    def try_statement(self) -> n.TryStmt:
        tok = self.expect("try")
        resources: list[n.LocalVarDecl] = []
        if self.at("("):
            self.next()
            resources = self.separated(self.resource, ";", trailing=(")",))
            self.expect(")")
        body = self.block()
        catches: list[n.CatchClause] = []
        last = body
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
                    span=self.extent_to(c_tok, c_body),
                    types=types,
                    name=self.lexemes[name_tok],
                    name_span=self.extent(name_tok, name_tok),
                    modifiers=mods,
                    body=c_body,
                )
            )
            last = c_body
        finally_block = None
        if self.at("finally"):
            self.next()
            finally_block = last = self.block()
        if not catches and finally_block is None and not resources:
            raise self.error("try statement requires catch, finally, or resources")
        return n.TryStmt(
            span=self.extent_to(tok, last),
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
        decl.span = (self.line_index, decl._span[1], declarator._span[2])
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
            op = lexemes[self.i]
            if not _is_variable(expr):
                raise _NoReading(f"{op!r} needs a variable", expr.span)
            self.i += 1
            value = self.expression()
            expr = n.Assign(span=(self.line_index, expr._span[1], value._span[2]), target=expr, op=op, value=value)
        while heads:
            cond, if_true = heads.pop()
            expr = n.Ternary(span=(self.line_index, cond._span[1], expr._span[2]), cond=cond, if_true=if_true, if_false=expr)
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
                left = n.InstanceOf(span=(self.line_index, left._span[1], ty._span[2]), expr=left, type=ty)
                continue
            # '<' here may open type arguments of a method call like
            # Collections.<String>emptyList(); the subset does not support
            # that form, and plain '<' comparison is far more common.
            right = self.binary(power + 1)
            left = n.Binary(span=(self.line_index, left._span[1], right._span[2]), op=lex, left=left, right=right)

    def unary(self) -> n.Expr:
        lex = self.lexemes[self.i]
        if lex is None:
            raise self.error("expected expression")
        if lex in ("+", "-", "!", "~", "++", "--"):
            op_tok = self.next()
            if lex == "-":
                self.negated = self.i
            operand = self.unary()
            if lex in ("++", "--") and not _is_variable(operand):
                raise _NoReading(f"{lex!r} needs a variable", operand.span)
            return n.Unary(span=self.extent_to(op_tok, operand), op=lex, operand=operand, prefix=True)
        if lex == "(" and self._may_start(self.i + 1, _CAST_FOLLOW):
            head = self._attempt(self._cast_head)
            if head is not None:
                open_tok, ctype = head
                expr = self.unary()
                return n.Cast(span=self.extent_to(open_tok, expr), type=ctype, expr=expr)
        return self.postfix()

    def _cast_head(self) -> tuple[int, n.TypeRef]:
        """'(' type ')' followed by a token that can start the cast's operand.

        A primitive, array or generic type cannot be an expression, so any
        operand start will do; a plain name needs an operand that cannot
        continue a binary expression, which keeps '(a) - b' a subtraction.
        """
        open_tok = self.expect("(")
        ctype = self.parse_type()
        generic = self.at(">", -1)  # a type ends in '>' only after type arguments
        self.expect(")")
        lex, kind = self.lexemes[self.i], self.kinds[self.i]
        if ctype.name in PRIMITIVE_TYPES or ctype.array_dims or generic:
            operand = lex is not None and lex not in (")", "]", ";", ",", ".")
        else:
            operand = kind is TokenKind.IDENTIFIER or kind in _LITERAL_KINDS or lex in ("(", "!", "~", "new", "this", "super")
        if not operand:
            raise self.error("not a cast")
        return open_tok, ctype

    def postfix(self) -> n.Expr:
        expr = self.primary()
        lexemes = self.lexemes
        while not isinstance(expr, n.MethodRef):  # a method reference takes no selector (JLS 15.13)
            lex = lexemes[self.i]
            if lex is None:
                return expr
            if (lex == "." and self.at("class", 1)) or (lex == "[" and self.at("]", 1)):
                name = _dotted_name(expr)
                if name is not None:  # a type: String.class, Foo[]::new, java.lang.String[].class
                    expr = self._type_literal(n.TypeRef(span=expr._span, name=name), "type")
                    continue
            if lex == ".":
                nxt = lexemes[self.i + 1]
                if nxt == "new":
                    self.i += 2
                    expr = self._object_creation(expr._span[1])
                    continue
                if nxt in ("this", "super"):
                    self.i += 2
                    span = (self.line_index, expr._span[1], self.end_of(self.i - 1))
                    expr = n.FieldAccess(span=span, receiver=expr, name=nxt)
                    continue
                self.i += 1
                name_tok = self.expect_ident()
                if self.at("("):
                    expr = self._method_call(expr, name_tok, *self._call_args())
                else:
                    span = (self.line_index, expr._span[1], self.end_of(name_tok))
                    expr = n.FieldAccess(span=span, receiver=expr, name=lexemes[name_tok])
                continue
            if lex == "[":
                self.i += 1
                index = self.expression()
                end = self.expect("]")
                expr = n.ArrayAccess(span=(self.line_index, expr._span[1], self.end_of(end)), array=expr, index=index)
                continue
            if lex == "::":
                expr = self._method_ref(expr)
                continue
            if lex in ("++", "--"):
                if not _is_variable(expr):
                    raise _NoReading(f"{lex!r} needs a variable", expr.span)
                op_tok = self.next()
                span = (self.line_index, expr._span[1], self.end_of(op_tok))
                expr = n.Unary(span=span, op=lex, operand=expr, prefix=False)
                continue
            return expr
        return expr

    def _method_call(self, receiver: n.Expr | None, name_tok: int, args: list[n.Expr], close: int) -> n.MethodCall:
        """The call of token ``name_tok`` (a method name, 'this' or 'super')
        on ``receiver`` or on none, with the arguments that _call_args read.
        The caller reads them, so a call nests as many frames as _CALL_DEPTH counts."""
        name_span = self.extent(name_tok, name_tok)
        start = name_span[1] if receiver is None else receiver._span[1]
        return n.MethodCall(
            span=(self.line_index, start, self.end_of(close)),
            receiver=receiver,
            name=self.lexemes[name_tok],
            name_span=name_span,
            args=args,
        )

    def _call_args(self) -> tuple[list[n.Expr], int]:
        """The arguments in parentheses, and the closing one."""
        self.expect("(")
        self.nest(_CALL_DEPTH)
        args = self.separated(self.expression, close=")")
        self.depth -= _CALL_DEPTH
        return args, self.expect(")")

    def primary(self) -> n.Expr:
        t = self.i
        lex, kind = self.lexemes[t], self.kinds[t]
        if lex is None:
            raise self.error("expected expression")

        # Lambda forms: Ident -> ...   and   ( params ) -> ...
        if kind is TokenKind.IDENTIFIER and self.at("->", 1):
            param = self._inferred_param()
            self.next()
            return self._finish_lambda(t, [param])
        if lex == "(":
            head = self._attempt(self._lambda_head) if self._may_start(t + 1, _LAMBDA_FOLLOW) else None
            if head is not None:
                open_tok, params = head
                return self._finish_lambda(open_tok, params)
            open_tok = self.next()
            inner = self.expression()
            close = self.expect(")")
            return n.Paren(span=self.extent(open_tok, close), expr=inner)

        if kind in _LITERAL_KINDS:
            radix, suffix = radix_and_suffix(lex) if kind is TokenKind.NUMBER else (None, None)
            if kind in _CHECKED_LITERAL_KINDS:
                self.check_literal(t, radix, suffix)
            self.i += 1
            return n.Literal(span=self.extent(t, t), kind=kind, lexeme=lex, radix=radix, suffix=suffix)

        if kind is TokenKind.IDENTIFIER or lex == "this" or lex == "super":
            self.i += 1
            if self.at("("):
                return self._method_call(None, t, *self._call_args())
            if lex == "this":
                return n.ThisExpr(span=self.extent(t, t))
            if lex == "super":
                return n.SuperExpr(span=self.extent(t, t))
            return n.Name(span=self.extent(t, t), identifier=lex)

        if lex == "new":
            self.i += 1
            return self._object_creation(self.offsets[t])

        if kind is TokenKind.KEYWORD and lex in PRIMITIVE_TYPES or lex == "void":
            self.i += 1
            return self._type_literal(n.TypeRef(span=self.extent(t, t), name=lex), "type keyword")

        raise self.error(f"unexpected token {lex!r} in expression")

    def _type_literal(self, ref: n.TypeRef, what: str) -> n.Expr:
        """What follows a primitive, void or (dotted) type name that must be a
        type: a class literal on it or its array type, or a method reference
        on its array type: int.class, int[].class, Foo[]::new,
        java.lang.String[]::new, int[]::clone.  Anything else fails at ref."""
        self.array_dims(ref)
        if self.at("::") and ref.array_dims:
            return self._method_ref(ref)
        if self.at(".") and self.at("class", 1):
            self.i += 2
            return n.ClassLiteral(span=(self.line_index, ref._span[1], self.end_of(self.i - 1)), type=ref)
        raise _ParseError(f"unexpected {what} {ref.name!r} in expression", ref.span)

    def _method_ref(self, receiver: n.Expr | n.TypeRef) -> n.MethodRef:
        """'::' and a method name or 'new' after the receiver."""
        self.expect("::")
        end = self.next() if self.at("new") else self.expect_ident()
        return n.MethodRef(span=(self.line_index, receiver._span[1], self.end_of(end)), receiver=receiver, name=self.lexemes[end])

    def _lambda_head(self) -> tuple[int, list[n.Param]]:
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
        name_span = self.extent(name_tok, name_tok)
        return n.Param(
            span=name_span,
            type=n.TypeRef(span=name_span, name=""),
            name=self.lexemes[name_tok],
            name_span=name_span,
            modifiers=mods,
        )

    def _finish_lambda(self, first: int, params: list[n.Param]) -> n.Lambda:
        if self.at("{"):
            body: n.Expr | n.Block = self.block()
        else:
            self.nest(_LAMBDA_DEPTH)
            body = self.expression()
            self.depth -= _LAMBDA_DEPTH
        return n.Lambda(span=self.extent_to(first, body), params=params, body=body)

    def _object_creation(self, start: int) -> n.Expr:
        """What follows 'new', where the creation starts at text offset
        ``start``; a qualified creation (outer.new Inner()) keeps only the inner type."""
        ctype = self.parse_type()
        if ctype.array_dims or self.at("["):
            # parse_type consumes empty bracket pairs, so new int[]{...}
            # arrives here with its dims already on the type.  JLS 15.10.1:
            # dimension expressions and then empty pairs, or empty pairs and
            # an initializer.
            dim_exprs: list[n.Expr] = []
            extra_dims = ctype.array_dims
            end = ctype._span[2]
            while self.at("["):
                self.next()
                if self.at("]"):
                    end = self.end_of(self.next())
                    extra_dims += 1
                elif extra_dims:
                    raise self.error("array dimension expression after '[]'")
                else:
                    dim_exprs.append(self.expression())
                    end = self.end_of(self.expect("]"))
            initializer = None
            if self.at("{"):
                if dim_exprs:
                    raise self.error("array creation with dimension expressions takes no initializer")
                initializer = self.array_initializer()
                end = initializer._span[2]
            elif not dim_exprs:
                raise self.error("array creation needs a dimension expression or an initializer")
            return n.NewArray(
                span=(self.line_index, start, end),
                type=ctype,
                dim_exprs=dim_exprs,
                extra_dims=extra_dims,
                initializer=initializer,
            )
        args, close = self._call_args()
        anon_body = None
        if self.at("{"):
            self.next()
            anon_body = self.parse_members("")
            close = self.expect("}")
        return n.NewObject(span=(self.line_index, start, self.end_of(close)), type=ctype, args=args, anon_body=anon_body)

    def variable_initializer(self) -> n.Expr:
        """What a variable or array element is initialized with: an array initializer or an expression."""
        return self.array_initializer() if self.at("{") else self.expression()

    def array_initializer(self) -> n.ArrayInitializer:
        open_tok = self.expect("{")
        values = self.separated(self.variable_initializer, close="}", trailing=("}",))
        close = self.expect("}")
        return n.ArrayInitializer(span=self.extent(open_tok, close), values=values)


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


def _malformed_literal(lexeme: str, kind: TokenKind, radix: int | None, suffix: str | None, negated: bool) -> str | None:
    """Why the lexer's literal token is no Java literal, or None: a string
    or char literal whose unicode escapes (JLS 3.3) give a line terminator or
    break it (JLS 3.10.4, 3.10.5), or with an invalid escape sequence (JLS
    3.10.7); a char literal that is empty, holds more than one character, or
    holds one that needs two UTF-16 code units (JLS 3.10.4); a number with an
    underscore that does not stand between two digits, or a binary one with
    a floating-point suffix (JLS 3.10.1, 3.10.2); an integer literal with a
    decimal digit after a leading 0, without digits, or out of its type's
    range (JLS 3.10.1).  ``radix`` and ``suffix`` are a number's, from
    radix_and_suffix; ``negated``: the token is the operand of unary minus."""
    if kind is not TokenKind.NUMBER:  # a string or char literal
        body = lexeme[1:-1]
        if "\\u" in body:
            body = _UNICODE_ESCAPE.sub(lambda m: m.group(1) + chr(int(m.group(2), 16)), body)
            if "\n" in body or "\r" in body:
                return f"line terminator in literal {lexeme}"
            if not _UNBROKEN[kind].fullmatch(body):
                return f"literal {lexeme} does not end at its closing quote"
        if "\\" in body:
            for m in _ESCAPE.finditer(body):
                if m.group(1) is not None:
                    return f"invalid escape character {m.group(1)!r} after a backslash"
            body = _ESCAPE.sub("x", body)  # one character for each escape
        if kind is TokenKind.STRING:
            return None
        if not body:
            return "empty char literal"
        if len(body) > 1:
            return f"char literal {lexeme} holds more than one character"
        return f"char literal {lexeme} needs two UTF-16 code units" if body > "\uffff" else None
    if len(lexeme) < 10 and lexeme.isdigit() and (lexeme[0] != "0" or len(lexeme) == 1):
        return None  # the common case: a decimal int literal of at most 9 digits
    hex_float = radix == 16 and ("p" in lexeme or "P" in lexeme)  # a binary exponent (JLS 3.10.2)
    if "_" in lexeme:
        # A hex float's binary exponent and suffix follow the rules of a decimal literal.
        significand, exponent = re.split("[pP]", lexeme) if hex_float else (lexeme, "")
        if ((_STRAY_HEX_UNDERSCORE if radix == 16 else _STRAY_UNDERSCORE).search(significand)
                or _STRAY_UNDERSCORE.search(exponent)):
            return f"underscore not between digits in literal {lexeme!r}"
    if hex_float:
        try:
            numeric_value(lexeme, radix, suffix)
        except ValueError:
            return f"floating-point literal {lexeme!r} has no digits"
        return None
    if suffix in ("f", "F", "d", "D"):
        if lexeme[:2] in ("0b", "0B"):
            return f"binary literal {lexeme!r} has a floating-point suffix"
        return None
    if radix == 10 and ("." in lexeme or "e" in lexeme or "E" in lexeme):  # floating point
        return None
    if radix == 10 and lexeme[0] == "0" and lexeme.rstrip("lL") != "0":
        return f"digit 8 or 9 in octal literal {lexeme!r}"
    try:
        value = numeric_value(lexeme, radix, suffix)
    except ValueError:
        return f"integer literal {lexeme!r} has no digits"
    decimal_max, other_max = _INTEGER_LIMITS[suffix]
    if radix == 10:
        too_large = value > decimal_max or (value == decimal_max and not negated)
    else:
        too_large = value > other_max
    if too_large:
        return f"{'int' if suffix is None else 'long'} literal {lexeme!r} out of range"
    return None


def _is_variable(expr: n.Expr) -> bool:
    """Whether an expression denotes a variable, as the target of an
    assignment or the operand of '++' or '--' must (JLS 15.26, 15.14.2,
    15.15.1): a name, a field access or an array access, in any number of
    parentheses.  ``X.this`` and ``X.super`` are no field accesses."""
    while expr.__class__ is n.Paren:
        expr = expr.expr
    if expr.__class__ is n.FieldAccess:
        return expr.name not in ("this", "super")
    return expr.__class__ is n.Name or expr.__class__ is n.ArrayAccess


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
