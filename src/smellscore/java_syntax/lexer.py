"""Lossless Java lexer.

Produces a token stream that retains whitespace and comments so that the
concatenation of all lexemes reproduces the input byte for byte.  Columns are
1-based and count a tab as a single column; span ends are exclusive.  The
tokens are the successive matches of one compiled pattern of named groups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    BOOL = "bool"
    NULL = "null"
    OPERATOR = "operator"
    SEPARATOR = "separator"
    LINE_COMMENT = "line_comment"
    BLOCK_COMMENT = "block_comment"
    JAVADOC = "javadoc"
    WHITESPACE = "whitespace"


COMMENT_KINDS = (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT, TokenKind.JAVADOC)
_TRIVIA_KINDS = (TokenKind.WHITESPACE, *COMMENT_KINDS)  # a tuple: Enum hashes in Python

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

PRIMITIVE_TYPES = frozenset("boolean byte char short int long float double".split())

# Longest first so maximal munch falls out of a linear scan.
OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "=", "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "?", ":",
)

SEPARATORS = frozenset("(){}[];,.@")


class Span(NamedTuple):
    """Immutable and hashable, and cheap to build: one per token.  Being a
    tuple, a span also compares equal to the plain tuple of its fields."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


_NEWLINE = re.compile("\n")


@dataclass
class SourceFile:
    """A Java source text plus the offsets at which each line starts."""

    path: str
    text: str
    line_index: list[int] = field(default_factory=list)

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceFile":
        index = [0]
        index.extend(m.end() for m in _NEWLINE.finditer(text))
        return cls(path=path, text=text, line_index=index)

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line without its newline."""
        start = self.line_index[line - 1]
        end = self.line_index[line] - 1 if line < len(self.line_index) else len(self.text)
        return self.text[start:end].rstrip("\n")


class Token:
    __slots__ = ("kind", "lexeme", "span", "radix", "suffix", "is_trivia")

    def __init__(
        self, kind: TokenKind, lexeme: str, span: Span, radix: int | None = None, suffix: str | None = None
    ) -> None:
        self.kind = kind
        self.lexeme = lexeme
        self.span = span
        self.radix = radix  # numeric literals only
        self.suffix = suffix  # numeric literals only
        self.is_trivia = kind in _TRIVIA_KINDS  # whitespace or a comment

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.lexeme, self.span, self.radix, self.suffix) == (
            other.kind, other.lexeme, other.span, other.radix, other.suffix
        )

    __hash__ = None  # equal tokens need equal hashes, and radix and suffix can change

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind.value}, {self.lexeme!r}, {self.span.as_tuple()})"


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at ({line},{col})")
        self.message = message
        self.line = line
        self.col = col


# Tried in this order at each position.  A string, char or block comment that
# does not close falls through to its "open_" group, which raises at the
# opening delimiter; "illegal" takes any character nothing else matches.
_TOKEN_RULES = (
    ("WHITESPACE", r"[ \t\r\n\f]+"),
    ("LINE_COMMENT", r"//[^\n]*"),
    ("BLOCK_COMMENT", r"/\*[\s\S]*?\*/"),
    ("open_comment", r"/\*"),
    ("STRING", r'"(?:[^"\\\n]|\\[\s\S])*"'),
    ("open_string", '"'),
    ("CHAR", r"'(?:[^'\\\n]|\\[\s\S])*'"),
    ("open_char", "'"),
    # Hex, binary, or decimal with optional fraction and exponent; the suffix
    # after a binary literal is taken even though only l/L is legal Java (the
    # parser rejects the others).
    ("NUMBER", r"0[xX][0-9a-fA-F_]*[lL]?|0[bB][01_]*[lLfFdD]?"
               r"|(?:\d[\d_]*(?:\.[\d_]*)?|\.\d[\d_]*)(?:[eE][+-]?\d+)?[lLfFdD]?"),
    ("word", r"[\w$]+"),
    ("OPERATOR", "|".join(map(re.escape, OPERATORS))),
    ("SEPARATOR", "[" + re.escape("".join(sorted(SEPARATORS))) + "]"),
    ("illegal", r"[\s\S]"),
)
_TOKEN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_RULES))
_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_char": "unterminated char literal",
}
_WORD_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    "true": TokenKind.BOOL,
    "false": TokenKind.BOOL,
    "null": TokenKind.NULL,
}
_GROUP_KINDS = {name: TokenKind[name] for name, _ in _TOKEN_RULES if name in TokenKind.__members__}
_OCTAL = re.compile(r"0[0-7_]+[lL]?")


def tokenize(source: SourceFile) -> list[Token]:
    """Lex a source file into a lossless token list.

    Raises LexError for an unterminated string, char, or block comment and for
    characters outside the Java lexical grammar.
    """
    tokens: list[Token] = []
    append = tokens.append
    new_span = tuple.__new__  # Span's own __new__ costs twice as much
    line = col = 1
    for m in _TOKEN.finditer(source.text):
        group = m.lastgroup
        lexeme = m.group()
        if group == "word":
            # \w also admits digits like '²' and numerals like '½', which
            # cannot start a Java identifier.
            if not (lexeme[0].isalpha() or lexeme[0] in "_$"):
                raise LexError(f"illegal character {lexeme[0]!r}", line, col)
            kind = _WORD_KINDS.get(lexeme, TokenKind.IDENTIFIER)
        else:
            kind = _GROUP_KINDS.get(group)
            if kind is None:
                raise LexError(_UNTERMINATED.get(group) or f"illegal character {lexeme[0]!r}", line, col)
            if kind is TokenKind.BLOCK_COMMENT and lexeme.startswith("/**") and lexeme != "/**/":
                kind = TokenKind.JAVADOC

        newlines = lexeme.count("\n")
        if newlines:
            end_line, end_col = line + newlines, len(lexeme) - lexeme.rfind("\n")
        else:
            end_line, end_col = line, col + len(lexeme)
        span = new_span(Span, (line, col, end_line, end_col))
        if kind is TokenKind.NUMBER:
            append(Token(kind, lexeme, span, *_radix_and_suffix(lexeme)))
        else:
            append(Token(kind, lexeme, span))
        line, col = end_line, end_col
    return tokens


def _radix_and_suffix(lexeme: str) -> tuple[int, str | None]:
    """Radix and type suffix of a NUMBER lexeme.  An f/F/d/D suffix makes any
    literal but a hex one a radix-10 float, so ``0b1f`` has radix 10; ``0``
    followed only by octal digits and underscores is octal, ``0_`` included."""
    suffix = lexeme[-1] if lexeme[-1] in "lLfFdD" else None
    prefix = lexeme[:2].lower()
    if prefix == "0x":
        return 16, suffix if suffix in ("l", "L") else None
    if suffix in ("f", "F", "d", "D"):
        return 10, suffix
    if prefix == "0b":
        return 2, suffix
    return (8 if _OCTAL.fullmatch(lexeme) else 10), suffix


def numeric_value(lexeme: str, radix: int, suffix: str | None) -> int | float:
    """The value of a NUMBER lexeme of the given radix and suffix: a float
    when it is decimal with a fraction or an exponent, else an int.  Raises
    ValueError for a lexeme without digits, such as ``0x``."""
    digits = (lexeme[:-1] if suffix else lexeme).replace("_", "")
    if radix == 10 and ("." in digits or "e" in digits or "E" in digits):
        return float(digits)
    return int(digits, radix)  # int() takes the 0x/0b prefix of its base
