"""Lossless Java lexer.

Produces a token table that retains whitespace and comments so that the
concatenation of all lexemes reproduces the input byte for byte.  Columns are
1-based and count a tab as a single column; span ends are exclusive.  The
tokens are the successive matches of one compiled pattern of named groups.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, compress, islice
from pathlib import Path
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


COMMENT_KINDS = (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT, TokenKind.JAVADOC)  # a tuple: Enum hashes in Python

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


_new_span = tuple.__new__  # Span's own __new__ costs twice as much

LINE_END = re.compile("(\r\n?|\n)")  # what ends a line (JLS 3.4); spans, line numbers and line texts read it here
WHITESPACE = re.compile(r"[ \t\r\n\f]+")  # a run of Java whitespace (JLS 3.6): the lexer's whitespace token


@dataclass
class SourceFile:
    """A Java source text, the offsets at which its lines start, and the
    text of each line without its line end."""

    path: str
    text: str
    line_index: list[int] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceFile":
        parts = LINE_END.split(text)  # each line's text, then the line end after it
        index = [0]
        index.extend(islice(accumulate(map(len, parts)), 1, None, 2))
        return cls(path, text, index, parts[::2])

    @classmethod
    def read(cls, path: Path, name: str) -> "SourceFile":
        """The file at ``path`` as strict UTF-8 with its line ends untranslated, named ``name``."""
        return cls.from_text(name, path.read_bytes().decode("utf-8"))

    def line_text(self, line: int) -> str:
        """The text of a 1-based line, without its line end."""
        return self.lines[line - 1]


class Token:
    """One token, built on demand from a TokenTable row."""

    __slots__ = ("kind", "lexeme", "span", "radix", "suffix")

    def __init__(
        self, kind: TokenKind, lexeme: str, span: Span, radix: int | None = None, suffix: str | None = None
    ) -> None:
        self.kind = kind
        self.lexeme = lexeme
        self.span = span
        self.radix = radix  # numeric literals only
        self.suffix = suffix  # numeric literals only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.lexeme, self.span, self.radix, self.suffix) == (
            other.kind, other.lexeme, other.span, other.radix, other.suffix
        )

    __hash__ = None  # equal tokens need equal hashes, and radix and suffix can change

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind.value}, {self.lexeme!r}, {self.span.as_tuple()})"


class TokenTable:
    """The tokens of a source as parallel columns: each token's kind, its
    lexeme and the text offset it starts at.  ``significant`` lists the rows
    that are neither whitespace nor a comment, and ``comments`` the rows that
    are comments.  ``len()`` is the token count; ``table[i]`` and iteration
    build an equal ``Token`` on demand, and ``span(i)`` only its span."""

    __slots__ = ("line_index", "kinds", "lexemes", "offsets", "significant", "comments")

    def __init__(
        self,
        line_index: list[int],
        kinds: list[TokenKind],
        lexemes: list[str],
        offsets: list[int],
        significant: Sequence[int],
        comments: list[int],
    ) -> None:
        self.line_index = line_index
        self.kinds = kinds
        self.lexemes = lexemes
        self.offsets = offsets
        self.significant = significant
        self.comments = comments

    def __len__(self) -> int:
        return len(self.lexemes)

    def __getitem__(self, i: int) -> Token:
        kind, lexeme = self.kinds[i], self.lexemes[i]
        if kind is TokenKind.NUMBER:
            return Token(kind, lexeme, self.span(i), *radix_and_suffix(lexeme))
        return Token(kind, lexeme, self.span(i))

    def __iter__(self) -> Iterator[Token]:
        return map(self.__getitem__, range(len(self.lexemes)))

    def __repr__(self) -> str:
        return repr(list(self))  # as the list of its tokens

    def span(self, i: int) -> Span:
        start = self.offsets[i]
        return extent_span((self.line_index, start, start + len(self.lexemes[i])))

    def significant_tokens(self) -> TokenTable:
        """The significant rows as a table of their own, in order."""
        rows = self.significant
        return TokenTable(
            self.line_index,
            list(map(self.kinds.__getitem__, rows)),
            list(map(self.lexemes.__getitem__, rows)),
            list(map(self.offsets.__getitem__, rows)),
            range(len(rows)),
            [],
        )


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at ({line},{col})")
        self.message = message
        self.line = line
        self.col = col


# Tried in this order at each position.  A string, char or block comment that
# does not close falls through to its "open_" group, which raises at the
# opening delimiter; "illegal" takes any character nothing else matches.  A
# line comment, string or char stops at a CR or LF (JLS 3.7, 3.10.4, 3.10.5).
_TOKEN_RULES = (
    ("WHITESPACE", WHITESPACE.pattern),
    ("LINE_COMMENT", r"//[^\r\n]*"),
    ("BLOCK_COMMENT", r"/\*[\s\S]*?\*/"),
    ("open_comment", r"/\*"),
    ("STRING", r'"(?:[^"\\\r\n]|\\[\s\S])*"'),
    ("open_string", '"'),
    ("CHAR", r"'(?:[^'\\\r\n]|\\[\s\S])*'"),
    ("open_char", "'"),
    # Hex floating point (a binary exponent p is required), hex, binary, or
    # decimal with optional fraction and exponent; the suffix after a binary
    # literal is taken even though only l/L is legal Java (the parser rejects
    # the others).  Its digits are ASCII (JLS 3.10.1): a lexeme that starts
    # with another decimal digit, such as '٣', is a "word", which rejects it.
    ("NUMBER", r"0[xX][0-9a-fA-F_]*(?:\.[0-9a-fA-F_]*)?[pP][+-]?[0-9][0-9_]*[fFdD]?"
               r"|0[xX][0-9a-fA-F_]*[lL]?|0[bB][01_]*[lLfFdD]?"
               r"|(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)(?:[eE][+-]?[0-9]+)?[lLfFdD]?"),
    ("word", r"[\w$]+"),
    ("OPERATOR", "|".join(map(re.escape, OPERATORS))),
    ("SEPARATOR", "[" + re.escape("".join(sorted(SEPARATORS))) + "]"),
    ("illegal", r"[\s\S]"),
)
_TOKEN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_RULES))
_LEXEMES = re.compile("|".join(f"(?:{pattern})" for _, pattern in _TOKEN_RULES))  # _TOKEN without its groups
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
# The kind of every lexeme that has one fixed kind; all of them are significant.
_FIXED_KINDS = {
    **dict.fromkeys(OPERATORS, TokenKind.OPERATOR),
    **dict.fromkeys(SEPARATORS, TokenKind.SEPARATOR),
    **_WORD_KINDS,
}
_FIXED_SIGNIFICANT = dict.fromkeys(_FIXED_KINDS, True)
_OCTAL = re.compile(r"0[0-7_]+[lL]?")


def tokenize(source: SourceFile) -> TokenTable:
    """Lex a source file into a lossless TokenTable; see TokenTable.

    One pattern scan cuts the text into lexemes.  Each distinct lexeme is
    then classified once, by matching the named-group pattern against the
    lexeme alone.  That gives the group the scan matched it with: each group
    tried before that one failed on the text there, so it fails on the
    lexeme, a prefix of that text.  The columns are then filled without a
    Python step per token, and no Token or Span is built.

    Raises LexError, at the first one, for an unterminated string, char, or
    block comment and for a character outside the Java lexical grammar.
    """
    lexemes = _LEXEMES.findall(source.text)
    kind_of = _FIXED_KINDS.copy()
    significant_of = _FIXED_SIGNIFICANT.copy()
    comments: set[str] = set()
    errors: dict[str, str] = {}
    for lexeme in set(lexemes).difference(kind_of):
        group = _TOKEN.match(lexeme).lastgroup
        if group == "word":
            # \w also admits digits like '²' and numerals like '½', which
            # cannot start a Java identifier.
            if not (lexeme[0].isalpha() or lexeme[0] in "_$"):
                errors[lexeme] = f"illegal character {lexeme[0]!r}"
            kind = TokenKind.IDENTIFIER  # keywords, literals and operators are in _FIXED_KINDS
        else:
            kind = _GROUP_KINDS.get(group)
            if kind is None:
                errors[lexeme] = _UNTERMINATED.get(group) or f"illegal character {lexeme[0]!r}"
            elif kind is TokenKind.BLOCK_COMMENT and lexeme.startswith("/**") and lexeme != "/**/":
                kind = TokenKind.JAVADOC
        kind_of[lexeme] = kind
        significant_of[lexeme] = kind is not TokenKind.WHITESPACE and kind not in COMMENT_KINDS
        if kind in COMMENT_KINDS:
            comments.add(lexeme)
    offsets = list(accumulate(map(len, lexemes), initial=0))
    offsets.pop()  # the end of the text
    if errors:
        first = min(map(lexemes.index, errors))
        span = extent_span((source.line_index, offsets[first], offsets[first] + len(lexemes[first])))
        raise LexError(errors[lexemes[first]], span.start_line, span.start_col)
    rows = range(len(lexemes))
    return TokenTable(
        source.line_index,
        list(map(kind_of.__getitem__, lexemes)),
        lexemes,
        offsets,
        list(compress(rows, map(significant_of.__getitem__, lexemes))),
        list(compress(rows, map(comments.__contains__, lexemes))) if comments else [],
    )


def extent_span(extent: tuple[list[int], int, int]) -> Span:
    """The span of an extent ``(line_index, start, end)``: the text from
    offset ``start`` up to offset ``end``, in a text whose line starts are
    ``line_index``."""
    line_index, start, end = extent
    line = bisect_right(line_index, start)
    col = start - line_index[line - 1] + 1
    if line == len(line_index) or end < line_index[line]:
        return _new_span(Span, (line, col, line, end - line_index[line - 1] + 1))
    end_line = bisect_right(line_index, end, line)  # a comment, whitespace, a string with an escaped line break, or a node
    return _new_span(Span, (line, col, end_line, end - line_index[end_line - 1] + 1))


def radix_and_suffix(lexeme: str) -> tuple[int, str | None]:
    """Radix and type suffix of a NUMBER lexeme.  An f/F/d/D suffix makes any
    literal but a hex one a radix-10 float, so ``0b1f`` has radix 10; ``0``
    followed only by octal digits and underscores is octal, ``0_`` included.
    A hex literal ends in a hex digit unless it has a binary exponent, after
    whose decimal digits f/F/d/D is a suffix: ``0x1f`` is 31, ``0x1p3f`` a
    float."""
    suffix = lexeme[-1] if lexeme[-1] in "lLfFdD" else None
    prefix = lexeme[:2].lower()
    if prefix == "0x":
        hex_float = "p" in lexeme or "P" in lexeme
        return 16, suffix if suffix in (("f", "F", "d", "D") if hex_float else ("l", "L")) else None
    if suffix in ("f", "F", "d", "D"):
        return 10, suffix
    if prefix == "0b":
        return 2, suffix
    return (8 if _OCTAL.fullmatch(lexeme) else 10), suffix


def numeric_value(lexeme: str, radix: int, suffix: str | None) -> int | float:
    """The value of a NUMBER lexeme of the given radix and suffix: a float
    when it is decimal with a fraction or an exponent, or hex with a binary
    exponent, else an int.  Raises ValueError for a lexeme without digits,
    such as ``0x`` or ``0x.p1``."""
    digits = (lexeme[:-1] if suffix else lexeme).replace("_", "")
    if radix == 10 and ("." in digits or "e" in digits or "E" in digits):
        return float(digits)
    if radix == 16 and ("p" in digits or "P" in digits):
        try:
            return float.fromhex(digits)
        except OverflowError:  # as float() gives inf for a decimal literal too large
            return float("inf")
    return int(digits, radix)  # int() takes the 0x/0b prefix of its base
