"""The pattern-table lexer against the character-at-a-time scanner it replaced.

``reference_tokenize`` below is that scanner, kept verbatim as the reference.
On every test source and on seeded mutations of them, the lexer must give the
same tokens (kind, lexeme, span, radix, suffix) or the same ``LexError``
(message, line, col).  Where the scanner broke the Java lexical grammar, it
was changed to match, and the change is pinned at the end.  A carriage
return ends a line, as JLS 3.4 says, and so it ends a line comment and a
string or char literal (JLS 3.7, 3.10.4, 3.10.5).  A number's digits are
ASCII (JLS 3.10.1): the scanner read any character for which
``str.isdigit()`` holds, '²' or '٣' among them, as a digit.  And it split a
hexadecimal floating-point literal (JLS 3.10.2), ``0x1.8p1``, into ``0x1``
and ``.8``.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from smellscore.java_syntax import KEYWORDS, LexError, SourceFile, Span, Token, TokenKind, tokenize
from smellscore.java_syntax.lexer import OPERATORS, SEPARATORS

TESTS = Path(__file__).parent

_HEX_DIGITS = set("0123456789abcdefABCDEF_")
_NUM_SUFFIXES = set("lLfFdD")
_DIGITS = set("0123456789")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def advance(self, count: int = 1) -> str:
        taken = self.text[self.pos : self.pos + count]
        for i, ch in enumerate(taken, self.pos):
            if ch == "\n" or (ch == "\r" and self.text[i + 1 : i + 2] != "\n"):
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count
        return taken

    def mark(self) -> tuple[int, int, int]:
        return (self.pos, self.line, self.col)

    def span_from(self, mark: tuple[int, int, int]) -> Span:
        return Span(mark[1], mark[2], self.line, self.col)


def reference_tokenize(source: SourceFile) -> list[Token]:
    sc = _Scanner(source.text)
    tokens: list[Token] = []

    while not sc.eof():
        start = sc.mark()
        ch = sc.peek()

        if ch in " \t\r\n\f":
            while not sc.eof() and sc.peek() in " \t\r\n\f":
                sc.advance()
            tokens.append(Token(TokenKind.WHITESPACE, source.text[start[0] : sc.pos], sc.span_from(start)))
            continue

        if ch == "/" and sc.peek(1) == "/":
            while not sc.eof() and sc.peek() not in "\r\n":
                sc.advance()
            tokens.append(Token(TokenKind.LINE_COMMENT, source.text[start[0] : sc.pos], sc.span_from(start)))
            continue

        if ch == "/" and sc.peek(1) == "*":
            kind = TokenKind.JAVADOC if sc.peek(2) == "*" and sc.peek(3) != "/" else TokenKind.BLOCK_COMMENT
            sc.advance(2)
            closed = False
            while not sc.eof():
                if sc.peek() == "*" and sc.peek(1) == "/":
                    sc.advance(2)
                    closed = True
                    break
                sc.advance()
            if not closed:
                raise LexError("unterminated block comment", start[1], start[2])
            tokens.append(Token(kind, source.text[start[0] : sc.pos], sc.span_from(start)))
            continue

        if ch == '"':
            sc.advance()
            while True:
                if sc.eof() or sc.peek() in "\r\n":
                    raise LexError("unterminated string literal", start[1], start[2])
                c = sc.advance()
                if c == "\\":
                    if sc.eof():
                        raise LexError("unterminated string literal", start[1], start[2])
                    sc.advance()
                elif c == '"':
                    break
            tokens.append(Token(TokenKind.STRING, source.text[start[0] : sc.pos], sc.span_from(start)))
            continue

        if ch == "'":
            sc.advance()
            while True:
                if sc.eof() or sc.peek() in "\r\n":
                    raise LexError("unterminated char literal", start[1], start[2])
                c = sc.advance()
                if c == "\\":
                    if sc.eof():
                        raise LexError("unterminated char literal", start[1], start[2])
                    sc.advance()
                elif c == "'":
                    break
            tokens.append(Token(TokenKind.CHAR, source.text[start[0] : sc.pos], sc.span_from(start)))
            continue

        if ch in _DIGITS or (ch == "." and sc.peek(1) in _DIGITS):
            tokens.append(_scan_number(sc, source, start))
            continue

        if ch.isalpha() or ch == "_" or ch == "$":
            while not sc.eof() and (sc.peek().isalnum() or sc.peek() in "_$"):
                sc.advance()
            word = source.text[start[0] : sc.pos]
            span = sc.span_from(start)
            if word in ("true", "false"):
                tokens.append(Token(TokenKind.BOOL, word, span))
            elif word == "null":
                tokens.append(Token(TokenKind.NULL, word, span))
            elif word in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, word, span))
            else:
                tokens.append(Token(TokenKind.IDENTIFIER, word, span))
            continue

        if ch in SEPARATORS:
            if ch == "." and sc.peek(1) == "." and sc.peek(2) == ".":
                sc.advance(3)
                tokens.append(Token(TokenKind.OPERATOR, "...", sc.span_from(start)))
            else:
                sc.advance()
                tokens.append(Token(TokenKind.SEPARATOR, ch, sc.span_from(start)))
            continue

        matched = False
        for op in OPERATORS:
            if source.text.startswith(op, sc.pos):
                sc.advance(len(op))
                tokens.append(Token(TokenKind.OPERATOR, op, sc.span_from(start)))
                matched = True
                break
        if matched:
            continue

        raise LexError(f"illegal character {ch!r}", start[1], start[2])

    return tokens


def _scan_number(sc: _Scanner, source: SourceFile, start: tuple[int, int, int]) -> Token:
    radix = 10
    is_float = False

    if sc.peek() == "0" and sc.peek(1) in ("x", "X"):
        radix = 16
        sc.advance(2)
        while not sc.eof() and sc.peek() in _HEX_DIGITS:
            sc.advance()
        # A hex float: an optional '.' and hex digits, then a binary exponent.
        text, end = source.text, sc.pos
        if text[end : end + 1] == ".":
            end += 1
            while text[end : end + 1] and text[end] in _HEX_DIGITS:
                end += 1
        if text[end : end + 1] in ("p", "P"):
            end += 2 if text[end + 1 : end + 2] in ("+", "-") else 1
            if text[end : end + 1] and text[end] in "0123456789":
                sc.advance(end - sc.pos)
                while not sc.eof() and sc.peek() in "0123456789_":
                    sc.advance()
                suffix = sc.advance() if sc.peek() in ("f", "F", "d", "D") else None
                return Token(TokenKind.NUMBER, text[start[0] : sc.pos], sc.span_from(start), radix=16, suffix=suffix)
    elif sc.peek() == "0" and sc.peek(1) in ("b", "B"):
        radix = 2
        sc.advance(2)
        while not sc.eof() and sc.peek() in "01_":
            sc.advance()
    else:
        digits_before = 0
        while not sc.eof() and (sc.peek() in _DIGITS or sc.peek() == "_"):
            sc.advance()
            digits_before += 1
        if sc.peek() == "." and (sc.peek(1) in _DIGITS or digits_before):
            is_float = True
            sc.advance()
            while not sc.eof() and (sc.peek() in _DIGITS or sc.peek() == "_"):
                sc.advance()
        if sc.peek() in ("e", "E") and (sc.peek(1) in _DIGITS or (sc.peek(1) in "+-" and sc.peek(2) in _DIGITS)):
            is_float = True
            sc.advance()
            if sc.peek() in "+-":
                sc.advance()
            while not sc.eof() and sc.peek() in _DIGITS:
                sc.advance()
        if not is_float and digits_before > 1 and source.text[start[0]] == "0":
            body = source.text[start[0] : sc.pos]
            if all(c in "01234567_" for c in body[1:]):
                radix = 8

    suffix = None
    if sc.peek() in _NUM_SUFFIXES:
        suffix = sc.advance()
        if suffix in "fFdD":
            is_float = True

    lexeme = source.text[start[0] : sc.pos]
    if is_float:
        radix = 10
    return Token(TokenKind.NUMBER, lexeme, sc.span_from(start), radix=radix, suffix=suffix)


def lexed(lex, text: str):
    """Everything a token list carries, or the error's message and position."""
    try:
        toks = lex(SourceFile.from_text("T.java", text))
    except LexError as err:
        return ("error", err.message, err.line, err.col)
    return [(t.kind, t.lexeme, t.span.as_tuple(), t.radix, t.suffix) for t in toks]


ALPHABET = (
    "".join(chr(c) for c in range(32, 127))
    + "\t\n\r\f\x0b\x00" + "éπ中٣½Ⅻ"
    + "\"'/*\\.0x0b1eE_$L\n" * 3  # lexically busy characters, weighted up
)


def seed_texts() -> list[str]:
    """Every Java test source and every string constant in the test modules."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(TESTS.rglob("*.java"))]
    for module in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value:
                texts.append(node.value)
    return texts


def mutations(seeds: list[str], count: int, rng: random.Random) -> list[str]:
    """Windows of the seeds with 1-4 random inserts, deletes and replacements,
    and every fifth one a random string over ALPHABET."""
    out = []
    for i in range(count):
        if i % 5 == 4:
            out.append("".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 40))))
            continue
        text = rng.choice(seeds)
        start = rng.randrange(len(text))
        chars = list(text[start : start + rng.randint(1, 240)])
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(chars))
            op = rng.randrange(3)
            if op == 0 or not chars:
                chars.insert(at, rng.choice(ALPHABET))
            elif op == 1:
                del chars[min(at, len(chars) - 1)]
            else:
                chars[min(at, len(chars) - 1)] = rng.choice(ALPHABET)
        out.append("".join(chars))
    return out


SEEDS = seed_texts()

# The scanner's corner cases, so that none rests on the mutations finding it.
EDGE_CASES = [
    "/**/", "/***/", "/** x */", "/*/", "/**", "/* a\n b */x", "// a\r\nb", "//",
    '"a\\\nb"', '"\\', '"a\nb"', "'\\''", "''", "'ab'", "'\\", "\t\tx\f\r\n y",
    "0x", "0xL", "0x1f", "0XffL", "0x1.5p3", "0x1p3f", "0X.8P-1D", "0x1p3L", "0x1p+", "0x1.p", "0xp1",
    "0x1p3_0", "0x1P٣", "0x1.", "0b", "0b1f", "0B1d", "0b2", "0bL",
    "0", "0_", "00", "0777", "07L", "07f", "09", "0_9", "1__2", "1.", "1.e5", "1._5", "1.foo",
    ".5", "..5", "...", "...5", "1e", "1e+", "1e+5", "1e1_0", "1E-2f", "5d", "5D", "1e5L",
    "٣٣", "0٣", "a٣", "½", "Ⅻ", "x½Ⅻ", "é中π", "$x_1", "\x0b", "\x00", "#", "`",
    ">>>=", ">>>>=", "->::", "a<<=b", "@interface", "x...y",
]


def test_seed_set_covers_the_test_sources():
    assert sum(1 for p in TESTS.rglob("*.java")) >= 31
    assert len(SEEDS) > 500


def test_test_sources_and_edge_cases_lex_like_the_reference():
    for text in SEEDS + EDGE_CASES:
        assert lexed(tokenize, text) == lexed(reference_tokenize, text), text[:80]


def test_seeded_mutations_lex_like_the_reference():
    cases = mutations(SEEDS, 3000, random.Random(20261018))
    errors = 0
    for text in cases:
        want = lexed(reference_tokenize, text)
        assert lexed(tokenize, text) == want, text
        errors += isinstance(want, tuple)
    # both outcomes are exercised
    assert 300 < errors < len(cases) - 300


# '²', '³' and '①' satisfy str.isdigit() without being decimal digits; '٣'
# and '９' are decimal digits, but not ASCII ones.
@pytest.mark.parametrize("digit", list("²³①٣９"))
def test_non_ascii_digit_is_an_illegal_character(digit):
    for text, col in ((f"int x =\n  {digit}1;", 3), (f"int x =\n  0{digit};", 4), (f"int x =\n  1.{digit};", 5)):
        assert lexed(tokenize, text) == ("error", f"illegal character {digit!r}", 2, col)
        assert lexed(reference_tokenize, text) == lexed(tokenize, text)
    # after a letter it is still part of the identifier, in literals and comments it is text
    for kept in (f"int x{digit} = 1;", f'String s = "{digit}"; // {digit}'):
        assert lexed(tokenize, kept) == lexed(reference_tokenize, kept)
        assert not isinstance(lexed(tokenize, kept), tuple)


@pytest.mark.parametrize("text, want", [
    ("// a\rb", [(TokenKind.LINE_COMMENT, "// a", (1, 1, 1, 5)), (TokenKind.WHITESPACE, "\r", (1, 5, 2, 1)),
                 (TokenKind.IDENTIFIER, "b", (2, 1, 2, 2))]),
    ("x\r\r\ny", [(TokenKind.IDENTIFIER, "x", (1, 1, 1, 2)), (TokenKind.WHITESPACE, "\r\r\n", (1, 2, 3, 1)),
                  (TokenKind.IDENTIFIER, "y", (3, 1, 3, 2))]),
    ('s = "a\rb";', ("error", "unterminated string literal", 1, 5)),
    ("c = '\r';", ("error", "unterminated char literal", 1, 5)),
])
def test_carriage_return_ends_a_line(text, want):
    got = lexed(tokenize, text)
    assert (got if isinstance(got, tuple) else [t[:3] for t in got]) == want
    assert lexed(reference_tokenize, text) == got
