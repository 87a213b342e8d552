"""Java lexing and parsing for the supported language subset."""

from .lexer import (
    COMMENT_KINDS,
    KEYWORDS,
    PRIMITIVE_TYPES,
    LexError,
    SourceFile,
    Span,
    Token,
    TokenKind,
    TokenTable,
    tokenize,
)
from .parser import ParseFailure, ParseOutcome, parse, parse_text
from . import nodes

__all__ = [
    "COMMENT_KINDS",
    "KEYWORDS",
    "PRIMITIVE_TYPES",
    "LexError",
    "SourceFile",
    "Span",
    "Token",
    "TokenKind",
    "TokenTable",
    "tokenize",
    "ParseFailure",
    "ParseOutcome",
    "parse",
    "parse_text",
    "nodes",
]
