"""Lexer and parser behavior: lossless tokenization, structural parsing of
the supported subset, located failures, and determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from smellscore.java_syntax import (
    COMMENT_KINDS,
    LexError,
    SourceFile,
    Span,
    Token,
    TokenKind,
    parse,
    parse_text,
    tokenize,
)
from smellscore.java_syntax import nodes as n
from smellscore.java_syntax.lexer import KEYWORDS, OPERATORS, SEPARATORS, numeric_value

from test_lexer_reference import reference_tokenize

SAMPLE = """\
package demo;

import java.util.List;

/** Doc. */
public class Sample extends Base implements Runnable {
    private static final int LIMIT = 100;
    private List<String> names;

    public Sample(int size) {
        this.names = new java.util.ArrayList<String>(size);
    }

    @Override
    public void run() {
        int total = 0;
        for (int i = 0; i < LIMIT && total >= 0; i++) {
            total += i % 3 == 0 ? i : -i;
        }
        while (total > 0) {
            total--;
        }
        try {
            names.forEach(s -> System.out.println(s));
        } catch (RuntimeException e) {
            throw new IllegalStateException("bad", e);
        } finally {
            total = 0;
        }
    }
}
"""


def _src(text: str, path: str = "T.java") -> SourceFile:
    return SourceFile.from_text(path, text)


TRIVIA = (TokenKind.WHITESPACE, TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT, TokenKind.JAVADOC)


def _significant(text: str) -> list[Token]:
    """The tokens of text that are neither whitespace nor comments."""
    return [t for t in tokenize(_src(text)) if t.kind not in TRIVIA]


class TestTokenize:
    def test_round_trip_is_byte_exact(self):
        toks = tokenize(_src(SAMPLE))
        assert "".join(t.lexeme for t in toks) == SAMPLE

    def test_hex_literal_classification(self):
        toks = _significant("int x = 0x1F;")
        kinds = [(t.kind, t.lexeme) for t in toks]
        assert kinds == [
            (TokenKind.KEYWORD, "int"),
            (TokenKind.IDENTIFIER, "x"),
            (TokenKind.OPERATOR, "="),
            (TokenKind.NUMBER, "0x1F"),
            (TokenKind.SEPARATOR, ";"),
        ]
        number = toks[3]
        assert number.radix == 16

    def test_numeric_suffix_and_radix(self):
        toks = _significant("long a = 10L; double b = 1.5e3d; int c = 0b101; int d = 0777;")
        numbers = [t for t in toks if t.kind is TokenKind.NUMBER]
        assert [(t.lexeme, t.radix, t.suffix) for t in numbers] == [
            ("10L", 10, "L"),
            ("1.5e3d", 10, "d"),
            ("0b101", 2, None),
            ("0777", 8, None),
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError) as err:
            tokenize(_src("/* open"))
        assert (err.value.line, err.value.col) == (1, 1)

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize(_src('String s = "abc'))

    def test_illegal_character(self):
        with pytest.raises(LexError):
            tokenize(_src("int x = #;"))

    @pytest.mark.parametrize(
        "line3, message, col",
        [
            ("  x /* open\n}", "unterminated block comment", 5),
            ('  s = "abc', "unterminated string literal", 7),
            ("  c = 'x", "unterminated char literal", 7),
            ("\tint x = #;", "illegal character '#'", 10),  # a tab is one column
            ('  s = "ab\ncd";', "unterminated string literal", 7),
        ],
        ids=["block-comment", "string", "char", "illegal", "string-newline"],
    )
    def test_lex_error_position(self, line3, message, col):
        with pytest.raises(LexError) as err:
            tokenize(_src("class A {\n  /** doc */\n" + line3))
        assert (err.value.message, err.value.line, err.value.col) == (message, 3, col)

    def test_mixed_token_kind_sequence(self):
        text = (
            '// note\nclass A { String s = "x"; char c = \'y\'; boolean b = true; '
            "Object o = null; int[] ns = {1, 2}; double d = 1.5e2; }\n"
        )
        kinds = [t.kind for t in _significant(text)]
        K, I, S, O = TokenKind.KEYWORD, TokenKind.IDENTIFIER, TokenKind.SEPARATOR, TokenKind.OPERATOR
        expected = [
            K, I, S,  # class A {
            I, I, O, TokenKind.STRING, S,  # String s = "x" ;
            K, I, O, TokenKind.CHAR, S,  # char c = 'y' ;
            K, I, O, TokenKind.BOOL, S,  # boolean b = true ;
            I, I, O, TokenKind.NULL, S,  # Object o = null ;
            K, S, S, I, O, S, TokenKind.NUMBER, S, TokenKind.NUMBER, S, S,  # int [ ] ns = { 1 , 2 } ;
            K, I, O, TokenKind.NUMBER, S,  # double d = 1.5e2 ;
            S,  # }
        ]
        assert len(kinds) == 40
        assert kinds == expected

    def test_spans_are_ordered_and_contiguous(self):
        src = _src(SAMPLE)
        toks = tokenize(src)
        offset = 0
        for t in toks:
            start = src.line_index[t.span.start_line - 1] + t.span.start_col - 1
            assert start == offset
            offset += len(t.lexeme)
        assert offset == len(SAMPLE)

    def test_table_columns_agree_with_its_tokens(self):
        table = tokenize(_src(SAMPLE))
        assert len(table) == len(table.kinds) == len(table.lexemes) == len(table.offsets)
        assert [(t.kind, t.lexeme, t.span) for t in table] == [
            (table.kinds[i], table.lexemes[i], table.span(i)) for i in range(len(table))
        ]
        assert [table[i] for i in table.significant] == list(table.significant_tokens())
        assert table.comments == [i for i, t in enumerate(table) if t.kind in COMMENT_KINDS]

    def test_every_fixed_lexeme_lexes_as_the_reference_scanner_lexes_it(self):
        """Keywords, literal words, operators and separators get their kind
        from a table instead of the pattern; alone and between words they
        lex as the character-at-a-time reference scanner lexes them."""
        fixed = sorted(KEYWORDS | {"true", "false", "null"} | set(OPERATORS) | SEPARATORS)
        for text in fixed + [f"a{lexeme}b" for lexeme in fixed] + [f"1 {lexeme} 2" for lexeme in fixed]:
            got = [(t.kind, t.lexeme, t.span) for t in tokenize(_src(text))]
            assert got == [(t.kind, t.lexeme, t.span) for t in reference_tokenize(_src(text))], text


def _char_loop_line_index(text: str) -> list[int]:
    """The offset at which each line starts, found one character at a time:
    a line feed, or a carriage return not followed by one, ends a line."""
    index = [0]
    for i, ch in enumerate(text):
        if ch == "\n" or (ch == "\r" and text[i + 1 : i + 2] != "\n"):
            index.append(i + 1)
    return index


class TestSourceFile:
    @pytest.mark.parametrize("text", ["", "\n", "a\nb", "a\nb\n", "a\r\nb\r\n", "\r\n\r\nx", "\n\n\n", "a\rb\r", "\r\r\n\n\r"])
    def test_line_index_matches_the_char_loop(self, text):
        assert SourceFile.from_text("T.java", text).line_index == _char_loop_line_index(text)

    def test_line_index_of_every_test_source_matches_the_char_loop(self):
        paths = sorted(Path(__file__).parent.rglob("*.java"))
        assert len(paths) >= 31
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert SourceFile.from_text(str(path), text).line_index == _char_loop_line_index(text), path

    @pytest.mark.parametrize("text, lines", [
        ("a\nb", ["a", "b"]),
        ("a\r\nb\r\n", ["a", "b", ""]),
        ("a\r\r\nb", ["a", "", "b"]),
        ("\r\n\r\n", ["", "", ""]),
        ("a\rb\n\r", ["a", "b", "", ""]),
    ], ids=["lf", "crlf", "cr-crlf", "empty-crlf-lines", "lone-cr"])
    def test_line_text_leaves_out_the_line_end(self, text, lines):
        source = SourceFile.from_text("T.java", text)
        assert [source.line_text(k) for k in range(1, len(source.line_index) + 1)] == lines

    def test_read_keeps_the_line_ends_of_the_file(self, tmp_path):
        path = tmp_path / "T.java"
        path.write_bytes("class A {\r  // \u00e9\r\n}\n".encode("utf-8"))
        assert SourceFile.read(path, "T.java") == SourceFile.from_text("T.java", "class A {\r  // \u00e9\r\n}\n")

    def test_read_of_bytes_that_are_not_utf8_raises(self, tmp_path):
        path = tmp_path / "T.java"
        path.write_bytes(b"class A {} // \xe9\n")
        with pytest.raises(UnicodeDecodeError):
            SourceFile.read(path, "T.java")


class TestOnDemandSpans:
    """Spans built from a token table row: line and column come from the row's
    text offset, and CR LF, CR or LF ends a line (JLS 3.4)."""

    @staticmethod
    def _spans(text: str) -> list[tuple[str, tuple[int, int, int, int]]]:
        lexed = [(t.lexeme, t.span.as_tuple()) for t in tokenize(_src(text)) if t.kind not in TRIVIA]
        outcome = parse_text("T.java", text)
        assert outcome.ok, outcome.failure
        assert [(t.lexeme, t.span.as_tuple()) for t in outcome.tokens] == lexed
        return lexed

    def test_token_after_a_multi_line_block_comment(self):
        assert self._spans("/* a\n b */ class A {}")[:2] == [("class", (2, 7, 2, 12)), ("A", (2, 13, 2, 14))]

    def test_token_after_a_javadoc(self):
        text = "/**\n * doc\n */\nclass A {}"
        assert self._spans(text)[0] == ("class", (4, 1, 4, 6))
        assert parse_text("T.java", text).ast.types[0].doc.span == (1, 1, 3, 4)

    def test_tokens_after_crlf(self):
        assert self._spans("class A {\r\n  int b;\r\n}")[3:] == [
            ("int", (2, 3, 2, 6)), ("b", (2, 7, 2, 8)), (";", (2, 8, 2, 9)), ("}", (3, 1, 3, 2)),
        ]

    def test_a_lone_carriage_return_ends_a_line(self):
        assert self._spans("class A {\r  int b;\r}")[3:] == [
            ("int", (2, 3, 2, 6)), ("b", (2, 7, 2, 8)), (";", (2, 8, 2, 9)), ("}", (3, 1, 3, 2)),
        ]

    def test_a_carriage_return_ends_a_line_comment(self):
        outcome = parse_text("T.java", "class A {\r  // note\r  int x;\r}\r")
        assert outcome.ok, outcome.failure
        [field] = outcome.ast.types[0].members
        assert [d.name for d in field.declarators] == ["x"]
        assert field.span == (3, 3, 3, 9)

    @pytest.mark.parametrize("ending", ["\r", "\n", "\r\n"], ids=["cr", "lf", "crlf"])
    def test_a_raw_line_end_in_a_string_is_unterminated(self, ending):
        failure = parse_text("T.java", f'class A {{ String s = "a{ending}b"; }}').failure
        assert (failure.message, failure.first_error_span) == ("unterminated string literal", (1, 22, 1, 23))

    def test_last_token_without_a_trailing_newline(self):
        assert self._spans("class A {\n}")[-1] == ("}", (2, 1, 2, 2))
        assert parse_text("T.java", "class A {\n}").ast.span == (1, 1, 2, 2)

    def test_string_with_an_escaped_line_break_spans_two_lines(self):
        text = 'class A { String s = "a\\\nb"; }'
        string = [t for t in tokenize(_src(text)) if t.kind is TokenKind.STRING]
        assert [(t.lexeme, t.span.as_tuple()) for t in string] == [('"a\\\nb"', (1, 22, 2, 3))]
        failure = parse_text("T.java", text).failure
        assert (failure.message, failure.first_error_span) == ("invalid escape character '\\n' after a backslash", (1, 22, 2, 3))

    def test_lex_error_after_crlf_lines(self):
        with pytest.raises(LexError) as err:
            tokenize(_src("class A {\r\n  int x = #;\r\n}"))
        assert (err.value.message, err.value.line, err.value.col) == ("illegal character '#'", 2, 11)


class TestSpanAndTokenContract:
    def test_span_fields_cannot_be_assigned(self):
        span = Span(1, 2, 3, 4)
        for name in ("start_line", "start_col", "end_line", "end_col"):
            with pytest.raises(AttributeError):
                setattr(span, name, 9)
        assert span.as_tuple() == (1, 2, 3, 4)

    def test_equal_spans_hash_alike_and_key_a_dict(self):
        first, second = Span(1, 2, 3, 4), Span(1, 2, 3, 4)
        assert first == second and hash(first) == hash(second)
        assert first != Span(1, 2, 3, 5)
        table = {first: "a"}
        table[second] = "b"
        assert table == {Span(1, 2, 3, 4): "b"}

    def test_span_repr_and_as_tuple(self):
        span = Span(1, 2, 3, 4)
        assert repr(span) == "Span(start_line=1, start_col=2, end_line=3, end_col=4)"
        assert type(span.as_tuple()) is tuple and span.as_tuple() == (1, 2, 3, 4)
        assert (span.start_line, span.start_col, span.end_line, span.end_col) == (1, 2, 3, 4)

    @pytest.mark.parametrize("kind", list(TokenKind), ids=lambda k: k.value)
    def test_token_is_trivia_for_every_kind(self, kind):
        """A token is significant in its table exactly when it is neither
        whitespace nor a comment, and listed as a comment when it is one."""
        sample = {
            TokenKind.IDENTIFIER: "x", TokenKind.KEYWORD: "int", TokenKind.NUMBER: "1", TokenKind.STRING: '"s"',
            TokenKind.CHAR: "'c'", TokenKind.BOOL: "true", TokenKind.NULL: "null", TokenKind.OPERATOR: "+",
            TokenKind.SEPARATOR: ";", TokenKind.LINE_COMMENT: "// c", TokenKind.BLOCK_COMMENT: "/* c */",
            TokenKind.JAVADOC: "/** c */", TokenKind.WHITESPACE: " \t\n",
        }[kind]
        table = tokenize(_src(sample))
        assert [t.kind for t in table] == [kind]
        assert list(table.significant) == ([] if kind in TRIVIA else [0])
        assert table.comments == ([0] if kind in COMMENT_KINDS else [])

    def test_token_equality_repr_and_numeric_fields(self):
        span = Span(1, 1, 1, 3)
        token = Token(TokenKind.NUMBER, "0x", span)
        assert (token.radix, token.suffix) == (None, None)
        token.radix, token.suffix = 16, "L"
        assert token == Token(TokenKind.NUMBER, "0x", Span(1, 1, 1, 3), radix=16, suffix="L")
        assert token != Token(TokenKind.NUMBER, "0x", span, radix=16)
        assert token != Token(TokenKind.IDENTIFIER, "0x", span, radix=16, suffix="L")
        assert repr(token) == "Token(number, '0x', (1, 1, 1, 3))"
        with pytest.raises(TypeError):
            hash(token)


class TestParse:
    def test_minimal_class(self):
        out = parse_text("A.java", "class A {}")
        assert out.ok
        decl = out.ast.types[0]
        assert decl.name == "A" and decl.kind == "class"
        assert decl.methods == [] and decl.fields == []

    def test_structural_counts(self):
        out = parse_text("A.java", "class A { void m(int a, int b) { if (a>b) return; } }")
        assert out.ok
        decl = out.ast.types[0]
        assert len(decl.methods) == 1
        method = decl.methods[0]
        assert len(method.params) == 2
        ifs = [s for s in n.walk(method.body) if isinstance(s, n.IfStmt)]
        assert len(ifs) == 1

    def test_malformed_parameter_list(self):
        out = parse_text("A.java", "class A { void m( { }")
        assert not out.ok
        # first error is the '{' where a type was expected
        assert out.failure.first_error_span.start_line == 1
        assert out.failure.first_error_span.start_col == 19

    def test_lex_failure_becomes_parse_failure(self):
        out = parse_text("A.java", "/* open")
        assert not out.ok
        assert out.failure.first_error_span.start_line == 1

    def test_parse_is_deterministic(self):
        first = parse_text("S.java", SAMPLE)
        second = parse_text("S.java", SAMPLE)
        assert first.ok and second.ok
        assert first.ast == second.ast

    def test_child_spans_within_parent_spans(self):
        out = parse_text("S.java", SAMPLE)
        assert out.ok

        def contains(outer, inner) -> bool:
            if inner.start_line < outer.start_line or inner.end_line > outer.end_line:
                return False
            if inner.start_line == outer.start_line and inner.start_col < outer.start_col:
                return False
            if inner.end_line == outer.end_line and inner.end_col > outer.end_col:
                return False
            return True

        for node in n.walk(out.ast):
            for child in n.iter_child_nodes(node):
                if isinstance(child, n.Comment):
                    continue  # attached docs precede their declaration
                assert contains(node.span, child.span), (node, child)

    def test_doc_comment_attachment(self):
        out = parse_text("S.java", SAMPLE)
        decl = out.ast.types[0]
        assert decl.doc is not None and decl.doc.is_javadoc
        ctor = decl.constructors[0]
        assert ctor.doc is None

    def test_doc_comment_after_shift_split_type(self):
        text = """\
class G {
    private java.util.Map<String, java.util.List<Integer>> m;

    /** Documented. */
    public void f() {
    }
}
"""
        out = parse_text("G.java", text)
        assert out.ok, out.failure
        method = out.ast.types[0].methods[0]
        assert method.doc is not None and method.doc.text == "/** Documented. */"

    def test_annotations_before_first_type_belong_to_it(self):
        out = parse_text("A.java", "/** Doc. */\n@Deprecated\npublic class A {\n}\n")
        assert out.ok, out.failure
        decl = out.ast.types[0]
        assert [a.name for a in decl.annotations] == ["Deprecated"]
        assert decl.span.start_line == 2
        assert decl.doc is not None and decl.doc.text == "/** Doc. */"
        with_package = parse_text("A.java", "@Deprecated\npackage p;\nclass A {\n}\n")
        assert with_package.ok and with_package.ast.types[0].annotations == []

    def test_wildcard_is_only_a_type_argument(self):
        assert parse_text("A.java", "class A { java.util.List<? super Integer> xs; }").ok
        out = parse_text("A.java", "class A { private ? x; }")
        assert not out.ok
        assert out.failure.message == "expected type, found '?'"

    @pytest.mark.parametrize("ref, message", [
        ("int::x", "unexpected type keyword 'int' in expression"),
        ("Foo[]::+", "expected identifier, found '+'"),
        ("a.b[] + 1", "unexpected type 'a.b' in expression"),
        ("f()[]::new", "unexpected token ']' in expression"),
        ("f().class", "expected identifier, found 'class'"),
    ])
    def test_malformed_method_reference_is_a_parse_failure(self, ref, message):
        out = parse_text("A.java", f"class A {{ Object f = {ref}; }}")
        assert not out.ok
        assert out.failure.message == message

    @pytest.mark.parametrize("text, at, message", [
        ("class A { void f() { y = 1 + int; } }", "int", "unexpected type keyword 'int' in expression"),
        ("class A { void f() { List<int> m; } }", "int", "unexpected type keyword 'int' in expression"),
        ("class A { void f() { y = void; } }", "void", "unexpected type keyword 'void' in expression"),
        ("class A { Object f = int[][] + 1; }", "int[][]", "unexpected type keyword 'int' in expression"),
        ("class A { Object f = a.b[] + 1; }", "a.b[]", "unexpected type 'a.b' in expression"),
    ])
    def test_a_type_in_an_expression_fails_at_the_type(self, text, at, message):
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == message
        start = text.rindex(at) + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(at))

    @pytest.mark.parametrize("text", ["class A { <", "class A { void m("])
    def test_end_of_file_inside_a_list_is_a_parse_failure(self, text):
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == "unexpected end of file"

    @pytest.mark.parametrize("text, span", [
        ("class", (1, 1, 1, 6)),
        ("class A {\n  int", (2, 3, 2, 6)),
        ("class A { int a,", (1, 16, 1, 17)),
        ("class A { void m(int", (1, 18, 1, 21)),
        ("class A { void m() { try (Reader", (1, 27, 1, 33)),
    ])
    def test_end_of_file_where_a_name_is_due_points_at_the_last_token(self, text, span):
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == "expected identifier, found 'end of file'"
        assert out.failure.first_error_span.as_tuple() == span

    @pytest.mark.parametrize("ref", [
        "Foo::bar.x",
        "this::m.x",
        "Foo::new[0]",
        "Foo::bar++",
        "String::valueOf.length()",
        "Foo[]::new.x",
        "int[]::clone.x",
        "java.lang.String[]::new.x",
    ])
    def test_method_reference_takes_no_selector(self, ref):
        out = parse_text("A.java", f"class A {{ Object f = {ref}; }}")
        assert not out.ok

    @pytest.mark.parametrize("expr", ["this::run", "f(A::g, B::new)", "java.lang.String[]::new", "(Foo::bar).x"])
    def test_method_reference_operand_still_parses(self, expr):
        out = parse_text("A.java", f"class A {{ Object f = {expr}; }}")
        assert out.ok, out.failure

    def test_class_extends_one_type(self):
        assert parse_text("A.java", "interface I extends A, B {}").ok
        out = parse_text("A.java", "class A extends B, C {}")
        assert not out.ok
        assert out.failure.message == "expected '{', found ','"

    @pytest.mark.parametrize("text, word, span", [
        ("class A { public public int x; }", "public", (1, 18, 1, 24)),
        ("class A { public static public void m() {} }", "public", (1, 25, 1, 31)),
        ("class A { @X final @Y final int x; }", "final", (1, 23, 1, 28)),
        ("class A { void m(final final int x) {} }", "final", (1, 24, 1, 29)),
        ("class A { void m() { final final int x = 1; } }", "final", (1, 28, 1, 33)),
        ("final final class A {}", "final", (1, 7, 1, 12)),
        ("class A { void m() { for (final final int x : xs) {} } }", "final", (1, 33, 1, 38)),
        ("class A { void m() { f((final final int x) -> {}); } }", "final", (1, 31, 1, 36)),
    ], ids=["field", "method", "annotated-field", "parameter", "local", "class", "for-each", "lambda"])
    def test_repeated_modifier_fails_at_its_second_occurrence(self, text, word, span):
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == f"repeated modifier {word!r}"
        assert out.failure.first_error_span.as_tuple() == span

    def test_each_modifier_once_still_parses(self):
        text = (
            "public final class A { private static final int X = 1;"
            " public static synchronized void m(final @N int x) { final int y = x;"
            " try (final R r = o) {} catch (final E e) {} } }"
        )
        out = parse_text("A.java", text)
        assert out.ok, out.failure

    def test_deep_nesting_is_a_parse_failure(self):
        text = "class A {\n    int f() {\n        return " + "(" * 2000 + "1" + ")" * 2000 + ";\n    }\n}\n"
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == "nesting too deep"
        assert out.failure.first_error_span.start_line == 3

    def test_hundred_nested_parentheses_parse(self):
        text = "class A {\n    int f() {\n        return " + "(" * 100 + "1" + ")" * 100 + ";\n    }\n}\n"
        out = parse_text("A.java", text)
        assert out.ok, out.failure
        parens = [node for node in n.walk(out.ast) if isinstance(node, n.Paren)]
        assert len(parens) == 100

    def test_nesting_failure_does_not_depend_on_the_caller(self):
        text = "class A {\n    int f() {\n        return " + "(" * 2000 + "1" + ")" * 2000 + ";\n    }\n}\n"

        def failure():
            out = parse_text("A.java", text)
            return out.failure.message, out.failure.first_error_span.as_tuple()

        def from_depth(k):
            return failure() if k == 0 else from_depth(k - 1)

        on_thread = []
        worker = threading.Thread(target=lambda: on_thread.append(failure()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert failure() == from_depth(200) == on_thread[0]
        assert failure()[0] == "nesting too deep"

    @pytest.mark.parametrize("levels, parses", [(98, True), (115, False)])
    def test_nested_lambda_outcome_does_not_depend_on_the_caller(self, levels, parses):
        """A lambda with an expression body counts every stack frame it takes."""
        text = "class A {\n    Object f() {\n        return " + "x -> " * levels + "1;\n    }\n}\n"

        def outcome():
            out = parse_text("A.java", text)
            return out.ok, out.failure and (out.failure.message, out.failure.first_error_span.as_tuple())

        def from_depth(k):
            return outcome() if k == 0 else from_depth(k - 1)

        ok, failure = outcome()
        assert from_depth(200) == (ok, failure)
        assert ok is parses and (parses or failure[0] == "nesting too deep")

    @pytest.mark.parametrize("branches", [300, 2000])
    def test_long_else_if_chain_parses(self, branches):
        """An else-if chain is read in a loop, so its length adds no nesting."""
        chain = " else ".join(f"if (x == {i}) {{ y = {i}; }}" for i in range(branches))
        out = parse_text("A.java", f"class A {{\n    void f() {{\n        {chain} else {{ y = -1; }}\n    }}\n}}\n")
        assert out.ok, out.failure
        [stmt] = out.ast.types[0].methods[0].body.statements
        end = stmt.span[2:]
        for i in range(branches):
            assert isinstance(stmt, n.IfStmt) and stmt.cond.right.lexeme == str(i) and stmt.span[2:] == end
            stmt = stmt.orelse
        assert isinstance(stmt, n.Block)

    @pytest.mark.parametrize("arms", [300, 2000])
    def test_long_conditional_chain_parses(self, arms):
        """A ? : chain is read in a loop, so its length adds no nesting."""
        chain = " : ".join(f"x == {i} ? {i}" for i in range(arms))
        out = parse_text("A.java", f"class A {{\n    int f() {{\n        return {chain} : -1;\n    }}\n}}\n")
        assert out.ok, out.failure
        [ret] = out.ast.types[0].methods[0].body.statements
        expr, end = ret.value, ret.value.span[2:]
        for i in range(arms):
            assert isinstance(expr, n.Ternary) and expr.if_true.lexeme == str(i) and expr.span[2:] == end
            expr = expr.if_false
        assert isinstance(expr, n.Unary)

    @pytest.mark.parametrize("expr, literal, message", [
        ("09", "09", "digit 8 or 9 in octal literal '09'"),
        ("018L", "018L", "digit 8 or 9 in octal literal '018L'"),
        ("''", "''", "empty char literal"),
        ("2147483649", "2147483649", "int literal '2147483649' out of range"),
        ("2147483648", "2147483648", "int literal '2147483648' out of range"),
        ("x - 2147483648", "2147483648", "int literal '2147483648' out of range"),
        ("-(2147483648)", "2147483648", "int literal '2147483648' out of range"),
        ("99999999999", "99999999999", "int literal '99999999999' out of range"),
        ("0x100000000", "0x100000000", "int literal '0x100000000' out of range"),
        ("040000000000", "040000000000", "int literal '040000000000' out of range"),
        ("9223372036854775808L", "9223372036854775808L", "long literal '9223372036854775808L' out of range"),
        ("0x1_0000_0000_0000_0000L", "0x1_0000_0000_0000_0000L", "long literal '0x1_0000_0000_0000_0000L' out of range"),
        ("0x", "0x", "integer literal '0x' has no digits"),
        ("'ab'", "'ab'", "char literal 'ab' holds more than one character"),
        ("'\\400'", "'\\400'", "char literal '\\400' holds more than one character"),
        ("0b1f", "0b1f", "binary literal '0b1f' has a floating-point suffix"),
        ("0B1d", "0B1d", "binary literal '0B1d' has a floating-point suffix"),
        ("1_", "1_", "underscore not between digits in literal '1_'"),
        ("0x_1", "0x_1", "underscore not between digits in literal '0x_1'"),
        ("0_", "0_", "underscore not between digits in literal '0_'"),
        ("1_.5", "1_.5", "underscore not between digits in literal '1_.5'"),
        ("0x1_L", "0x1_L", "underscore not between digits in literal '0x1_L'"),
        ("'\\q'", "'\\q'", "invalid escape character 'q' after a backslash"),
        ("'\\8'", "'\\8'", "invalid escape character '8' after a backslash"),
        ('"a\\qb"', '"a\\qb"', "invalid escape character 'q' after a backslash"),
        ('"\\\\\\q"', '"\\\\\\q"', "invalid escape character 'q' after a backslash"),
        ('"\\u00g1"', '"\\u00g1"', "invalid escape character 'u' after a backslash"),
        ("'\\u000a'", "'\\u000a'", "line terminator in literal '\\u000a'"),
        ('"a\\u000ab"', '"a\\u000ab"', 'line terminator in literal "a\\u000ab"'),
        ('"\\u005cq"', '"\\u005cq"', "invalid escape character 'q' after a backslash"),
        ("'\\u0027'", "'\\u0027'", "literal '\\u0027' does not end at its closing quote"),
        ('"\\u005c"', '"\\u005c"', 'literal "\\u005c" does not end at its closing quote'),
        ("'\U0001F600'", "'\U0001F600'", "char literal '\U0001F600' needs two UTF-16 code units"),
    ])
    def test_malformed_literal_is_a_located_failure(self, expr, literal, message):
        text = f"class A {{ Object f() {{ return {expr}; }} }}"
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == message
        start = text.index(literal, text.index("return")) + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(literal))

    @pytest.mark.parametrize("literal, message", [
        ('"a\\\nb"', "invalid escape character '\\n' after a backslash"),
        ("'\\\n'", "invalid escape character '\\n' after a backslash"),
        ('"a\\\r\nb"', "unterminated string literal"),
    ])
    def test_no_literal_holds_a_line_break(self, literal, message):
        """copy-paste keys token windows by their newline-joined lexemes, which
        needs every token of a parsed file to be free of line breaks."""
        out = parse_text("A.java", f"class A {{ Object f() {{ return {literal}; }} }}")
        assert not out.ok
        assert out.failure.message == message

    @pytest.mark.parametrize("expr", [
        "09.5", "09e1", "09f", "09D", "0", "00", "017", "0L", "'a'", "'\\''",
        "-2147483648", "- -2147483648", "(int) -2147483648", "2147483647", "0xFFFFFFFF", "037777777777",
        "0b11111111111111111111111111111111", "-9223372036854775808L", "0xFFFFFFFFFFFFFFFFL", "99999999999L", "1e400",
        "'\\n'", "'\\377'", "'\\0'", "'\\u0041'", "'A'", "0_7", "1_000", "1__000", "0x1_F", "0b1_0", "1.5f", "1_0.5_0",
        "'\\s'", "'\\b'", "'\\uuD83D'", "'\u00e9'", '"\\u0041"', '"\\\\q"', r'"\400 \t\b\n\f\r\s\"\'\\"', '"\U0001F600"',
        '"\\\\u0041"', "'\\u005c\\u005c'", '"\\\\\\u0041"',
    ])
    def test_valid_literal_parses(self, expr):
        out = parse_text("A.java", f"class A {{ Object f() {{ return {expr}; }} }}")
        assert out.ok, out.failure

    @pytest.mark.parametrize("text, literal, message", [
        ("@A(09) class X {}", "09", "digit 8 or 9 in octal literal '09'"),
        ("@A(x = 2147483648) class X {}", "2147483648", "int literal '2147483648' out of range"),
        ("@A(x = 1 - 2147483648) class X {}", "2147483648", "int literal '2147483648' out of range"),
        ("@A({'a', 'ab'}) class X {}", "'ab'", "char literal 'ab' holds more than one character"),
        ("class X { void f() { @A(1_) int y = 0; } }", "1_", "underscore not between digits in literal '1_'"),
        ("class X { void f(@A(0b1f) int y) {} }", "0b1f", "binary literal '0b1f' has a floating-point suffix"),
        ('@A("\\q") class X {}', '"\\q"', "invalid escape character 'q' after a backslash"),
    ])
    def test_annotation_argument_literal_is_checked(self, text, literal, message):
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == message
        start = text.index(literal) + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(literal))

    @pytest.mark.parametrize("args", [
        "-2147483648", "0x7fffffff", "x = {1, -2147483648}", "(int) -2147483648", "'\\''",
        "x = {1, 2}, y = @B", "{}", "{1,}", "{,}", "", "@B(@C({1, {2, @D}}))", "value = Foo.class, n = a ? 1 : 2",
    ])
    def test_valid_annotation_argument_parses(self, args):
        out = parse_text("A.java", f"@A({args}) class X {{}}")
        assert out.ok, out.failure

    @pytest.mark.parametrize("expr", ["(x) - 2147483648", "1 +", "foo bar"])
    def test_annotation_argument_fails_as_the_same_expression_returned(self, expr):
        # at the same token of the expression; ')' ends it where ';' does in the return
        offsets = []
        for text in (f"class X {{ int f() {{ return {expr}; }} }}", f"@A({expr}) class X {{}}"):
            out = parse_text("A.java", text)
            assert not out.ok
            offsets.append(out.failure.first_error_span.start_col - text.index(expr))
        assert offsets[0] == offsets[1]

    @pytest.mark.parametrize("args, message", [
        ("x = 1, y", "expected '=', found ')'"),
        ("{1 2}", "expected '}', found '2'"),
        ("{1,,}", "unexpected token ',' in expression"),
        ("{", "unexpected token ')' in expression"),
    ])
    def test_malformed_element_values_fail(self, args, message):
        out = parse_text("A.java", f"@A({args}) class X {{}}")
        assert not out.ok
        assert out.failure.message == message

    @pytest.mark.parametrize("args", ["{" * 3000 + "}" * 3000, "@B(" * 3000 + ")" * 3000])
    def test_deeply_nested_element_values_are_a_parse_failure(self, args):
        out = parse_text("A.java", f"@A({args}) class X {{}}")
        assert not out.ok
        assert out.failure.message == "nesting too deep"

    @pytest.mark.parametrize("literal, value, suffix", [
        ("0x1p3", 8.0, None), ("0x1.8p1", 3.0, None), ("0x1p3f", 8.0, "f"), ("0X.8P-1D", 0.25, "D"),
        ("0x1_0p1_0", 16384.0, None), ("0x1.p1", 2.0, None), ("0x1p99999", float("inf"), None),
    ])
    def test_hex_floating_point_literal_tree(self, literal, value, suffix):
        text = f"class A {{ double d = {literal}; }}"
        out = parse_text("A.java", text)
        assert out.ok, out.failure
        init = out.ast.types[0].members[0].declarators[0].init
        start = text.index(literal) + 1
        assert (type(init), init.kind, init.lexeme, init.radix, init.suffix, init.span.as_tuple()) == (
            n.Literal, TokenKind.NUMBER, literal, 16, suffix, (1, start, 1, start + len(literal)))
        assert numeric_value(init.lexeme, init.radix, init.suffix) == value

    def test_hex_int_ending_in_f_is_no_float(self):
        init = parse_text("A.java", "class A { int i = 0x1f; }").ast.types[0].members[0].declarators[0].init
        assert (init.lexeme, init.radix, init.suffix) == ("0x1f", 16, None)
        assert numeric_value(init.lexeme, init.radix, init.suffix) == 31

    @pytest.mark.parametrize("expr, literal, message", [
        ("0xp3", "0xp3", "floating-point literal '0xp3' has no digits"),
        ("0x.p1", "0x.p1", "floating-point literal '0x.p1' has no digits"),
        ("0x1_p3", "0x1_p3", "underscore not between digits in literal '0x1_p3'"),
        ("0x1p3_f", "0x1p3_f", "underscore not between digits in literal '0x1p3_f'"),
        ("0x1.8", ".8", "expected ';', found '.8'"),
        ("0x1p3L", "L", "expected ';', found 'L'"),
    ])
    def test_malformed_hex_floating_point_literal(self, expr, literal, message):
        text = f"class A {{ double d = {expr}; }}"
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == message
        start = text.index(literal, text.index("=")) + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(literal))

    @pytest.mark.parametrize("text, at", [
        ("class A { void x, y; }", "void"),
        ("class A { static void x = 1; }", "void"),
        ("interface I { void X = 1; }", "void"),
    ])
    def test_a_field_cannot_be_void(self, text, at):
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == "a field cannot have type 'void'"
        start = text.index(at) + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(at))

    @pytest.mark.parametrize("text, at", [
        ("class A { java.util.Map<String, int> m; }", "int>"),
        ("class A { List<? extends long> m; }", "long>"),
        ("class A { Object o = new ArrayList<boolean>(); }", "boolean>"),
        ("class A { List<List<char>> m() { return null; } }", "char>"),
    ])
    def test_a_type_argument_cannot_be_primitive(self, text, at):
        out = parse_text("A.java", text)
        assert not out.ok
        name = at.rstrip(">")
        assert out.failure.message == f"type argument needs a reference type, found {name!r}"
        start = text.index(at) + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(name))

    @pytest.mark.parametrize("text", [
        "class A { void m() { List<int> x; } }",
        "class A { void m() { Object o = (List<double>) x; } }",
    ])
    def test_a_primitive_type_argument_fails_in_a_body_too(self, text):
        assert not parse_text("A.java", text).ok

    @pytest.mark.parametrize("text", [
        "class A { List<int[]> a; Map<String, ? super int[]> b; Map<String, int[]> m() { return null; } }",
        "class A { void m() {} Class<?> c = void.class; }",
        "class A { boolean g(int x) { return (x < int.class.getModifiers()); } }",
    ])
    def test_void_methods_and_primitive_arrays_as_type_arguments_parse(self, text):
        out = parse_text("A.java", text)
        assert out.ok, out.failure

    @pytest.mark.parametrize("type_name", ["int", "boolean", "double"])
    def test_instanceof_takes_a_reference_type(self, type_name):
        text = f"class A {{ boolean f() {{ return a instanceof {type_name}; }} }}"
        out = parse_text("A.java", text)
        assert not out.ok
        assert out.failure.message == f"instanceof needs a reference type, found {type_name!r}"
        start = text.index(type_name + ";") + 1
        assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(type_name))

    @pytest.mark.parametrize("type_name", ["int[]", "int[][]", "Integer", "java.util.List<String>"])
    def test_instanceof_reference_types_parse(self, type_name):
        out = parse_text("A.java", f"class A {{ boolean f() {{ return a instanceof {type_name}; }} }}")
        assert out.ok, out.failure

    def test_walk_survives_deep_expressions(self):
        terms = 3000
        text = "class A {\n    int f(int a) {\n        return " + "+".join(["a"] * terms) + ";\n    }\n}\n"
        out = parse_text("A.java", text)
        assert out.ok
        names = [node for node in n.walk(out.ast) if isinstance(node, n.Name)]
        assert len(names) == terms

    def test_switch_arms_preserve_order(self):
        text = """\
class A {
    void m(int k) {
        switch (k) {
            case 2:
                break;
            case 1:
                break;
            default:
                break;
        }
    }
}
"""
        out = parse_text("A.java", text)
        assert out.ok
        switch = next(s for s in n.walk(out.ast) if isinstance(s, n.SwitchStmt))
        labels = []
        for arm in switch.arms:
            for lbl in arm.labels:
                labels.append(None if lbl is None else lbl.lexeme)
        assert labels == ["2", "1", None]

    def test_generics_shift_split(self):
        out = parse_text("G.java", "class G { java.util.Map<String, java.util.List<Integer>> cache; }")
        assert out.ok, out.failure
        field = out.ast.types[0].fields[0]
        assert field.type.simple_name == "Map"
        assert len(field.type.type_args) == 2

    def test_anonymous_class_and_lambda(self):
        text = """\
class A {
    Runnable r1 = new Runnable() {
        public void run() {
        }
    };
    Runnable r2 = () -> {
    };
}
"""
        out = parse_text("A.java", text)
        assert out.ok, out.failure

    def test_cast_vs_paren(self):
        out = parse_text("C.java", "class C { void m(Object o) { int a = (int) f(); int b = (a) + 1; String s = (String) o; } }")
        assert out.ok, out.failure
        casts = [e for e in n.walk(out.ast) if isinstance(e, n.Cast)]
        assert len(casts) == 2

    def test_enum_with_constructor_args(self):
        text = """\
enum Planet {
    EARTH(1), MARS(2);

    private final int order;

    Planet(int order) {
        this.order = order;
    }
}
"""
        out = parse_text("P.java", text)
        assert out.ok, out.failure
        decl = out.ast.types[0]
        assert [c.name for c in decl.enum_constants] == ["EARTH", "MARS"]
        assert len(decl.constructors) == 1

    def test_line_index_invariants(self):
        src = _src(SAMPLE)
        assert src.line_index[0] == 0
        assert all(a < b for a, b in zip(src.line_index, src.line_index[1:]))


DECLARATION_OR_EXPRESSION = [
    ("Map<K, List<V>> m = new HashMap<>();", n.LocalVarDecl, None),
    ("List<? extends Number> xs = null;", n.LocalVarDecl, None),
    ("int[] a = new int[3];", n.LocalVarDecl, None),
    ("var x = 1;", n.LocalVarDecl, None),
    ("final @Deprecated int y = 1;", n.LocalVarDecl, None),
    ('String s = a < b ? "x" : "y";', n.LocalVarDecl, None),
    ("a[i] = 1;", n.ExprStmt, None),
    ("foo.bar = 1;", n.ExprStmt, None),
    ("x.y.z();", n.ExprStmt, None),
    ("i++;", n.ExprStmt, None),
    ("n = n >> 1;", n.ExprStmt, None),
    ("i < n >> 1;", n.ExprStmt, None),  # a '>>' split while trying a type is undone
    ("for (final var x : xs) {}", n.ForEachStmt, None),
    ("for (Map.Entry<K, List<V>> e : m.entrySet()) {}", n.ForEachStmt, None),
    ("for (int i = c ? 1 : 2; i < n; i++) {}", n.ForStmt, [n.LocalVarDecl]),
    ("for (i = 0, j = n >> 1; i < j; i++) {}", n.ForStmt, [n.ExprStmt, n.ExprStmt]),
    ("for (;;) {}", n.ForStmt, []),
    ("abstract class L {}", n.LocalTypeDecl, None),
    ("final @Deprecated class L {}", n.LocalTypeDecl, None),
    ("@Deprecated class L {}", n.LocalTypeDecl, None),
    ('@SuppressWarnings("x") interface L {}', n.LocalTypeDecl, None),
    ('@SuppressWarnings("x") int y = 1;', n.LocalVarDecl, None),
]


@pytest.mark.parametrize("stmt, kind, init", DECLARATION_OR_EXPRESSION)
def test_declaration_or_expression(stmt, kind, init):
    out = parse_text("A.java", f"class A {{\n    void m() {{\n        {stmt}\n    }}\n}}\n")
    assert out.ok, out.failure
    [parsed] = out.ast.types[0].methods[0].body.statements
    assert type(parsed) is kind
    if init is not None:
        assert [type(s) for s in parsed.init] == init


def shape(e: n.Expr) -> str:
    """An expression's node kinds, outermost first, with operators, cast and
    literal types and lambda parameters: '(a) - b' is 'Binary-(Paren(Name), Name)'."""

    def typename(t: n.TypeRef) -> str:
        return t.name + "[]" * t.array_dims

    label = type(e).__name__
    if isinstance(e, (n.Binary, n.Unary)):
        label += e.op
    elif isinstance(e, (n.Cast, n.ClassLiteral)):
        label += f"<{typename(e.type)}>"
    elif isinstance(e, n.MethodRef) and isinstance(e.receiver, n.TypeRef):
        label += f"<{typename(e.receiver)}>::{e.name}"
    elif isinstance(e, n.Lambda):
        params = (" ".join([*p.modifiers, typename(p.type), p.name]).strip() for p in e.params)
        label += f"[{', '.join(params)}]"
    kids = [shape(v) for f in dataclasses.fields(e) if isinstance(v := getattr(e, f.name), n.Expr)]
    return label + (f"({', '.join(kids)})" if kids else "")


# '(' opens a cast, a lambda or a parenthesized expression; the parser decides
# by trying the cast head and then the lambda head.
PARSE_DECISIONS = [
    ("(a < b) ? c : d", "Ternary(Paren(Binary<(Name, Name)), Name, Name)"),
    ("(a < b) && ok", "Binary&&(Paren(Binary<(Name, Name)), Name)"),
    ("(i < n) + 1", "Binary+(Paren(Binary<(Name, Name)), Literal)"),
    ("(a[i]) - b", "Binary-(Paren(ArrayAccess(Name, Name)), Name)"),
    ("(int x) -> x", "Lambda[int x](Name)"),
    ("(int[] a) -> a", "Lambda[int[] a](Name)"),
    ("(List<String> l) -> l", "Lambda[List l](Name)"),
    ("(String... s) -> s", "Lambda[String s](Name)"),
    ("(a) - b", "Binary-(Paren(Name), Name)"),
    ("(int) -b", "Cast<int>(Unary-(Name))"),
    ('(String) "x"', "Cast<String>(Literal)"),
    ("(T) new X()", "Cast<T>(NewObject)"),
    ("(List<String>) -x", "Cast<List>(Unary-(Name))"),
    ("((a)) + b", "Binary+(Paren(Paren(Name)), Name)"),
    ("(i < n >> 1)", "Paren(Binary<(Name, Binary>>(Name, Literal)))"),
    ("(x) -> x", "Lambda[x](Name)"),
    ("() -> 1", "Lambda[](Literal)"),
    ("(a, b) -> a", "Lambda[a, b](Name)"),
    ("(final int x) -> x", "Lambda[final int x](Name)"),
    ("Foo[]::new", "MethodRef<Foo[]>::new"),
    ("int[]::clone", "MethodRef<int[]>::clone"),
    ("int[][]::new", "MethodRef<int[][]>::new"),
    ("int[].class", "ClassLiteral<int[]>"),
    ("java.lang.String[]::new", "MethodRef<java.lang.String[]>::new"),
    ("java.util.List[][].class", "ClassLiteral<java.util.List[][]>"),
    ("java.util.List[].class.getName()", "MethodCall(ClassLiteral<java.util.List[]>)"),
    ("java.lang.String::new", "MethodRef(FieldAccess(FieldAccess(Name)))"),
    ("java.lang.String.class", "ClassLiteral<java.lang.String>"),
    # A conditional chain nests to the right; its last false arm is read as an expression.
    ("a ? b : c ? d : e", "Ternary(Name, Name, Ternary(Name, Name, Name))"),
    ("a ? b = c : d", "Ternary(Name, Assign(Name, Name), Name)"),
    ("a ? b : c = d", "Ternary(Name, Name, Assign(Name, Name))"),
    ("a ? b : c ? d : e = f", "Ternary(Name, Name, Ternary(Name, Name, Assign(Name, Name)))"),
    ("a = b ? c : d = e", "Assign(Name, Ternary(Name, Name, Assign(Name, Name)))"),
    ("a ? b : x -> c ? d : e", "Ternary(Name, Name, Lambda[x](Ternary(Name, Name, Name)))"),
    ("a ? b : c ? x -> d : e", "Ternary(Name, Name, Ternary(Name, Lambda[x](Name), Name))"),
]


@pytest.mark.parametrize("expr, expected", PARSE_DECISIONS)
def test_parse_decision(expr, expected):
    out = parse_text("A.java", f"class A {{\n    Object m() {{\n        return {expr};\n    }}\n}}\n")
    assert out.ok, out.failure
    [ret] = out.ast.types[0].methods[0].body.statements
    assert shape(ret.value) == expected


def _statement(decl: n.TypeDecl) -> n.Stmt:
    return decl.methods[0].body.statements[0]


# Each separated list of the grammar: a source with the list at ITEMS, two
# items and their separator, the fewest items the grammar takes, and where
# the parsed items land.
LIST_SITES = {
    "call arguments": ("class A { void m() { f(ITEMS); } }", ("a", "b"), ", ", 0, lambda t: _statement(t).expr.args),
    "method parameters": ("class A { void m(ITEMS) {} }", ("int a", "int b"), ", ", 0, lambda t: t.methods[0].params),
    "throws": ("class A { void m() throws ITEMS {} }", ("A", "B"), ", ", 1, lambda t: t.methods[0].throws),
    "type parameters": ("class A { <ITEMS> void m() {} }", ("A", "B extends C & D"), ", ", 1, lambda t: t.methods[0].type_params),
    "type parameter bounds": ("class A<T extends ITEMS> {}", ("C", "D"), " & ", 1, lambda t: t.type_params[0].bounds),
    "type arguments": ("class A { Map<ITEMS> f; }", ("K", "V"), ", ", 1, lambda t: t.fields[0].type.type_args),
    "catch types": ("class A { void m() { try {} catch (ITEMS e) {} } }", ("A", "B"), " | ", 1, lambda t: _statement(t).catches[0].types),
    "for init": ("class A { void m() { for (ITEMS; ; ) {} } }", ("i = 0", "j = 1"), ", ", 0, lambda t: _statement(t).init),
    "for update": ("class A { void m() { for (; ; ITEMS) {} } }", ("i++", "j++"), ", ", 0, lambda t: _statement(t).update),
    "interface extends": ("interface I extends ITEMS {}", ("A", "B"), ", ", 1, lambda t: t.extends),
    "class implements": ("class A implements ITEMS {}", ("A", "B"), ", ", 1, lambda t: t.implements),
    "field declarators": ("class A { int ITEMS; }", ("a", "b = 1"), ", ", 1, lambda t: t.fields[0].declarators),
    "local declarators": ("class A { void m() { int ITEMS; } }", ("a", "b = 1"), ", ", 1, lambda t: _statement(t).declarators),
    "lambda parameters": ("class A { Object f = (ITEMS) -> a; }", ("a", "b"), ", ", 0, lambda t: t.fields[0].declarators[0].init.params),
    "typed lambda parameters": ("class A { Object f = (ITEMS) -> a; }", ("int a", "final int b"), ", ", 1, lambda t: t.fields[0].declarators[0].init.params),
    "enum constant arguments": ("enum E { X(ITEMS) }", ("1", "2"), ", ", 0, lambda t: t.enum_constants[0].args),
    "array initializer": ("class A { int[] f = {ITEMS}; }", ("1", "{2}"), ", ", 0, lambda t: t.fields[0].declarators[0].init.values),
    "enum constants": ("enum E { ITEMS }", ("A", "@N B(1) {}"), ", ", 0, lambda t: t.enum_constants),
    "resources": ("class A { void m() { try (ITEMS) {} } }", ("R a = f()", "final R b = g()"), "; ", 1, lambda t: _statement(t).resources),
}
# The lists that may end in one more separator (JLS 8.9.1, 10.6, 14.20.3).
TRAILING_SEPARATOR_SITES = {"array initializer", "enum constants", "resources"}


@pytest.mark.parametrize("site, count", [(site, k) for site, spec in LIST_SITES.items() for k in range(spec[3], 3)])
def test_separated_list_site(site, count):
    template, items, sep, _, items_of = LIST_SITES[site]
    out = parse_text("A.java", template.replace("ITEMS", sep.join(items[:count])))
    assert out.ok, out.failure
    assert len(items_of(out.ast.types[0])) == count


@pytest.mark.parametrize("site, count", [(site, k) for site, spec in LIST_SITES.items() for k in range(max(spec[3], 1), 3)])
def test_only_some_lists_take_a_trailing_separator(site, count):
    template, items, sep, _, items_of = LIST_SITES[site]
    out = parse_text("A.java", template.replace("ITEMS", sep.join(items[:count]) + sep.strip()))
    assert out.ok == (site in TRAILING_SEPARATOR_SITES), out.failure
    if out.ok:
        assert len(items_of(out.ast.types[0])) == count


# Brace lists and whether Java takes them.  An annotation's element value and
# an array initializer read each one alike (JLS 9.7.1, 10.6).
BRACE_LISTS = [
    ("{}", True), ("{,}", True), ("{1}", True), ("{1,}", True), ("{1, 2}", True), ("{1, 2,}", True),
    ("{{1}, {2,}, {}}", True), ("{{,}, {,},}", True),
    ("{1 2}", False), ("{,,}", False), ("{1,,}", False), ("{, 1}", False), ("{1; 2}", False), ("{{1 2}}", False),
]


@pytest.mark.parametrize("items, ok", BRACE_LISTS)
def test_element_value_and_array_initializer_agree(items, ok):
    annotation = parse_text("A.java", f"@A({items}) class X {{}}")
    initializer = parse_text("A.java", f"class X {{ int[] a = {items}; }}")
    assert annotation.ok == initializer.ok == ok
    if not ok:
        assert annotation.failure.message == initializer.failure.message


@pytest.mark.parametrize("text, message", [
    ("enum E { , }", None),
    ("enum E { , ; }", None),
    ("enum E { ; }", None),
    ("enum E { A, ; void m() {} }", None),
    ("enum E { A,, }", "expected identifier, found ','"),
    ("enum E { void m() {} }", "expected identifier, found 'void'"),
    ("enum E { A int x; }", "expected ';', found 'int'"),
    ("class A { void m() { try (R a = f(); R b = g();) {} } }", None),
    ("class A { void m() { try (R a = f() R b = g()) {} } }", "expected ')', found 'R'"),
    ("class A { void m() { try () {} catch (E e) {} } }", "expected type, found ')'"),
    ("class A { void m() { try (;) {} catch (E e) {} } }", "expected type, found ';'"),
], ids=[
    "enum-comma", "enum-comma-semicolon", "enum-semicolon", "enum-trailing-comma-then-body", "enum-two-commas",
    "enum-body-without-semicolon", "enum-member-without-semicolon", "try-trailing-semicolon", "try-no-separator",
    "try-empty", "try-semicolon-only",
])
def test_enum_constant_and_resource_lists(text, message):
    out = parse_text("A.java", text)
    assert out.ok == (message is None), out.failure
    if message is not None:
        assert out.failure.message == message


# Forms JLS 14.20.3 (one initialized variable per resource), 15.10.1 (array
# creation) and 8.4.1 (the variable arity parameter comes last) reject.  Each
# fails at the one token that ``at`` starts with.
@pytest.mark.parametrize("text, at, message", [
    ("class A { void m() { try (R a) {} } }", ") {}", "try resource needs an initializer"),
    ("class A { void m() { try (R a, b = g()) {} } }", ", b", "try resource needs an initializer"),
    ("class A { void m() { try (R a = f(), b = g()) {} } }", ", b", "try resource declares more than one variable"),
    ("class A { Object o = new int[]; }", ";", "array creation needs a dimension expression or an initializer"),
    ("class A { Object o = new String[][]; }", ";", "array creation needs a dimension expression or an initializer"),
    ("class A { Object o = new int[2]{1, 2}; }", "{1", "array creation with dimension expressions takes no initializer"),
    ("class A { Object o = new int[][2]; }", "2]", "array dimension expression after '[]'"),
    ("class A { void m(int... a, int b) {} }", "...", "varargs parameter must be the last parameter"),
    ("class A { void m(String... a[], int b) {} }", "...", "varargs parameter must be the last parameter"),
    ("class A { Object o = (int... a, int b) -> a; }", "...", "varargs parameter must be the last parameter"),
], ids=[
    "resource-without-initializer", "resource-first-of-two-without-initializer", "resource-with-two-variables",
    "array-without-dims-or-initializer", "array-of-arrays-without-dims-or-initializer", "array-dims-and-initializer",
    "array-dim-after-empty-pair", "varargs-not-last", "varargs-with-dims-not-last", "lambda-varargs-not-last",
])
def test_jls_rejected_form_is_a_located_failure(text, at, message):
    out = parse_text("A.java", text)
    assert not out.ok
    assert out.failure.message == message
    assert text.count(at) == 1
    start = text.index(at) + 1
    assert out.failure.first_error_span.as_tuple()[:2] == (1, start)


@pytest.mark.parametrize("text", [
    "class A { void m() { try (final R a = f()) {} } }",
    "class A { void m() { try (R a = f(); R b = g()) {} } }",
    "class A { Object o = new int[3]; }",
    "class A { Object o = new int[3][]; }",
    "class A { Object o = new int[2][3][]; }",
    "class A { Object o = new int[]{1, 2}; }",
    "class A { Object o = new int[][]{{1}, {}}; }",
    "class A { void m(int b, String... a) {} }",
    "class A { Object o = (int a, int... b) -> a; }",
])
def test_jls_accepted_form_parses(text):
    out = parse_text("A.java", text)
    assert out.ok, out.failure


# The target of an assignment and the operand of '++' and '--' must be a
# variable (JLS 15.26, 15.14.2, 15.15.1).  Each statement fails at the
# expression ``target``, the one that is none.
@pytest.mark.parametrize("stmt, op, target", [
    ("1 = x;", "=", "1"),
    ("f() = x;", "=", "f()"),
    ("(1) = 2;", "=", "(1)"),
    ("new A() = x;", "=", "new A()"),
    ("this = null;", "=", "this"),
    ("A.this = null;", "=", "A.this"),
    ("(int) x = 1;", "=", "(int) x"),
    ("x += 1 = 2;", "=", "1"),
    ("1++;", "++", "1"),
    ("f()++;", "++", "f()"),
    ("++1;", "++", "1"),
    ("--f();", "--", "f()"),
    ("++x++;", "++", "x++"),
])
def test_a_target_that_is_no_variable_is_a_located_failure(stmt, op, target):
    text = f"class A {{ void m() {{ {stmt} }} }}"
    out = parse_text("A.java", text)
    assert not out.ok
    assert out.failure.message == f"{op!r} needs a variable"
    start = text.index(target, text.index("{ " + stmt[0])) + 1
    assert out.failure.first_error_span.as_tuple() == (1, start, 1, start + len(target))


@pytest.mark.parametrize("stmt", [
    "(a) = 1;", "((a)) += 1;", "(x)++;", "a[0]++;", "++a[i];", "--this.count;", "this.x = 1;", "super.x = 1;",
    "A.this.x = 1;", "a.b.c = 1;", "x = y = z;", "x = a ? b : (c = 1);", "f(x = 1);", "Runnable r = () -> x = 1;",
    "x = y++ + ++z;",
])
def test_a_variable_target_parses(stmt):
    out = parse_text("A.java", f"class A {{ void m() {{ {stmt} }} }}")
    assert out.ok, out.failure


def test_method_call_trees():
    text = "class A { A() { this(1); } A(int x) { super(x); } void m() { f(x); a.b.f(x, y); } }"
    calls = [s.expr for c in parse_text("A.java", text).ast.types[0].members for s in c.body.statements]

    def span(fragment: str, length: int | None = None) -> tuple[int, int, int, int]:
        """The span of ``length`` characters (all of ``fragment`` by default) from where ``fragment`` starts."""
        start = text.index(fragment) + 1
        return (1, start, 1, start + (len(fragment) if length is None else length))

    assert [(c.receiver, c.name, c.span, c.name_span, len(c.args)) for c in calls] == [
        (None, "this", span("this(1)"), span("this"), 1),
        (None, "super", span("super(x)"), span("super"), 1),
        (None, "f", span("f(x)"), span("f(x)", 1), 1),
        (calls[3].receiver, "f", span("a.b.f(x, y)"), span("f(x, y)", 1), 2),
    ]
    assert isinstance(calls[3].receiver, n.FieldAccess) and calls[3].receiver.span == span("a.b")


STRESS_SAMPLES = {
    "generics_methods": """\
import java.util.*;
class G<K, V extends Comparable<V>> {
    Map<K, List<V>> index = new HashMap<K, List<V>>();
    <T extends Number> T pick(List<? extends T> xs, T fallback) {
        if (xs.isEmpty()) {
            return fallback;
        }
        return xs.get(0);
    }
}
""",
    "arrays": """\
class Arrays2 {
    int[][] grid = new int[3][4];
    int[] flat = new int[]{1, 2, 3};
    String[] names = {"a", "b"};
    void m(String... args) {
        int x[] = new int[5];
        grid[0][1] = x[2] + flat[0];
        int[][] deep = new int[][]{{1}, {2}};
    }
}
""",
    "ternary_nest": """\
class T {
    int pick(int a, int b, int c) {
        return a > b ? (b > c ? b : c) : a > c ? a : c;
    }
}
""",
    "string_escapes": r"""class S {
    String s = "tab\t quote\" backslash\\ unicodeA";
    char c = '\'';
    char n = '\n';
}
""",
    "do_label_continue": """\
class L {
    void m(int n) {
        outer:
        for (int i = 0; i < n; i++) {
            int j = 0;
            do {
                j++;
                if (j > 3) {
                    continue outer;
                }
            } while (j < 10);
        }
    }
}
""",
    "method_refs_lambdas": """\
import java.util.function.*;
class F {
    Runnable r = F::run2;
    Supplier<F> s = F::new;
    Function<int[], Integer> len = a -> a.length;
    BiFunction<Integer, Integer, Integer> add = (x, y) -> x + y;
    Consumer<String> p = (String z) -> System.out.println(z);
    static void run2() {
    }
}
""",
    "casts_instanceof": """\
class C {
    Object o;
    void m() {
        if (o instanceof String) {
            String s = (String) o;
            int n = ((String) o).length();
            double d = (double) n / 2;
            long l = (long) -n;
            byte b = (byte) (n & 0xFF);
        }
    }
}
""",
    "anon_class_args": """\
class A {
    Thread t = new Thread(new Runnable() {
        public void run() {
            int x = 0;
            x += 1;
        }
    }, "worker");
}
""",
    "try_with_multi": """\
import java.io.*;
class R {
    void m(String p) {
        try (FileReader a = new FileReader(p); BufferedReader b = new BufferedReader(a)) {
            b.readLine();
        } catch (IOException | RuntimeException e) {
            e.printStackTrace();
        }
    }
}
""",
    "qualified_and_this": """\
class Q {
    int value;
    Q self() {
        return this;
    }
    void m(Q other) {
        this.value = other.value;
        java.util.List<String> xs = new java.util.ArrayList<String>();
        String cls = Q.class.getName();
        int max = java.lang.Math.max(1, 2);
    }
}
""",
    "enum_constant_bodies": """\
enum Op {
    ADD("+") {
    },
    SUB("-");

    private final String symbol;

    Op(String symbol) {
        this.symbol = symbol;
    }

    String symbol() {
        return symbol;
    }
}
""",
    "assignment_operators": """\
class Ops {
    void m(int a, int b) {
        a <<= 1;
        a >>= 2;
        a >>>= 1;
        a &= b;
        a |= b;
        a ^= b;
        a %= 3 + (b > 0 ? 1 : 2);
        boolean z = a != b && !(a == 0) || b >= -1;
    }
}
""",
    "synchronized_assert": """\
class Sync {
    private final Object lock = new Object();
    void m(int n) {
        assert n > 0 : "must be positive";
        synchronized (lock) {
            n--;
        }
    }
}
""",
}


@pytest.mark.parametrize("name", sorted(STRESS_SAMPLES))
def test_stress_sample_parses_and_round_trips(name):
    text = STRESS_SAMPLES[name]
    out = parse_text(f"{name}.java", text)
    assert out.ok, out.failure
    toks = tokenize(_src(text))
    assert "".join(t.lexeme for t in toks) == text


# --------------------------------------------------------------------------
# Node contract: one __repr__ and __eq__ on Node stand in for the methods
# dataclass would generate for each node class.
# --------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# sha256 over repr(parse_text(path, text)) of every tests/**/*.java file, in
# path order: the trees as each node class printed with dataclass's own
# __repr__, and the significant tokens each outcome carries.
TEST_TREES_REPR_SHA256 = "6a5af48aa42670f56b934c64f7dfa8147cfc70823ba262e5cf9ff81289da7180"
# sha256 over repr(outcome.ast) and repr(outcome.failure) of the same files:
# the trees and failures alone, whatever token list the outcome carries.
TEST_TREES_AND_FAILURES_SHA256 = "4c735c5cfc50079fc8a53a79943f611f7a050073bb55ae1b83c968a62a21719b"


def _test_java_files() -> list[tuple[str, str]]:
    return [
        (path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(ROOT.glob("tests/**/*.java"))
    ]


def _perfbench_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks the module up to resolve annotations
    spec.loader.exec_module(module)
    return module


class TestNodeContract:
    def test_repr_of_the_test_trees_is_unchanged(self):
        digest = hashlib.sha256()
        for path, text in _test_java_files():
            digest.update(repr(parse_text(path, text)).encode())
        assert digest.hexdigest() == TEST_TREES_REPR_SHA256

    def test_trees_and_failures_of_the_test_files_are_unchanged(self):
        digest = hashlib.sha256()
        for path, text in _test_java_files():
            outcome = parse_text(path, text)
            digest.update(repr(outcome.ast).encode())
            digest.update(repr(outcome.failure).encode())
        assert digest.hexdigest() == TEST_TREES_AND_FAILURES_SHA256

    def test_repr_names_the_class_and_each_field_in_order(self):
        span = Span(1, 2, 1, 3)
        assert repr(n.Name(span=span, identifier="x")) == "Name(span=Span(start_line=1, start_col=2, end_line=1, end_col=3), identifier='x')"
        assert repr(n.EmptyStmt(span=span)) == f"EmptyStmt(span={span!r})"

    def test_nodes_are_unhashable(self):
        out = parse_text("S.java", SAMPLE)
        for node in n.walk(out.ast):
            with pytest.raises(TypeError):
                hash(node)

    def test_equal_fields_of_one_class_compare_equal(self):
        first, second = parse_text("S.java", SAMPLE).ast, parse_text("S.java", SAMPLE).ast
        assert first is not second and first == second
        renamed = parse_text("S.java", SAMPLE.replace("total", "sum"))
        assert first != renamed.ast

    def test_nodes_of_different_classes_never_compare_equal(self):
        span = Span(1, 1, 1, 2)
        same_fields = [cls(span=span) for cls in (n.Node, n.Stmt, n.Expr, n.EmptyStmt, n.ThisExpr, n.SuperExpr)]
        for i, a in enumerate(same_fields):
            for j, b in enumerate(same_fields):
                assert (a == b) is (i == j)
                assert (a != b) is (i != j)
        assert n.EmptyStmt(span=span) != span and n.EmptyStmt(span=span) != (span,)

    def test_node_classes_stay_dataclasses_under_one_base(self):
        assert n.Node.__mro__ == (n.Node, object)
        node_classes = [c for c in vars(n).values() if isinstance(c, type) and issubclass(c, n.Node)]
        assert n.CompilationUnit in node_classes
        assert all(dataclasses.is_dataclass(c) for c in node_classes)

    def test_perfbench_node_count_agrees_with_walk(self):
        count_nodes = _perfbench_spans().count_nodes
        trees = [parse_text("S.java", SAMPLE).ast]
        trees += [out.ast for out in (parse_text(path, text) for path, text in _test_java_files()) if out.ok]
        for tree in trees:
            assert count_nodes(tree) == len(list(n.walk(tree)))


# Each node class's inspect.signature, as the __init__ that dataclass()
# generated printed it: the generated __init__s must keep these.
NODE_SIGNATURES = ROOT / "tests" / "data" / "node_signatures.txt"


def _node_classes() -> list[type]:
    return [c for c in vars(n).values() if isinstance(c, type) and issubclass(c, n.Node)]


class TestNodeConstructors:
    """The node classes' __init__s come from one exec, not from dataclass()."""

    def test_importing_nodes_generates_code_once_and_asks_for_no_signature(self):
        # Importing the lexer runs the package, which imports nodes; the
        # second import of nodes runs its body again under the counters.
        code = """if True:
            import builtins, importlib, inspect, json, sys
            import smellscore.java_syntax.lexer
            calls = {"signature": 0, "exec": 0}
            signature, exec_ = inspect.signature, builtins.exec

            def counting_signature(*args, **kwargs):
                calls["signature"] += 1
                return signature(*args, **kwargs)

            def counting_exec(source, *args, **kwargs):
                calls["exec"] += isinstance(source, str)  # the import execs the module's code object
                return exec_(source, *args, **kwargs)

            inspect.signature, builtins.exec = counting_signature, counting_exec
            del sys.modules["smellscore.java_syntax.nodes"]
            nodes = importlib.import_module("smellscore.java_syntax.nodes")
            inspect.signature, builtins.exec = signature, exec_
            assert nodes.TypeRef(span=None, name="T").name == "T"
            print(json.dumps(calls))
        """
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        calls = json.loads(done.stdout)
        assert calls["signature"] == 0
        assert calls["exec"] <= 1

    def test_signatures_are_the_ones_dataclass_generated(self):
        got = "".join(f"{cls.__name__}{inspect.signature(cls)}\n" for cls in _node_classes())
        assert got == NODE_SIGNATURES.read_text(encoding="utf-8")

    def test_a_class_without_docstring_documents_its_signature(self):
        for cls in _node_classes():
            text = f"{cls.__name__}{str(inspect.signature(cls)).replace(' -> None', '')}"
            assert cls.__doc__ == text or not cls.__doc__.startswith(f"{cls.__name__}(")
        assert n.Name.__doc__ == "Name(span: 'Span', identifier: 'str')"
        assert n.TypeRef.__doc__.startswith("A textual type reference")

    def test_each_instance_gets_a_fresh_default_list(self):
        first, second = n.TypeRef(span=None, name="A"), n.TypeRef(span=None, name="B")
        assert first.type_args == [] and first.type_args is not second.type_args
        first.type_args.append(second)
        assert second.type_args == []
        given = [second]
        assert n.TypeRef(None, "C", given).type_args is given

    def test_positional_and_keyword_construction_agree(self):
        span = Span(1, 1, 1, 9)
        by_position = n.Unary(span, "-", n.Name(span, "x"), False)
        by_keyword = n.Unary(operand=n.Name(identifier="x", span=span), prefix=False, op="-", span=span)
        assert by_position == by_keyword
        assert n.Unary(span, "!", by_position).prefix is True
        with pytest.raises(TypeError):
            n.Unary(span, "-")
        with pytest.raises(TypeError):
            n.Name(span, "x", identifier="y")

    def test_spans_go_through_the_slot(self):
        param = n.Param((0, 2, 5), n.TypeRef((0, 0, 1), "int"), "count", (0, 2, 5))
        assert "span" not in vars(param) and "name_span" not in vars(param)
        assert param._span == (0, 2, 5) and param._name_span == (0, 2, 5)


def count_tokens_built(monkeypatch, run) -> int:
    """How many Token objects ``run()`` constructs."""
    built = 0
    init = Token.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Token, "__init__", counting)
        run()
    return built


class TestNoTokenObjects:
    """The parser reads the token table's columns; a Token is built only when
    a caller indexes or iterates a table."""

    def test_parse_builds_no_token(self, monkeypatch):
        sources = [SourceFile.from_text(path, text) for path, text in _test_java_files()]
        outcomes = []
        assert count_tokens_built(monkeypatch, lambda: outcomes.extend(map(parse, sources))) == 0
        assert sum(outcome.ok for outcome in outcomes) >= 30

    def test_the_count_sees_tokens_built_on_demand(self, monkeypatch):
        table = tokenize(_src("class A { int x = 1; }"))
        assert count_tokens_built(monkeypatch, lambda: table[5]) == 1
        assert count_tokens_built(monkeypatch, lambda: list(table)) == len(table) == 16


class TestOutcomeTokens:
    """ParseOutcome.tokens is the one token list the rules read: the
    significant tokens of the source, as the lexer made them."""

    def test_outcome_tokens_are_the_significant_tokens_of_each_test_file(self):
        parsed = 0
        for path, text in _test_java_files():
            outcome = parse_text(path, text)
            assert list(outcome.tokens) == (_significant(text) if outcome.ok else []), path
            parsed += outcome.ok
        assert parsed >= 30

    @pytest.mark.parametrize("text, closers", [
        ("class A { List<List<String>> x; }", [">>"]),
        ("class A { Map<K, List<List<V>>> x; int y = x >> 1; }", [">>>", ">>"]),
        ("class A { void m() { List<List<String>> x = new ArrayList<>(); } }", [">>", ">"]),
    ])
    def test_a_shift_split_into_closing_brackets_stays_one_token(self, text, closers):
        outcome = parse_text("A.java", text)
        assert outcome.ok, outcome.failure
        assert list(outcome.tokens) == _significant(text)
        assert [t.lexeme for t in outcome.tokens if t.lexeme.startswith(">")] == closers
