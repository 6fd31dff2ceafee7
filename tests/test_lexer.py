"""Tests for the mini-ZPL lexer."""

import pytest

from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType
from repro.util.errors import LexError


def types(source):
    return [token.type for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input(self):
        assert types("") == [TokenType.EOF]

    def test_identifiers_and_keywords(self):
        assert types("program foo") == [
            TokenType.PROGRAM,
            TokenType.IDENT,
            TokenType.EOF,
        ]

    def test_underscore_identifier(self):
        tokens = tokenize("_T1")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].text == "_T1"

    def test_all_keywords(self):
        source = (
            "program config region direction var procedure begin end "
            "for to downto do if then else elsif while integer float "
            "boolean and or not true false"
        )
        kinds = types(source)[:-1]
        assert TokenType.IDENT not in kinds

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.INT
        assert token.value == 42

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025
        assert tokenize("1E+2")[0].value == 100.0

    def test_integer_then_dotdot_is_not_float(self):
        kinds = types("1..n")
        assert kinds == [
            TokenType.INT,
            TokenType.DOTDOT,
            TokenType.IDENT,
            TokenType.EOF,
        ]


class TestOperators:
    def test_compound_operators(self):
        assert types(":= <= >= != ..")[:-1] == [
            TokenType.ASSIGN,
            TokenType.LE,
            TokenType.GE,
            TokenType.NE,
            TokenType.DOTDOT,
        ]

    def test_reduction_operators(self):
        assert types("+<< *<< max<< min<<")[:-1] == [
            TokenType.SUMRED,
            TokenType.PRODRED,
            TokenType.MAXRED,
            TokenType.MINRED,
        ]

    def test_max_not_followed_by_shift_is_ident(self):
        tokens = tokenize("max(a, b)")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].text == "max"

    def test_single_char_operators(self):
        assert types("+ - * / ^ % @ ( ) [ ] , ; : < > =")[:-1] == [
            TokenType.PLUS,
            TokenType.MINUS,
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.CARET,
            TokenType.PERCENT,
            TokenType.AT,
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.LBRACKET,
            TokenType.RBRACKET,
            TokenType.COMMA,
            TokenType.SEMI,
            TokenType.COLON,
            TokenType.LT,
            TokenType.GT,
            TokenType.EQ,
        ]


class TestTrivia:
    def test_comments_skipped(self):
        assert types("a -- comment to end of line\nb")[:-1] == [
            TokenType.IDENT,
            TokenType.IDENT,
        ]

    def test_minus_not_comment(self):
        assert types("a - b")[:-1] == [
            TokenType.IDENT,
            TokenType.MINUS,
            TokenType.IDENT,
        ]

    def test_locations(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_error_carries_location(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("ab\n  #")
        assert exc_info.value.location.line == 2

    def test_digit_characters_that_are_no_decimal_digits_are_lex_errors(self):
        # '²' and '½' are digits to str.isdigit / numerics to \w, but no
        # number: an error at their position, never a raw ValueError.
        for text in ("x := ²;", "x := ½;", "x := ²1;"):
            with pytest.raises(LexError) as exc_info:
                tokenize(text)
            location = exc_info.value.location
            assert (location.line, location.column) == (1, 6)
