"""Lexer for the mini-ZPL language: one compiled pattern scans the source."""

from __future__ import annotations

import re
from typing import List

from repro.lang.tokens import KEYWORDS, Token, TokenType
from repro.util.errors import LexError, SourceLocation

_PUNCT = {
    "+<<": TokenType.SUMRED,
    "*<<": TokenType.PRODRED,
    ":=": TokenType.ASSIGN,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "!=": TokenType.NE,
    "..": TokenType.DOTDOT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    ":": TokenType.COLON,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "^": TokenType.CARET,
    "%": TokenType.PERCENT,
    "@": TokenType.AT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMI,
    "=": TokenType.EQ,
}

_REDUCTION_WORDS = {"max<<": TokenType.MAXRED, "min<<": TokenType.MINRED}

# One alternative per token class, tried in order at each position; the
# last one takes any character nothing else does.  A fraction needs a digit
# after its '.' (so ``1..n`` is a range) and an exponent needs a digit after
# its sign; ``max<<`` / ``min<<`` are one token only without a space before
# the ``<<``.  A word must start with a letter or ``_``: ``\w`` also admits
# digits no ``\d`` matches, refused below.
_MASTER = re.compile(
    r"""
    (?P<trivia> (?: [ \t\r\n] | --[^\n]* )+ )
  | (?P<float>  \d+ (?: \.\d+ (?: [eE][+-]?\d+ )? | [eE][+-]?\d+ ) )
  | (?P<int>    \d+ )
  | (?P<word>   (?:max|min)<< | \w+ )
  | (?P<punct>  """
    + "|".join(re.escape(text) for text in sorted(_PUNCT, key=len, reverse=True))
    + r""" )
  | (?P<error>  . )
    """,
    re.VERBOSE | re.DOTALL,
)


class Lexer:
    """Converts source text into a list of tokens.

    Comments run from ``--`` to end of line.  Reduction operators ``+<<``,
    ``*<<``, ``max<<`` and ``min<<`` are recognized as single tokens.
    """

    def __init__(self, source: str) -> None:
        self._source = source

    def tokenize(self) -> List[Token]:
        """Lex the whole input, ending with an EOF token."""
        source = self._source
        tokens: List[Token] = []
        append = tokens.append
        line, line_start = 1, 0
        for match in _MASTER.finditer(source):
            kind = match.lastgroup
            text = match.group()
            if kind == "trivia":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = match.start() + text.rindex("\n") + 1
                continue
            loc = SourceLocation(line, match.start() - line_start + 1)
            if kind == "word":
                if not (text[0].isalpha() or text[0] == "_"):
                    raise LexError("unexpected character %r" % text[0], loc)
                if text.endswith("<<"):
                    append(Token(_REDUCTION_WORDS[text], text, loc))
                else:
                    keyword = KEYWORDS.get(text)
                    if keyword is not None:
                        append(Token(keyword, text, loc))
                    else:
                        append(Token(TokenType.IDENT, text, loc, value=text))
            elif kind == "punct":
                append(Token(_PUNCT[text], text, loc))
            elif kind == "int":
                append(Token(TokenType.INT, text, loc, value=int(text)))
            elif kind == "float":
                append(Token(TokenType.FLOAT, text, loc, value=float(text)))
            else:
                raise LexError("unexpected character %r" % text, loc)
        end = SourceLocation(line, len(source) - line_start + 1)
        append(Token(TokenType.EOF, "", end))
        return tokens


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: lex ``source`` into tokens."""
    return Lexer(source).tokenize()
