"""Recursive-descent parser for the mini-ZPL language.

Grammar sketch::

    program   := 'program' IDENT ';' decl*
                 ['procedure' IDENT '(' ')' ';'] 'begin' stmt* 'end' [';'|'.']
    decl      := config | region | direction | var
    config    := 'config' IDENT ':' kind '=' expr ';'
    region    := 'region' IDENT '=' '[' dim {',' dim} ']' ';'
    direction := 'direction' IDENT '=' '[' sint {',' sint} ']' ';'
    var       := 'var' IDENT {',' IDENT} ':' ['[' regionref ']'] kind ';'
    stmt      := regionstmt | scalarassign | for | if | while
    regionstmt:= regionspec IDENT ':=' expr ';'
    for       := 'for' IDENT ':=' expr ('to'|'downto') expr 'do' stmt* 'end' ';'

Expressions use conventional precedence; ``A@(d1,...,dn)`` and ``A@dir`` are
postfix offset references, and ``+<< [R] e`` is a full reduction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang.ast_nodes import (
    ArrayAssign,
    BinOp,
    BoolLit,
    BoundaryStmt,
    Call,
    ConfigDecl,
    Decl,
    DirectionDecl,
    Expr,
    FloatLit,
    For,
    If,
    IntLit,
    OffsetRef,
    Program,
    RangeDim,
    Reduce,
    RegionDecl,
    RegionSpec,
    ScalarAssign,
    Stmt,
    TypeSpec,
    UnOp,
    VarDecl,
    VarRef,
    While,
)
from repro.lang.lexer import tokenize
from repro.lang.tokens import REDUCTION_OPS, Token, TokenType
from repro.util.errors import ParseError

_KIND_TOKENS = {
    TokenType.INTEGER: "integer",
    TokenType.FLOATKW: "float",
    TokenType.BOOLEAN: "boolean",
}

_COMPARISON = {
    TokenType.EQ: "=",
    TokenType.NE: "!=",
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
}


class Parser:
    """Parses a token stream into a :class:`Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers --------------------------------------------------
    #
    # The stream ends with EOF and ``_pos`` never moves past it.

    def _peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def _at(self, *types: TokenType) -> bool:
        return self._tokens[self._pos].type in types

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect(self, type: TokenType, context: str = "") -> Token:
        token = self._peek()
        if token.type is not type:
            where = " in %s" % context if context else ""
            raise ParseError(
                "expected %s%s, found %r" % (type.value, where, token.text or "EOF"),
                token.location,
            )
        return self._advance()

    def _accept(self, type: TokenType) -> Optional[Token]:
        if self._at(type):
            return self._advance()
        return None

    # -- program --------------------------------------------------------

    def parse_program(self) -> Program:
        """Parse a whole compilation unit."""
        start = self._expect(TokenType.PROGRAM, "program header")
        name = self._expect(TokenType.IDENT, "program header").text
        self._expect(TokenType.SEMI, "program header")

        decls: List[Decl] = []
        while self._at(
            TokenType.CONFIG, TokenType.REGION, TokenType.DIRECTION, TokenType.VAR
        ):
            decls.append(self._parse_decl())

        if self._accept(TokenType.PROCEDURE):
            self._expect(TokenType.IDENT, "procedure header")
            self._expect(TokenType.LPAREN, "procedure header")
            self._expect(TokenType.RPAREN, "procedure header")
            self._expect(TokenType.SEMI, "procedure header")

        self._expect(TokenType.BEGIN, "main body")
        body = self._parse_stmt_list((TokenType.END,))
        self._expect(TokenType.END, "main body")
        self._accept(TokenType.SEMI)
        self._expect(TokenType.EOF, "end of program")
        return Program(name, decls, body, location=start.location)

    # -- declarations ---------------------------------------------------

    def _parse_decl(self) -> Decl:
        if self._at(TokenType.CONFIG):
            return self._parse_config()
        if self._at(TokenType.REGION):
            return self._parse_region_decl()
        if self._at(TokenType.DIRECTION):
            return self._parse_direction_decl()
        return self._parse_var_decl()

    def _parse_config(self) -> ConfigDecl:
        start = self._advance()
        name = self._expect(TokenType.IDENT, "config declaration").text
        self._expect(TokenType.COLON, "config declaration")
        kind = self._parse_kind()
        self._expect(TokenType.EQ, "config declaration")
        default = self._parse_expr()
        self._expect(TokenType.SEMI, "config declaration")
        return ConfigDecl(name, kind, default, location=start.location)

    def _parse_kind(self) -> str:
        token = self._peek()
        kind = _KIND_TOKENS.get(token.type)
        if kind is None:
            raise ParseError(
                "expected a type (integer/float/boolean), found %r" % token.text,
                token.location,
            )
        self._advance()
        return kind

    def _parse_region_decl(self) -> RegionDecl:
        start = self._advance()
        name = self._expect(TokenType.IDENT, "region declaration").text
        self._expect(TokenType.EQ, "region declaration")
        dims = self._parse_region_literal()
        self._expect(TokenType.SEMI, "region declaration")
        return RegionDecl(name, dims, location=start.location)

    def _parse_region_literal(self) -> List[RangeDim]:
        self._expect(TokenType.LBRACKET, "region literal")
        dims = [self._parse_range_dim()]
        while self._accept(TokenType.COMMA):
            dims.append(self._parse_range_dim())
        self._expect(TokenType.RBRACKET, "region literal")
        return dims

    def _parse_range_dim(self) -> RangeDim:
        lo = self._parse_expr()
        if self._accept(TokenType.DOTDOT):
            hi = self._parse_expr()
        else:
            hi = lo
        return RangeDim(lo, hi, location=lo.location)

    def _parse_direction_decl(self) -> DirectionDecl:
        start = self._advance()
        name = self._expect(TokenType.IDENT, "direction declaration").text
        self._expect(TokenType.EQ, "direction declaration")
        self._expect(TokenType.LBRACKET, "direction declaration")
        components = [self._parse_signed_int()]
        while self._accept(TokenType.COMMA):
            components.append(self._parse_signed_int())
        self._expect(TokenType.RBRACKET, "direction declaration")
        self._expect(TokenType.SEMI, "direction declaration")
        return DirectionDecl(name, tuple(components), location=start.location)

    def _parse_signed_int(self) -> int:
        negative = bool(self._accept(TokenType.MINUS))
        token = self._expect(TokenType.INT, "direction component")
        value = int(token.value)
        return -value if negative else value

    def _parse_var_decl(self) -> VarDecl:
        start = self._expect(TokenType.VAR, "variable declaration")
        names = [self._expect(TokenType.IDENT, "variable declaration").text]
        while self._accept(TokenType.COMMA):
            names.append(self._expect(TokenType.IDENT, "variable declaration").text)
        self._expect(TokenType.COLON, "variable declaration")
        region: Optional[RegionSpec] = None
        if self._at(TokenType.LBRACKET):
            region = self._parse_region_spec()
        kind = self._parse_kind()
        self._expect(TokenType.SEMI, "variable declaration")
        return VarDecl(names, TypeSpec(kind, region), location=start.location)

    def _parse_region_spec(self) -> RegionSpec:
        """Parse ``[...]`` in type or statement position.

        ``[R]`` (a lone identifier) parses as a named region; anything else
        parses as an inline literal.  Semantic analysis may reinterpret a
        lone identifier as a degenerate dimension if it names a scalar.
        """
        start = self._expect(TokenType.LBRACKET, "region")
        if (
            self._at(TokenType.IDENT)
            and self._peek(1).type is TokenType.RBRACKET
        ):
            name = self._advance().text
            self._advance()
            return RegionSpec(name=name, location=start.location)
        dims = [self._parse_range_dim()]
        while self._accept(TokenType.COMMA):
            dims.append(self._parse_range_dim())
        self._expect(TokenType.RBRACKET, "region")
        return RegionSpec(dims=dims, location=start.location)

    # -- statements -----------------------------------------------------

    def _parse_stmt_list(self, terminators: Tuple[TokenType, ...]) -> List[Stmt]:
        stmts: List[Stmt] = []
        while not self._at(*terminators, TokenType.EOF):
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> Stmt:
        if self._at(TokenType.LBRACKET):
            return self._parse_array_assign()
        if self._at(TokenType.FOR):
            return self._parse_for()
        if self._at(TokenType.IF):
            return self._parse_if()
        if self._at(TokenType.WHILE):
            return self._parse_while()
        if self._at(TokenType.IDENT):
            return self._parse_scalar_assign()
        token = self._peek()
        raise ParseError("expected a statement, found %r" % token.text, token.location)

    def _parse_array_assign(self) -> Stmt:
        region = self._parse_region_spec()
        if self._at(TokenType.WRAP, TokenType.REFLECT):
            kind_token = self._advance()
            array = self._expect(TokenType.IDENT, "boundary statement").text
            self._expect(TokenType.SEMI, "boundary statement")
            return BoundaryStmt(
                region, kind_token.text, array, location=region.location
            )
        target = self._expect(TokenType.IDENT, "array assignment").text
        self._expect(TokenType.ASSIGN, "array assignment")
        value = self._parse_expr()
        self._expect(TokenType.SEMI, "array assignment")
        return ArrayAssign(region, target, value, location=region.location)

    def _parse_scalar_assign(self) -> ScalarAssign:
        name_token = self._expect(TokenType.IDENT, "assignment")
        self._expect(TokenType.ASSIGN, "assignment")
        value = self._parse_expr()
        self._expect(TokenType.SEMI, "assignment")
        return ScalarAssign(name_token.text, value, location=name_token.location)

    def _parse_for(self) -> For:
        start = self._advance()
        var = self._expect(TokenType.IDENT, "for loop").text
        self._expect(TokenType.ASSIGN, "for loop")
        lo = self._parse_expr()
        downto = False
        if self._accept(TokenType.DOWNTO):
            downto = True
        else:
            self._expect(TokenType.TO, "for loop")
        hi = self._parse_expr()
        self._expect(TokenType.DO, "for loop")
        body = self._parse_stmt_list((TokenType.END,))
        self._expect(TokenType.END, "for loop")
        self._expect(TokenType.SEMI, "for loop")
        return For(var, lo, hi, body, downto=downto, location=start.location)

    def _parse_if(self) -> If:
        start = self._advance()
        cond = self._parse_expr()
        self._expect(TokenType.THEN, "if statement")
        then_body = self._parse_stmt_list(
            (TokenType.ELSIF, TokenType.ELSE, TokenType.END)
        )
        if self._at(TokenType.ELSIF):
            # Desugar 'elsif' into a nested If occupying the else branch.
            nested = self._parse_if_tail()
            return If(cond, then_body, [nested], location=start.location)
        else_body: List[Stmt] = []
        if self._accept(TokenType.ELSE):
            else_body = self._parse_stmt_list((TokenType.END,))
        self._expect(TokenType.END, "if statement")
        self._expect(TokenType.SEMI, "if statement")
        return If(cond, then_body, else_body, location=start.location)

    def _parse_if_tail(self) -> If:
        start = self._expect(TokenType.ELSIF, "elsif")
        cond = self._parse_expr()
        self._expect(TokenType.THEN, "elsif")
        then_body = self._parse_stmt_list(
            (TokenType.ELSIF, TokenType.ELSE, TokenType.END)
        )
        if self._at(TokenType.ELSIF):
            nested = self._parse_if_tail()
            return If(cond, then_body, [nested], location=start.location)
        else_body: List[Stmt] = []
        if self._accept(TokenType.ELSE):
            else_body = self._parse_stmt_list((TokenType.END,))
        self._expect(TokenType.END, "if statement")
        self._expect(TokenType.SEMI, "if statement")
        return If(cond, then_body, else_body, location=start.location)

    def _parse_while(self) -> While:
        start = self._advance()
        cond = self._parse_expr()
        self._expect(TokenType.DO, "while loop")
        body = self._parse_stmt_list((TokenType.END,))
        self._expect(TokenType.END, "while loop")
        self._expect(TokenType.SEMI, "while loop")
        return While(cond, body, location=start.location)

    # -- expressions ----------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._at(TokenType.OR):
            loc = self._advance().location
            right = self._parse_and()
            left = BinOp("or", left, right, location=loc)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._at(TokenType.AND):
            loc = self._advance().location
            right = self._parse_not()
            left = BinOp("and", left, right, location=loc)
        return left

    def _parse_not(self) -> Expr:
        if self._at(TokenType.NOT):
            loc = self._advance().location
            return UnOp("not", self._parse_not(), location=loc)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self._peek().type in _COMPARISON:
            token = self._advance()
            right = self._parse_additive()
            return BinOp(_COMPARISON[token.type], left, right, location=token.location)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._at(TokenType.PLUS, TokenType.MINUS):
            token = self._advance()
            right = self._parse_multiplicative()
            left = BinOp(token.text, left, right, location=token.location)
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._at(TokenType.STAR, TokenType.SLASH, TokenType.PERCENT):
            token = self._advance()
            right = self._parse_unary()
            left = BinOp(token.text, left, right, location=token.location)
        return left

    def _parse_unary(self) -> Expr:
        if self._at(TokenType.MINUS):
            loc = self._advance().location
            return UnOp("-", self._parse_unary(), location=loc)
        if self._at(TokenType.PLUS):
            self._advance()
            return self._parse_unary()
        if self._peek().type in REDUCTION_OPS:
            return self._parse_reduce()
        return self._parse_power()

    def _parse_reduce(self) -> Reduce:
        token = self._advance()
        op = REDUCTION_OPS[token.type]
        region: Optional[RegionSpec] = None
        if self._at(TokenType.LBRACKET):
            region = self._parse_region_spec()
        operand = self._parse_unary()
        return Reduce(op, region, operand, location=token.location)

    def _parse_power(self) -> Expr:
        base = self._parse_postfix()
        if self._at(TokenType.CARET):
            token = self._advance()
            # Right-associative exponentiation.
            exponent = self._parse_unary()
            return BinOp("^", base, exponent, location=token.location)
        return base

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self._at(TokenType.AT):
            token = self._advance()
            if not isinstance(expr, VarRef):
                raise ParseError(
                    "'@' may only follow an array variable reference",
                    token.location,
                )
            direction = self._parse_direction_operand()
            expr = OffsetRef(expr.name, direction, location=token.location)
        return expr

    def _parse_direction_operand(self):
        if self._at(TokenType.IDENT):
            return self._advance().text
        self._expect(TokenType.LPAREN, "direction")
        components = [self._parse_signed_int()]
        while self._accept(TokenType.COMMA):
            components.append(self._parse_signed_int())
        self._expect(TokenType.RPAREN, "direction")
        return tuple(components)

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.INT:
            self._advance()
            return IntLit(int(token.value), location=token.location)
        if token.type is TokenType.FLOAT:
            self._advance()
            return FloatLit(float(token.value), location=token.location)
        if token.type is TokenType.TRUE:
            self._advance()
            return BoolLit(True, location=token.location)
        if token.type is TokenType.FALSE:
            self._advance()
            return BoolLit(False, location=token.location)
        if token.type is TokenType.IDENT:
            self._advance()
            if self._at(TokenType.LPAREN):
                self._advance()
                args: List[Expr] = []
                if not self._at(TokenType.RPAREN):
                    args.append(self._parse_expr())
                    while self._accept(TokenType.COMMA):
                        args.append(self._parse_expr())
                self._expect(TokenType.RPAREN, "call")
                return Call(token.text, args, location=token.location)
            return VarRef(token.text, location=token.location)
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN, "parenthesized expression")
            return expr
        raise ParseError(
            "expected an expression, found %r" % (token.text or "EOF"), token.location
        )


def parse(source: str) -> Program:
    """Parse mini-ZPL source text into an AST."""
    return Parser(tokenize(source)).parse_program()
