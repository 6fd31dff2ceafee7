"""Semantic analysis for the mini-ZPL language.

Responsibilities:

* build the symbol table (configs, regions, directions, arrays, scalars);
* resolve named directions in ``@``-references to concrete offset tuples;
* disambiguate ``[x]`` region specifiers (named region vs degenerate index);
* type-check expressions and statements, including rank checks on array
  operations and the scalar/array distinction the normal form requires.

The checker returns a :class:`CheckedProgram` which later phases (the
normalizer in :mod:`repro.ir`) consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang import operators
from repro.util.errors import SemanticError


def index_array_dimension(name: str) -> Optional[int]:
    """If ``name`` is a ZPL index pseudo-array (Index1, Index2, ...), its dim."""
    if name.startswith("Index") and name[5:].isdigit():
        return int(name[5:])
    return None


class Symbol:
    """An entry in the symbol table."""

    __slots__ = ("name", "kind", "elem_kind", "region", "components", "dims", "default")

    CONFIG = "config"
    REGION = "region"
    DIRECTION = "direction"
    ARRAY = "array"
    SCALAR = "scalar"

    def __init__(
        self,
        name: str,
        kind: str,
        elem_kind: Optional[str] = None,
        region: Optional[ast.RegionSpec] = None,
        components: Optional[Tuple[int, ...]] = None,
        dims: Optional[List[ast.RangeDim]] = None,
        default: Optional[ast.Expr] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.elem_kind = elem_kind
        self.region = region
        self.components = components
        self.dims = dims
        self.default = default

    def __repr__(self) -> str:
        return "Symbol(%s, %s)" % (self.name, self.kind)


class ExprType:
    """The type of an expression: element kind plus array rank (0 = scalar)."""

    __slots__ = ("kind", "rank")

    def __init__(self, kind: str, rank: int = 0) -> None:
        self.kind = kind
        self.rank = rank

    @property
    def is_array(self) -> bool:
        return self.rank > 0

    def __repr__(self) -> str:
        if self.rank:
            return "ExprType(%s, rank=%d)" % (self.kind, self.rank)
        return "ExprType(%s)" % self.kind

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExprType)
            and self.kind == other.kind
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.rank))


class SymbolTable:
    """Name -> :class:`Symbol`, single flat scope (mini-ZPL has no nesting)."""

    def __init__(self) -> None:
        self._symbols: Dict[str, Symbol] = {}

    def declare(self, symbol: Symbol, location=None) -> None:
        if symbol.name in self._symbols:
            raise SemanticError("duplicate declaration of %r" % symbol.name, location)
        self._symbols[symbol.name] = symbol

    def lookup(self, name: str, location=None) -> Symbol:
        symbol = self._symbols.get(name)
        if symbol is None:
            raise SemanticError("undeclared identifier %r" % name, location)
        return symbol

    def maybe(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def arrays(self) -> List[Symbol]:
        return [s for s in self._symbols.values() if s.kind == Symbol.ARRAY]

    def configs(self) -> List[Symbol]:
        return [s for s in self._symbols.values() if s.kind == Symbol.CONFIG]

    def all_symbols(self) -> List[Symbol]:
        return list(self._symbols.values())


class CheckedProgram:
    """A semantically valid program plus its symbol table."""

    def __init__(self, program: ast.Program, symtab: SymbolTable) -> None:
        self.program = program
        self.symtab = symtab

    @property
    def name(self) -> str:
        return self.program.name


class Checker:
    """Performs semantic analysis over a parsed program."""

    def __init__(self, program: ast.Program) -> None:
        self._program = program
        self._symtab = SymbolTable()

    def check(self) -> CheckedProgram:
        """Run all checks; raises :class:`SemanticError` on the first error."""
        for decl in self._program.decls:
            self._declare(decl)
        self._check_stmts(self._program.body)
        return CheckedProgram(self._program, self._symtab)

    # -- declarations ---------------------------------------------------

    def _declare(self, decl: ast.Decl) -> None:
        if isinstance(decl, ast.ConfigDecl):
            if decl.kind not in ("integer", "float"):
                raise SemanticError(
                    "config %r must be integer or float" % decl.name, decl.location
                )
            default_type = self._check_expr(decl.default, allow_arrays=False)
            if decl.kind == "integer" and default_type.kind != "integer":
                raise SemanticError(
                    "config %r default must be an integer" % decl.name, decl.location
                )
            self._symtab.declare(
                Symbol(decl.name, Symbol.CONFIG, elem_kind=decl.kind, default=decl.default),
                decl.location,
            )
        elif isinstance(decl, ast.RegionDecl):
            for dim in decl.dims:
                self._check_bound(dim.lo)
                self._check_bound(dim.hi)
            self._symtab.declare(
                Symbol(decl.name, Symbol.REGION, dims=decl.dims), decl.location
            )
        elif isinstance(decl, ast.DirectionDecl):
            self._symtab.declare(
                Symbol(decl.name, Symbol.DIRECTION, components=decl.components),
                decl.location,
            )
        elif isinstance(decl, ast.VarDecl):
            for name in decl.names:
                if decl.type.is_array:
                    region = self._resolve_region(decl.type.region)
                    self._symtab.declare(
                        Symbol(
                            name,
                            Symbol.ARRAY,
                            elem_kind=decl.type.kind,
                            region=region,
                        ),
                        decl.location,
                    )
                else:
                    self._symtab.declare(
                        Symbol(name, Symbol.SCALAR, elem_kind=decl.type.kind),
                        decl.location,
                    )
        else:
            raise SemanticError("unknown declaration %r" % decl, decl.location)

    def _check_bound(self, expr: ast.Expr) -> None:
        bound_type = self._check_expr(expr, allow_arrays=False)
        if bound_type.kind != "integer":
            raise SemanticError("region bounds must be integers", expr.location)

    def _resolve_region(self, spec: ast.RegionSpec) -> ast.RegionSpec:
        """Resolve a region spec, disambiguating lone identifiers.

        A ``[x]`` spec parses as a named region; if ``x`` actually names an
        integer scalar (e.g. a loop variable), reinterpret it as a rank-1
        degenerate literal.
        """
        if spec.name is not None:
            symbol = self._symtab.maybe(spec.name)
            if symbol is None:
                raise SemanticError("undeclared region %r" % spec.name, spec.location)
            if symbol.kind == Symbol.REGION:
                return spec
            if symbol.kind in (Symbol.SCALAR, Symbol.CONFIG):
                if symbol.elem_kind != "integer":
                    raise SemanticError(
                        "degenerate region index %r must be an integer" % spec.name,
                        spec.location,
                    )
                ref = ast.VarRef(spec.name, location=spec.location)
                return ast.RegionSpec(
                    dims=[ast.RangeDim(ref, ref, location=spec.location)],
                    location=spec.location,
                )
            raise SemanticError(
                "%r does not name a region" % spec.name, spec.location
            )
        for dim in spec.dims:
            self._check_bound(dim.lo)
            self._check_bound(dim.hi)
        return spec

    def region_rank(self, spec: ast.RegionSpec) -> int:
        """The rank of a (resolved) region spec."""
        if spec.name is not None:
            return len(self._symtab.lookup(spec.name).dims)
        return len(spec.dims)

    # -- statements -----------------------------------------------------

    def _check_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self._check_stmt(stmt)

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.ArrayAssign):
            self._check_array_assign(stmt)
        elif isinstance(stmt, ast.BoundaryStmt):
            self._check_boundary(stmt)
        elif isinstance(stmt, ast.ScalarAssign):
            self._check_scalar_assign(stmt)
        elif isinstance(stmt, ast.For):
            self._check_for(stmt)
        elif isinstance(stmt, ast.If):
            cond = self._check_expr(stmt.cond, allow_arrays=False)
            if cond.kind != "boolean":
                raise SemanticError("if condition must be boolean", stmt.location)
            self._check_stmts(stmt.then_body)
            self._check_stmts(stmt.else_body)
        elif isinstance(stmt, ast.While):
            cond = self._check_expr(stmt.cond, allow_arrays=False)
            if cond.kind != "boolean":
                raise SemanticError("while condition must be boolean", stmt.location)
            self._check_stmts(stmt.body)
        else:
            raise SemanticError("unknown statement %r" % stmt, stmt.location)

    def _check_array_assign(self, stmt: ast.ArrayAssign) -> None:
        stmt.region = self._resolve_region(stmt.region)
        rank = self.region_rank(stmt.region)
        target = self._symtab.lookup(stmt.target, stmt.location)
        if target.kind != Symbol.ARRAY:
            raise SemanticError(
                "target of a region-scoped assignment must be an array, got %r"
                % stmt.target,
                stmt.location,
            )
        target_rank = self.region_rank(target.region)
        if target_rank != rank:
            raise SemanticError(
                "array %r has rank %d but statement region has rank %d"
                % (stmt.target, target_rank, rank),
                stmt.location,
            )
        value_type = self._check_expr(stmt.value, allow_arrays=True, statement_rank=rank)
        if value_type.is_array and value_type.rank != rank:
            raise SemanticError(
                "rank mismatch in array assignment: region rank %d, value rank %d"
                % (rank, value_type.rank),
                stmt.location,
            )
        if value_type.kind == "boolean" and target.elem_kind != "boolean":
            raise SemanticError(
                "cannot assign boolean value to %s array" % target.elem_kind,
                stmt.location,
            )

    def _check_boundary(self, stmt: ast.BoundaryStmt) -> None:
        stmt.region = self._resolve_region(stmt.region)
        rank = self.region_rank(stmt.region)
        array = self._symtab.lookup(stmt.array, stmt.location)
        if array.kind != Symbol.ARRAY:
            raise SemanticError(
                "%s applies to arrays; %r is a %s"
                % (stmt.kind, stmt.array, array.kind),
                stmt.location,
            )
        if self.region_rank(array.region) != rank:
            raise SemanticError(
                "array %r has rank %d but boundary region has rank %d"
                % (stmt.array, self.region_rank(array.region), rank),
                stmt.location,
            )

    def _check_scalar_assign(self, stmt: ast.ScalarAssign) -> None:
        target = self._symtab.lookup(stmt.target, stmt.location)
        if target.kind not in (Symbol.SCALAR,):
            raise SemanticError(
                "target of a scalar assignment must be a scalar variable, got %r"
                % stmt.target,
                stmt.location,
            )
        value_type = self._check_expr(stmt.value, allow_arrays=False)
        if value_type.kind == "boolean" and target.elem_kind != "boolean":
            raise SemanticError(
                "cannot assign boolean value to %s scalar" % target.elem_kind,
                stmt.location,
            )
        if value_type.kind == "float" and target.elem_kind == "integer":
            raise SemanticError(
                "cannot assign float value to integer scalar %r" % stmt.target,
                stmt.location,
            )

    def _check_for(self, stmt: ast.For) -> None:
        var = self._symtab.lookup(stmt.var, stmt.location)
        if var.kind != Symbol.SCALAR or var.elem_kind != "integer":
            raise SemanticError(
                "for-loop variable %r must be a declared integer scalar" % stmt.var,
                stmt.location,
            )
        for bound in (stmt.lo, stmt.hi):
            bound_type = self._check_expr(bound, allow_arrays=False)
            if bound_type.kind != "integer":
                raise SemanticError("for-loop bounds must be integers", stmt.location)
        self._check_stmts(stmt.body)

    # -- expressions ----------------------------------------------------

    def _check_expr(
        self,
        expr: ast.Expr,
        allow_arrays: bool,
        statement_rank: Optional[int] = None,
    ) -> ExprType:
        if isinstance(expr, ast.IntLit):
            return ExprType("integer")
        if isinstance(expr, ast.FloatLit):
            return ExprType("float")
        if isinstance(expr, ast.BoolLit):
            return ExprType("boolean")
        if isinstance(expr, ast.VarRef):
            return self._check_var_ref(expr, allow_arrays, statement_rank)
        if isinstance(expr, ast.OffsetRef):
            return self._check_offset_ref(expr, allow_arrays)
        if isinstance(expr, ast.BinOp):
            return self._check_binop(expr, allow_arrays, statement_rank)
        if isinstance(expr, ast.UnOp):
            operand = self._check_expr(expr.operand, allow_arrays, statement_rank)
            row = operators.UNARY[expr.op]
            if row.operands == operators.BOOLEAN and operand.kind != "boolean":
                raise SemanticError(
                    "%r requires a boolean operand" % expr.op, expr.location
                )
            if row.operands == operators.NUMERIC and operand.kind == "boolean":
                raise SemanticError("cannot negate a boolean", expr.location)
            return ExprType(
                operators.result_kind(row, (operand.kind,)), operand.rank
            )
        if isinstance(expr, ast.Call):
            return self._check_call(expr, allow_arrays, statement_rank)
        if isinstance(expr, ast.Reduce):
            return self._check_reduce(expr)
        raise SemanticError("unknown expression %r" % expr, expr.location)

    def _check_var_ref(
        self,
        expr: ast.VarRef,
        allow_arrays: bool,
        statement_rank: Optional[int] = None,
    ) -> ExprType:
        index_dim = index_array_dimension(expr.name)
        if index_dim is not None and expr.name not in self._symtab:
            if not allow_arrays or statement_rank is None:
                raise SemanticError(
                    "%s may only appear inside a region-scoped array statement"
                    % expr.name,
                    expr.location,
                )
            if index_dim > statement_rank:
                raise SemanticError(
                    "%s exceeds the statement region rank %d"
                    % (expr.name, statement_rank),
                    expr.location,
                )
            return ExprType("integer", statement_rank)
        symbol = self._symtab.lookup(expr.name, expr.location)
        if symbol.kind == Symbol.ARRAY:
            if not allow_arrays:
                raise SemanticError(
                    "array %r used where a scalar is required (use a reduction)"
                    % expr.name,
                    expr.location,
                )
            return ExprType(symbol.elem_kind, self.region_rank(symbol.region))
        if symbol.kind in (Symbol.SCALAR, Symbol.CONFIG):
            return ExprType(symbol.elem_kind)
        raise SemanticError(
            "%r (a %s) cannot appear in an expression" % (expr.name, symbol.kind),
            expr.location,
        )

    def _check_offset_ref(self, expr: ast.OffsetRef, allow_arrays: bool) -> ExprType:
        if not allow_arrays:
            raise SemanticError(
                "array reference %r@... used where a scalar is required" % expr.name,
                expr.location,
            )
        symbol = self._symtab.lookup(expr.name, expr.location)
        if symbol.kind != Symbol.ARRAY:
            raise SemanticError(
                "'@' applies only to arrays; %r is a %s" % (expr.name, symbol.kind),
                expr.location,
            )
        if isinstance(expr.direction, str):
            direction = self._symtab.lookup(expr.direction, expr.location)
            if direction.kind != Symbol.DIRECTION:
                raise SemanticError(
                    "%r is not a direction" % expr.direction, expr.location
                )
            expr.direction = direction.components
        rank = self.region_rank(symbol.region)
        if len(expr.direction) != rank:
            raise SemanticError(
                "direction %r has rank %d but array %r has rank %d"
                % (expr.direction, len(expr.direction), expr.name, rank),
                expr.location,
            )
        return ExprType(symbol.elem_kind, rank)

    def _check_binop(
        self, expr: ast.BinOp, allow_arrays: bool, statement_rank: Optional[int]
    ) -> ExprType:
        left = self._check_expr(expr.left, allow_arrays, statement_rank)
        right = self._check_expr(expr.right, allow_arrays, statement_rank)
        row = operators.BINARY[expr.op]
        kinds = (left.kind, right.kind)
        if row.operands == operators.BOOLEAN and kinds != ("boolean", "boolean"):
            raise SemanticError(
                "%r requires boolean operands" % expr.op, expr.location
            )
        if row.operands == operators.NUMERIC and "boolean" in kinds:
            raise SemanticError(
                "arithmetic on boolean operands is not allowed", expr.location
            )
        result_kind = operators.result_kind(row, kinds)
        rank = self._merge_ranks(left, right, expr)
        return ExprType(result_kind, rank)

    def _merge_ranks(self, left: ExprType, right: ExprType, expr: ast.Expr) -> int:
        if left.is_array and right.is_array:
            if left.rank != right.rank:
                raise SemanticError(
                    "rank mismatch in binary operation: %d vs %d"
                    % (left.rank, right.rank),
                    expr.location,
                )
            return left.rank
        return max(left.rank, right.rank)

    def _check_call(
        self, expr: ast.Call, allow_arrays: bool, statement_rank: Optional[int]
    ) -> ExprType:
        row = operators.INTRINSICS.get(expr.name)
        if row is None:
            raise SemanticError("unknown function %r" % expr.name, expr.location)
        if len(expr.args) != row.arity:
            raise SemanticError(
                "%s expects %d argument(s), got %d"
                % (expr.name, row.arity, len(expr.args)),
                expr.location,
            )
        arg_types = [
            self._check_expr(arg, allow_arrays, statement_rank) for arg in expr.args
        ]
        rank = 0
        for arg_type in arg_types:
            if arg_type.kind == "boolean":
                raise SemanticError(
                    "%s does not accept boolean arguments" % expr.name, expr.location
                )
            if arg_type.is_array:
                if rank and arg_type.rank != rank:
                    raise SemanticError(
                        "rank mismatch in call to %s" % expr.name, expr.location
                    )
                rank = arg_type.rank
        kind = operators.result_kind(row, [arg.kind for arg in arg_types])
        return ExprType(kind, rank)

    def _check_reduce(self, expr: ast.Reduce) -> ExprType:
        reduce_rank: Optional[int] = None
        if expr.region is not None:
            expr.region = self._resolve_region(expr.region)
            reduce_rank = self.region_rank(expr.region)
        operand = self._check_expr(
            expr.operand, allow_arrays=True, statement_rank=reduce_rank
        )
        if not operand.is_array:
            raise SemanticError(
                "reduction operand must be an array expression", expr.location
            )
        if expr.region is not None:
            rank = self.region_rank(expr.region)
            if rank != operand.rank:
                raise SemanticError(
                    "reduction region rank %d does not match operand rank %d"
                    % (rank, operand.rank),
                    expr.location,
                )
        row = operators.REDUCTIONS[expr.op]
        if row.operands == operators.NUMERIC and operand.kind == "boolean":
            raise SemanticError("cannot reduce a boolean array", expr.location)
        return ExprType(operators.result_kind(row, (operand.kind,)), 0)


def analyze(program: ast.Program) -> CheckedProgram:
    """Run semantic analysis on a parsed program."""
    return Checker(program).check()


def check_source(source: str) -> CheckedProgram:
    """Parse and analyze source text in one step."""
    from repro.lang.parser import parse

    return analyze(parse(source))
