"""Normalization: lower the checked AST into normal-form IR.

The normal form (Section 2.1) requires that (i) no array is both read and
written by one statement, (ii) all arrays in a statement share a rank, and
(iii) the statement's extent is a region and all references are constant
offsets from it.  The front end guarantees (ii) and (iii) syntactically; this
pass enforces (i) by splitting offending statements through a fresh
*compiler temporary*::

    [R] A := A@(1,0) + B      ==>      [R] _T1 := A@(1,0) + B
                                       [R] A   := _T1

Compiler temporaries are flagged so the evaluation can distinguish
compiler-array contraction (the ``c1`` strategy) from user-array contraction
(``c2``).  Reductions inside array statements are hoisted into preceding
scalar statements, keeping array right-hand sides element-wise.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.program import ArrayInfo, IRProgram, ScalarInfo
from repro.ir.region import Region
from repro.ir.statement import (
    ArrayStatement,
    BoundaryStatement,
    IfStatement,
    IRStatement,
    LoopStatement,
    ReductionStatement,
    ScalarStatement,
    WhileStatement,
)
from repro.lang import ast_nodes as ast
from repro.lang.sema import CheckedProgram, Symbol, index_array_dimension
from repro.util.errors import NormalizationError
from repro.util.vectors import zero


class Normalizer:
    """Lowers a :class:`CheckedProgram` to an :class:`IRProgram`."""

    #: Valid self-temp policies: "always" inserts a compiler temporary for
    #: every statement that reads its own target (the paper's ZPL technique);
    #: "zero_offset" elides the temporary when all self-reads are at offset
    #: zero (element-wise self-updates are safe in any loop order);
    #: "reversal" additionally elides it when some loop structure makes every
    #: self-read reference not-yet-written elements (how the Cray F90 and IBM
    #: compilers behave on Figure 5's fragments (4) and (5)).
    SELF_TEMP_POLICIES = ("always", "zero_offset", "reversal")

    def __init__(
        self,
        checked: CheckedProgram,
        config_overrides: Optional[Mapping[str, object]] = None,
        self_temp_policy: str = "always",
    ) -> None:
        if self_temp_policy not in self.SELF_TEMP_POLICIES:
            raise NormalizationError(
                "unknown self-temp policy %r" % self_temp_policy
            )
        self._checked = checked
        self._symtab = checked.symtab
        self._self_temp_policy = self_temp_policy
        self._overrides = dict(config_overrides or {})
        self._configs: Dict[str, object] = {}
        self._regions: Dict[str, Region] = {}
        self._arrays: Dict[str, ArrayInfo] = {}
        self._scalars: Dict[str, ScalarInfo] = {}
        self._temp_count = 0
        self._scalar_temp_count = 0
        # Scalar statements pending insertion before the current statement
        # (hoisted reductions).
        self._pending: List[IRStatement] = []

    # -- entry point --------------------------------------------------------

    def run(self) -> IRProgram:
        self._bind_configs()
        self._bind_regions()
        self._bind_variables()
        body = self._convert_stmts(self._checked.program.body)
        return IRProgram(
            self._checked.name,
            self._configs,
            self._arrays,
            self._scalars,
            body,
        )

    # -- declarations ---------------------------------------------------------

    def _bind_configs(self) -> None:
        for decl in self._checked.program.decls:
            if not isinstance(decl, ast.ConfigDecl):
                continue
            if decl.name in self._overrides:
                value = self._overrides[decl.name]
            else:
                value = self._eval_const(decl.default)
            convert = int if decl.kind == "integer" else float
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError):
                raise NormalizationError(
                    "config %r is %s, got %r" % (decl.name, decl.kind, value)
                ) from None
            self._configs[decl.name] = value
        unknown = set(self._overrides) - set(self._configs)
        if unknown:
            raise NormalizationError(
                "config overrides for undeclared names: %s" % sorted(unknown)
            )

    def _eval_const(self, expr: ast.Expr) -> object:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.VarRef):
            if expr.name in self._configs:
                return self._configs[expr.name]
            raise NormalizationError(
                "config default may only reference earlier configs, not %r"
                % expr.name
            )
        if isinstance(expr, ast.UnOp) and expr.op == "-":
            value = self._eval_const(expr.operand)
            return -value
        if isinstance(expr, ast.BinOp):
            left = self._eval_const(expr.left)
            right = self._eval_const(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
            if expr.op == "%":
                return left % right
        raise NormalizationError("config default is not a constant: %r" % expr)

    def _bind_regions(self) -> None:
        for decl in self._checked.program.decls:
            if isinstance(decl, ast.RegionDecl):
                self._regions[decl.name] = self._region_from_dims(decl.dims)

    def _region_from_dims(self, dims: List[ast.RangeDim]) -> Region:
        return Region(
            [(self._linearize(dim.lo), self._linearize(dim.hi)) for dim in dims]
        )

    def _linearize(self, expr: ast.Expr) -> LinearExpr:
        """Convert a bound expression to an affine form (configs folded)."""
        if isinstance(expr, ast.IntLit):
            return LinearExpr(expr.value)
        if isinstance(expr, ast.VarRef):
            if expr.name in self._configs:
                return LinearExpr(int(self._configs[expr.name]))
            symbol = self._symtab.lookup(expr.name)
            if symbol.kind == Symbol.SCALAR and symbol.elem_kind == "integer":
                return LinearExpr.variable(expr.name)
            raise NormalizationError(
                "region bound references non-integer %r" % expr.name
            )
        if isinstance(expr, ast.UnOp) and expr.op == "-":
            return -self._linearize(expr.operand)
        if isinstance(expr, ast.BinOp):
            left = self._linearize(expr.left)
            right = self._linearize(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
        raise NormalizationError("region bound is not affine: %r" % expr)

    def _bind_variables(self) -> None:
        for symbol in self._symtab.all_symbols():
            if symbol.kind == Symbol.ARRAY:
                region = self._resolve_region_spec(symbol.region)
                self._arrays[symbol.name] = ArrayInfo(
                    symbol.name, region, symbol.elem_kind, is_temp=False
                )
            elif symbol.kind == Symbol.SCALAR:
                self._scalars[symbol.name] = ScalarInfo(symbol.name, symbol.elem_kind)

    def _resolve_region_spec(self, spec: ast.RegionSpec) -> Region:
        if spec.name is not None:
            region = self._regions.get(spec.name)
            if region is None:
                raise NormalizationError("unknown region %r" % spec.name)
            return region
        return self._region_from_dims(spec.dims)

    # -- statements -------------------------------------------------------------

    def _convert_stmts(self, stmts: List[ast.Stmt]) -> List[IRStatement]:
        result: List[IRStatement] = []
        for stmt in stmts:
            result.extend(self._convert_stmt(stmt))
        return result

    def _convert_stmt(self, stmt: ast.Stmt) -> List[IRStatement]:
        if isinstance(stmt, ast.ArrayAssign):
            return self._convert_array_assign(stmt)
        if isinstance(stmt, ast.BoundaryStmt):
            region = self._resolve_region_spec(stmt.region)
            if region.free_variables():
                raise NormalizationError(
                    "boundary statements require a constant region, got %s"
                    % region
                )
            return [BoundaryStatement(region, stmt.kind, stmt.array)]
        if isinstance(stmt, ast.ScalarAssign):
            return self._convert_scalar_assign(stmt)
        if isinstance(stmt, ast.For):
            lo = self._convert_scalar_expr(stmt.lo)
            hi = self._convert_scalar_expr(stmt.hi)
            self._flush_pending_or_fail(stmt, "for-loop bounds")
            body = self._convert_stmts(stmt.body)
            return [LoopStatement(stmt.var, lo, hi, body, downto=stmt.downto)]
        if isinstance(stmt, ast.If):
            cond = self._convert_scalar_expr(stmt.cond)
            pending = self._take_pending()
            then_body = self._convert_stmts(stmt.then_body)
            else_body = self._convert_stmts(stmt.else_body)
            return pending + [IfStatement(cond, then_body, else_body)]
        if isinstance(stmt, ast.While):
            cond = self._convert_scalar_expr(stmt.cond)
            self._flush_pending_or_fail(stmt, "while condition")
            body = self._convert_stmts(stmt.body)
            return [WhileStatement(cond, body)]
        raise NormalizationError("unknown statement %r" % stmt)

    def _flush_pending_or_fail(self, stmt: ast.Stmt, what: str) -> None:
        if self._pending:
            raise NormalizationError(
                "reductions are not allowed in %s (line %s)"
                % (what, stmt.location)
            )

    def _take_pending(self) -> List[IRStatement]:
        pending = self._pending
        self._pending = []
        return pending

    def _convert_array_assign(self, stmt: ast.ArrayAssign) -> List[IRStatement]:
        region = self._resolve_region_spec(stmt.region)
        rhs = self._convert_array_expr(stmt.value, region.rank)
        pending = self._take_pending()

        self_offsets = {
            ref.offset for ref in rhs.array_refs() if ref.name == stmt.target
        }
        if not self_offsets or self._self_temp_elidable(self_offsets, region.rank):
            return pending + [ArrayStatement(region, stmt.target, rhs)]

        # Normal form property (i): split through a compiler temporary.
        temp = self._fresh_temp(stmt.target)
        return pending + [
            ArrayStatement(region, temp, rhs),
            ArrayStatement(region, stmt.target, ir.ArrayRef(temp, zero(region.rank))),
        ]

    def _self_temp_elidable(self, self_offsets, rank: int) -> bool:
        """May a self-updating statement skip its compiler temporary?"""
        if self._self_temp_policy == "always":
            return False
        nonzero = [off for off in self_offsets if any(off)]
        if not nonzero:
            return True  # element-wise self-update: safe in any loop order
        if self._self_temp_policy == "zero_offset":
            return False
        from repro.fusion.loopstruct import find_loop_structure

        return find_loop_structure(nonzero, rank) is not None

    def _fresh_temp(self, for_target: str) -> str:
        self._temp_count += 1
        name = "_T%d" % self._temp_count
        target_info = self._arrays[for_target]
        self._arrays[name] = ArrayInfo(
            name, target_info.region, target_info.elem_kind, is_temp=True
        )
        return name

    def _fresh_scalar_temp(self, kind: str) -> str:
        self._scalar_temp_count += 1
        name = "_s%d" % self._scalar_temp_count
        self._scalars[name] = ScalarInfo(name, kind, is_temp=True)
        return name

    def _convert_scalar_assign(self, stmt: ast.ScalarAssign) -> List[IRStatement]:
        if isinstance(stmt.value, ast.Reduce):
            # A bare reduction becomes a block-resident ReductionStatement so
            # that statement fusion can absorb it (and contract its inputs).
            reduce_ir = self._convert_reduce(stmt.value)
            pending = self._take_pending()
            return pending + [
                ReductionStatement(
                    reduce_ir.region, stmt.target, reduce_ir.op, reduce_ir.operand
                )
            ]
        rhs = self._convert_scalar_expr(stmt.value)
        pending = self._take_pending()
        return pending + [ScalarStatement(stmt.target, rhs)]

    # -- expressions --------------------------------------------------------------

    def _convert_array_expr(self, expr: ast.Expr, rank: int) -> ir.IRExpr:
        """Convert an expression in array (element-wise) context.

        Reductions encountered here are scalar sub-expressions; they are
        hoisted into ``self._pending`` and replaced with a scalar read.
        """
        if isinstance(expr, ast.IntLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.BoolLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.VarRef):
            index_dim = index_array_dimension(expr.name)
            if index_dim is not None and expr.name not in self._symtab:
                return ir.IndexRef(index_dim)
            symbol = self._symtab.lookup(expr.name)
            if symbol.kind == Symbol.ARRAY:
                info = self._arrays[expr.name]
                return ir.ArrayRef(expr.name, zero(info.rank))
            if symbol.kind == Symbol.CONFIG:
                return ir.Const(self._configs[expr.name])
            return ir.ScalarRef(expr.name)
        if isinstance(expr, ast.OffsetRef):
            return ir.ArrayRef(expr.name, tuple(expr.direction))
        if isinstance(expr, ast.BinOp):
            return ir.BinOp(
                expr.op,
                self._convert_array_expr(expr.left, rank),
                self._convert_array_expr(expr.right, rank),
            )
        if isinstance(expr, ast.UnOp):
            return ir.UnOp(expr.op, self._convert_array_expr(expr.operand, rank))
        if isinstance(expr, ast.Call):
            return ir.Call(
                expr.name,
                [self._convert_array_expr(arg, rank) for arg in expr.args],
            )
        if isinstance(expr, ast.Reduce):
            reduce_ir = self._convert_reduce(expr)
            temp = self._fresh_scalar_temp("float")
            self._pending.append(
                ReductionStatement(
                    reduce_ir.region, temp, reduce_ir.op, reduce_ir.operand
                )
            )
            return ir.ScalarRef(temp)
        raise NormalizationError("unsupported expression %r" % expr)

    def _convert_scalar_expr(self, expr: ast.Expr) -> ir.IRExpr:
        if isinstance(expr, ast.IntLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.BoolLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.VarRef):
            symbol = self._symtab.lookup(expr.name)
            if symbol.kind == Symbol.CONFIG:
                return ir.Const(self._configs[expr.name])
            if symbol.kind == Symbol.ARRAY:
                raise NormalizationError(
                    "array %r in scalar context (missed by semantic analysis)"
                    % expr.name
                )
            return ir.ScalarRef(expr.name)
        if isinstance(expr, ast.BinOp):
            return ir.BinOp(
                expr.op,
                self._convert_scalar_expr(expr.left),
                self._convert_scalar_expr(expr.right),
            )
        if isinstance(expr, ast.UnOp):
            return ir.UnOp(expr.op, self._convert_scalar_expr(expr.operand))
        if isinstance(expr, ast.Call):
            return ir.Call(
                expr.name, [self._convert_scalar_expr(arg) for arg in expr.args]
            )
        if isinstance(expr, ast.Reduce):
            # Hoist: reductions become block-resident statements so fusion
            # can absorb them; the scalar expression reads the result.
            reduce_ir = self._convert_reduce(expr)
            temp = self._fresh_scalar_temp("float")
            self._pending.append(
                ReductionStatement(
                    reduce_ir.region, temp, reduce_ir.op, reduce_ir.operand
                )
            )
            return ir.ScalarRef(temp)
        raise NormalizationError("unsupported scalar expression %r" % expr)

    def _convert_reduce(self, expr: ast.Reduce) -> ir.Reduce:
        if expr.region is not None:
            region = self._resolve_region_spec(expr.region)
        else:
            region = self._infer_reduce_region(expr.operand)
        operand = self._convert_array_expr(expr.operand, region.rank)
        return ir.Reduce(expr.op, region, operand)

    def _infer_reduce_region(self, operand: ast.Expr) -> Region:
        regions: List[Region] = []

        def visit(node: ast.Expr) -> None:
            if isinstance(node, (ast.VarRef, ast.OffsetRef)):
                symbol = self._symtab.maybe(node.name)
                if symbol is not None and symbol.kind == Symbol.ARRAY:
                    regions.append(self._arrays[node.name].region)
            for attr in ("left", "right", "operand"):
                child = getattr(node, attr, None)
                if isinstance(child, ast.Expr):
                    visit(child)
            for child in getattr(node, "args", []) or []:
                visit(child)

        visit(operand)
        if not regions:
            raise NormalizationError(
                "cannot infer reduction region: no arrays in operand"
            )
        first = regions[0]
        for region in regions[1:]:
            if region != first:
                raise NormalizationError(
                    "reduction over arrays with different regions needs an "
                    "explicit region"
                )
        return first


def normalize(
    checked: CheckedProgram,
    config_overrides: Optional[Mapping[str, object]] = None,
    self_temp_policy: str = "always",
) -> IRProgram:
    """Lower a checked program into normal-form IR."""
    return Normalizer(checked, config_overrides, self_temp_policy).run()


def normalize_source(
    source: str,
    config_overrides: Optional[Mapping[str, object]] = None,
    self_temp_policy: str = "always",
) -> IRProgram:
    """Parse, check and normalize source text in one step."""
    from repro.lang.sema import check_source

    return normalize(check_source(source), config_overrides, self_temp_policy)
