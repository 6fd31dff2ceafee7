"""Constant folding and algebraic simplification of IR expressions.

Normalization folds configuration constants into literals, which leaves
right-hand sides full of foldable subtrees (``2.0 * 0.5``, ``x + 0``,
``1 * y``...).  This pass cleans them up before scalarization: fewer
operation nodes mean fewer flops in the generated loops and in the cost
model — the same local simplifications the ZPL compiler's back end relied
on its C compiler for.

The pass is semantics-preserving under IEEE floating point only for the
rewrites listed here; in particular ``x * 0 -> 0`` is *not* performed
(it would drop NaN/inf propagation) and reassociation is never attempted.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from repro.ir import expr as ir
from repro.lang import operators
from repro.ir.program import IRProgram
from repro.ir.statement import (
    ArrayStatement,
    IfStatement,
    IRStatement,
    LoopStatement,
    ScalarStatement,
    WhileStatement,
)


def _const_value(node: ir.IRExpr):
    if isinstance(node, ir.Const) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return node.value
    return None


def _is_zero(node: ir.IRExpr) -> bool:
    value = _const_value(node)
    return value == 0

def _is_one(node: ir.IRExpr) -> bool:
    value = _const_value(node)
    return value == 1


def _is_neg_zero(node: ir.IRExpr) -> bool:
    value = _const_value(node)
    return (
        isinstance(value, float)
        and value == 0.0
        and math.copysign(1.0, value) < 0
    )


def _fold_identity(
    node: ir.BinOp,
    array_kinds: Mapping[str, str],
    scalar_kinds: Mapping[str, str],
) -> Optional[ir.IRExpr]:
    """Kind-gated identity-element rewrites.

    Every rewrite here must preserve IEEE bit patterns *and* the result
    dtype, so each one is gated on the proved kind of the surviving
    operand:

    * ``x + 0.0 -> x`` is wrong for ``x = -0.0`` (the sum is ``+0.0``
      under round-to-nearest); only ``x + (-0.0)`` preserves every float
      ``x``, and only int ``x + 0`` preserves every int ``x``.
    * ``x - 0.0 -> x`` *is* exact for floats (``-0.0 - 0.0 == -0.0``),
      but ``x - (-0.0)`` is not (``-0.0 - (-0.0) == +0.0``).
    * ``x * 1`` / ``x / 1`` / ``x ^ 1`` are value-exact, but ``/`` and
      ``^`` promote int operands to float, and an int literal ``1`` on a
      ``*`` keeps int-typed ``x`` int while ``1.0`` would promote it —
      so each requires the operand kind that makes the fold dtype-exact.
    * boolean operands are never rewritten (``True + 0`` is int ``1`` at
      runtime, not ``True``).
    """

    def kind_of(side: ir.IRExpr) -> Optional[str]:
        return ir.kind_of(side, array_kinds, scalar_kinds, strict=True)

    def zero_fold_ok(zero: ir.IRExpr, keep: ir.IRExpr) -> bool:
        # x + 0 (int zero) is exact for int x; x + (-0.0) for float x.
        value = _const_value(zero)
        if not _is_zero(zero):
            return False
        if isinstance(value, int):
            return kind_of(keep) == "integer"
        return _is_neg_zero(zero) and kind_of(keep) == "float"

    if node.op == "+":
        if zero_fold_ok(node.left, node.right):
            return node.right
        if zero_fold_ok(node.right, node.left):
            return node.left
    elif node.op == "-":
        if _is_zero(node.right) and not _is_neg_zero(node.right):
            value = _const_value(node.right)
            kind = kind_of(node.left)
            if isinstance(value, int):
                # x - 0 subtracts +0 after promotion: exact for both.
                if kind in ("integer", "float"):
                    return node.left
            elif kind == "float":
                return node.left
    elif node.op == "*":
        if _is_one(node.left):
            node = ir.BinOp(node.op, node.right, node.left)
        if _is_one(node.right):
            value = _const_value(node.right)
            kind = kind_of(node.left)
            if isinstance(value, int):
                if kind in ("integer", "float"):
                    return node.left
            elif kind == "float":
                return node.left
    elif node.op == "/":
        # Division promotes to float: only a float operand keeps dtype.
        if _is_one(node.right) and kind_of(node.left) == "float":
            return node.left
    elif node.op == "^":
        if _is_one(node.right) and kind_of(node.left) == "float":
            return node.left
    return None


def _fold_constants(node: ir.IRExpr) -> Optional[ir.Const]:
    """``node`` applied to constant operands, as the constant it evaluates to.

    The operator's row says how (``fold``) and of which kind the result
    is: integer operands of ``abs``/``min``/``max`` fold to an integer,
    as they evaluate at run time.  ``None`` when an operand is not a
    numeric constant, the row is left to run time, or evaluating raises
    (the run-time behaviour — an error, an ``inf`` — is kept).
    """
    row = node.row()
    if row is None or row.fold is None:
        return None
    values = [_const_value(child) for child in node.children()]
    if any(value is None for value in values):
        return None
    try:
        result = row.fold(*values)
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    kinds = ["integer" if isinstance(value, int) else "float" for value in values]
    if operators.result_kind(row, kinds) == "integer":
        return ir.Const(int(result))
    return ir.Const(float(result))


def _fold_double_negation(node: ir.UnOp) -> Optional[ir.IRExpr]:
    if (
        node.op == "-"
        and isinstance(node.operand, ir.UnOp)
        and node.operand.op == "-"
    ):
        return node.operand.operand
    return None


def simplify_expr(
    expr: ir.IRExpr,
    array_kinds: Optional[Mapping[str, str]] = None,
    scalar_kinds: Optional[Mapping[str, str]] = None,
) -> ir.IRExpr:
    """Fold constants and identities bottom-up; semantics-preserving.

    The kind maps gate the identity-element rewrites: without them only
    rewrites that are exact for *every* possible operand kind fire (see
    :func:`_fold_identity`).
    """
    array_kinds = array_kinds or {}
    scalar_kinds = scalar_kinds or {}

    def visit(node: ir.IRExpr) -> Optional[ir.IRExpr]:
        if not isinstance(node, (ir.BinOp, ir.UnOp, ir.Call)):
            return None
        folded = _fold_constants(node)
        if folded is not None:
            return folded
        # Identity elements.  (x*0 and 0/x are NOT folded: NaN/inf semantics.)
        if isinstance(node, ir.BinOp):
            return _fold_identity(node, array_kinds, scalar_kinds)
        if isinstance(node, ir.UnOp):
            return _fold_double_negation(node)
        return None

    return expr.map(visit)


def program_kind_maps(program: IRProgram):
    """(array, scalar) element-kind tables for kind-gated rewrites."""
    array_kinds: Dict[str, str] = {
        name: info.elem_kind for name, info in program.arrays.items()
    }
    scalar_kinds: Dict[str, str] = {
        name: info.kind for name, info in program.scalars.items()
    }
    for name, value in program.configs.items():
        if isinstance(value, bool):
            scalar_kinds.setdefault(name, "boolean")
        elif isinstance(value, int):
            scalar_kinds.setdefault(name, "integer")
        elif isinstance(value, float):
            scalar_kinds.setdefault(name, "float")
    return array_kinds, scalar_kinds


def simplify_program(program: IRProgram) -> IRProgram:
    """Simplify every statement's expressions in place; returns the program."""
    array_kinds, scalar_kinds = program_kind_maps(program)

    def simplify(expr: ir.IRExpr) -> ir.IRExpr:
        return simplify_expr(expr, array_kinds, scalar_kinds)

    def walk(body: List[IRStatement]) -> None:
        for stmt in body:
            if isinstance(stmt, ArrayStatement):
                stmt.rhs = simplify(stmt.rhs)
            elif isinstance(stmt, ScalarStatement):
                stmt.rhs = simplify(stmt.rhs)
            elif isinstance(stmt, LoopStatement):
                stmt.lo = simplify(stmt.lo)
                stmt.hi = simplify(stmt.hi)
                walk(stmt.body)
            elif isinstance(stmt, IfStatement):
                stmt.cond = simplify(stmt.cond)
                walk(stmt.then_body)
                walk(stmt.else_body)
            elif isinstance(stmt, WhileStatement):
                stmt.cond = simplify(stmt.cond)
                walk(stmt.body)

    walk(program.body)
    return program
