"""Shared IR-expression evaluation for the interpreters.

Two evaluation modes share one dispatch (:func:`_evaluate`); what each
operator computes is the ``np`` column of :mod:`repro.lang.operators`:

* **region mode** — every array reference becomes a numpy view of the
  statement's region translated by the reference offset; the expression
  evaluates to a full numpy array (the reference array-semantics path, and
  reductions in both interpreters);
* **point mode** — array references read single elements at ``index +
  offset`` (the scalarized execution path).
"""

from __future__ import annotations

from typing import Callable, Mapping, Tuple

import numpy as np

from repro.ir import expr as ir
from repro.util.errors import InterpError

#: Statements one run may execute before it is taken for a runaway loop:
#: both interpreters and every mp-shard rank read it when a run starts.
STEP_LIMIT = 50_000_000


def _evaluate(
    expr: ir.IRExpr,
    scalar_env: Mapping[str, object],
    array_leaf: Callable[[str, Tuple[int, ...]], object],
    index_leaf: Callable[[int], object],
):
    """The one dispatch both modes share; they differ in the two leaves.

    Every operator node evaluates its operands and applies the reference
    ``np`` callable of its :mod:`repro.lang.operators` row.
    """
    row = expr.row()
    if row is not None:
        operands = expr.children()
        if len(operands) == 2:  # unrolled: this is the interpreters' hot path
            return row.np(
                _evaluate(operands[0], scalar_env, array_leaf, index_leaf),
                _evaluate(operands[1], scalar_env, array_leaf, index_leaf),
            )
        return row.np(
            *[
                _evaluate(operand, scalar_env, array_leaf, index_leaf)
                for operand in operands
            ]
        )
    if isinstance(expr, ir.ArrayRef):
        return array_leaf(expr.name, expr.offset)
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.ScalarRef):
        if expr.name not in scalar_env:
            raise InterpError("undefined scalar %r" % expr.name)
        return scalar_env[expr.name]
    if isinstance(expr, ir.IndexRef):
        return index_leaf(expr.dim)
    if isinstance(expr, ir.Reduce):
        raise InterpError("nested reduction in an element-wise expression")
    raise InterpError("unknown operator in %r" % expr)


def eval_region(
    expr: ir.IRExpr,
    scalar_env: Mapping[str, object],
    array_view: Callable[[str, Tuple[int, ...]], np.ndarray],
    index_grid: Callable[[int], np.ndarray],
):
    """Evaluate in region mode.

    ``array_view(name, offset)`` returns the numpy view of the statement
    region translated by ``offset``; ``index_grid(dim)`` returns a
    broadcastable grid of coordinates along ``dim``.
    """
    return _evaluate(expr, scalar_env, array_view, index_grid)


def eval_point(
    expr: ir.IRExpr,
    scalar_env: Mapping[str, object],
    element: Callable[[str, Tuple[int, ...]], object],
    point: Tuple[int, ...],
):
    """Evaluate in point mode at index ``point``.

    ``element(name, offset)`` reads the element at ``point + offset``.
    """
    return _evaluate(expr, scalar_env, element, lambda dim: point[dim - 1])


def eval_scalar(expr: ir.IRExpr, scalar_env: Mapping[str, object]):
    """Evaluate a pure scalar expression (no array references)."""

    def no_element(name: str, offset):
        raise InterpError("array %r referenced in scalar context" % name)

    return eval_point(expr, scalar_env, no_element, ())
