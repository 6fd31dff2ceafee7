"""Whole-region NumPy code generation.

A third execution back end: compile each fused cluster to slice
operations over entire regions instead of element loops.  Which
dimensions may collapse to slices is one derivation
(:meth:`~repro.scalarize.loopnest.PartitionPlan.slices`) of the nest's
partition plan, where the legality argument is stated once; what this
emitter does with the answer:

* no serial prefix — the nest is a dependence-free sweep, distributed
  statement by statement, each statement one whole-region slice
  operation (zero-distance dependences are preserved by statement order:
  a statement's full-region write completes before the next one reads);
* a serial prefix — those loops are peeled as serial Python loops and
  the free dimensions collapse to slices, one hyperplane at a time (e.g.
  the Figure 1 tridiagonal solve: serial in ``i``, vectorized over
  ``j``);
* no slice form (every level carried, carry depth unknown, or a circular
  buffer's modular indexing) — fall back to the element loops of
  :class:`~repro.scalarize.codegen_py.PyGenerator`.

Contraction scalars inside a vectorized nest become whole-region
temporaries (the value at *every* index point, materialized with
``np.broadcast_to``); after the nest body the scalar is restored from the
"corner" — the index of the nest's final iteration, ``-1`` along
ascending dimensions and ``0`` along descending ones — so subsequent
reads outside the nest observe exactly the value serial execution would
have left behind.

Fold statements evaluate their operand over the whole region and combine
``np.sum``/``np.prod``/``np.max``/``np.min`` of it into the accumulator
(the ``np_step`` of the reduction's :mod:`repro.lang.operators` row),
mirroring the reference interpreter; over an empty region the fold does
not run and the accumulator keeps its value.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.scalarize.codegen_py import PyGenerator
from repro.lang import operators
from repro.scalarize.emit_common import bound_text, frac_operand
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ScalarProgram,
    loop_variable,
    partition_plan,
)
from repro.util.errors import ScalarizationError


class _VectorContext:
    """Rendering context for one vectorized region.

    ``region`` supplies the bounds, ``vdims`` is the set of vectorized
    array dimensions (1-based); the remaining dimensions are indexed by
    their serial loop variables.  Slice results keep one axis per
    vectorized dimension, in ascending dimension order.
    """

    def __init__(self, region: Region, vdims: Sequence[int]) -> None:
        self.region = region
        self.vdims = sorted(vdims)
        self._axis = {dim: k for k, dim in enumerate(self.vdims)}

    def axis_of(self, dim: int) -> int:
        return self._axis[dim]

    @property
    def rank(self) -> int:
        return len(self.vdims)


class NumpyGenerator(PyGenerator):
    """Emits whole-region slice operations where carry analysis allows."""

    # -- loop nests --------------------------------------------------------

    def _emit_nest(self, nest: LoopNest, depth: int) -> None:
        plan = partition_plan(nest, self._program.partial)
        split = plan.slices()
        if split is None:
            super()._emit_nest(nest, depth)
            return
        serial_levels, vdims = split
        ctx = _VectorContext(nest.region, vdims)
        inner = self._emit_loop_headers(nest.region, serial_levels, depth)

        emptiness = self._region_emptiness(ctx)
        if emptiness == "empty":
            # The vectorized dims are statically empty: the nest body never
            # executes (slice assignments would be no-ops, but reductions
            # and corner restores must not run at all).
            if serial_levels:
                self._emit("pass", inner)
            return
        if (plan.folds or plan.corners) and emptiness == "unknown":
            self._emit("if %s:" % self._nonempty_cond(ctx), inner)
            inner += 1

        for stmt in nest.body:
            self._emit_vector_stmt(stmt, nest, ctx, inner)
        corner = ", ".join(
            "-1" if self._dim_direction(nest, dim) > 0 else "0"
            for dim in ctx.vdims
        )
        for name in plan.corners:
            self._emit("%s = %s[%s]" % (name, name, corner), inner)

    @staticmethod
    def _dim_direction(nest: LoopNest, dim: int) -> int:
        for signed in nest.structure:
            if abs(signed) == dim:
                return 1 if signed > 0 else -1
        raise ScalarizationError("dimension %d not in structure" % dim)

    def _region_emptiness(self, ctx: _VectorContext) -> str:
        """'nonempty' / 'empty' / 'unknown' for the vectorized dims."""
        verdict = "nonempty"
        for dim in ctx.vdims:
            lo, hi = ctx.region.dims[dim - 1]
            extent = hi - lo
            if not extent.is_constant:
                verdict = "unknown"
            elif extent.const < 0:
                return "empty"
        return verdict

    def _nonempty_cond(self, ctx: _VectorContext) -> str:
        clauses = []
        for dim in ctx.vdims:
            lo, hi = ctx.region.dims[dim - 1]
            if not (hi - lo).is_constant:
                clauses.append("%s >= %s" % (bound_text(hi), bound_text(lo)))
        return " and ".join(clauses)

    def _emit_vector_stmt(
        self, stmt: ElemAssign, nest: LoopNest, ctx: _VectorContext, depth: int
    ) -> None:
        value = self._vexpr(stmt.rhs, ctx)
        if stmt.reduce_op is not None:
            folded = operators.REDUCTIONS[stmt.reduce_op].np_step.format(
                stmt.scalar_target, self._broadcast(value, ctx)
            )
            self._emit("%s = %s" % (stmt.scalar_target, folded), depth)
        elif stmt.is_contracted:
            # Materialize the scalar's value at every index point so the
            # corner restore (and any vector read downstream) is well
            # defined even when the RHS contains no array reference.
            self._emit(
                "%s = %s" % (stmt.scalar_target, self._broadcast(value, ctx)),
                depth,
            )
        else:
            target = self._vector_element(
                stmt.target, (0,) * nest.rank, ctx
            )
            self._emit("%s = %s" % (target, value), depth)

    def _broadcast(self, value: str, ctx: _VectorContext) -> str:
        return "np.broadcast_to(np.asarray(%s), %s)" % (
            value,
            self._shape_text(ctx),
        )

    def _shape_text(self, ctx: _VectorContext) -> str:
        extents = []
        for dim in ctx.vdims:
            lo, hi = ctx.region.dims[dim - 1]
            extents.append(bound_text(hi - lo, 1))
        return "(%s,)" % ", ".join(extents)

    # -- vector expression rendering ---------------------------------------

    def _vector_element(self, array: str, offset, ctx: _VectorContext) -> str:
        indices = []
        for dim, (off, base) in enumerate(
            zip(offset, self._bases[array]), start=1
        ):
            shift = off - base
            if dim in ctx._axis:
                lo, hi = ctx.region.dims[dim - 1]
                indices.append(
                    "%s:%s" % (bound_text(lo, shift), bound_text(hi, shift + 1))
                )
            elif shift:
                indices.append("%s %+d" % (loop_variable(dim), shift))
            else:
                indices.append(loop_variable(dim))
        return "%s[%s]" % (array, ", ".join(indices))

    def _index_grid(self, dim: int, ctx: _VectorContext) -> str:
        lo, hi = ctx.region.dims[dim - 1]
        grid = "np.arange(%s, %s)" % (bound_text(lo), bound_text(hi, 1))
        if ctx.rank == 1:
            return grid
        shape = ["1"] * ctx.rank
        shape[ctx.axis_of(dim)] = "-1"
        return "%s.reshape(%s)" % (grid, ", ".join(shape))

    def _vexpr(self, expr: ir.IRExpr, ctx: _VectorContext) -> str:
        if isinstance(expr, ir.ArrayRef):
            return self._vector_element(expr.name, expr.offset, ctx)
        if isinstance(expr, ir.IndexRef):
            if expr.dim in ctx._axis:
                return self._index_grid(expr.dim, ctx)
            return loop_variable(expr.dim)
        if isinstance(expr, (ir.Const, ir.ScalarRef)):
            return self._expr(expr)
        dividend = frac_operand(expr)
        if dividend is not None:
            # ``np.mod(x, 1.0)`` without its per-element libm fmod; the
            # walrus keeps the operand evaluated once.
            return "((_f := %s) - np.floor(_f))" % self._vexpr(dividend, ctx)
        # The NumPy column mirrors the reference evaluation operator for
        # operator, so slice results match the interpreters.
        row = expr.row()
        if row is None:
            raise ScalarizationError("cannot render %r" % expr)
        return row.np_text.format(
            *[self._vexpr(arg, ctx) for arg in expr.children()]
        )


def render_numpy(program: ScalarProgram) -> str:
    """Render a scalarized program as vectorized NumPy source."""
    return NumpyGenerator(program).render()
