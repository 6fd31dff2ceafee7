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

Every region-sized value of a vectorized nest gets a buffer, decided once
per nest from its body:

* a stored statement whose top operator is one NumPy ufunc (the row's
  ``ufunc`` column) and whose value has the target's kind writes straight
  into the target, ``np.<ufunc>(l, r, out=<target slice>)`` — NumPy's
  overlap rule makes that equal to ``target[...] = l op r`` even when an
  operand overlaps the target;
* a contraction scalar holds the value at *every* index point.  It is
  computed with ``out=`` into the buffer of a scalar the statement reads
  for the last time, when that buffer is *owned* — the fresh result of an
  operator, not an ``np.broadcast_to`` view, an array view or a buffer an
  alias ``S := P`` shares — and holds values of the same kind; otherwise
  it is a fresh array (only a value without the region's shape — built
  from constants, scalars and index grids along some dimensions — is
  wrapped in ``np.broadcast_to``);
* the kind is :func:`~repro.ir.expr.kind_of` over the expression that
  computed the value, with the kinds of the region values it read, and
  certain only if every other scalar it reads could hold any kind without
  changing it: at ``c2`` a float-declared contraction scalar can hold
  int64 values, and ``out=`` into an int64 buffer would raise or cast;
* where there is no buffer to write into, the text keeps operator syntax:
  ``np.add(a, b)`` without ``out=`` would lose NumPy's own reuse of the
  refcount-1 temporaries of ``a + b``.

A contraction scalar is not observable after its nest
(:class:`~repro.scalarize.loopnest.ScalarProgram` refuses any read
there), so after the nest body every one the nest assigned is released
(``del X, Y``): its region buffer goes back to the allocator before the
next nest allocates its own.

Fold statements evaluate their operand over the whole region and combine
``np.sum``/``np.prod``/``np.max``/``np.min`` of it into the accumulator
(the ``np_step`` of the reduction's :mod:`repro.lang.operators` row),
mirroring the reference interpreter; over an empty region the fold does
not run and the accumulator keeps its value.  A nest that assigns
scalars (a fold or a contraction temporary) over a region that may be
empty only at run time is guarded: ``np.broadcast_to`` refuses a
negative extent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

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
        #: Contraction scalars holding a region value at this point of the
        #: body -> the kind of that value (``None``: not certain).
        self.shaped: Dict[str, Optional[str]] = {}
        #: The subset bound to a buffer no other name shares: the fresh
        #: result of an operator -> its kind.
        self.owned: Dict[str, str] = {}

    def axis_of(self, dim: int) -> int:
        return self._axis[dim]

    @property
    def rank(self) -> int:
        return len(self.vdims)


def _last_reads(body: Sequence[ElemAssign]) -> List[Set[str]]:
    """Per statement, the scalars whose value it reads for the last time:
    no later statement of the body reads it before it is assigned again."""
    live: Set[str] = set()
    last: List[Set[str]] = []
    for stmt in reversed(body):
        reads = {ref.name for ref in stmt.rhs.scalar_refs()}
        if stmt.is_contracted and stmt.reduce_op is None:
            live.discard(stmt.scalar_target)
        last.append(reads - live)
        live |= reads
    last.reverse()
    return last


class NumpyGenerator(PyGenerator):
    """Emits whole-region slice operations where carry analysis allows."""

    def __init__(self, program: ScalarProgram) -> None:
        super().__init__(program)
        self._array_kinds = {
            name: kind for name, (_region, kind) in program.array_allocs.items()
        }

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
            # must not run at all).
            if serial_levels:
                self._emit("pass", inner)
            return
        if emptiness == "unknown" and any(
            stmt.is_contracted for stmt in nest.body
        ):
            self._emit("if %s:" % self._nonempty_cond(ctx), inner)
            inner += 1

        for stmt, last_reads in zip(nest.body, _last_reads(nest.body)):
            self._emit_vector_stmt(stmt, last_reads, nest, ctx, inner)
        if ctx.shaped:
            self._emit("del %s" % ", ".join(ctx.shaped), inner)

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
        self,
        stmt: ElemAssign,
        last_reads: Set[str],
        nest: LoopNest,
        ctx: _VectorContext,
        depth: int,
    ) -> None:
        if stmt.reduce_op is not None:
            folded = operators.REDUCTIONS[stmt.reduce_op].np_step.format(
                stmt.scalar_target, self._region_value(stmt.rhs, ctx)
            )
            self._emit("%s = %s" % (stmt.scalar_target, folded), depth)
            return
        ufunc = self._ufunc(stmt.rhs)
        if not stmt.is_contracted:
            target = self._vector_element(stmt.target, (0,) * nest.rank, ctx)
            if (
                ufunc is not None
                and self._axes(stmt.rhs, ctx)
                and self._value_kind(stmt.rhs, ctx) == self._array_kinds[stmt.target]
            ):
                self._emit(self._into(ufunc, stmt.rhs, target, ctx), depth)
            else:
                self._emit("%s = %s" % (target, self._vexpr(stmt.rhs, ctx)), depth)
            return
        name = stmt.scalar_target
        kind = self._value_kind(stmt.rhs, ctx)
        # An owned buffer of this value's kind that no later statement reads.
        dead = [
            ref.name
            for ref in stmt.rhs.scalar_refs()
            if ref.name in last_reads and ctx.owned.get(ref.name) == kind
        ] if ufunc is not None and kind is not None else []
        if dead:
            buffer = dead[0]
            del ctx.owned[buffer]
            self._emit(
                "%s = %s" % (name, self._into(ufunc, stmt.rhs, buffer, ctx)),
                depth,
            )
            ctx.owned[name] = kind
        else:
            # Materialize the scalar's value at every index point so any
            # vector read downstream is well defined even when the RHS
            # contains no array reference.
            self._emit(
                "%s = %s" % (name, self._region_value(stmt.rhs, ctx)), depth
            )
            if isinstance(stmt.rhs, ir.ScalarRef):
                # ``S := P`` aliases P's buffer: neither name owns it.
                ctx.owned.pop(stmt.rhs.name, None)
            if (
                kind is not None
                and stmt.rhs.row() is not None
                and len(self._axes(stmt.rhs, ctx)) == ctx.rank
            ):
                ctx.owned[name] = kind
            else:
                ctx.owned.pop(name, None)
        ctx.shaped[name] = kind

    def _value_kind(self, expr: ir.IRExpr, ctx: _VectorContext) -> Optional[str]:
        """The kind of the value ``expr`` computes, or ``None`` if it is not
        certain.

        Arrays hold their declared kind and region values the kind that
        computed them, but any other scalar may hold any kind at run time
        (a float left in an integer scalar stays a float).  A result kind
        only grows with its operands' kinds, so ``expr``'s is certain when
        those scalars all boolean and all float give the same one.
        """
        unknown = [
            ref.name
            for ref in expr.scalar_refs()
            if ctx.shaped.get(ref.name) is None
        ]
        if not unknown:
            return ir.kind_of(expr, self._array_kinds, ctx.shaped)
        low, high = (
            ir.kind_of(
                expr, self._array_kinds, {**ctx.shaped, **dict.fromkeys(unknown, bound)}
            )
            for bound in ("boolean", "float")
        )
        return low if low == high else None

    @staticmethod
    def _ufunc(expr: ir.IRExpr) -> Optional[str]:
        """The NumPy ufunc ``expr``'s top operator is, or ``None`` where its
        NumPy text is more than one ufunc call."""
        row = expr.row()
        if row is None or frac_operand(expr) is not None:
            return None
        return row.ufunc

    def _into(
        self, ufunc: str, expr: ir.IRExpr, out: str, ctx: _VectorContext
    ) -> str:
        """``expr`` computed straight into ``out``.  Only with ``out=``: a
        bare ``np.add(a, b)`` would lose NumPy's in-place reuse of the
        refcount-1 temporaries of ``a + b``."""
        return "np.%s(%s, out=%s)" % (
            ufunc,
            ", ".join(self._vexpr(arg, ctx) for arg in expr.children()),
            out,
        )

    def _axes(self, expr: ir.IRExpr, ctx: _VectorContext) -> Set[int]:
        """The vectorized dimensions ``expr``'s value spans: none for a
        Python number, every one for a value with the nest's vector shape.

        An array reference slicing every vectorized dimension and a
        contraction scalar holding a region value span them all, an index
        grid its own dimension, and every operator is element-wise.
        """
        axes: Set[int] = set()
        for node in expr.walk():
            if isinstance(node, ir.ArrayRef):
                if ctx.vdims[-1] <= len(node.offset):
                    return set(ctx.vdims)
                axes.update(
                    dim for dim in range(1, len(node.offset) + 1) if dim in ctx._axis
                )
            elif isinstance(node, ir.ScalarRef) and node.name in ctx.shaped:
                return set(ctx.vdims)
            elif isinstance(node, ir.IndexRef) and node.dim in ctx._axis:
                axes.add(node.dim)
        return axes

    def _region_value(self, expr: ir.IRExpr, ctx: _VectorContext) -> str:
        """``expr`` rendered as its value at every index point; only one
        without the region's shape is widened with ``np.broadcast_to``."""
        value = self._vexpr(expr, ctx)
        if len(self._axes(expr, ctx)) == ctx.rank:
            return value
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
