"""Scalarization (Section 4.2).

Generates one loop nest per fusible cluster.  Loop nests and the statements
inside them are ordered by topological sorts of the inter- and
intra-fusible-cluster dependences respectively; each nest's structure comes
from FIND-LOOP-STRUCTURE via :meth:`FusionPartition.loop_structure`.
Contracted arrays are rewritten to scalars during the same pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.fusion.pipeline import Level, ProgramPlan, plan_program
from repro.ir import expr as ir
from repro.ir.expr import compile_memo
from repro.ir.program import IRProgram
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
    basic_blocks,
)
from repro.lang import operators
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SNode,
    SWhile,
)
from repro.util.errors import ScalarizationError
from repro.util.vectors import is_zero


def contraction_scalar(array: str) -> str:
    """The scalar replacing a contracted array."""
    return array + "__s"


class Scalarizer:
    """Lower an :class:`IRProgram` under a :class:`ProgramPlan`."""

    def __init__(self, program: IRProgram, plan: ProgramPlan) -> None:
        self._program = program
        self._plan = plan
        self._contracted = plan.contracted_arrays()
        self._range_scalars = plan.all_range_scalars()
        self._reduce_temp_count = 0
        self._scalars: Dict[str, str] = {
            info.name: info.kind for info in program.scalars.values()
        }
        self._array_kinds: Dict[str, str] = {
            name: info.elem_kind for name, info in program.arrays.items()
        }

    def _expr_kind(self, expr: ir.IRExpr) -> str:
        return ir.kind_of(expr, self._array_kinds, self._scalars)

    def run(self) -> ScalarProgram:
        for (_uid, array), scalar in sorted(self._range_scalars.items()):
            info = self._program.arrays[array]
            self._scalars[scalar] = info.elem_kind

        partial = self._plan.partial_arrays()
        array_allocs: Dict[str, Tuple[Region, str]] = {}
        for name, info in self._program.arrays.items():
            if name in self._contracted:
                continue
            region = self._program.allocation_region(name)
            if name in partial:
                dim, depth = partial[name]
                dims = list(region.dims)
                from repro.ir.linexpr import LinearExpr

                dims[dim - 1] = (LinearExpr(0), LinearExpr(depth - 1))
                region = Region(dims)
            array_allocs[name] = (region, info.elem_kind)

        body = self._convert_body(self._program.body)
        # The compiler's own names — temporary arrays, hoisted reductions'
        # ``_s*`` and ``_red*``, contraction and CSE scalars — are not
        # results.
        results = [
            info.name
            for info in self._program.user_arrays()
            if info.name in array_allocs
        ] + [info.name for info in self._program.user_scalars()]
        return ScalarProgram(
            self._program.name,
            dict(self._program.configs),
            array_allocs,
            self._scalars,
            body,
            partial,
            results=results,
        )

    # -- statement conversion ------------------------------------------------

    def _convert_body(self, stmts: List[IRStatement]) -> List[SNode]:
        result: List[SNode] = []
        covered: Set[int] = set()
        block_starts = {start: run for start, run in basic_blocks(stmts)}
        index = 0
        while index < len(stmts):
            if index in block_starts:
                run = block_starts[index]
                result.extend(self._convert_block(run))
                index += len(run)
                continue
            stmt = stmts[index]
            result.extend(self._convert_control(stmt))
            index += 1
        del covered
        return result

    def _convert_control(self, stmt: IRStatement) -> List[SNode]:
        if isinstance(stmt, BoundaryStatement):
            return [SBoundary(stmt.region, stmt.kind, stmt.array)]
        if isinstance(stmt, ScalarStatement):
            return self._convert_scalar_statement(stmt)
        if isinstance(stmt, LoopStatement):
            return [
                SeqLoop(
                    stmt.var,
                    stmt.lo,
                    stmt.hi,
                    self._convert_body(stmt.body),
                    stmt.downto,
                )
            ]
        if isinstance(stmt, IfStatement):
            return [
                SIf(
                    stmt.cond,
                    self._convert_body(stmt.then_body),
                    self._convert_body(stmt.else_body),
                )
            ]
        if isinstance(stmt, WhileStatement):
            return [SWhile(stmt.cond, self._convert_body(stmt.body))]
        raise ScalarizationError("unexpected statement %r" % stmt)

    def _fold_nest(self, target: str, node: ir.Reduce) -> List[SNode]:
        """``target := identity`` then a one-statement fold nest over the region."""
        kind = self._expr_kind(node.operand)
        step = ElemAssign(
            None, target, self._rewrite(node.operand), reduce_op=node.op
        )
        structure = tuple(range(1, node.region.rank + 1))
        return [
            ScalarAssign(
                target, ir.Const(operators.REDUCTIONS[node.op].identity_of(kind))
            ),
            LoopNest(node.region, structure, [step], carried_depth=0),
        ]

    def _convert_scalar_statement(self, stmt: ScalarStatement) -> List[SNode]:
        """Lower a scalar assignment, extracting reductions into fold nests.

        Normalization hoists every source-level reduction into a block
        (see :meth:`_convert_block`); only hand-built IR still carries an
        ``ir.Reduce`` here, and it lowers to the same form.
        """
        if isinstance(stmt.rhs, ir.Reduce):
            # The whole RHS is one reduction: fold straight into the target.
            return self._fold_nest(stmt.target, stmt.rhs)
        extracted: List[SNode] = []

        def visit(node: ir.IRExpr) -> Optional[ir.IRExpr]:
            if isinstance(node, ir.Reduce):
                self._reduce_temp_count += 1
                temp = "_red%d" % self._reduce_temp_count
                self._scalars[temp] = self._expr_kind(node.operand)
                extracted.extend(self._fold_nest(temp, node))
                return ir.ScalarRef(temp)
            return None

        rhs = stmt.rhs.map(visit)
        return extracted + [ScalarAssign(stmt.target, rhs)]

    def _convert_block(self, block: List[ArrayStatement]) -> List[SNode]:
        from repro.deps.asdg import DepType
        from repro.fusion.loopstruct import serial_depth

        plan = self._plan.plan_for(block)
        partition = plan.partition
        nests: List[SNode] = []
        for cluster_id in partition.cluster_order():
            members = partition.statement_order(cluster_id)
            region = members[0].region
            structure = partition.loop_structure(cluster_id)
            cse = plan.cse.for_cluster(cluster_id) if plan.cse else None
            for stmt in members:
                if isinstance(stmt, ReductionStatement):
                    kind = self._expr_kind(self._rewrite_stmt(stmt))
                    identity = operators.REDUCTIONS[stmt.op].identity_of(kind)
                    nests.append(
                        ScalarAssign(stmt.scalar_target, ir.Const(identity))
                    )
            body: List[ElemAssign] = []
            for stmt in members:
                if cse is not None:
                    for hoist in cse.hoists:
                        if hoist.before_uid == stmt.uid:
                            self._scalars[hoist.scalar] = self._expr_kind(
                                hoist.rhs
                            )
                            body.append(
                                ElemAssign(None, hoist.scalar, hoist.rhs)
                            )
                body.append(self._convert_statement(stmt, cse))
            udvs = [
                udv
                for _var, udv, dep_type in partition.intra_cluster_udvs(
                    {cluster_id}
                )
                if dep_type is not DepType.SCALAR
            ]
            nests.append(
                LoopNest(
                    region,
                    structure,
                    body,
                    cluster_id,
                    carried_depth=serial_depth(structure, udvs),
                )
            )
        return nests

    def _convert_statement(self, stmt: ArrayStatement, cse=None) -> ElemAssign:
        if cse is not None and stmt.uid in cse.rewritten:
            # Redundancy elimination already applied the contraction
            # rewrite and replaced hoisted terms with scalar reads.
            rhs = cse.rewritten[stmt.uid]
        else:
            rhs = self._rewrite_stmt(stmt)
        if isinstance(stmt, ReductionStatement):
            return ElemAssign(None, stmt.scalar_target, rhs, reduce_op=stmt.op)
        target_scalar = self._range_scalars.get((stmt.uid, stmt.target))
        if target_scalar is not None:
            return ElemAssign(None, target_scalar, rhs)
        return ElemAssign(stmt.target, None, rhs)

    def _rewrite_stmt(self, stmt: ArrayStatement) -> ir.IRExpr:
        """Replace this statement's contracted-range reads with scalars."""

        def visit(node: ir.IRExpr) -> Optional[ir.IRExpr]:
            if isinstance(node, ir.ArrayRef):
                scalar = self._range_scalars.get((stmt.uid, node.name))
                if scalar is not None:
                    if not is_zero(node.offset):
                        raise ScalarizationError(
                            "contracted array %s referenced at non-zero "
                            "offset %r" % (node.name, node.offset)
                        )
                    return ir.ScalarRef(scalar)
            return None

        return stmt.rhs.map(visit)

    def _rewrite(self, expr: ir.IRExpr) -> ir.IRExpr:
        """Rewrite for non-block expressions (hoisted scalar statements).

        Arrays read outside basic blocks are never contracted (liveness
        forbids it), so this is the identity apart from a defensive check.
        """
        for node in expr.walk():
            if isinstance(node, ir.ArrayRef) and node.name in self._contracted:
                raise ScalarizationError(
                    "eliminated array %s read outside its block" % node.name
                )
        return expr


def scalarize(program: IRProgram, plan: ProgramPlan) -> ScalarProgram:
    """Scalarize ``program`` under a previously computed plan."""
    with compile_memo(), program.indexed():
        return Scalarizer(program, plan).run()


def compile_program(program: IRProgram, level: Level) -> ScalarProgram:
    """Plan and scalarize in one step."""
    return scalarize(program, plan_program(program, level))
