"""Reference interpreter: executes normal-form IR with array semantics.

Each array statement evaluates its whole right-hand side over the statement
region (numpy views translated by reference offsets) before assigning into
the target — the array-language semantics the compiler must preserve.  This
is the oracle for differential testing of the optimizer: for every program
and every optimization level, the scalarized execution must produce exactly
the same final state.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.interp import evalexpr
from repro.interp.evalexpr import eval_region, eval_scalar
from repro.interp.storage import Storage
from repro.ir import expr as ir
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
)
from repro.lang import operators
from repro.util.errors import InterpError


class ArrayInterpreter:
    """Executes an :class:`IRProgram` directly."""

    def __init__(self, program: IRProgram) -> None:
        self.program = program
        self.storage = Storage()
        self._config_env = program.config_env()
        for name, info in program.arrays.items():
            self.storage.allocate_array(
                name, program.allocation_region(name), info.elem_kind, self._config_env
            )
        for name, info in program.scalars.items():
            self.storage.declare_scalar(name, info.kind)
        self._steps = 0
        self._max_steps = evalexpr.STEP_LIMIT

    # -- execution -------------------------------------------------------

    def run(self) -> Storage:
        self._execute_body(self.program.body)
        return self.storage

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._max_steps:
            raise InterpError("step limit exceeded (runaway loop?)")

    def _execute_body(self, body: List[IRStatement]) -> None:
        for stmt in body:
            self._execute(stmt)

    def _execute(self, stmt: IRStatement) -> None:
        self._tick()
        if isinstance(stmt, BoundaryStatement):
            from repro.interp.boundary import fill_boundary

            fill_boundary(
                self.storage, stmt.array, self._region_bounds(stmt.region), stmt.kind
            )
        elif isinstance(stmt, ReductionStatement):
            value = self._eval_reduce(ir.Reduce(stmt.op, stmt.region, stmt.rhs))
            self.storage.set_scalar(stmt.scalar_target, value)
        elif isinstance(stmt, ArrayStatement):
            self._execute_array(stmt)
        elif isinstance(stmt, ScalarStatement):
            value = self._eval_scalar_rhs(stmt.rhs)
            self.storage.set_scalar(stmt.target, value)
        elif isinstance(stmt, LoopStatement):
            lo = int(eval_scalar(stmt.lo, self.storage.scalars))
            hi = int(eval_scalar(stmt.hi, self.storage.scalars))
            iterator = range(lo, hi - 1, -1) if stmt.downto else range(lo, hi + 1)
            for value in iterator:
                self.storage.set_scalar(stmt.var, value)
                self._execute_body(stmt.body)
        elif isinstance(stmt, IfStatement):
            if bool(eval_scalar(stmt.cond, self.storage.scalars)):
                self._execute_body(stmt.then_body)
            else:
                self._execute_body(stmt.else_body)
        elif isinstance(stmt, WhileStatement):
            while bool(eval_scalar(stmt.cond, self.storage.scalars)):
                self._tick()
                self._execute_body(stmt.body)
        else:
            raise InterpError("cannot execute %r" % stmt)

    # -- array statements ----------------------------------------------------

    def _region_bounds(self, region: Region) -> Tuple[Tuple[int, int], ...]:
        env = dict(self._config_env)
        env.update(
            (name, int(value))
            for name, value in self.storage.scalars.items()
            if isinstance(value, (int, np.integer))
        )
        return region.concrete_bounds(env)

    def _execute_array(self, stmt: ArrayStatement) -> None:
        bounds = self._region_bounds(stmt.region)
        if any(lo > hi for lo, hi in bounds):
            return  # empty region

        def array_view(name: str, offset) -> np.ndarray:
            return self.storage.slice_view(name, bounds, offset)

        def index_grid(dim: int) -> np.ndarray:
            lo, hi = bounds[dim - 1]
            shape = [1] * len(bounds)
            shape[dim - 1] = hi - lo + 1
            return np.arange(lo, hi + 1).reshape(shape)

        value = eval_region(stmt.rhs, self.storage.scalars, array_view, index_grid)
        target_view = self.storage.slice_view(
            stmt.target, bounds, (0,) * len(bounds)
        )
        target_view[...] = value

    def _eval_scalar_rhs(self, expr: ir.IRExpr):
        def visit(node: ir.IRExpr) -> Optional[ir.IRExpr]:
            if isinstance(node, ir.Reduce):
                return ir.Const(self._eval_reduce(node))
            return None

        folded = expr.map(visit)
        return eval_scalar(folded, self.storage.scalars)

    def _eval_reduce(self, node: ir.Reduce):
        bounds = self._region_bounds(node.region)
        if any(lo > hi for lo, hi in bounds):
            raise InterpError("reduction over an empty region")

        def array_view(name: str, offset) -> np.ndarray:
            return self.storage.slice_view(name, bounds, offset)

        def index_grid(dim: int) -> np.ndarray:
            lo, hi = bounds[dim - 1]
            shape = [1] * len(bounds)
            shape[dim - 1] = hi - lo + 1
            return np.arange(lo, hi + 1).reshape(shape)

        values = eval_region(node.operand, self.storage.scalars, array_view, index_grid)
        full_shape = tuple(hi - lo + 1 for lo, hi in bounds)
        values = np.broadcast_to(np.asarray(values), full_shape)
        row = operators.REDUCTIONS.get(node.op)
        if row is None:
            raise InterpError("unknown reduction operator %r" % node.op)
        return row.np(values)


def run_reference(program: IRProgram) -> Storage:
    """Execute a program under reference array semantics."""
    return ArrayInterpreter(program).run()
