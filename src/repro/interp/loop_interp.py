"""Scalarized-program interpreter: executes loop nests element by element.

This interpreter runs the *output* of the compiler (fusion partition, loop
structure vectors, contraction rewrites) with exactly the iteration order
scalarization prescribes, so any illegal fusion, wrong loop direction or
unsound contraction shows up as a state divergence from the reference
interpreter.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.interp.evalexpr import eval_point, eval_scalar
from repro.interp.storage import Storage
from repro.lang import operators
from repro.scalarize.emit_common import build_state
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
    int_config_env,
)
from repro.util.errors import InterpError
from repro.util.vectors import add


class LoopInterpreter:
    """Executes a :class:`ScalarProgram` in place on the ``arrays`` and
    starting ``scalars`` it is handed (:func:`~repro.scalarize.emit_common.
    build_state` over the program's layout)."""

    def __init__(self, program: ScalarProgram, arrays, scalars) -> None:
        self.program = program
        self.storage = Storage(
            arrays, program.array_bases(), scalars, program.partial
        )
        self._config_env = int_config_env(program.configs)
        self._steps = 0
        self._max_steps = 50_000_000

    def run(self) -> Storage:
        self._execute_body(self.program.body)
        return self.storage

    # ------------------------------------------------------------------

    def _tick(self, count: int = 1) -> None:
        self._steps += count
        if self._steps > self._max_steps:
            raise InterpError("step limit exceeded (runaway loop?)")

    def _int_env(self):
        env = dict(self._config_env)
        env.update(
            (name, int(value))
            for name, value in self.storage.scalars.items()
            if isinstance(value, (int, np.integer))
        )
        return env

    def _execute_body(self, body: List[SNode]) -> None:
        for node in body:
            self._execute(node)

    def _execute(self, node: SNode) -> None:
        self._tick()
        if isinstance(node, LoopNest):
            self._execute_nest(node)
        elif isinstance(node, SBoundary):
            from repro.interp.boundary import fill_boundary

            fill_boundary(
                self.storage,
                node.array,
                node.region.concrete_bounds(self._int_env()),
                node.kind,
            )
        elif isinstance(node, ScalarAssign):
            value = eval_scalar(node.rhs, self.storage.scalars)
            self.storage.set_scalar(node.target, value)
        elif isinstance(node, SeqLoop):
            lo = int(eval_scalar(node.lo, self.storage.scalars))
            hi = int(eval_scalar(node.hi, self.storage.scalars))
            iterator = range(lo, hi - 1, -1) if node.downto else range(lo, hi + 1)
            for value in iterator:
                self.storage.set_scalar(node.var, value)
                self._execute_body(node.body)
        elif isinstance(node, SIf):
            if bool(eval_scalar(node.cond, self.storage.scalars)):
                self._execute_body(node.then_body)
            else:
                self._execute_body(node.else_body)
        elif isinstance(node, SWhile):
            while bool(eval_scalar(node.cond, self.storage.scalars)):
                self._tick()
                self._execute_body(node.body)
        else:
            raise InterpError("cannot execute %r" % node)

    # -- loop nests ------------------------------------------------------------

    def _iteration_ranges(self, nest: LoopNest) -> List[Tuple[int, range]]:
        """(dimension, index range) per loop, outermost first."""
        bounds = nest.region.concrete_bounds(self._int_env())
        result = []
        for signed_dim in nest.structure:
            dim = abs(signed_dim)
            lo, hi = bounds[dim - 1]
            if signed_dim > 0:
                result.append((dim, range(lo, hi + 1)))
            else:
                result.append((dim, range(hi, lo - 1, -1)))
        return result

    def _execute_nest(self, nest: LoopNest) -> None:
        ranges = self._iteration_ranges(nest)
        point = [0] * nest.rank
        element = self.storage.element
        scalars = self.storage.scalars

        def loop(level: int) -> None:
            if level == len(ranges):
                self._tick(len(nest.body))
                index = tuple(point)
                for stmt in nest.body:
                    self._execute_elem(stmt, index, element, scalars)
                return
            dim, index_range = ranges[level]
            for value in index_range:
                point[dim - 1] = value
                loop(level + 1)

        loop(0)

    def _execute_elem(self, stmt: ElemAssign, index, element, scalars) -> None:
        def read(name: str, offset):
            return element(name, add(index, offset))

        value = eval_point(stmt.rhs, scalars, read, index)
        if stmt.reduce_op is not None:
            scalars[stmt.scalar_target] = operators.REDUCTIONS[
                stmt.reduce_op
            ].step(scalars[stmt.scalar_target], value)
        elif stmt.is_contracted:
            scalars[stmt.scalar_target] = value
        else:
            self.storage.set_element(stmt.target, index, value)


def run_scalarized(
    program: ScalarProgram, initial_arrays=None, initial_scalars=None
) -> Storage:
    """Execute a scalarized program, optionally seeding array contents and
    the starting values of its ``scalar_inputs``."""
    arrays, scalars = build_state(
        program.layout, initial_arrays, initial_scalars, fill=program.fill_plan
    )
    return LoopInterpreter(program, arrays, scalars).run()
