"""Python code generation: compile a scalarized program to executable code.

A second back end besides the C printer: emits a self-contained Python
function (explicit loops over numpy arrays, exactly the loop structure the
scalarizer chose) and ``exec``-utes it.  Runs much faster than the
tree-walking interpreter and cross-validates code generation — the tests
require codegen output, interpreter output and reference semantics to agree.

The emitted ``run(_arrays, _scalars)`` is a *kernel*: it binds its names
from the arrays and starting scalars the caller built
(:func:`repro.scalarize.emit_common.build_state` over
:attr:`ScalarProgram.layout`), works in place on those arrays, allocates
nothing, and returns the final scalars.

The vectorizing back end (:mod:`repro.scalarize.codegen_np`) subclasses
:class:`PyGenerator`, overriding loop-nest emission with whole-region
slice operations; everything the two back ends must agree on
lives in :mod:`repro.scalarize.emit_common`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.ir import expr as ir
from repro.ir.region import Region
from repro.lang import operators
from repro.scalarize.emit_common import halo_planes
from repro.scalarize.loopnest import (
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SNode,
    SWhile,
    int_config_env,
    loop_variable,
)
from repro.util.errors import ScalarizationError


class PyGenerator:
    """Emits a Python module whose ``run(_arrays, _scalars)`` executes the
    program in place and returns the final scalars."""

    def __init__(self, program: ScalarProgram) -> None:
        self._program = program
        self._lines: List[str] = []
        self._bases: Dict[str, Tuple[int, ...]] = program.array_bases()
        #: Config environment for evaluating region bounds at generation
        #: time (halo fills) — the codegen analogue of the interpreter's
        #: ``_int_env()``.
        self._env: Dict[str, int] = int_config_env(program.configs)

    def _preamble(self) -> List[str]:
        return [
            "import math",
            "import numpy as np",
            "",
            "from repro.util.errors import InterpError",
            "",
            "def run(_arrays, _scalars):",
        ]

    def render(self) -> str:
        self._lines = self._preamble()
        self._emit_config_bindings()
        self._emit_bindings()
        self._emit_body(self._program.body, 1)
        self._emit_return()
        return "\n".join(self._lines) + "\n"

    def _emit_config_bindings(self) -> None:
        """Bind configuration scalars that region bounds reference by name.

        Loop headers, slices and guards render symbolic bounds textually
        (e.g. ``range(1, n + 1)``), so those names must exist in the
        generated function.  Loop variables are assigned by their own
        loops; only configuration bindings need materializing.
        """
        free = self._program.region_free_variables()
        for name in sorted(free & set(self._env)):
            self._emit("%s = %d" % (name, self._env[name]))

    # ------------------------------------------------------------------

    def _emit(self, text: str, depth: int = 1) -> None:
        self._lines.append("    " * depth + text)

    def _emit_bindings(self) -> None:
        """Every array and scalar name, bound from what the caller built."""
        for name in self._program.array_allocs:
            self._emit("%s = _arrays[%r]" % (name, name))
        for name in self._program.scalars:
            self._emit("%s = _scalars[%r]" % (name, name))

    def _emit_return(self) -> None:
        self._emit(
            "return {%s}"
            % ", ".join("%r: %s" % (name, name) for name in self._program.scalars)
        )

    # ------------------------------------------------------------------

    def _emit_body(self, body: List[SNode], depth: int) -> None:
        if not body:
            self._emit("pass", depth)
            return
        for node in body:
            if isinstance(node, LoopNest):
                self._emit_nest(node, depth)
            elif isinstance(node, SBoundary):
                self._emit_boundary(node, depth)
            elif isinstance(node, ScalarAssign):
                self._emit(
                    "%s = %s" % (node.target, self._expr(node.rhs)), depth
                )
            elif isinstance(node, SeqLoop):
                lo = self._expr(node.lo)
                hi = self._expr(node.hi)
                if node.downto:
                    header = "for %s in range(%s, %s - 1, -1):" % (
                        node.var,
                        lo,
                        hi,
                    )
                else:
                    header = "for %s in range(%s, %s + 1):" % (node.var, lo, hi)
                self._emit(header, depth)
                self._emit_body(node.body, depth + 1)
            elif isinstance(node, SIf):
                self._emit("if %s:" % self._expr(node.cond), depth)
                self._emit_body(node.then_body, depth + 1)
                if node.else_body:
                    self._emit("else:", depth)
                    self._emit_body(node.else_body, depth + 1)
            elif isinstance(node, SWhile):
                self._emit("while %s:" % self._expr(node.cond), depth)
                self._emit_body(node.body, depth + 1)
            else:
                raise ScalarizationError("cannot emit %r" % node)

    def _emit_loop_headers(self, region: Region, structure, depth: int) -> int:
        for level, signed_dim in enumerate(structure):
            dim = abs(signed_dim)
            lo, hi = region.dims[dim - 1]
            var = loop_variable(dim)
            lo_text = str(lo).replace(" ", "")
            hi_text = str(hi).replace(" ", "")
            if signed_dim > 0:
                header = "for %s in range(%s, %s + 1):" % (var, lo_text, hi_text)
            else:
                header = "for %s in range(%s, %s - 1, -1):" % (
                    var,
                    hi_text,
                    lo_text,
                )
            self._emit(header, depth + level)
        return depth + len(structure)

    def _emit_nest(self, nest: LoopNest, depth: int) -> None:
        inner = self._emit_loop_headers(nest.region, nest.structure, depth)
        for stmt in nest.body:
            value = self._expr(stmt.rhs)
            if stmt.reduce_op is not None:
                fold = operators.REDUCTIONS[stmt.reduce_op].py_step
                self._emit(
                    "%s = %s"
                    % (stmt.scalar_target, fold.format(stmt.scalar_target, value)),
                    inner,
                )
            elif stmt.is_contracted:
                self._emit("%s = %s" % (stmt.scalar_target, value), inner)
            else:
                self._emit(
                    "%s = %s"
                    % (self._element(stmt.target, (0,) * nest.rank), value),
                    inner,
                )

    def _emit_boundary(self, node: SBoundary, depth: int) -> None:
        """Halo fill as per-plane numpy copies (bounds are constant or
        config-dependent; the config environment resolves the latter)."""
        bounds = node.region.concrete_bounds(self._env)
        region, _kind = self._program.array_allocs[node.array]
        alloc = region.concrete_bounds(self._env)
        for dim, dest, source in halo_planes(node.kind, bounds, alloc):
            self._emit_plane_copy(node.array, dim, dest, source, len(bounds), depth)

    def _emit_plane_copy(
        self, array: str, dim: int, dest: int, source: int, rank: int, depth: int
    ) -> None:
        dest_idx = ", ".join(
            str(dest) if d == dim else ":" for d in range(rank)
        )
        src_idx = ", ".join(
            str(source) if d == dim else ":" for d in range(rank)
        )
        self._emit("%s[%s] = %s[%s]" % (array, dest_idx, array, src_idx), depth)

    # ------------------------------------------------------------------

    def _element(self, array: str, offset) -> str:
        wrap = self._program.partial.get(array)
        indices = []
        for dim, (off, base) in enumerate(
            zip(offset, self._bases[array]), start=1
        ):
            if wrap is not None and dim == wrap[0]:
                if off:
                    indices.append(
                        "(%s %+d) %% %d" % (loop_variable(dim), off, wrap[1])
                    )
                else:
                    indices.append("%s %% %d" % (loop_variable(dim), wrap[1]))
                continue
            shift = off - base
            if shift:
                indices.append("%s %+d" % (loop_variable(dim), shift))
            else:
                indices.append(loop_variable(dim))
        return "%s[%s]" % (array, ", ".join(indices))

    def _expr(self, expr: ir.IRExpr) -> str:
        if isinstance(expr, ir.Const):
            if isinstance(expr.value, float) and math.isinf(expr.value):
                return "math.inf" if expr.value > 0 else "-math.inf"
            return repr(expr.value)
        if isinstance(expr, ir.ScalarRef):
            return expr.name
        if isinstance(expr, ir.IndexRef):
            return loop_variable(expr.dim)
        if isinstance(expr, ir.ArrayRef):
            return self._element(expr.name, expr.offset)
        row = expr.row()
        if row is None:
            raise ScalarizationError("cannot render %r" % expr)
        return row.py_text.format(*[self._expr(arg) for arg in expr.children()])


def render_python(program: ScalarProgram) -> str:
    """Render a scalarized program as executable Python source."""
    return PyGenerator(program).render()
