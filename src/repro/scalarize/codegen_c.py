"""C code generation from the scalarized program.

The emitted code mirrors what the ZPL compiler hands to its back-end C
compiler: one loop nest per fusible cluster, contracted arrays as scalars,
reductions as fold statements inside those nests.  It renders in two modes:

* **inspection** (:func:`render_c`) — the historical static translation
  unit with a ``void <name>_main(void)`` driver, used for documentation
  and differential reading in tests (the Figure 6 compiler-output
  methodology infers optimizer behaviour from exactly this output);
* **module** (:func:`render_c_module`) — an executable translation unit
  exposing ``int repro_run(void **bufs)``, compiled by the host ``cc``
  and loaded via ``ctypes`` by the native ``c`` backend
  (:mod:`repro.exec.native`).  Arrays and scalars travel through a flat
  buffer vector in the deterministic order :func:`c_abi` defines.  The
  entry point returns 0; no emitted path returns anything else today, and
  the runner treats any other value as a failed run.

The module text is **size-free**.  Every integer the emitter writes at a
*size site* — an array's row extents, a constant loop bound, the value of
a config a region names, an integer constant in a serial loop's bounds, a
boundary fill's plane indices and extents — goes through one hook
(:meth:`CGenerator._size`) that writes ``_p<k>`` and appends the value to
the program's *size vector*, which travels as one more buffer at the end
of the vector (:class:`SizeEntry`).  The inspection mode spells the same
hook as the literal, so there is one walk.  Two programs that differ only
in sizes therefore render the same text and share one compiled object
(:func:`repro.exec.native.kernel_for_source`); a program that uses a size
anywhere else — a config in arithmetic, a plan that differs at a
degenerate size — renders different text and gets its own.

Emission is kind-typed end to end: ``double`` / ``int64_t`` /
``unsigned char`` storage matching ``emit_common.DTYPES``, accumulators
typed like the scalar they fold into (their identities arrive as ordinary
scalar assignments from the scalarizer), floored integer and float modulo
helpers, and exactly the ``min``/``max``/``sign`` tie and
zero semantics of the Python element loops — the serial C output is
required to be *bit-identical* to :mod:`codegen_py` (see
``tests/test_fuzz_differential.py``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.lang import operators
from repro.scalarize.emit_common import frac_operand, halo_planes
from repro.scalarize.loopnest import (
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    Slot,
    SNode,
    SWhile,
    int_config_env,
    loop_variable,
    sinkable,
    walk,
)
from repro.util.errors import ScalarizationError

#: Element-kind -> C storage type.  Must stay layout-compatible with
#: ``emit_common.DTYPES`` (float64 / int64 / bool_): the native backend
#: passes numpy buffers by pointer with zero copies.
_C_TYPES = {"float": "double", "integer": "int64_t", "boolean": "unsigned char"}

#: ``INT64_MIN`` cannot be written as one literal: C parses
#: ``-9223372036854775808`` as unary minus applied to an out-of-range
#: positive constant.
_C_INT64_MIN = "(-9223372036854775807LL - 1)"

#: Helper functions emitted into the translation unit on first use, in
#: this order.
#: ``repro_mod``/``repro_imod`` are floored modulo (sign of the divisor,
#: and a zero result takes the divisor's sign) — exactly CPython's float
#: ``%`` and ``np.mod``, where C's ``fmod``/``%`` truncate toward zero.
#: ``repro_frac`` is ``repro_mod(a, 1.0)`` without the libm ``fmod`` call
#: (see :func:`repro.scalarize.emit_common.frac_operand`).
#: ``repro_sign`` mirrors ``codegen_py``'s ``0.0 if x == 0 else
#: copysign(1.0, x)`` (plain ``copysign`` is wrong at zero).
_HELPERS = {
    "repro_mod": [
        "static double repro_mod(double a, double b) {",
        "    double r = fmod(a, b);",
        "    if (r != 0.0) {",
        "        if ((r < 0.0) != (b < 0.0)) {",
        "            r += b;",
        "        }",
        "    } else {",
        "        r = copysign(0.0, b);",
        "    }",
        "    return r;",
        "}",
    ],
    "repro_frac": [
        "static inline double repro_frac(double a) {",
        "    return a - floor(a);",
        "}",
    ],
    "repro_imod": [
        "static int64_t repro_imod(int64_t a, int64_t b) {",
        "    int64_t r = a % b;",
        "    if (r != 0 && ((r < 0) != (b < 0))) {",
        "        r += b;",
        "    }",
        "    return r;",
        "}",
    ],
    "repro_iabs": [
        "static int64_t repro_iabs(int64_t a) {",
        "    return (a < 0) ? -a : a;",
        "}",
    ],
    "repro_sign": [
        "static double repro_sign(double a) {",
        "    return (a == 0.0) ? 0.0 : copysign(1.0, a);",
        "}",
    ],
}

#: One slot of the ``repro_run(void **bufs)`` buffer vector.
AbiEntry = Slot


class SizeEntry(NamedTuple):
    """The final ABI entry: the program's size vector.

    Named like a :class:`Slot` (``role`` is ``"sizes"``, so code that
    filters a layout by role passes it by) plus what the runner needs:
    ``values[k]`` is what the module text calls ``_p<k>``, and
    ``extents`` lists every ``(k, array, dim)`` whose value is the extent
    of ``array`` along 0-based ``dim`` — the row-pointer casts, which the
    runner checks against the buffers it is about to hand over.  A
    program with no size site has an empty vector; the runner still hands
    over one element, never a zero-length buffer.
    """

    name: str
    role: str
    kind: str
    values: Tuple[int, ...]
    extents: Tuple[Tuple[int, str, int], ...]


def c_abi(program: ScalarProgram) -> List[Slot]:
    """The buffer order of the compiled entry point, as data.

    It is the program's storage layout (:attr:`ScalarProgram.layout`)
    followed by one :class:`SizeEntry`: the emitter
    (:func:`render_c_module`) and the runner (:mod:`repro.exec.native`)
    both read it, so they cannot drift — arrays in sorted name order,
    then scalars in sorted name order, then the size vector.  Scalars
    travel as one-element buffers, read on entry (their starting values,
    a program's ``scalar_inputs`` among them) and written back on return;
    the size vector is read only.

    The size vector is a product of the emitter's walk, which keeps it on
    the program beside ``layout`` (and so inside a pickled artifact): a
    program that was rendered before, in this process or the one that
    built its artifact, is not rendered again here.
    """
    if program.c_sizes is None:
        CGenerator(program, module=True).render()
    return [*program.layout, program.c_sizes]


class CGenerator:
    """Renders a :class:`ScalarProgram` as a C translation unit."""

    def __init__(self, program: ScalarProgram, module: bool = False) -> None:
        self._program = program
        self._module = module
        self._seq_counter = 0
        self._lines: List[str] = []
        self._bases: Dict[str, Tuple[int, ...]] = program.array_bases()
        self._helpers: set = set()
        self._array_kinds = {
            name: kind for name, (_r, kind) in program.array_allocs.items()
        }
        self._env = int_config_env(program.configs)
        self._sizes: List[int] = []
        self._extents: List[Tuple[int, str, int]] = []

    def render(self) -> str:
        self._lines = []
        self._helpers = set()
        self._sizes = []
        self._extents = []
        if self._module:
            self._render_module()
            self._program.c_sizes = SizeEntry(
                "_sizes",
                "sizes",
                "integer",
                tuple(self._sizes),
                tuple(self._extents),
            )
        else:
            self._render_inspection()
        header = [
            "/* generated by repro (array-level fusion + contraction) */",
            "#include <math.h>",
            "#include <stdint.h>",
            "",
        ]
        for name, lines in _HELPERS.items():
            if name in self._helpers:
                header.extend(lines)
                header.append("")
        return "\n".join(header + self._lines) + "\n"

    # ------------------------------------------------------------------

    def _render_inspection(self) -> None:
        self._emit_declarations()
        self._emit("void %s_main(void) {" % self._program.name)
        self._emit_body(self._program.body, 1)
        self._emit("}")

    def _size(self, value: int, extent: Optional[Tuple[str, int]] = None) -> str:
        """The spelling of one integer at a size site.

        The module text names it ``_p<k>`` and the value joins the size
        vector (``extent`` = (array, dim) when it is that array's extent
        along that dimension); the inspection text, whose static arrays
        cannot be variably sized, spells the literal.
        """
        if not self._module:
            return "%d" % value
        k = len(self._sizes)
        self._sizes.append(value)
        if extent is not None:
            self._extents.append((k, *extent))
        return "_p%d" % k

    def _render_module(self) -> None:
        abi = self._program.layout
        self._emit("int repro_run(void **_bufs) {")
        top = len(self._lines)
        for name in sorted(self._region_free_config_names()):
            self._emit(
                "const int64_t %s = %s;" % (name, self._size(self._env[name])),
                1,
            )
        for slot, entry in enumerate(abi):
            if entry.role != "array":
                continue
            self._emit(self._buffer_cast(entry, slot), 1)
        for slot, entry in enumerate(abi):
            if entry.role != "scalar":
                continue
            ctype = _C_TYPES[entry.kind]
            self._emit(
                "%s %s = *(%s *) _bufs[%d];" % (ctype, entry.name, ctype, slot),
                1,
            )
        dims = self._loop_dims_needed()
        if dims:
            self._emit(
                "int64_t %s;" % ", ".join(loop_variable(d) for d in dims), 1
            )
        self._emit_body(self._program.body, 1)
        for slot, entry in enumerate(abi):
            if entry.role != "scalar":
                continue
            ctype = _C_TYPES[entry.kind]
            self._emit(
                "*(%s *) _bufs[%d] = %s;" % (ctype, slot, entry.name), 1
            )
        self._emit("return 0;", 1)
        self._emit("}")
        # The walk above found the size sites; their loads go first.
        if self._sizes:
            loads = ["const int64_t *_sizes = (const int64_t *) _bufs[%d];" % len(abi)]
            loads.extend(
                "const int64_t _p%d = _sizes[%d];" % (k, k)
                for k in range(len(self._sizes))
            )
            self._lines[top:top] = ["    " + line for line in loads]

    def _buffer_cast(self, entry: AbiEntry, slot: int) -> str:
        """Zero-copy pointer-to-array cast for one buffer slot.

        Multi-dimensional arrays cast to pointer-to-row types (C99
        variably modified: the row extents are sizes) and index with
        plain ``A[i][j]``.
        """
        ctype = _C_TYPES[entry.kind]
        tail = "".join(
            "[%s]" % self._size(extent, (entry.name, dim))
            for dim, extent in enumerate(entry.shape)
            if dim
        )
        if tail:
            return "%s (*%s)%s = (%s (*)%s) _bufs[%d];" % (
                ctype,
                entry.name,
                tail,
                ctype,
                tail,
                slot,
            )
        return "%s *%s = (%s *) _bufs[%d];" % (ctype, entry.name, ctype, slot)

    def _region_free_config_names(self) -> set:
        """Config names referenced symbolically by any region bound.

        Loop headers render symbolic bounds textually, so the names must
        exist as constants in the translation unit.
        """
        return self._program.region_free_variables() & set(self._env)

    def _loop_dims_needed(self) -> List[int]:
        """Every loop-variable dimension the body references.

        Boundary fills use the same ``_i<d>`` variables as the nests;
        collecting only nest ranks would leave a fill-only program with
        undeclared loop variables.
        """
        dims: set = set()
        for node in walk(self._program.body):
            if isinstance(node, LoopNest):
                dims.update(range(1, node.rank + 1))
            elif isinstance(node, SBoundary):
                region, _kind = self._program.array_allocs[node.array]
                dims.update(range(1, len(region.dims) + 1))
        return sorted(dims)

    # ------------------------------------------------------------------

    def _emit(self, text: str, depth: int = 0) -> None:
        self._lines.append("    " * depth + text)

    def _emit_declarations(self) -> None:
        for name in sorted(self._region_free_config_names()):
            self._emit(
                "static const int64_t %s = %s;"
                % (name, self._size(self._env[name]))
            )
        for slot in self._program.layout:
            dims = "".join("[%d]" % extent for extent in slot.shape)
            self._emit("static %s %s%s;" % (_C_TYPES[slot.kind], slot.name, dims))
        loop_vars = [loop_variable(d) for d in self._loop_dims_needed()]
        if loop_vars:
            self._emit("static int64_t %s;" % ", ".join(loop_vars))
        self._emit("")

    # ------------------------------------------------------------------

    def _kind(self, expr: ir.IRExpr) -> str:
        return ir.kind_of(expr, self._array_kinds, self._program.scalars)

    def _emit_body(self, body: List[SNode], depth: int) -> None:
        for node in body:
            if isinstance(node, LoopNest):
                self._emit_loop_nest(node, depth)
            elif isinstance(node, SBoundary):
                self._emit_boundary(node, depth)
            elif isinstance(node, ScalarAssign):
                self._emit(
                    "%s = %s;" % (node.target, self._expr(node.rhs)), depth
                )
            elif isinstance(node, SeqLoop):
                self._emit_seq_loop(node, depth)
            elif isinstance(node, SIf):
                self._emit("if (%s) {" % self._expr(node.cond), depth)
                self._emit_body(node.then_body, depth + 1)
                if node.else_body:
                    self._emit("} else {", depth)
                    self._emit_body(node.else_body, depth + 1)
                self._emit("}", depth)
            elif isinstance(node, SWhile):
                self._emit("while (%s) {" % self._expr(node.cond), depth)
                self._emit_body(node.body, depth + 1)
                self._emit("}", depth)
            else:
                raise ScalarizationError("cannot emit %r" % node)

    def _emit_loop_headers(self, region: Region, structure, depth: int) -> int:
        for level, signed_dim in enumerate(structure):
            dim = abs(signed_dim)
            lo, hi = region.dims[dim - 1]
            var = loop_variable(dim)
            if signed_dim > 0:
                header = "for (%s = %s; %s <= %s; %s++) {" % (
                    var,
                    self._bound(lo),
                    var,
                    self._bound(hi),
                    var,
                )
            else:
                header = "for (%s = %s; %s >= %s; %s--) {" % (
                    var,
                    self._bound(hi),
                    var,
                    self._bound(lo),
                    var,
                )
            self._emit(header, depth + level)
        return depth + len(structure)

    def _emit_loop_nest(
        self, nest: LoopNest, depth: int, structure=None
    ) -> None:
        """The nest's statements under the loops of ``structure`` (default:
        all of ``nest.structure``; the rest are already open)."""
        if structure is None:
            structure = nest.structure
        inner = self._emit_loop_headers(nest.region, structure, depth)
        for stmt in nest.body:
            target = (
                stmt.scalar_target
                if stmt.is_contracted
                else self._element(stmt.target, (0,) * nest.rank)
            )
            value = self._expr(stmt.rhs)
            if stmt.reduce_op is None:
                self._emit("%s = %s;" % (target, value), inner)
            else:
                step = operators.REDUCTIONS[stmt.reduce_op].c_step
                self._emit(step.format(target, value), inner)
        for level in range(inner - 1, depth - 1, -1):
            self._emit("}", level)

    def _emit_boundary(self, node: SBoundary, depth: int) -> None:
        """Halo fill as element copy loops (bounds are constant or
        config-dependent; the config environment resolves the latter).
        Plane indices and extents are sizes."""
        bounds = node.region.concrete_bounds(self._env)
        region, _kind = self._program.array_allocs[node.array]
        alloc = region.concrete_bounds(self._env)
        rank = len(bounds)
        self._emit("/* %s %s */" % (node.kind, node.array), depth)
        for dim, raw, src in halo_planes(node.kind, bounds, alloc):
            inner = depth
            for d in range(rank):
                if d == dim:
                    continue
                var = loop_variable(d + 1)
                other_extent = alloc[d][1] - alloc[d][0] + 1
                self._emit(
                    "for (%s = 0; %s < %s; %s++) {"
                    % (var, var, self._size(other_extent), var),
                    inner,
                )
                inner += 1
            dest_idx, src_idx = (
                "".join(
                    "[%s]" % (plane if d == dim else loop_variable(d + 1))
                    for d in range(rank)
                )
                for plane in (self._size(raw), self._size(src))
            )
            self._emit(
                "%s%s = %s%s;" % (node.array, dest_idx, node.array, src_idx),
                inner,
            )
            for level in range(inner - 1, depth - 1, -1):
                self._emit("}", level)

    def _emit_seq_loop(self, node: SeqLoop, depth: int) -> None:
        # Match Python's ``for var in range(...)`` exactly: bounds are
        # evaluated once at entry, the variable holds the *final*
        # iteration's value after the loop (not one past it), and an
        # empty trip count leaves it untouched.  A private iterator
        # carries the stepping; the program variable is assigned inside.
        #
        # A column sweep (see ``loopnest.sinkable``) is emitted with its
        # row loops *outside* the serial loop, so the innermost accesses
        # walk along a row instead of striding a whole row per element —
        # FIND-LOOP-STRUCTURE's inner-loop/last-dimension rule, which the
        # serial loop sitting outside the nest would otherwise defeat.
        self._seq_counter += 1
        it = "_seq%d" % self._seq_counter
        cmp_op, step = (">=", "--") if node.downto else ("<=", "++")
        lo = self._expr(node.lo, sizes=True)
        inner = depth + 1
        self._emit("{", depth)
        self._emit(
            "int64_t %s_hi = %s;" % (it, self._expr(node.hi, sizes=True)), inner
        )
        sunk = sinkable(node, self._program.partial, self._env)
        if sunk:
            (nest,) = node.body
            self._emit("int64_t %s_lo = %s;" % (it, lo), inner)
            lo = it + "_lo"
            rows = [d for d in nest.structure if abs(d) != nest.rank]
            inner = self._emit_loop_headers(nest.region, rows, inner)
        self._emit(
            "for (int64_t %s = %s; %s %s %s_hi; %s%s) {"
            % (it, lo, it, cmp_op, it, it, step),
            inner,
        )
        self._emit("%s = %s;" % (node.var, it), inner + 1)
        if sunk:
            pinned = [d for d in nest.structure if abs(d) == nest.rank]
            self._emit_loop_nest(nest, inner + 1, pinned)
        else:
            self._emit_body(node.body, inner + 1)
        for level in range(inner, depth - 1, -1):
            self._emit("}", level)

    # ------------------------------------------------------------------

    def _bound(self, expr: LinearExpr) -> str:
        """A loop-header bound: a constant one is a size, a symbolic one
        (over a serial loop's variable, a config, a scalar input) is text
        over names that are already run-time values."""
        if expr.is_constant:
            return self._size(expr.const)
        return str(expr).replace(" ", "")

    def _element(self, array: str, offset) -> str:
        bases = self._bases[array]
        wrap = self._program.partial.get(array)
        indices = []
        for dim, (off, base) in enumerate(zip(offset, bases), start=1):
            if wrap is not None and dim == wrap[0]:
                depth = wrap[1]
                # Bias by depth so the C modulo of a negative index is safe.
                indices.append(
                    "[(%s + %d) %% %d]"
                    % (loop_variable(dim), off + depth, depth)
                )
                continue
            shift = off - base
            if shift > 0:
                indices.append("[%s + %d]" % (loop_variable(dim), shift))
            elif shift < 0:
                indices.append("[%s - %d]" % (loop_variable(dim), -shift))
            else:
                indices.append("[%s]" % loop_variable(dim))
        return array + "".join(indices)

    def _const(self, value) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            if value == float("inf"):
                return "INFINITY"
            if value == float("-inf"):
                return "-INFINITY"
            if value != value:
                return "NAN"
            return repr(value)
        if value == -(2 ** 63):
            return _C_INT64_MIN
        if value > 2 ** 31 - 1 or value < -(2 ** 31):
            return "%dLL" % value
        return str(value)

    def _expr(self, expr: ir.IRExpr, sizes: bool = False) -> str:
        """``sizes``: the expression is a serial loop's bound, where an
        integer constant is a size (normalization substitutes configs by
        value: ``n - 1`` arrives as ``10 - 1``)."""
        if isinstance(expr, ir.Const):
            if sizes and type(expr.value) is int:
                return self._size(expr.value)
            return self._const(expr.value)
        if isinstance(expr, ir.ScalarRef):
            return expr.name
        if isinstance(expr, ir.IndexRef):
            return loop_variable(expr.dim)
        if isinstance(expr, ir.ArrayRef):
            return self._element(expr.name, expr.offset)
        dividend = frac_operand(expr)
        if dividend is not None:
            self._helpers.add("repro_frac")
            return "repro_frac(%s)" % self._expr(dividend, sizes)
        row = expr.row()
        if row is None:
            raise ScalarizationError("cannot render expression %r" % expr)
        args = expr.children()
        spelling = row.c
        if not isinstance(spelling, operators.CText):
            spelling = spelling[
                operators.operand_class([self._kind(a) for a in args])
            ]
        if spelling.helper is not None:
            self._helpers.add(spelling.helper)
        return spelling.text.format(*[self._expr(a, sizes) for a in args])


def render_c(program: ScalarProgram) -> str:
    """Render a scalarized program as C source text (inspection mode)."""
    return CGenerator(program).render()


def render_c_module(program: ScalarProgram) -> str:
    """Render an executable translation unit for the native backend.

    The unit exposes ``int repro_run(void **bufs)``; buffers arrive in
    :func:`c_abi` order (arrays over their allocation regions, then
    one-element scalar buffers, both name-sorted, then the size vector)
    and it returns 0.  The text is size-free: programs that differ only
    in sizes render the same unit and differ in their size vectors.
    """
    return CGenerator(program, module=True).render()
