"""The IR-level program: declarations plus a body of IR statements."""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.ir.region import Region
from repro.ir.statement import (
    ArrayStatement,
    IRStatement,
    ScalarStatement,
    walk_blocks,
    walk_statements,
)
from repro.util.vectors import IntVector, max_abs_per_dim, zero


class ArrayInfo:
    """Metadata for a declared (or compiler-introduced) array."""

    __slots__ = ("name", "region", "elem_kind", "is_temp", "is_output")

    def __init__(
        self,
        name: str,
        region: Region,
        elem_kind: str,
        is_temp: bool = False,
        is_output: bool = False,
    ) -> None:
        self.name = name
        self.region = region
        self.elem_kind = elem_kind
        self.is_temp = is_temp
        #: The array's final contents escape to a caller (the lazy
        #: ``repro.array`` frontend returns them), so contraction must
        #: never eliminate its storage even if no statement reads it.
        self.is_output = is_output

    @property
    def rank(self) -> int:
        return self.region.rank

    def __repr__(self) -> str:
        tag = " (compiler temp)" if self.is_temp else ""
        return "ArrayInfo(%s : %s %s%s)" % (
            self.name,
            self.region,
            self.elem_kind,
            tag,
        )


class ScalarInfo:
    """Metadata for a declared (or compiler-introduced) scalar variable."""

    __slots__ = ("name", "kind", "is_temp")

    def __init__(self, name: str, kind: str, is_temp: bool = False) -> None:
        self.name = name
        self.kind = kind
        #: Introduced by the compiler (a hoisted reduction's result), so
        #: never part of what a run returns.
        self.is_temp = is_temp

    def __repr__(self) -> str:
        tag = " (compiler temp)" if self.is_temp else ""
        return "ScalarInfo(%s : %s%s)" % (self.name, self.kind, tag)


class IRProgram:
    """A normalized program: every array statement is in normal form."""

    def __init__(
        self,
        name: str,
        configs: Mapping[str, object],
        arrays: Dict[str, ArrayInfo],
        scalars: Dict[str, ScalarInfo],
        body: List[IRStatement],
    ) -> None:
        self.name = name
        self.configs = dict(configs)
        self.arrays = arrays
        self.scalars = scalars
        self.body = body

    # -- structure queries -------------------------------------------------

    def blocks(self) -> Iterator[List[ArrayStatement]]:
        """Every basic block of array statements in the program."""
        return walk_blocks(self.body)

    def array_statements(self) -> List[ArrayStatement]:
        return [
            stmt
            for stmt in walk_statements(self.body)
            if isinstance(stmt, ArrayStatement)
        ]

    def config_env(self) -> Dict[str, int]:
        """Integer-valued configuration bindings (for region evaluation)."""
        return {
            name: int(value)
            for name, value in self.configs.items()
            if isinstance(value, int) or float(value).is_integer()
        }

    # -- array census --------------------------------------------------------

    def user_arrays(self) -> List[ArrayInfo]:
        return [info for info in self.arrays.values() if not info.is_temp]

    def compiler_arrays(self) -> List[ArrayInfo]:
        return [info for info in self.arrays.values() if info.is_temp]

    def user_scalars(self) -> List[ScalarInfo]:
        return [info for info in self.scalars.values() if not info.is_temp]

    def halo(self, array: str) -> IntVector:
        """Component-wise maximum |offset| used to reference ``array``.

        Arrays are allocated over their declared region expanded by this halo
        so that constant-offset references never index out of storage.
        """
        info = self.arrays[array]
        offsets = []
        for stmt in self.array_statements():
            for ref in stmt.reads():
                if ref.name == array:
                    offsets.append(ref.offset)
        if not offsets:
            return zero(info.rank)
        return max_abs_per_dim(offsets)

    def allocation_region(self, array: str) -> Region:
        """The storage region of ``array``: declared region plus halo."""
        info = self.arrays[array]
        return info.region.expanded(self.halo(array))

    # -- liveness -----------------------------------------------------------

    def reads_of(self, array: str) -> List[ArrayStatement]:
        """Array statements that read ``array``."""
        result = []
        for stmt in self.array_statements():
            if any(ref.name == array for ref in stmt.reads()):
                result.append(stmt)
        return result

    def scalar_reads_of(self, array: str) -> List[ScalarStatement]:
        """Scalar statements whose reductions read ``array``."""
        result = []
        for stmt in walk_statements(self.body):
            if isinstance(stmt, ScalarStatement):
                if any(ref.name == array for ref in stmt.rhs.array_refs()):
                    result.append(stmt)
        return result

    def boundary_statements(self):
        """All wrap/reflect statements in the program."""
        from repro.ir.statement import BoundaryStatement

        return [
            stmt
            for stmt in walk_statements(self.body)
            if isinstance(stmt, BoundaryStatement)
        ]

    def refs_confined_to_block(self, array: str, block: List[ArrayStatement]) -> bool:
        """True iff every reference to ``array`` in the program is in ``block``.

        This is the whole-program side of contractibility: an array whose
        value escapes its basic block (read by a later block, a reduction, or
        a different iteration structure) must keep its storage.  Declared
        *output* arrays escape by definition — their final contents are
        returned to a caller — so they are never confined.
        """
        info = self.arrays.get(array)
        if info is not None and info.is_output:
            return False
        block_ids = {stmt.uid for stmt in block}
        for stmt in self.array_statements():
            touches = stmt.target == array or any(
                ref.name == array for ref in stmt.reads()
            )
            if touches and stmt.uid not in block_ids:
                return False
        if self.scalar_reads_of(array):
            return False
        if any(stmt.array == array for stmt in self.boundary_statements()):
            return False
        return True

    def first_ref_is_definition(self, array: str, block: List[ArrayStatement]) -> bool:
        """True iff the first statement in ``block`` touching ``array`` writes it.

        Guards against contraction of arrays carried around an enclosing
        sequential loop: if the block (re-executed each iteration) reads the
        array before defining it, the value flows across iterations and the
        array must stay in memory.
        """
        for stmt in block:
            if stmt.target == array:
                return True
            if any(ref.name == array for ref in stmt.reads()):
                return False
        return False

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Pretty-print the program (normal-form statements and control flow)."""
        lines: List[str] = ["program %s (normalized)" % self.name]
        for name, value in sorted(self.configs.items()):
            lines.append("  config %s = %r" % (name, value))
        for info in self.arrays.values():
            lines.append("  %r" % info)
        lines.extend(self._render_body(self.body, "  "))
        return "\n".join(lines)

    def _render_body(self, body: List[IRStatement], indent: str) -> List[str]:
        from repro.ir.statement import (
            BoundaryStatement,
            IfStatement,
            LoopStatement,
            WhileStatement,
        )

        lines: List[str] = []
        for stmt in body:
            if isinstance(stmt, (ArrayStatement, ScalarStatement, BoundaryStatement)):
                lines.append(indent + str(stmt))
            elif isinstance(stmt, LoopStatement):
                lines.append(
                    indent
                    + "for %s := %s %s %s do"
                    % (stmt.var, stmt.lo, "downto" if stmt.downto else "to", stmt.hi)
                )
                lines.extend(self._render_body(stmt.body, indent + "  "))
                lines.append(indent + "end")
            elif isinstance(stmt, IfStatement):
                lines.append(indent + "if %s then" % (stmt.cond,))
                lines.extend(self._render_body(stmt.then_body, indent + "  "))
                if stmt.else_body:
                    lines.append(indent + "else")
                    lines.extend(self._render_body(stmt.else_body, indent + "  "))
                lines.append(indent + "end")
            elif isinstance(stmt, WhileStatement):
                lines.append(indent + "while %s do" % (stmt.cond,))
                lines.extend(self._render_body(stmt.body, indent + "  "))
                lines.append(indent + "end")
        return lines
