"""IR statements: normalized array statements plus sequential control flow.

A :class:`ArrayStatement` is exactly the paper's normal form
``[R] X := f(A1@d1, ..., As@ds)`` — the target is written at zero offset over
region ``R``, the right-hand side is element-wise, and every array reference
carries a constant offset.  Control-flow statements delimit the basic blocks
whose runs of array statements form ASDGs.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.ir.expr import ArrayRef, IRExpr
from repro.ir.region import Region

_statement_ids = itertools.count(1)


class IRStatement:
    """Base class for IR statements."""

    __slots__ = ()


class ArrayStatement(IRStatement):
    """A normalized array statement ``[region] target := rhs``."""

    __slots__ = ("uid", "region", "target", "rhs")

    #: Does this statement write its target array?  (Reductions do not.)
    writes_array = True

    def __init__(self, region: Region, target: str, rhs: IRExpr) -> None:
        self.uid = next(_statement_ids)
        self.region = region
        self.target = target
        self.rhs = rhs

    @property
    def rank(self) -> int:
        return self.region.rank

    def reads(self) -> Tuple[ArrayRef, ...]:
        """Array references read by this statement."""
        return self.rhs.array_refs()

    def read_names(self) -> FrozenSet[str]:
        """The arrays this statement reads."""
        return self.rhs.array_names()

    def referenced_arrays(self) -> List[str]:
        """All arrays referenced (read or written), target first."""
        names = [self.target] if self.writes_array else []
        for ref in self.reads():
            if ref.name not in names:
                names.append(ref.name)
        return names

    def scalar_writes(self) -> List[str]:
        """Scalar variables written by this statement (reductions only)."""
        return []

    def __repr__(self) -> str:
        return "ArrayStatement(#%d %s %s := %s)" % (
            self.uid,
            self.region,
            self.target,
            self.rhs,
        )

    def __str__(self) -> str:
        return "%s %s := %s;" % (self.region, self.target, self.rhs)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other


class ReductionStatement(ArrayStatement):
    """A full reduction fused into its basic block: ``s := op<< [R] rhs``.

    Reductions participate in the ASDG like array statements — their reads
    induce flow dependences from producers, which lets contraction eliminate
    arrays whose only consumers are reductions (the mechanism behind EP's
    complete array elimination in Figure 7).  They write a *scalar*, so they
    never make their "target" an array dependence, and a scalar dependence
    (:class:`~repro.deps.asdg.DepType` SCALAR) keeps any same-block reader
    of the scalar out of their cluster.
    """

    __slots__ = ("scalar_target", "op")

    writes_array = False

    def __init__(
        self, region: Region, scalar_target: str, op: str, rhs: IRExpr
    ) -> None:
        super().__init__(region, "", rhs)
        self.scalar_target = scalar_target
        self.op = op

    def scalar_writes(self) -> List[str]:
        return [self.scalar_target]

    def __repr__(self) -> str:
        return "ReductionStatement(#%d %s %s := %s<< %s)" % (
            self.uid,
            self.region,
            self.scalar_target,
            self.op,
            self.rhs,
        )

    def __str__(self) -> str:
        return "%s %s := %s<< %s;" % (
            self.region,
            self.scalar_target,
            self.op,
            self.rhs,
        )


class BoundaryStatement(IRStatement):
    """``[R] wrap A;`` / ``[R] reflect A;`` — fill A's halo outside R.

    Like the compiler's communication primitives, boundary statements are
    not normalized statements and never participate in fusion (they read
    and write the same array); they delimit basic blocks.
    """

    __slots__ = ("region", "kind", "array")

    WRAP = "wrap"
    REFLECT = "reflect"

    def __init__(self, region: Region, kind: str, array: str) -> None:
        if kind not in (self.WRAP, self.REFLECT):
            raise ValueError("unknown boundary kind %r" % kind)
        self.region = region
        self.kind = kind
        self.array = array

    def __repr__(self) -> str:
        return "BoundaryStatement(%s %s %s)" % (self.region, self.kind, self.array)

    def __str__(self) -> str:
        return "%s %s %s;" % (self.region, self.kind, self.array)


class ScalarStatement(IRStatement):
    """A scalar assignment; the RHS may contain reductions."""

    __slots__ = ("target", "rhs")

    def __init__(self, target: str, rhs: IRExpr) -> None:
        self.target = target
        self.rhs = rhs

    def __repr__(self) -> str:
        return "ScalarStatement(%s := %s)" % (self.target, self.rhs)

    def __str__(self) -> str:
        return "%s := %s;" % (self.target, self.rhs)


class LoopStatement(IRStatement):
    """A sequential counted loop over scalar state."""

    __slots__ = ("var", "lo", "hi", "downto", "body")

    def __init__(
        self,
        var: str,
        lo: IRExpr,
        hi: IRExpr,
        body: List[IRStatement],
        downto: bool = False,
    ) -> None:
        self.var = var
        self.lo = lo
        self.hi = hi
        self.downto = downto
        self.body = body

    def __repr__(self) -> str:
        return "LoopStatement(%s := %s %s %s, %d stmts)" % (
            self.var,
            self.lo,
            "downto" if self.downto else "to",
            self.hi,
            len(self.body),
        )


class IfStatement(IRStatement):
    """A conditional over scalar state."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: IRExpr,
        then_body: List[IRStatement],
        else_body: Optional[List[IRStatement]] = None,
    ) -> None:
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body or []

    def __repr__(self) -> str:
        return "IfStatement(%s, %d then, %d else)" % (
            self.cond,
            len(self.then_body),
            len(self.else_body),
        )


class WhileStatement(IRStatement):
    """A while loop over scalar state."""

    __slots__ = ("cond", "body")

    def __init__(self, cond: IRExpr, body: List[IRStatement]) -> None:
        self.cond = cond
        self.body = body

    def __repr__(self) -> str:
        return "WhileStatement(%s, %d stmts)" % (self.cond, len(self.body))


def basic_blocks(body: Sequence[IRStatement]) -> Iterator[Tuple[int, List[ArrayStatement]]]:
    """Yield ``(start_index, run)`` for each maximal run of array statements.

    Only runs within ``body`` itself are yielded; callers recurse into
    control-flow bodies separately (see :func:`walk_blocks`).
    """
    run: List[ArrayStatement] = []
    start = 0
    for index, stmt in enumerate(body):
        if isinstance(stmt, ArrayStatement):
            if not run:
                start = index
            run.append(stmt)
        else:
            if run:
                yield start, run
                run = []
    if run:
        yield start, run


def walk_blocks(body: Sequence[IRStatement]) -> Iterator[List[ArrayStatement]]:
    """Yield every basic block of array statements, recursing into control flow."""
    for _, run in basic_blocks(body):
        yield run
    for stmt in body:
        if isinstance(stmt, LoopStatement):
            for block in walk_blocks(stmt.body):
                yield block
        elif isinstance(stmt, IfStatement):
            for block in walk_blocks(stmt.then_body):
                yield block
            for block in walk_blocks(stmt.else_body):
                yield block
        elif isinstance(stmt, WhileStatement):
            for block in walk_blocks(stmt.body):
                yield block


def walk_statements(body: Sequence[IRStatement]) -> Iterator[IRStatement]:
    """Pre-order traversal of all statements, recursing into control flow."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, LoopStatement):
            for inner in walk_statements(stmt.body):
                yield inner
        elif isinstance(stmt, IfStatement):
            for inner in walk_statements(stmt.then_body):
                yield inner
            for inner in walk_statements(stmt.else_body):
                yield inner
        elif isinstance(stmt, WhileStatement):
            for inner in walk_statements(stmt.body):
                yield inner
