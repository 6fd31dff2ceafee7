"""IR expression trees.

After normalization every right-hand side is an element-wise function over
constant-offset array references and scalar reads — exactly the ``f`` of the
normal form ``[R] f(A1@d1, ..., As@ds)``.  Reductions (``Reduce``) appear
only in scalar statements; normalization hoists them out of array contexts.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.lang import operators
from repro.util.vectors import IntVector, format_vector, is_zero


class IRExpr:
    """Base class for IR expressions."""

    __slots__ = ()

    def array_refs(self) -> List["ArrayRef"]:
        """All array references in this expression, in source order."""
        refs: List[ArrayRef] = []
        for node in self.walk():
            if isinstance(node, ArrayRef):
                refs.append(node)
        return refs

    def scalar_refs(self) -> List["ScalarRef"]:
        """All scalar reads in this expression, in source order."""
        return [node for node in self.walk() if isinstance(node, ScalarRef)]

    def walk(self) -> Iterator["IRExpr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            for node in child.walk():
                yield node

    def children(self) -> Sequence["IRExpr"]:
        return ()

    def row(self) -> Optional[operators.Op]:
        """The :mod:`repro.lang.operators` row that says what this
        element-wise operator node means; ``None`` for every other node,
        and for an operator the language does not have (hand-built IR)."""
        return None

    def map(self, fn: Callable[["IRExpr"], Optional["IRExpr"]]) -> "IRExpr":
        """Rebuild the tree bottom-up; ``fn`` may replace any node.

        ``fn`` receives each node (with already-mapped children) and returns
        a replacement or ``None`` to keep the node.
        """
        rebuilt = self._rebuild([child.map(fn) for child in self.children()])
        replacement = fn(rebuilt)
        return replacement if replacement is not None else rebuilt

    def _rebuild(self, children: List["IRExpr"]) -> "IRExpr":
        return self

    def op_count(self) -> int:
        """Number of arithmetic operation nodes (for the flop cost model)."""
        count = 0
        for node in self.walk():
            if isinstance(node, (BinOp, UnOp, Call)):
                count += 1
        return count


class Const(IRExpr):
    """A literal constant (int, float or bool)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return "Const(%r)" % (self.value,)

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, float) else str(self.value)


class ScalarRef(IRExpr):
    """A read of a scalar variable or configuration constant."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return "ScalarRef(%s)" % self.name

    def __str__(self) -> str:
        return self.name


class ArrayRef(IRExpr):
    """An element-wise array reference ``A@d`` at constant offset ``d``."""

    __slots__ = ("name", "offset")

    def __init__(self, name: str, offset: IntVector) -> None:
        self.name = name
        self.offset = tuple(int(c) for c in offset)

    def __repr__(self) -> str:
        return "ArrayRef(%s@%s)" % (self.name, format_vector(self.offset))

    def __str__(self) -> str:
        if is_zero(self.offset):
            return self.name
        return "%s@%s" % (self.name, format_vector(self.offset))


class IndexRef(IRExpr):
    """ZPL's ``Index1``/``Index2``/... pseudo-arrays.

    ``IndexRef(d)`` evaluates, at each point of the statement's region, to
    the point's coordinate along dimension ``d`` (1-based).  Index arrays are
    never written, occupy no storage, and induce no dependences.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("index dimension must be >= 1, got %d" % dim)
        self.dim = dim

    def __repr__(self) -> str:
        return "IndexRef(%d)" % self.dim

    def __str__(self) -> str:
        return "Index%d" % self.dim


class BinOp(IRExpr):
    """A binary arithmetic/logical/comparison operation."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: IRExpr, right: IRExpr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[IRExpr]:
        return (self.left, self.right)

    def _rebuild(self, children: List[IRExpr]) -> IRExpr:
        return BinOp(self.op, children[0], children[1])

    def row(self) -> Optional[operators.Op]:
        return operators.BINARY.get(self.op)

    def __repr__(self) -> str:
        return "BinOp(%r, %r, %r)" % (self.op, self.left, self.right)

    def __str__(self) -> str:
        return "(%s %s %s)" % (self.left, self.op, self.right)


class UnOp(IRExpr):
    """A unary operation (negation or logical not)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: IRExpr) -> None:
        self.op = op
        self.operand = operand

    def children(self) -> Sequence[IRExpr]:
        return (self.operand,)

    def _rebuild(self, children: List[IRExpr]) -> IRExpr:
        return UnOp(self.op, children[0])

    def row(self) -> Optional[operators.Op]:
        return operators.UNARY.get(self.op)

    def __repr__(self) -> str:
        return "UnOp(%r, %r)" % (self.op, self.operand)

    def __str__(self) -> str:
        return "(%s%s)" % (self.op if self.op != "not" else "not ", self.operand)


class Call(IRExpr):
    """An intrinsic call (sqrt, exp, min, ...)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[IRExpr]) -> None:
        self.name = name
        self.args = tuple(args)

    def children(self) -> Sequence[IRExpr]:
        return self.args

    def _rebuild(self, children: List[IRExpr]) -> IRExpr:
        return Call(self.name, children)

    def row(self) -> Optional[operators.Op]:
        return operators.INTRINSICS.get(self.name)

    def __repr__(self) -> str:
        return "Call(%s, %r)" % (self.name, list(self.args))

    def __str__(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


class Reduce(IRExpr):
    """A full reduction of an element-wise array expression to a scalar.

    Only legal inside scalar statements; ``region`` is the index set reduced
    over and ``operand`` is an element-wise IR expression.
    """

    __slots__ = ("op", "region", "operand")

    def __init__(self, op: str, region, operand: IRExpr) -> None:
        self.op = op
        self.region = region
        self.operand = operand

    def children(self) -> Sequence[IRExpr]:
        return (self.operand,)

    def _rebuild(self, children: List[IRExpr]) -> IRExpr:
        return Reduce(self.op, self.region, children[0])

    def __repr__(self) -> str:
        return "Reduce(%r, %r, %r)" % (self.op, self.region, self.operand)

    def __str__(self) -> str:
        return "%s<< %s %s" % (self.op, self.region, self.operand)


def kind_of(
    expr: IRExpr,
    array_kinds: Mapping[str, str],
    scalar_kinds: Mapping[str, str],
    strict: bool = False,
) -> Optional[str]:
    """The element kind ``expr`` evaluates to — the one kind inference.

    Leaves carry their own kind (constants by Python type, references by
    the two tables, index grids integer); every other node asks its
    operator row (:func:`repro.lang.operators.result_kind`).  That mirrors
    the numpy promotion the interpreters perform, so a reduction
    accumulator can start at the kind the reduction will actually produce.

    A reference missing from its table counts as ``"float"`` — callers
    hold complete tables — unless ``strict``, which propagates it as
    ``None``: a rewrite gated on the kind must only fire when the kind,
    and with it the IEEE signed-zero and dtype-promotion behaviour, is
    certain.
    """
    unknown = None if strict else "float"

    def visit(node: IRExpr) -> Optional[str]:
        if isinstance(node, Const):
            if isinstance(node.value, bool):
                return "boolean"
            if isinstance(node.value, int):
                return "integer"
            return "float" if isinstance(node.value, float) else unknown
        if isinstance(node, ScalarRef):
            return scalar_kinds.get(node.name, unknown)
        if isinstance(node, ArrayRef):
            return array_kinds.get(node.name, unknown)
        if isinstance(node, IndexRef):
            return "integer"
        if isinstance(node, Reduce):
            row = operators.REDUCTIONS.get(node.op)
        else:
            row = node.row()
        if row is None:
            return unknown
        return operators.result_kind(row, map(visit, node.children()))

    return visit(expr)


def substitute_refs(
    expr: IRExpr, replace: Callable[[ArrayRef], Optional[IRExpr]]
) -> IRExpr:
    """Replace array references for which ``replace`` returns a new node."""

    def visit(node: IRExpr) -> Optional[IRExpr]:
        if isinstance(node, ArrayRef):
            return replace(node)
        return None

    return expr.map(visit)


def collect_ref_tuples(expr: IRExpr) -> List[Tuple[str, IntVector]]:
    """All (array name, offset) pairs referenced by ``expr``."""
    return [(ref.name, ref.offset) for ref in expr.array_refs()]
