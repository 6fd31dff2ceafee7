"""The Array Statement Dependence Graph (Definition 3).

An ASDG is a labeled acyclic directed graph over the array statements of one
basic block.  Each edge ``(v1, v2)`` means statement ``v2`` depends on
statement ``v1`` and carries a set of ``(variable, unconstrained distance
vector, dependence type)`` labels.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.ir.statement import ArrayStatement
from repro.util.errors import DependenceError
from repro.util.vectors import IntVector, format_vector


class DepType(enum.Enum):
    """The three classical dependence types, plus scalar dependences.

    SCALAR marks a dependence through a scalar written by a fused
    reduction: it orders clusters but can never be carried by a loop, so
    its endpoints may not share a fusible cluster.
    """

    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    SCALAR = "scalar"

    def __str__(self) -> str:
        return self.value


class DepLabel:
    """One ``(variable, UDV, type)`` tuple labeling an ASDG edge."""

    __slots__ = ("variable", "udv", "type")

    def __init__(self, variable: str, udv: IntVector, type: DepType) -> None:
        self.variable = variable
        self.udv = tuple(udv)
        self.type = type

    def __repr__(self) -> str:
        return "DepLabel(%s, %s, %s)" % (
            self.variable,
            format_vector(self.udv),
            self.type,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DepLabel)
            and self.variable == other.variable
            and self.udv == other.udv
            and self.type == other.type
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.udv, self.type))


class ASDG:
    """The dependence graph of one basic block of array statements."""

    def __init__(self, statements: Sequence[ArrayStatement]) -> None:
        self.statements: List[ArrayStatement] = list(statements)
        self._index = {stmt.uid: i for i, stmt in enumerate(self.statements)}
        if len(self._index) != len(self.statements):
            raise DependenceError("duplicate statements in ASDG")
        self._labels: Dict[Tuple[int, int], List[DepLabel]] = {}
        self._succ: Dict[int, Set[int]] = {stmt.uid: set() for stmt in self.statements}
        # Self dependences: a statement that reads its own target (allowed
        # only when the normalizer's self-temp policy elided the compiler
        # temporary) constrains the loop structure of whatever cluster it
        # joins, but creates no edge (the ASDG stays acyclic).
        self._self_labels: Dict[int, List[DepLabel]] = {}

    # -- construction -------------------------------------------------------

    def add_dependence(
        self, source: ArrayStatement, target: ArrayStatement, label: DepLabel
    ) -> None:
        """Add a dependence edge from ``source`` to ``target``.

        Edges must point forward in statement order — an ASDG represents a
        single basic block and is therefore acyclic by construction.
        """
        if self._index[source.uid] >= self._index[target.uid]:
            raise DependenceError(
                "dependence source must precede target in the block: %r -> %r"
                % (source, target)
            )
        key = (source.uid, target.uid)
        labels = self._labels.setdefault(key, [])
        if label not in labels:
            labels.append(label)
        self._succ[source.uid].add(target.uid)

    def add_self_dependence(self, stmt: ArrayStatement, label: DepLabel) -> None:
        """Record a within-statement dependence (target read by its own RHS)."""
        labels = self._self_labels.setdefault(stmt.uid, [])
        if label not in labels:
            labels.append(label)

    def self_labels(self, stmt: ArrayStatement) -> List[DepLabel]:
        return list(self._self_labels.get(stmt.uid, ()))

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.statements)

    def statement(self, uid: int) -> ArrayStatement:
        return self.statements[self._index[uid]]

    def position(self, stmt: ArrayStatement) -> int:
        return self._index[stmt.uid]

    def edges(self) -> Iterator[Tuple[ArrayStatement, ArrayStatement, List[DepLabel]]]:
        """All edges with their labels, in deterministic order."""
        for (src_uid, dst_uid) in sorted(self._labels):
            yield (
                self.statement(src_uid),
                self.statement(dst_uid),
                list(self._labels[(src_uid, dst_uid)]),
            )

    def edge_count(self) -> int:
        return len(self._labels)

    def labels(
        self, source: ArrayStatement, target: ArrayStatement
    ) -> List[DepLabel]:
        return list(self._labels.get((source.uid, target.uid), ()))

    def successors(self, stmt: ArrayStatement) -> List[ArrayStatement]:
        return [self.statement(uid) for uid in sorted(self._succ[stmt.uid])]

    def dependences_on(self, variable: str) -> List[
        Tuple[ArrayStatement, ArrayStatement, DepLabel]
    ]:
        """All dependences induced by ``variable``."""
        result = []
        for source, target, labels in self.edges():
            for label in labels:
                if label.variable == variable:
                    result.append((source, target, label))
        for stmt in self.statements:
            for label in self._self_labels.get(stmt.uid, ()):
                if label.variable == variable:
                    result.append((stmt, stmt, label))
        return result

    def variables(self) -> List[str]:
        """All array variables referenced in the block, in first-use order."""
        names: List[str] = []
        for stmt in self.statements:
            for name in stmt.referenced_arrays():
                if name not in names:
                    names.append(name)
        return names

    def statements_referencing(self, variable: str) -> List[ArrayStatement]:
        """Statements that read or write ``variable``."""
        result = []
        for stmt in self.statements:
            if stmt.target == variable or any(
                ref.name == variable for ref in stmt.reads()
            ):
                result.append(stmt)
        return result

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        lines = ["ASDG (%d statements, %d edges)" % (len(self), self.edge_count())]
        for i, stmt in enumerate(self.statements):
            lines.append("  v%d: %s" % (i + 1, stmt))
        for source, target, labels in self.edges():
            label_text = ", ".join(
                "(%s, %s, %s)" % (l.variable, format_vector(l.udv), l.type)
                for l in labels
            )
            lines.append(
                "  v%d -> v%d : {%s}"
                % (self.position(source) + 1, self.position(target) + 1, label_text)
            )
        return "\n".join(lines)
