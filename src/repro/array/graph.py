"""The traced expression graph behind :mod:`repro.array`.

Every operation on a :class:`~repro.array.LazyArray` appends a
:class:`Node` to an immutable DAG instead of computing anything — the
Bohrium "record now, fuse at the flush" design.  A :class:`Trace` is the
reachable subgraph under a set of requested outputs, walked in a
deterministic topological order so that:

* the canonical encoding (shapes + dtypes + op topology, *no input
  values*) is byte-stable across processes — it feeds
  ``fingerprint.trace_digest`` and addresses the artifact cache;
* input and output names (``in0``, ``out0``, ``res0``, ...) are derivable
  from the graph alone, so a warm materialization can seed and extract
  arrays without ever lowering to IR.

Arity and result kinds come from :mod:`repro.lang.operators`, the table
semantic analysis reads; the lowered IR must evaluate bit-identically to
what a hand-written mini-ZPL program with the same per-element op DAG
produces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang import operators
from repro.util.errors import ReproError

#: numpy dtype name -> element kind (the inverse of emit_common.DTYPES).
KIND_OF_DTYPE = {"float64": "float", "int64": "integer", "bool": "boolean"}

#: Element kind -> canonical numpy dtype.
DTYPE_OF_KIND = {
    "float": np.float64,
    "integer": np.int64,
    "boolean": np.bool_,
}


def kind_of_value(value) -> str:
    """Element kind of a Python scalar constant."""
    if isinstance(value, (bool, np.bool_)):
        return "boolean"
    if isinstance(value, (int, np.integer)):
        return "integer"
    if isinstance(value, (float, np.floating)):
        return "float"
    raise ReproError(
        "unsupported scalar constant %r (expected bool/int/float)" % (value,)
    )


def coerce_input(value) -> np.ndarray:
    """Coerce a traced input to a canonical-dtype ndarray copy.

    Copying decouples the trace from later caller mutation; casting maps
    every accepted dtype onto the three element kinds the IR knows.
    """
    array = np.asarray(value)
    if array.ndim == 0:
        raise ReproError(
            "repro.array inputs must have rank >= 1; wrap scalars as "
            "plain Python numbers instead"
        )
    if any(extent == 0 for extent in array.shape):
        raise ReproError("zero-sized arrays are not supported: shape %s"
                         % (array.shape,))
    if array.dtype == np.float64 or array.dtype == np.int64:
        return np.array(array)
    if array.dtype == np.bool_:
        return np.array(array)
    if np.issubdtype(array.dtype, np.bool_):
        return array.astype(np.bool_)
    if np.issubdtype(array.dtype, np.integer):
        return array.astype(np.int64)
    if np.issubdtype(array.dtype, np.floating):
        return array.astype(np.float64)
    raise ReproError(
        "unsupported input dtype %s (accepted: bool, integer, float)"
        % array.dtype
    )


class Node:
    """One traced operation (or leaf).  Immutable once constructed.

    ``shape`` is a tuple for array-valued nodes and ``None`` for scalar
    ones (reductions and arithmetic over them).  ``payload`` holds the
    op-specific metadata: the ndarray for ``input``, the fill value for
    ``full``/``const``, the 1-based dimension for ``index``, the operator
    or intrinsic name for ``bin``/``un``/``call``/``reduce``, and the
    offset vector for ``shift``.
    """

    __slots__ = ("op", "args", "shape", "kind", "payload", "cache")

    def __init__(self, op, args, shape, kind, payload=None):
        self.op = op
        self.args = tuple(args)
        self.shape = tuple(shape) if shape is not None else None
        self.kind = kind
        self.payload = payload
        #: digest -> materialized value (filled by repro.array.materialize).
        self.cache: Dict[str, object] = {}

    @property
    def is_array(self) -> bool:
        return self.shape is not None

    def __repr__(self) -> str:
        return "Node(%s, shape=%s, kind=%s)" % (self.op, self.shape, self.kind)


# -- constructors ------------------------------------------------------------


def py_scalar(value):
    """Normalize a scalar constant to a plain Python bool/int/float.

    numpy scalar types repr differently across numpy versions, which
    would leak into both the IR (``Const`` values) and the trace digest.
    """
    kind = kind_of_value(value)
    if kind == "boolean":
        return bool(value)
    if kind == "integer":
        return int(value)
    return float(value)


def input_node(value) -> Node:
    array = coerce_input(value)
    return Node(
        "input", (), array.shape, KIND_OF_DTYPE[array.dtype.name], array
    )


def full_node(shape: Sequence[int], value, kind: Optional[str] = None) -> Node:
    shape = tuple(int(extent) for extent in shape)
    if not shape or any(extent < 1 for extent in shape):
        raise ReproError("array shapes must be rank >= 1 with positive "
                         "extents, got %s" % (shape,))
    value = py_scalar(value)
    if kind is None:
        kind = kind_of_value(value)
    elif kind == "float":
        value = float(value)
    elif kind == "integer":
        value = int(value)
    elif kind == "boolean":
        value = bool(value)
    else:
        raise ReproError("unknown element kind %r" % kind)
    return Node("full", (), shape, kind, value)


def const_node(value) -> Node:
    value = py_scalar(value)
    return Node("const", (), None, kind_of_value(value), value)


def index_node(shape: Sequence[int], dim: int) -> Node:
    shape = tuple(int(extent) for extent in shape)
    if not 1 <= dim <= len(shape):
        raise ReproError(
            "index dimension %d out of range for shape %s" % (dim, shape)
        )
    return Node("index", (), shape, "integer", dim)


def _join_shape(op: str, args: Sequence[Node]) -> Optional[Tuple[int, ...]]:
    """The common array shape of the operands (None: all scalar).

    Element-wise ops combine equal-shaped arrays or an array with a
    scalar; there is no broadcasting (regions are rectangular and equal
    by construction, exactly the mini-ZPL rule).
    """
    shape: Optional[Tuple[int, ...]] = None
    for arg in args:
        if arg.shape is None:
            continue
        if shape is None:
            shape = arg.shape
        elif arg.shape != shape:
            raise ReproError(
                "shape mismatch in %r: %s vs %s (repro.array is "
                "ZPL-regioned: no broadcasting between unequal shapes)"
                % (op, shape, arg.shape)
            )
    return shape


def bin_node(op: str, left: Node, right: Node) -> Node:
    row = operators.BINARY.get(op)
    if row is None:
        raise ReproError("unknown binary operator %r" % op)
    shape = _join_shape(op, (left, right))
    kind = operators.result_kind(row, (left.kind, right.kind))
    return Node("bin", (left, right), shape, kind, op)


def un_node(op: str, operand: Node) -> Node:
    row = operators.UNARY.get(op)
    if row is None:
        raise ReproError("unknown unary operator %r" % op)
    kind = operators.result_kind(row, (operand.kind,))
    return Node("un", (operand,), operand.shape, kind, op)


def call_node(name: str, args: Sequence[Node]) -> Node:
    row = operators.INTRINSICS.get(name)
    if row is None:
        raise ReproError(
            "unknown intrinsic %r (have: %s)"
            % (name, ", ".join(sorted(operators.INTRINSICS)))
        )
    if len(args) != row.arity:
        raise ReproError(
            "intrinsic %r takes %d argument(s), got %d"
            % (name, row.arity, len(args))
        )
    shape = _join_shape(name, args)
    kind = operators.result_kind(row, [arg.kind for arg in args])
    return Node("call", tuple(args), shape, kind, name)


def shift_node(operand: Node, offset: Sequence[int]) -> Node:
    if operand.shape is None:
        raise ReproError("shift() needs an array operand, got a scalar")
    offset = tuple(int(step) for step in offset)
    if len(offset) != len(operand.shape):
        raise ReproError(
            "shift offset rank %d does not match array rank %d"
            % (len(offset), len(operand.shape))
        )
    return Node("shift", (operand,), operand.shape, operand.kind, offset)


def reduce_node(op: str, operand: Node) -> Node:
    row = operators.REDUCTIONS.get(op)
    if row is None:
        raise ReproError("unknown reduction %r (have: %s)"
                         % (op, ", ".join(operators.REDUCTIONS)))
    if operand.shape is None:
        raise ReproError("reductions need an array operand, got a scalar")
    kind = operators.result_kind(row, (operand.kind,))
    return Node("reduce", (operand,), None, kind, op)


# -- the trace ---------------------------------------------------------------


class Trace:
    """The reachable graph under a tuple of requested output nodes.

    ``order`` is a deterministic postorder (children before parents,
    argument order respected), so node ids, input numbering and the
    canonical encoding are identical for every re-trace of the same
    program shape — that stability is what makes ``trace_digest`` a
    valid artifact-cache address.
    """

    def __init__(self, outputs: Sequence[Node]) -> None:
        if not outputs:
            raise ReproError("compute() needs at least one output")
        self.outputs: Tuple[Node, ...] = tuple(outputs)
        self.order: List[Node] = []
        self._ids: Dict[int, int] = {}
        for root in self.outputs:
            self._visit(root)
        self.inputs: List[Node] = [
            node for node in self.order if node.op == "input"
        ]
        self._input_index = {
            id(node): index for index, node in enumerate(self.inputs)
        }

    def _visit(self, root: Node) -> None:
        """Iterative postorder DFS (traces can outgrow the recursion limit)."""
        stack: List[Tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in self._ids:
                continue
            if expanded:
                self._ids[id(node)] = len(self.order)
                self.order.append(node)
            else:
                stack.append((node, True))
                for arg in reversed(node.args):
                    if id(arg) not in self._ids:
                        stack.append((arg, False))

    def node_id(self, node: Node) -> int:
        return self._ids[id(node)]

    # -- naming (shared by lowering and materialization) -------------------

    def input_name(self, node: Node) -> str:
        return "in%d" % self._input_index[id(node)]

    def output_names(self) -> List[str]:
        """Per-slot result names: ``out<i>`` arrays, ``res<i>`` scalars.

        A node requested in several slots keeps its first slot's name.
        """
        names: List[str] = []
        first: Dict[int, str] = {}
        for slot, node in enumerate(self.outputs):
            name = first.get(id(node))
            if name is None:
                name = ("out%d" if node.is_array else "res%d") % slot
                first[id(node)] = name
            names.append(name)
        return names

    # -- canonical encoding ------------------------------------------------

    def canonical(self) -> dict:
        """Shapes + dtypes + op topology as plain JSON-able lists.

        Input *values* are excluded on purpose: every execution of one
        program shape shares the digest.  Constant values (``const`` /
        ``full``) are program text, so they are included, typed the same
        way ``fingerprint.canonical_expr`` types ``Const``.
        """
        nodes: List[list] = []
        for node in self.order:
            if node.op == "input":
                nodes.append(
                    [
                        "input",
                        self._input_index[id(node)],
                        list(node.shape),
                        node.kind,
                    ]
                )
            elif node.op == "full":
                nodes.append(
                    [
                        "full",
                        list(node.shape),
                        node.kind,
                        type(node.payload).__name__,
                        repr(node.payload),
                    ]
                )
            elif node.op == "const":
                nodes.append(
                    ["const", type(node.payload).__name__, repr(node.payload)]
                )
            elif node.op == "index":
                nodes.append(["index", list(node.shape), node.payload])
            elif node.op == "shift":
                nodes.append(
                    ["shift", self.node_id(node.args[0]), list(node.payload)]
                )
            else:  # bin / un / call / reduce
                nodes.append(
                    [node.op, node.payload]
                    + [self.node_id(arg) for arg in node.args]
                )
        return {
            "nodes": nodes,
            "outputs": [self.node_id(node) for node in self.outputs],
        }
