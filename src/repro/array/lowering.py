"""Lowering: a traced expression graph -> the normalized IR.

One :class:`~repro.ir.ArrayStatement` per traced array operation, in the
trace's deterministic topological order — the Bohrium "every op is a
statement, the fuser earns its keep" shape.  The unmodified fusion
pipeline then plans the program: at ``baseline`` every op materializes
its own temporary (NumPy-style), while ``c1``/``c2`` contract the
intermediate temporaries away and ``f*`` fuse the loops, exactly the
paper's machinery applied to Python-traced code.

Mapping rules:

* ``input`` leaves become user arrays named ``in<i>`` over ``[1..s1,
  ...]`` regions; they are seeded like any request's arrays
  (``run(inputs)`` -> ``emit_common.build_state``) at execution time.
* ``const``/``full``/``index`` leaves are inlined as ``Const`` /
  ``IndexRef`` expressions — they occupy no storage *unless* a ``shift``
  reads them, in which case they are first bound to a temporary array so
  the zero-filled-halo edge semantics apply.
* ``shift(axis, offset)`` becomes the IR's constant-offset array read
  (``A@d``).  Shift-of-shift binds the inner shift to a temporary rather
  than composing offsets: composition would skip the intermediate halo
  and change edge values.
* ``reduce`` becomes a block-resident :class:`ReductionStatement`
  writing a scalar (``res<i>`` for requested outputs, ``_s<n>`` for
  intermediates); scalar arithmetic over reductions is inlined into the
  consuming expression so it never splits a fusible basic block.
* Requested outputs are user arrays named ``out<i>`` flagged
  ``is_output`` — contraction never eliminates them — while every other
  op node is an ``is_temp`` compiler array, free to be contracted.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import expr as ir
from repro.ir.program import ArrayInfo, IRProgram, ScalarInfo
from repro.ir.region import Region
from repro.ir.statement import ArrayStatement, ReductionStatement, ScalarStatement
from repro.util.errors import ReproError

from repro.array.graph import Node, Trace


def region_of(shape) -> Region:
    """The 1-based declared region of an array shaped ``shape``."""
    return Region.literal(*((1, extent) for extent in shape))


class _Lowerer:
    def __init__(self, trace: Trace, name: str) -> None:
        self.trace = trace
        self.program_name = name
        self.arrays: Dict[str, ArrayInfo] = {}
        self.scalars: Dict[str, ScalarInfo] = {}
        self.body: List[object] = []
        #: node id -> bound array name (inputs, op targets, shift bindings)
        self.array_name: Dict[int, str] = {}
        #: node id -> scalar name (reduction results)
        self.scalar_name: Dict[int, str] = {}
        self._temp_count = 0
        self._scalar_temp_count = 0

    # -- naming ------------------------------------------------------------

    def _fresh_temp(self, node: Node) -> str:
        self._temp_count += 1
        name = "_t%d" % self._temp_count
        self.arrays[name] = ArrayInfo(
            name, region_of(node.shape), node.kind, is_temp=True
        )
        return name

    def _fresh_scalar_temp(self, kind: str) -> str:
        self._scalar_temp_count += 1
        name = "_s%d" % self._scalar_temp_count
        self.scalars[name] = ScalarInfo(name, kind, is_temp=True)
        return name

    # -- operand encoding --------------------------------------------------

    def operand(self, node: Node) -> ir.IRExpr:
        """The expression a consumer uses to read ``node``'s value."""
        bound = self.array_name.get(id(node))
        if bound is not None:
            return ir.ArrayRef(bound, (0,) * len(node.shape))
        if node.op == "const" or node.op == "full":
            return ir.Const(node.payload)
        if node.op == "index":
            return ir.IndexRef(node.payload)
        if node.op == "shift":
            inner = node.args[0]
            return ir.ArrayRef(self.bound_name(inner), node.payload)
        if node.op == "reduce":
            return ir.ScalarRef(self.scalar_name[id(node)])
        if node.shape is None:
            # Scalar arithmetic over reductions/constants: inline the whole
            # expression so it never splits the basic block.
            if node.op == "bin":
                return ir.BinOp(
                    node.payload,
                    self.operand(node.args[0]),
                    self.operand(node.args[1]),
                )
            if node.op == "un":
                return ir.UnOp(node.payload, self.operand(node.args[0]))
            if node.op == "call":
                return ir.Call(
                    node.payload, [self.operand(arg) for arg in node.args]
                )
        raise ReproError("cannot lower operand %r" % (node,))

    def bound_name(self, node: Node) -> str:
        """The array name holding ``node``'s value (binding it if needed).

        ``shift`` reads its operand *through storage* — the zero halo is
        what gives out-of-region reads their defined value — so operands
        that would otherwise inline (constants, index grids, other
        shifts) are materialized into a temporary here.
        """
        name = self.array_name.get(id(node))
        if name is None:
            name = self._fresh_temp(node)
            self.body.append(
                ArrayStatement(region_of(node.shape), name, self.operand(node))
            )
            self.array_name[id(node)] = name
        return name

    # -- main walk ---------------------------------------------------------

    def lower(self) -> IRProgram:
        trace = self.trace
        output_name: Dict[int, str] = {}
        for slot, (node, name) in enumerate(
            zip(trace.outputs, trace.output_names())
        ):
            output_name.setdefault(id(node), name)

        for node in trace.order:
            if node.op == "input":
                name = trace.input_name(node)
                self.arrays[name] = ArrayInfo(
                    name, region_of(node.shape), node.kind
                )
                self.array_name[id(node)] = name
            elif node.op == "shift":
                # Materialize the operand now (topological order keeps the
                # binding statement ahead of every consumer); the shift
                # itself inlines as an offset read.
                self.bound_name(node.args[0])
            elif node.op == "reduce":
                target = output_name.get(id(node))
                if target is not None:
                    self.scalars[target] = ScalarInfo(target, node.kind)
                else:
                    target = self._fresh_scalar_temp(node.kind)
                self.scalar_name[id(node)] = target
                operand = node.args[0]
                self.body.append(
                    ReductionStatement(
                        region_of(operand.shape),
                        target,
                        node.payload,
                        self.operand(operand),
                    )
                )
            elif node.op in ("bin", "un", "call") and node.is_array:
                rhs = (
                    ir.BinOp(
                        node.payload,
                        self.operand(node.args[0]),
                        self.operand(node.args[1]),
                    )
                    if node.op == "bin"
                    else ir.UnOp(node.payload, self.operand(node.args[0]))
                    if node.op == "un"
                    else ir.Call(
                        node.payload, [self.operand(arg) for arg in node.args]
                    )
                )
                target = output_name.get(id(node))
                if target is not None:
                    self.arrays[target] = ArrayInfo(
                        target, region_of(node.shape), node.kind,
                        is_output=True,
                    )
                else:
                    target = self._fresh_temp(node)
                self.body.append(
                    ArrayStatement(region_of(node.shape), target, rhs)
                )
                self.array_name[id(node)] = target
            # const / full / index / scalar arithmetic: inlined on use.

        # Outputs that are not op-statement targets yet: copy leaves and
        # shifts into their out<i> array, evaluate scalar expressions into
        # their res<i> scalar (trailing, so no fusible block is split).
        for node, name in zip(trace.outputs, trace.output_names()):
            if node.is_array:
                if self.array_name.get(id(node)) == name:
                    continue
                if name in self.arrays:
                    continue  # duplicate slot of an already-named node
                self.arrays[name] = ArrayInfo(
                    name, region_of(node.shape), node.kind, is_output=True
                )
                self.body.append(
                    ArrayStatement(
                        region_of(node.shape), name, self.operand(node)
                    )
                )
            else:
                if self.scalar_name.get(id(node)) == name:
                    continue
                if name in self.scalars:
                    continue
                self.scalars[name] = ScalarInfo(name, node.kind)
                self.body.append(ScalarStatement(name, self.operand(node)))

        return IRProgram(
            self.program_name, {}, self.arrays, self.scalars, self.body
        )


def lower_trace(trace: Trace, name: str = "trace") -> IRProgram:
    """Lower a trace to a normalized IR program the pipeline can plan."""
    return _Lowerer(trace, name).lower()
