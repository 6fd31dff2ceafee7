"""The scalarized (loop-level) program representation.

Scalarization turns each fusible cluster into a single :class:`LoopNest`: a
rank-n nest of element loops described by the cluster's region and loop
structure vector, with one element assignment per statement.  Contracted
arrays appear as plain scalars.

:class:`LoopNest` is the only node that touches array elements.  A
reduction is not a second kind of kernel: it is a *fold statement* (an
:class:`ElemAssign` with ``reduce_op`` set) inside a nest, preceded by a
:class:`ScalarAssign` of the operator's identity, whether the reduction
was fused with its neighbours or stands alone.  Everything else is scalar
control flow (:class:`ScalarAssign`, :class:`SeqLoop`, :class:`SIf`,
:class:`SWhile`) or a halo fill (:class:`SBoundary`).

Consumers query the tree instead of recursing through it themselves:
:func:`walk` enumerates every node in pre-order, and
:meth:`LoopNest.reads` / :meth:`LoopNest.writes` /
:meth:`LoopNest.arrays` / :meth:`LoopNest.scalar_reads` say what a nest
touches, :func:`partition_plan` says along which dimensions it may be
split, with what halo and what hazard left — the one answer the slice,
thread, rank and loop-interchange consumers each derive their verdict
from — and :func:`sinkable` says whether a column sweep's serial loop may
move under its row loops.  :attr:`ScalarProgram.layout` says what storage
a program needs: one :class:`Slot` per array and scalar, the only place an
allocation region becomes a shape.

This IR is what the interpreters execute, the cache simulator traces, and
the code generators print.
"""

from __future__ import annotations

import functools
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.ir.expr import ArrayRef, IRExpr
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.lang import operators
from repro.util.vectors import IntVector


def loop_variable(dimension: int) -> str:
    """The canonical loop variable iterating over array dimension ``dimension``.

    Dimensions are 1-based, matching loop structure vectors.
    """
    return "_i%d" % dimension


class SNode:
    """Base class for scalarized statements."""

    __slots__ = ()


class ElemAssign(SNode):
    """One element assignment inside a loop nest body.

    ``target`` is an array name (written at the loop indices) or ``None``
    when the statement's target was contracted, in which case
    ``scalar_target`` names the contraction scalar.  When ``reduce_op`` is
    set the statement is a fused reduction step: the scalar target
    accumulates ``rhs`` with that operator instead of being assigned.  The
    right-hand side is an IR expression whose
    :class:`~repro.ir.expr.ArrayRef` nodes denote elements at ``loop index +
    offset`` and whose scalar reads may reference contraction scalars.
    """

    __slots__ = ("target", "scalar_target", "rhs", "reduce_op")

    def __init__(
        self,
        target: Optional[str],
        scalar_target: Optional[str],
        rhs: IRExpr,
        reduce_op: Optional[str] = None,
    ) -> None:
        if (target is None) == (scalar_target is None):
            raise ValueError("exactly one of target/scalar_target required")
        if reduce_op is not None and scalar_target is None:
            raise ValueError("reductions accumulate into a scalar target")
        if reduce_op is not None and reduce_op not in operators.REDUCTIONS:
            raise ValueError("unknown reduction operator %r" % reduce_op)
        self.target = target
        self.scalar_target = scalar_target
        self.rhs = rhs
        self.reduce_op = reduce_op

    @property
    def is_contracted(self) -> bool:
        return self.target is None

    def __repr__(self) -> str:
        name = self.target if self.target is not None else self.scalar_target
        if self.reduce_op is not None:
            return "ElemAssign(%s %s<<= %s)" % (name, self.reduce_op, self.rhs)
        return "ElemAssign(%s := %s)" % (name, self.rhs)


class LoopNest(SNode):
    """A perfect rank-n loop nest over a region.

    ``structure`` is the loop structure vector: loop ``l`` (outermost first)
    iterates over array dimension ``|structure[l]|`` in the direction of its
    sign.  The body executes once per index point, statements in order.

    ``carried_depth`` records how many outermost loops carry an
    intra-cluster dependence (see
    :func:`repro.fusion.loopstruct.serial_depth`): 0 means the whole nest is
    a dependence-free sweep, ``rank`` means every level carries something.
    ``None`` means the depth is unknown (hand-built nests); executors must
    then assume the nest is fully serial.
    """

    __slots__ = ("region", "structure", "body", "cluster_id", "carried_depth")

    def __init__(
        self,
        region: Region,
        structure: IntVector,
        body: List[ElemAssign],
        cluster_id: int = -1,
        carried_depth: Optional[int] = None,
    ) -> None:
        self.region = region
        self.structure = tuple(structure)
        self.body = body
        self.cluster_id = cluster_id
        self.carried_depth = carried_depth

    @property
    def rank(self) -> int:
        return self.region.rank

    def reads(self) -> List[ArrayRef]:
        """Every array reference on a right-hand side, in statement order."""
        return [ref for stmt in self.body for ref in stmt.rhs.array_refs()]

    def writes(self) -> List[str]:
        """The arrays the nest stores to, in first-write order."""
        return list(
            dict.fromkeys(
                stmt.target for stmt in self.body if stmt.target is not None
            )
        )

    def arrays(self) -> Set[str]:
        """Every array the nest reads or stores to."""
        return {ref.name for ref in self.reads()}.union(self.writes())

    def scalar_reads(self) -> Set[str]:
        """The scalars any right-hand side reads."""
        return {ref.name for stmt in self.body for ref in stmt.rhs.scalar_refs()}

    def live_in_scalars(self) -> Set[str]:
        """The scalars whose value from *before* the nest the body observes.

        A right-hand side reading a name no earlier statement of the body
        assigned (an upward-exposed read), and every fold accumulator.  A
        contraction scalar the body defines before reading is not live in.
        """
        live: Set[str] = set()
        defined: Set[str] = set()
        for stmt in self.body:
            live.update(
                ref.name
                for ref in stmt.rhs.scalar_refs()
                if ref.name not in defined
            )
            if stmt.reduce_op is not None:
                live.add(stmt.scalar_target)
            elif stmt.scalar_target is not None:
                defined.add(stmt.scalar_target)
        return live

    def __repr__(self) -> str:
        return "LoopNest(%s, p=%s, %d stmts)" % (
            self.region,
            self.structure,
            len(self.body),
        )



class SBoundary(SNode):
    """A halo fill: wrap (periodic) or reflect (mirror) outside a region."""

    __slots__ = ("region", "kind", "array")

    def __init__(self, region: Region, kind: str, array: str) -> None:
        self.region = region
        self.kind = kind
        self.array = array

    def __repr__(self) -> str:
        return "SBoundary(%s %s %s)" % (self.region, self.kind, self.array)


class ScalarAssign(SNode):
    """A plain scalar assignment (no array content)."""

    __slots__ = ("target", "rhs")

    def __init__(self, target: str, rhs: IRExpr) -> None:
        self.target = target
        self.rhs = rhs

    def __repr__(self) -> str:
        return "ScalarAssign(%s := %s)" % (self.target, self.rhs)


class SeqLoop(SNode):
    """A sequential (source-level) counted loop."""

    __slots__ = ("var", "lo", "hi", "downto", "body")

    def __init__(
        self, var: str, lo: IRExpr, hi: IRExpr, body: List[SNode], downto: bool
    ) -> None:
        self.var = var
        self.lo = lo
        self.hi = hi
        self.downto = downto
        self.body = body

    def __repr__(self) -> str:
        return "SeqLoop(%s, %d stmts)" % (self.var, len(self.body))


class SIf(SNode):
    """A scalar conditional."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: IRExpr, then_body: List[SNode], else_body: List[SNode]):
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body

    def __repr__(self) -> str:
        return "SIf(%s)" % (self.cond,)


class SWhile(SNode):
    """A scalar while loop."""

    __slots__ = ("cond", "body")

    def __init__(self, cond: IRExpr, body: List[SNode]) -> None:
        self.cond = cond
        self.body = body

    def __repr__(self) -> str:
        return "SWhile(%s)" % (self.cond,)


def walk(body: Sequence[SNode]) -> Iterator[SNode]:
    """Every node under ``body``, pre-order, through all control flow.

    A :class:`SeqLoop`, :class:`SIf` (then-branch before else-branch) or
    :class:`SWhile` is yielded before the nodes it contains.
    """
    for node in body:
        yield node
        if isinstance(node, (SeqLoop, SWhile)):
            yield from walk(node.body)
        elif isinstance(node, SIf):
            yield from walk(node.then_body)
            yield from walk(node.else_body)


class Crossing(NamedTuple):
    """One read, at a non-zero offset along some dimension, of an array
    the reading nest also stores: what a split along that dimension cuts.

    ``(stmt, slot)`` is the read's position in the body (statement index,
    then reference order on its right-hand side), so crossings recorded
    along different dimensions still order as the body executes them.
    ``own`` says the array is the reading statement's own target.
    """

    stmt: int
    slot: int
    ref: ArrayRef
    own: bool


class DimFacts(NamedTuple):
    """What a split of a nest along one dimension has to respect.

    ``halo`` is the widest ``|offset|`` any read applies along it — the
    neighbor elements a block reads beyond its own bounds.  ``carried``
    says one of the outermost ``carried_depth`` loops iterates it (all of
    them when the depth is unknown), so blocks along it depend on each
    other.  ``flow`` holds the crossings whose array an *earlier*
    statement of the nest stores (the neighbor's value must be this
    nest's, mid-nest), ``anti`` those whose array the *same or a later*
    statement stores (the neighbor's value must still be the old one).
    ``buffered`` lists ``(verb, array)`` for every circular buffer whose
    modular dimension this is: ``"touches"`` when the nest reads it,
    ``"writes"`` when it only stores to it.
    """

    halo: int
    carried: bool
    flow: Tuple[Crossing, ...]
    anti: Tuple[Crossing, ...]
    buffered: Tuple[Tuple[str, str], ...]


class ThreadClass(NamedTuple):
    """How a nest may run as concurrent blocks over shared arrays.

    ``"parallel"``: one kernel sweeps every statement per block.
    ``"per-statement"``: a barrier after each statement, because some
    statement reads — across a free dimension — an array the nest stores
    (``hazard_arrays``); the statements in ``snapshots`` read their *own*
    target that way and need the pre-statement copy.  ``"serial"``: no
    split, ``reason`` says why.
    """

    mode: str
    reason: Optional[str] = None
    hazard_arrays: Tuple[str, ...] = ()
    snapshots: Tuple[int, ...] = ()


class PartitionPlan(NamedTuple):
    """Every split-legality fact of one loop nest, from one pass.

    The proof obligation is the paper's: every intra-cluster dependence
    (flow, anti and output, from the cluster's unconstrained distance
    vectors, Definition 2) is carried by one of the ``serial_levels``
    loops (Definition 4), so along the remaining :attr:`free` dimensions
    no dependence has a non-zero component and blocks may run in any
    order between serial iterations.  What a particular *kind* of split
    must additionally respect — values crossing a block edge inside the
    nest — is recorded per dimension in ``dims`` (:class:`DimFacts`,
    index ``dim - 1``), and each consumer's verdict is a derivation:

    * :meth:`slices` — whole-region slice operations (``codegen_np``);
    * :meth:`thread_class` — blocks over shared arrays (``np-par``, the
      tuner, an OpenMP loop);
    * :meth:`rank_class` — blocks over private arrays with pre-exchanged
      halos (``mp-shard``);
    * :func:`sinkable` — interchanging an enclosing serial loop (``c``).

    ``serial_levels`` is the signed structure prefix that must stay
    serial loops (``None``: carry depth unknown, assume every level).
    ``folds`` says some statement is a reduction step, ``corners`` names
    the contraction scalars left at the final index point's value, and
    ``unsafe_corner`` that one of them reads an array a later statement
    overwrites (recomputing it after the sweep would see the new value).
    """

    dims: Tuple[DimFacts, ...]
    serial_levels: Optional[Tuple[int, ...]]
    folds: bool
    corners: Tuple[str, ...]
    unsafe_corner: bool

    @property
    def free(self) -> Tuple[int, ...]:
        """The dimensions (1-based, ascending) no serial loop iterates."""
        return tuple(
            dim for dim, facts in enumerate(self.dims, start=1) if not facts.carried
        )

    @property
    def buffered(self) -> bool:
        """Does the nest touch any circular-buffer array?"""
        return any(facts.buffered for facts in self.dims)

    def slices(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """``(serial prefix, dimensions to collapse to slices)``, or
        ``None`` when the nest must run as element loops: every level
        carried (or the depth unknown), or modular indexing, which has no
        contiguous slice form."""
        if not self.free or self.buffered:
            return None
        return self.serial_levels, self.free

    def thread_class(self) -> ThreadClass:
        """The verdict for concurrent blocks along :attr:`free`."""
        if self.serial_levels is None:
            return ThreadClass("serial", "carried depth unknown (hand-built nest)")
        if not self.free:
            return ThreadClass("serial", "every loop level carries a dependence")
        if self.buffered:
            return ThreadClass("serial", "touches a circular-buffer array")
        if self.folds:
            # Blocks would reassociate the fold and break bit-identity
            # with the whole-region backend.
            return ThreadClass("serial", "fused reduction folds over the region")
        crossings = [
            crossing
            for dim in self.free
            for crossing in self.dims[dim - 1].flow + self.dims[dim - 1].anti
        ]
        if self.corners and crossings:
            return ThreadClass(
                "serial",
                "contraction scalars mixed with cross-tile reads of "
                "nest-written arrays",
            )
        if self.unsafe_corner:
            return ThreadClass(
                "serial",
                "contraction scalar reads an array a later statement overwrites",
            )
        if crossings:
            return ThreadClass(
                "per-statement",
                None,
                tuple(sorted({crossing.ref.name for crossing in crossings})),
                tuple(sorted({c.stmt for c in crossings if c.own})),
            )
        return ThreadClass("parallel")

    def rank_class(self, cut: Sequence[int]) -> Tuple[str, Optional[str]]:
        """``("clamped", None)`` or ``("gathered", reason)`` for blocks
        along the ``cut`` dimensions, each block holding its own arrays.

        A clamped block reads its neighbors' values from halos exchanged
        *before* the nest, which hold pre-nest state.  That is exactly
        what a self-reference or an anti dependence wants; a flow
        crossing wants the neighbor's mid-nest value, and a circular
        buffer carries a true flow dependence along its modular
        dimension, so either along a cut dimension makes the nest
        *gathered*: it needs its blocks to run in dependence order (today
        whole on one rank; the §5.5 FAVOR_COMM policy exists to keep such
        merges from forming).
        """
        cut = [dim for dim in cut if dim <= len(self.dims)]
        buffers = [
            (verb, name, dim)
            for dim in cut
            for verb, name in self.dims[dim - 1].buffered
        ]
        if buffers:
            # min: a buffer the nest reads ("touches") is named before one
            # it only "writes", then alphabetically.
            return "gathered", "%s circular buffer %r cut along dim %d" % min(buffers)
        flow = [crossing for dim in cut for crossing in self.dims[dim - 1].flow]
        if flow:
            first = min(flow, key=lambda crossing: crossing[:2])
            return "gathered", (
                "reads %r at offset %r from an earlier statement of the "
                "same nest across a cut dimension"
                % (first.ref.name, first.ref.offset)
            )
        return "clamped", None


def partition_plan(
    nest: LoopNest, partial: Mapping[str, Tuple[int, int]]
) -> PartitionPlan:
    """The :class:`PartitionPlan` of ``nest``: one pass over its reads.

    ``partial`` maps circular-buffer arrays to ``(dimension, depth)``
    (:attr:`ScalarProgram.partial`).  This is the only place a read's
    offset is compared with the arrays its nest stores.
    """
    rank = nest.rank
    first_store: Dict[str, int] = {}
    last_store: Dict[str, int] = {}
    for index, stmt in enumerate(nest.body):
        if stmt.target is not None:
            first_store.setdefault(stmt.target, index)
            last_store[stmt.target] = index
    halo = [0] * rank
    flow: List[List[Crossing]] = [[] for _ in range(rank)]
    anti: List[List[Crossing]] = [[] for _ in range(rank)]
    buffers: Dict[str, str] = {}
    corners: Dict[str, None] = {}
    folds = unsafe_corner = False
    for index, stmt in enumerate(nest.body):
        corner = stmt.is_contracted and stmt.reduce_op is None
        if corner:
            corners[stmt.scalar_target] = None
        elif stmt.reduce_op is not None:
            folds = True
        for slot, ref in enumerate(stmt.rhs.array_refs()):
            if ref.name in partial:
                buffers.setdefault(ref.name, "touches")
            stored = last_store.get(ref.name, -1)
            if corner and stored > index:
                unsafe_corner = True
            crossing = None
            for axis, offset in enumerate(ref.offset[:rank]):
                if not offset:
                    continue
                halo[axis] = max(halo[axis], abs(offset))
                if stored < 0:
                    continue
                if crossing is None:
                    crossing = Crossing(
                        index, slot, ref, ref.name == stmt.target
                    )
                if first_store[ref.name] < index:
                    flow[axis].append(crossing)
                if stored >= index:
                    anti[axis].append(crossing)
    for name in first_store:
        if name in partial:
            buffers.setdefault(name, "writes")
    buffered: List[List[Tuple[str, str]]] = [[] for _ in range(rank)]
    for name, verb in buffers.items():
        buffered[partial[name][0] - 1].append((verb, name))
    serial_levels = (
        None
        if nest.carried_depth is None
        else tuple(nest.structure[: nest.carried_depth])
    )
    carried = (
        set(range(1, rank + 1))
        if serial_levels is None
        else {abs(level) for level in serial_levels}
    )
    return PartitionPlan(
        tuple(
            DimFacts(
                halo[axis],
                axis + 1 in carried,
                tuple(flow[axis]),
                tuple(anti[axis]),
                tuple(buffered[axis]),
            )
            for axis in range(rank)
        ),
        serial_levels,
        folds,
        tuple(corners),
        unsafe_corner,
    )


def sinkable(
    loop: SeqLoop,
    partial: Mapping[str, Tuple[int, int]],
    env: Mapping[str, int],
) -> bool:
    """May the row loops of the nest ``loop`` wraps run *outside* it?

    A column sweep ``for j do [lo..hi, j+c] ...`` scalarizes to a serial
    loop around a nest whose last dimension is pinned to the loop variable,
    so an element-order emitter that prints it as it stands walks every
    array with a whole-row stride.  The serial loop may be sunk under the
    other (row) loops iff all of:

    1. the body is exactly one :class:`LoopNest` of rank >= 2 touching no
       circular-buffer (``partial``) array;
    2. its last dimension is ``[var+c .. var+c]`` and every other dimension
       has constant, non-empty bounds under ``env`` (an empty row range
       would leave the loop variable unassigned);
    3. no statement is a fold;
    4. no row dimension has a flow or anti crossing (every read of an
       array the nest writes has offset 0 in every non-pinned dimension);
    5. every scalar the nest assigns is defined before it is read, and
       none is the loop variable.

    Conditions 1, 3 and 4 are read off the nest's :class:`PartitionPlan`.
    Then rows touch disjoint elements of every written array, the order
    inside a row is kept, and the last iteration executed is the same
    index point in both orders: arrays, contraction-corner scalars and the
    loop variable end identical.  Whole-region emitters want the opposite
    order (serial loop outside, slice over the rows) and do not ask.
    """
    if len(loop.body) != 1 or not isinstance(loop.body[0], LoopNest):
        return False
    nest = loop.body[0]
    if nest.rank < 2:
        return False
    lo, hi = nest.region.dims[-1]
    if lo != hi or not (lo - LinearExpr.variable(loop.var)).is_constant:
        return False
    rows = Region(nest.region.dims[:-1])
    if not set(rows.free_variables()) <= set(env) or rows.is_empty(env):
        return False
    plan = partition_plan(nest, partial)
    if plan.buffered or plan.folds:
        return False
    if any(facts.flow or facts.anti for facts in plan.dims[:-1]):
        return False
    assigned = {
        stmt.scalar_target
        for stmt in nest.body
        if stmt.scalar_target is not None
    }
    return loop.var not in assigned and assigned.isdisjoint(
        nest.live_in_scalars()
    )


def int_config_env(configs: Mapping[str, object]) -> Dict[str, int]:
    """Integer-valued configuration bindings for region-bound evaluation.

    The same filter as :meth:`repro.ir.program.IRProgram.config_env`:
    region bounds are affine over integers, so only integral configs can
    appear in them.
    """
    env: Dict[str, int] = {}
    for name, value in configs.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            env[name] = value
        elif isinstance(value, float) and value.is_integer():
            env[name] = int(value)
    return env


class Slot(NamedTuple):
    """One array or scalar of a program's storage layout."""

    name: str
    role: str  #: "array" or "scalar"
    kind: str  #: element kind ("float" / "integer" / "boolean")
    shape: Tuple[int, ...]  #: allocation-region shape; () for scalars
    bases: Tuple[int, ...]  #: constant lower bound per dimension


class ScalarProgram:
    """A fully scalarized program, ready for execution or code generation.

    It is not mutated once built: :attr:`layout` is computed on first use
    and kept, and so is :attr:`c_sizes`.
    """

    #: Class-level default so programs unpickled from artifacts written
    #: before the attribute existed read as having no scalar inputs.
    scalar_inputs: Tuple[str, ...] = ()

    #: The size vector of the C module text, kept here (beside ``layout``,
    #: and so inside a pickled artifact) by the emitter's walk that found
    #: the sites (:func:`repro.scalarize.codegen_c.c_abi`); None until then.
    c_sizes = None

    def __init__(
        self,
        name: str,
        configs: Dict[str, object],
        array_allocs: Dict[str, Tuple[Region, str]],
        scalars: Dict[str, str],
        body: List[SNode],
        partial: Optional[Dict[str, Tuple[int, int]]] = None,
        scalar_inputs: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.configs = configs
        #: name -> (allocation region including halo, element kind)
        self.array_allocs = array_allocs
        #: name -> kind, including contraction scalars
        self.scalars = scalars
        self.body = body
        #: partially contracted arrays: name -> (dim, buffer depth); their
        #: allocation region's dim is already the buffer [0..depth-1], and
        #: indices along it are taken modulo depth
        self.partial = dict(partial or {})
        #: declared scalars whose starting value the caller supplies on
        #: every run (``run(inputs, scalars={...})``) instead of the kind's
        #: default; empty for everything a frontend produces
        self.scalar_inputs: Tuple[str, ...] = tuple(scalar_inputs)
        undeclared = [n for n in self.scalar_inputs if n not in scalars]
        if undeclared:
            raise ValueError(
                "scalar inputs %s are not declared scalars" % undeclared
            )

    @functools.cached_property
    def layout(self) -> Tuple[Slot, ...]:
        """The program's storage: arrays in name order, then scalars in
        name order.

        Every executor, emitter and model reads shapes and lower bounds
        here, so they cannot drift: allocation regions (halo included)
        are evaluated under the integer configs, an empty extent still
        gets one element, and this order *is* the buffer order of the C
        entry point (:func:`repro.scalarize.codegen_c.c_abi`).  A region
        that is not constant under the configs raises (``'n' is unbound``).
        """
        env = int_config_env(self.configs)
        slots: List[Slot] = []
        for name in sorted(self.array_allocs):
            region, kind = self.array_allocs[name]
            bounds = region.concrete_bounds(env)
            shape = tuple(max(hi - lo + 1, 1) for lo, hi in bounds)
            bases = tuple(lo for lo, _hi in bounds)
            slots.append(Slot(name, "array", kind, shape, bases))
        for name in sorted(self.scalars):
            slots.append(Slot(name, "scalar", self.scalars[name], (), ()))
        return tuple(slots)

    def array_bases(self) -> Dict[str, Tuple[int, ...]]:
        """Array name -> constant lower bound per dimension (:attr:`layout`):
        element ``p`` of an array lives at raw index ``p - base``."""
        return {
            slot.name: slot.bases for slot in self.layout if slot.role == "array"
        }

    def loop_nests(self) -> List[LoopNest]:
        """All loop nests in the program, in pre-order."""
        return [node for node in walk(self.body) if isinstance(node, LoopNest)]

    def region_free_variables(self) -> Set[str]:
        """Names referenced symbolically by any region bound in the program.

        Emitters render symbolic bounds textually (``range(1, n + 1)``), so
        the configuration scalars among these must exist in generated code.
        """
        regions = [region for region, _kind in self.array_allocs.values()]
        regions.extend(
            node.region
            for node in walk(self.body)
            if isinstance(node, (LoopNest, SBoundary))
        )
        return {name for region in regions for name in region.free_variables()}

    def array_count(self) -> int:
        """Number of arrays still requiring allocation."""
        return len(self.array_allocs)
