"""Multi-process sharded execution: the communication model, executed.

``mp-shard`` partitions every region across worker *processes* laid out
on a :class:`~repro.parallel.distribution.ProcessorGrid`, runs the
existing single-process backends (``codegen_np`` by default — ``py`` and
``c`` work too) on each worker's clamped sub-region, and moves halo data
between workers through ``multiprocessing.shared_memory`` using exactly
the schedule :func:`repro.parallel.commopt.schedule` derives — the same
messages, post and wait points the cost model prices:

* **message vectorization** is implicit — each planned copy is one whole
  border strip written as a single contiguous segment write;
* **redundancy elimination** — the events the schedule drops are
  genuinely never executed (``comm.eliminated`` counts them);
* **message combining** — events the schedule groups share one segment
  region and one barrier round-trip (``comm.combined``);
* **pipelining** — posts happen at the schedule's post point, before the
  intervening nests execute, and the wait lands at the consuming nest.

The driver walk is *lockstep deterministic*: every worker performs the
same walk over the same program, so barrier sequences, segment names and
exchange ordinals agree without any coordination messages.  The walk
executes runs of consecutive :class:`~repro.scalarize.loopnest.LoopNest`
nodes (the one node kind that touches arrays; a reduction is a fold
statement inside one) and evaluates everything else as replicated scalar
control flow.

Kernels are compiled once, not once per invocation.  Every nest a worker
executes becomes a one-nest mini-program whose region is *symbolic* over
reserved integer scalars (``__shard_lo<d>`` / ``__shard_hi<d>``) and whose
live-in scalars are declared ``scalar_inputs``; the local backend loads
it once per (nest, kind, allocation bounds) and every later execution —
the next row of a sweep, the next time step — is a call with that
invocation's clamp bounds and scalar values as arguments
(``comm.kernel_loads`` counts the loads).

Scalars travel through a small pickle segment.  Reduction results are
broadcast from rank 0 as soon as they are folded, because replicated
control flow usually tests them next.  A *contraction-corner* scalar (the
value a contracted array's scalar holds after its nest's final index
point, which only the rank owning that point computes) is merely recorded
as *pending* on its owner: almost nothing ever reads one, so it is
broadcast only before something does — a nest whose body observes it
before redefining it, a region bound, a ``ScalarAssign`` / ``SeqLoop`` /
``SIf`` / ``SWhile`` expression — and at the end of the run, so rank 0
returns the oracle's final scalars.  Every rank takes the same flush
decisions because they depend only on the lockstep walk
(``comm.scalar_bcasts`` counts the broadcasts).

A nest's partition plan puts it in one of two rank classes for the
dimensions the grid cuts (:meth:`repro.scalarize.loopnest.PartitionPlan.
rank_class`, computed once per nest per worker).  *Clamped* nests run on
every rank over its own chunk.  *Gathered* nests — a flow crossing or a
circular buffer along a cut dimension — need their blocks in dependence
order and execute whole on rank 0 (gather → execute → scatter, counted
under ``comm.fallback_nests``).

Bit-identity with the single-process oracle is a design invariant, not a
tolerance: clamped nests compute the same elementwise values (halos hold
the pre-statement values normal form reads), and fold statements
materialize per-point operands into a scratch array that rank 0 folds
over the full region in the oracle's own order, from the accumulator's
pre-nest value, so even non-associative float reductions match the oracle
bitwise.  Over an empty region nothing is folded and the accumulator
keeps its value, as on every single-process backend.

Measured traffic is validated against the analytic model by
:mod:`repro.parallel.validate`; the byte accounting (``comm.bytes``)
counts exactly what the model prices — border-strip elements at the
model's 8 bytes/element — while reduction and fallback traffic is kept
apart under ``comm.reduce_bytes`` / ``comm.gather_bytes``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import time
import traceback
import uuid
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.interp.evalexpr import eval_scalar
from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.parallel.commopt import ALL_COMM_OPTS, CommOptions
from repro.parallel.distribution import ProcessorGrid
from repro.parallel.shard import (
    ELEM_BYTES,
    RunPlan,
    ShardError,
    ShardLayout,
    plan_run,
    program_rank,
)
from repro.scalarize.emit_common import (
    DTYPES,
    infer_expr_kind,
    int_config_env,
    validate_inputs,
    validate_scalars,
)
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
    partition_plan,
    walk,
)
from repro.util.errors import InterpError, ReproError

Bounds = Tuple[Tuple[int, int], ...]

_SCALAR_DEFAULTS = {"float": 0.0, "integer": 0, "boolean": False}

_SCAL_SEG_BYTES = 1 << 20
_BARRIER_TIMEOUT_S = 120.0
_RED_PREFIX = "__shard_red"
#: The integer scalar inputs every kernel's region is symbolic over.
_LO, _HI = "__shard_lo%d", "__shard_hi%d"

#: Every counter a run reports, so unused ones read 0 instead of vanishing.
_COMM_COUNTERS = (
    "comm.exchanges",
    "comm.bytes",
    "comm.combined",
    "comm.eliminated",
    "comm.fallback_nests",
    "comm.reduce_bytes",
    "comm.gather_bytes",
    "comm.kernel_loads",
    "comm.scalar_bcasts",
)


def default_procs() -> int:
    """Worker count when the caller does not say: $REPRO_PROCS or ≤4."""
    try:
        return max(1, int(os.environ.get("REPRO_PROCS", "")))
    except ValueError:
        return min(4, os.cpu_count() or 1)


# -- report types ----------------------------------------------------------


class ExchangeDescription(NamedTuple):
    """What one planned wire message carries, shared by its executions.

    A row sweep executes value-equal messages hundreds of times, so the
    worker interns descriptions by value and every
    :class:`ExchangeRecord` of such a message points at one object
    (pickle's memo keeps the sharing across the result queue).
    """

    arrays: Tuple[str, ...]
    events: Tuple[dict, ...]
    planned_bytes: int
    model_bytes: int
    corner_bytes: int
    post_point: int
    wait_point: int


def _described(name: str) -> property:
    return property(lambda self: getattr(self.description, name))


class ExchangeRecord:
    """One executed wire message, with planned and measured bytes."""

    __slots__ = ("ordinal", "description", "measured_bytes", "duration_us")

    def __init__(self, ordinal: int, description: ExchangeDescription,
                 measured_bytes: int = 0, duration_us: float = 0.0) -> None:
        self.ordinal = ordinal
        self.description = description
        self.measured_bytes = measured_bytes
        self.duration_us = duration_us

    arrays = _described("arrays")
    events = _described("events")
    planned_bytes = _described("planned_bytes")
    model_bytes = _described("model_bytes")
    corner_bytes = _described("corner_bytes")
    post_point = _described("post_point")
    wait_point = _described("wait_point")

    def __reduce__(self):
        # Positional, so a report of hundreds of records pickles without
        # repeating the slot names' state dict per record.
        return ExchangeRecord, (
            self.ordinal, self.description, self.measured_bytes,
            self.duration_us,
        )

    def __repr__(self) -> str:
        return (
            "ExchangeRecord(#%d %s planned=%dB measured=%dB model=%dB"
            "+%dB corner)" % (
                self.ordinal, "+".join(self.arrays), self.planned_bytes,
                self.measured_bytes, self.model_bytes, self.corner_bytes,
            )
        )


class CommReport:
    """Everything the validation harness compares against the model."""

    def __init__(self, procs: int, grid_shape: Tuple[int, ...],
                 records: List[ExchangeRecord], counters: Dict[str, int]) -> None:
        self.procs = procs
        self.grid_shape = grid_shape
        self.records = records
        self.counters = counters

    @property
    def exchanges(self) -> int:
        return len(self.records)

    @property
    def measured_bytes(self) -> int:
        return sum(record.measured_bytes for record in self.records)

    @property
    def model_bytes(self) -> int:
        return sum(record.model_bytes for record in self.records)


# -- geometry helpers ------------------------------------------------------


def _shape_of(bounds: Bounds) -> Tuple[int, ...]:
    return tuple(max(hi - lo + 1, 1) for lo, hi in bounds)


def _elements(bounds: Bounds) -> int:
    count = 1
    for lo, hi in bounds:
        count *= max(0, hi - lo + 1)
    return count


def _index(alloc: Bounds, box: Bounds) -> Tuple[slice, ...]:
    """Numpy index of ``box`` inside an array allocated over ``alloc``."""
    return tuple(
        slice(blo - alo, bhi - alo + 1)
        for (alo, _ahi), (blo, bhi) in zip(alloc, box)
    )


def _intersect(a: Bounds, b: Bounds) -> Optional[Bounds]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _scalar_value(value: object) -> object:
    """A plain Python value: what crosses a broadcast or enters a kernel."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


# -- the worker ------------------------------------------------------------


class _NestFacts:
    """What the walk needs to know about one nest, derived once."""

    __slots__ = (
        "arrays", "writes", "live_in", "corners", "reductions", "kernels",
        "gathered",
    )

    def __init__(self, node: LoopNest, array_kinds: Mapping[str, str],
                 scalar_kinds: Mapping[str, str],
                 partial: Mapping[str, Tuple[int, int]],
                 cut: Sequence[int]) -> None:
        plan = partition_plan(node, partial)
        #: the nest's rank class on this grid: executed whole on rank 0
        #: instead of clamped to every rank's chunk
        self.gathered = plan.rank_class(cut)[0] == "gathered"
        self.arrays: Tuple[str, ...] = tuple(sorted(node.arrays()))
        self.writes: List[str] = node.writes()
        #: scalars whose pre-nest value the nest observes: a pending one
        #: among them must be broadcast before the nest runs
        self.live_in = node.live_in_scalars()
        #: contraction scalars, left at their corner value by the nest
        self.corners = plan.corners
        #: (scratch array, operand kind, op, accumulator) per fold
        self.reductions = [
            (
                "%s%d" % (_RED_PREFIX, index),
                infer_expr_kind(stmt.rhs, array_kinds, scalar_kinds),
                stmt.reduce_op,
                stmt.scalar_target,
            )
            for index, stmt in enumerate(node.body)
            if stmt.reduce_op is not None
        ]
        # Clamped, every fold becomes an elementwise store of its operand
        # into a per-statement scratch array, *in place* in the body so
        # earlier contraction scalars still feed it; rank 0 then folds the
        # assembled full-region scratch in the oracle's order.
        scratch = iter(self.reductions)
        zeros = (0,) * node.rank
        #: mini kind -> (the body its kernel executes, its carried depth)
        self.kernels = {
            "clamped": (
                [
                    ElemAssign(next(scratch)[0], None, stmt.rhs)
                    if stmt.reduce_op is not None else stmt
                    for stmt in node.body
                ],
                node.carried_depth,
            ),
            "fold": (
                [
                    ElemAssign(
                        None, target, ir.ArrayRef(name, zeros), reduce_op=op
                    )
                    for name, _kind, op, target in self.reductions
                ],
                0,
            ),
            "fallback": (node.body, node.carried_depth),
        }


class _Worker:
    """One shard: local arrays, replicated scalars, the lockstep walk."""

    def __init__(self, rank: int, program: ScalarProgram, layout: ShardLayout,
                 options: CommOptions, local_backend: str, sid: str,
                 barrier, inputs: Optional[Mapping[str, np.ndarray]],
                 scalars: Optional[Mapping[str, object]] = None) -> None:
        self.rank = rank
        self.program = program
        self.layout = layout
        self.options = options
        self.local_backend = local_backend
        self.sid = sid
        self.barrier = barrier
        self.config_env = int_config_env(program.configs)
        self.scalars: Dict[str, object] = {
            name: _SCALAR_DEFAULTS[kind]
            for name, kind in program.scalars.items()
        }
        self.scalars.update(scalars or {})
        #: contraction-corner scalars only their owner holds: name -> rank
        self.pending: Dict[str, int] = {}
        self.array_kinds = {n: k for n, (_b, k) in layout.allocs.items()}
        self.local_bounds: Dict[str, Bounds] = {}
        self.locals: Dict[str, np.ndarray] = {}
        for name, (bounds, kind) in layout.allocs.items():
            local = layout.local_alloc(rank, name)
            self.local_bounds[name] = local
            array = np.zeros(_shape_of(local), dtype=DTYPES[kind])
            if inputs and name in inputs:
                box = _intersect(local, bounds)
                if box is not None:
                    array[_index(local, box)] = np.asarray(inputs[name])[
                        _index(bounds, box)
                    ]
            self.locals[name] = array
        self.segments: Dict[str, object] = {}
        self.plan_cache: Dict[
            tuple, Tuple[RunPlan, str, Optional[List[ExchangeDescription]]]
        ] = {}
        self.facts: Dict[int, _NestFacts] = {}
        #: (nest identity, mini kind, allocation bounds) -> (loaded run,
        #: scalar input names besides the region bounds): the one memo
        #: behind every nest execution
        self.kernels: Dict[tuple, tuple] = {}
        self.descriptions: Dict[tuple, ExchangeDescription] = {}
        self.event_dicts: Dict[tuple, dict] = {}
        self.next_seg = 0
        self.next_ordinal = 0
        self.measured: Dict[int, int] = {}
        self.records: List[ExchangeRecord] = []
        self.counters: Dict[str, int] = dict.fromkeys(_COMM_COUNTERS, 0)
        self._inflight: Dict[int, float] = {}
        self._steps = 0

    # -- shared memory -----------------------------------------------------

    def _segment(self, name: str, size: int):
        seg = self.segments.get(name)
        if seg is not None:
            return seg
        from multiprocessing import shared_memory

        size = max(size, 1)
        if self.rank == 0:
            # Registered before the wait: if the barrier breaks (a peer
            # died), close() still unlinks what this rank created.
            seg = self.segments[name] = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
            self.barrier.wait(_BARRIER_TIMEOUT_S)
        else:
            self.barrier.wait(_BARRIER_TIMEOUT_S)
            seg = self.segments[name] = shared_memory.SharedMemory(name=name)
        return seg

    def close(self) -> None:
        for seg in self.segments.values():
            try:
                seg.close()
            except (OSError, BufferError):
                pass
            if self.rank == 0:
                try:
                    seg.unlink()
                except OSError:
                    pass

    # -- replicated scalars ------------------------------------------------

    def _bcast(self, owner: int, payload: Optional[dict]) -> None:
        """Owner → every replica, through the pickle segment, double-fenced."""
        seg = self._segment(self.sid + "_scal", _SCAL_SEG_BYTES)
        if self.rank == 0:
            self.counters["comm.scalar_bcasts"] += 1
        if self.rank == owner:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) + 8 > seg.size:
                raise ShardError("scalar broadcast of %dB too large" % len(blob))
            struct.pack_into("<Q", seg.buf, 0, len(blob))
            seg.buf[8:8 + len(blob)] = blob
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        (length,) = struct.unpack_from("<Q", seg.buf, 0)
        self._assign(pickle.loads(bytes(seg.buf[8:8 + length])))
        self.barrier.wait(_BARRIER_TIMEOUT_S)

    def _assign(self, values: Mapping[str, object]) -> None:
        """Set scalars to values every rank agrees on."""
        self.scalars.update(values)
        for name in values:
            self.pending.pop(name, None)

    def _flush(self, names: Iterable[str]) -> None:
        """Broadcast the pending scalars among ``names`` before a read.

        One broadcast per distinct owner, carrying everything still
        pending there.  ``pending`` evolves identically on every rank, so
        all of them reach the same barriers.
        """
        if not self.pending:
            return
        owners = {self.pending[name] for name in names if name in self.pending}
        for owner in sorted(owners):
            held = [n for n, rank in self.pending.items() if rank == owner]
            self._bcast(
                owner,
                {name: self.scalars[name] for name in held}
                if self.rank == owner else None,
            )

    def _eval(self, expr: ir.IRExpr):
        self._flush(ref.name for ref in expr.scalar_refs())
        return eval_scalar(expr, self.scalars)

    def _region_env(self) -> Dict[str, int]:
        env = dict(self.config_env)
        env.update(
            (name, int(value))
            for name, value in self.scalars.items()
            if isinstance(value, (int, np.integer))
            and not isinstance(value, bool)
        )
        return env

    # -- kernels -----------------------------------------------------------

    def _facts(self, node: LoopNest) -> _NestFacts:
        facts = self.facts.get(id(node))
        if facts is None:
            facts = self.facts[id(node)] = _NestFacts(
                node, self.array_kinds, self.program.scalars,
                self.program.partial, self.layout.grid.cut_dimensions(),
            )
        return facts

    def _run_kernel(self, node: LoopNest, kind: str,
                    allocs: Dict[str, Tuple[Bounds, str]], bounds: Bounds,
                    arrays: Mapping[str, np.ndarray]):
        """Execute one mini kind of ``node`` over ``bounds``.

        The kernel is built on first use and kept for the life of the
        worker: its region is symbolic over the ``__shard_lo/hi`` scalars
        and every scalar its body observes is a scalar input, so one load
        serves every clamp and every scalar state the walk ever reaches.
        """
        key = (
            id(node), kind,
            tuple((name, alloc) for name, (alloc, _kind) in allocs.items()),
        )
        kernel = self.kernels.get(key)
        if kernel is None:
            kernel = self.kernels[key] = self._load_kernel(node, kind, allocs)
        run, names = kernel
        scalars = {name: _scalar_value(self.scalars[name]) for name in names}
        for d, (lo, hi) in enumerate(bounds, start=1):
            scalars[_LO % d] = lo
            scalars[_HI % d] = hi
        return run(arrays, scalars)

    def _load_kernel(self, node: LoopNest, kind: str,
                     allocs: Dict[str, Tuple[Bounds, str]]) -> tuple:
        """(loaded run, its scalar input names besides the region bounds)."""
        from repro.exec.backends import get_backend

        body, carried_depth = self._facts(node).kernels[kind]
        dims = range(1, node.rank + 1)
        nest = LoopNest(
            Region([
                (LinearExpr.variable(_LO % d), LinearExpr.variable(_HI % d))
                for d in dims
            ]),
            node.structure, body,
            cluster_id=node.cluster_id, carried_depth=carried_depth,
        )
        names = tuple(sorted(nest.live_in_scalars()))
        scalars = {
            name: self.program.scalars.get(name, "float")
            for name in nest.scalar_reads().union(
                stmt.scalar_target for stmt in body
                if stmt.scalar_target is not None
            )
        }
        bound_names = [text % d for d in dims for text in (_LO, _HI)]
        scalars.update(dict.fromkeys(bound_names, "integer"))
        mini = ScalarProgram(
            self.program.name + "__shard",
            {},
            {
                name: (Region.literal(*alloc), elem_kind)
                for name, (alloc, elem_kind) in allocs.items()
            },
            scalars,
            [nest],
            partial={
                name: spec for name, spec in self.program.partial.items()
                if name in allocs
            },
            scalar_inputs=names + tuple(bound_names),
        )
        self.counters["comm.kernel_loads"] += 1
        return get_backend(self.local_backend).load(mini), names

    # -- exchange execution ------------------------------------------------

    def _write_message(self, seg, message, ordinal: int) -> None:
        written = 0
        for planned_event in message.events:
            dtype = DTYPES[self.layout.allocs[planned_event.event.array][1]]
            for copy in planned_event.copies:
                own = self.layout.owned_box(self.rank, copy.box)
                if own is None:
                    continue
                slot = np.ndarray(
                    _shape_of(copy.box), dtype=dtype,
                    buffer=seg.buf, offset=copy.offset_bytes,
                )
                slot[_index(copy.box, own)] = self.locals[
                    planned_event.event.array
                ][_index(self.local_bounds[planned_event.event.array], own)]
                written += _elements(own) * ELEM_BYTES
        if written:
            self.measured[ordinal] = self.measured.get(ordinal, 0) + written
            self.counters["comm.bytes"] += written

    def _read_message(self, seg, message) -> None:
        for planned_event in message.events:
            name = planned_event.event.array
            dtype = DTYPES[self.layout.allocs[name][1]]
            local = self.local_bounds[name]
            for copy in planned_event.copies:
                sub = _intersect(copy.box, local)
                if sub is None:
                    continue
                slot = np.ndarray(
                    _shape_of(copy.box), dtype=dtype,
                    buffer=seg.buf, offset=copy.offset_bytes,
                )
                self.locals[name][_index(local, sub)] = slot[
                    _index(copy.box, sub)
                ]

    def _describe(self, message) -> ExchangeDescription:
        """The interned description of one planned message."""
        events = [
            (
                ("array", pe.event.array),
                ("dim", pe.event.dim),
                ("direction", pe.event.direction),
                ("width", pe.event.width),
                ("nest_index", pe.event.nest_index),
                ("event_bytes", pe.event.bytes),
                ("pairs", len(pe.copies)),
                ("clipped", pe.clipped),
                ("planned_bytes", pe.bytes),
                ("model_bytes", pe.model_bytes),
                ("corner_bytes", pe.corner_bytes),
            )
            for pe in message.events
        ]
        key = (
            message.arrays, tuple(events), message.size_bytes,
            message.model_bytes, message.corner_bytes,
            message.post_point, message.wait_point,
        )
        description = self.descriptions.get(key)
        if description is None:
            description = self.descriptions[key] = ExchangeDescription(
                message.arrays,
                tuple(
                    self.event_dicts.setdefault(items, dict(items))
                    for items in events
                ),
                *key[2:],
            )
        return description

    # -- run execution -----------------------------------------------------

    def _plan_for(self, run: Sequence[LoopNest], bounds: Sequence[Bounds],
                  env: Mapping[str, int]) -> tuple:
        """(plan, segment name, rank 0's description per message)."""
        key = (tuple(id(node) for node in run), tuple(bounds))
        entry = self.plan_cache.get(key)
        if entry is None:
            fallback = tuple(
                index for index, node in enumerate(run)
                if self._facts(node).gathered
            )
            plan = plan_run(run, self.layout, env, self.options, fallback)
            name = "%s_x%d" % (self.sid, self.next_seg)
            self.next_seg += 1
            described = (
                [self._describe(message) for message in plan.messages]
                if self.rank == 0 else None
            )
            entry = self.plan_cache[key] = (plan, name, described)
        return entry

    def _exec_run(self, run: Sequence[LoopNest]) -> None:
        self._flush(
            name for node in run for name in node.region.free_variables()
        )
        env = self._region_env()
        bounds = [tuple(node.region.concrete_bounds(env)) for node in run]
        plan, seg_name, described = self._plan_for(run, bounds, env)
        seg = (
            self._segment(seg_name, plan.segment_bytes)
            if plan.segment_bytes else None
        )
        posts: Dict[int, List] = {}
        waits: Dict[int, List] = {}
        first = self.next_ordinal  # message.index is its position in the plan
        self.next_ordinal += len(plan.messages)
        for message in plan.messages:
            posts.setdefault(message.post_point, []).append(message)
            waits.setdefault(message.wait_point, []).append(message)
        if self.rank == 0:
            self.counters["comm.exchanges"] += len(plan.messages)
            self.counters["comm.combined"] += plan.combined
            self.counters["comm.eliminated"] += plan.eliminated
            self.counters["comm.fallback_nests"] += len(plan.fallback_indices)
            self.records.extend(
                ExchangeRecord(first + index, description)
                for index, description in enumerate(described)
            )
        fallback = set(plan.fallback_indices)
        for step in range(len(run) + 1):
            post_here = posts.get(step)
            wait_here = waits.get(step)
            if post_here or wait_here:
                now = time.perf_counter()
                for message in post_here or ():
                    self._inflight[first + message.index] = now
                    self._write_message(seg, message, first + message.index)
                self.barrier.wait(_BARRIER_TIMEOUT_S)
                for message in wait_here or ():
                    self._read_message(seg, message)
                self.barrier.wait(_BARRIER_TIMEOUT_S)
                done = time.perf_counter()
                for message in wait_here or ():
                    ordinal = first + message.index
                    posted = self._inflight.pop(ordinal, now)
                    if self.rank == 0:
                        # ordinals are dense: a record sits at its ordinal
                        self.records[ordinal].duration_us = (
                            done - posted
                        ) * 1e6
            if step < len(run):
                if step in fallback:
                    self._exec_fallback(run[step], bounds[step], seg_name, step)
                else:
                    self._exec_clamped(run[step], bounds[step], seg_name, step)

    # -- node execution ----------------------------------------------------

    def _exec_clamped(self, node: LoopNest, bounds: Bounds,
                      seg_prefix: str, step: int) -> None:
        facts = self._facts(node)
        self._flush(facts.live_in)
        clamp = self.layout.clamp(self.rank, bounds)
        result = None
        if clamp is not None:
            allocs = {
                name: (self.local_bounds[name], self.array_kinds[name])
                for name in facts.arrays
            }
            for red_name, kind, _op, _target in facts.reductions:
                allocs[red_name] = (clamp, kind)
            result = self._run_kernel(
                node, "clamped", allocs, clamp,
                {name: self.locals[name] for name in facts.arrays},
            )
            for name in facts.writes:
                self.locals[name] = result.arrays[name]
        if facts.reductions and _elements(bounds):
            # Over an empty region nothing is folded: every rank sees the
            # same bounds, so all of them skip the barriers together.
            self._combine_reductions(
                node, facts, bounds, clamp, result, seg_prefix, step
            )
        if facts.corners and _elements(bounds):
            # Only the rank owning the final index point holds the values
            # serial execution leaves behind; the others learn them when
            # (if ever) something reads them.
            owner = self.layout.corner_owner(bounds, node.structure)
            for name in facts.corners:
                if self.rank == owner:
                    self.scalars[name] = _scalar_value(result.scalars[name])
                self.pending[name] = owner

    def _combine_reductions(self, node: LoopNest, facts: _NestFacts,
                            bounds: Bounds, clamp: Optional[Bounds], result,
                            seg_prefix: str, step: int) -> None:
        """Gather per-point operands to rank 0; fold in oracle order."""
        slot_bytes = _elements(bounds) * ELEM_BYTES
        seg = self._segment(
            "%s_r%d" % (seg_prefix, step), slot_bytes * len(facts.reductions)
        )
        views = {
            red_name: np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind],
                buffer=seg.buf, offset=slot * slot_bytes,
            )
            for slot, (red_name, kind, _op, _target)
            in enumerate(facts.reductions)
        }
        if result is not None:
            for red_name, view in views.items():
                view[_index(bounds, clamp)] = result.arrays[red_name]
                self.counters["comm.reduce_bytes"] += (
                    _elements(clamp) * ELEM_BYTES
                )
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        payload = None
        if self.rank == 0:
            # Folds start from the accumulator's pre-nest value (the
            # oracle's ``acc = acc + np.sum(...)``): it is a scalar input.
            folded = self._run_kernel(
                node, "fold",
                {
                    red_name: (bounds, kind)
                    for red_name, kind, _op, _target in facts.reductions
                },
                bounds,
                {red_name: view.copy() for red_name, view in views.items()},
            )
            payload = {
                target: _scalar_value(folded.scalars[target])
                for _red, _kind, _op, target in facts.reductions
            }
        self._bcast(0, payload)

    def _exec_fallback(self, node: LoopNest, bounds: Bounds,
                       seg_prefix: str, step: int) -> None:
        """Gather → execute the whole nest on rank 0 → scatter."""
        if not _elements(bounds):
            return  # nothing executes: arrays and scalars keep their values
        facts = self._facts(node)
        self._flush(facts.live_in)
        allocs = self.layout.allocs
        offsets: Dict[str, int] = {}
        cursor = 0
        for name in facts.arrays:
            offsets[name] = cursor
            cursor += _elements(allocs[name][0]) * ELEM_BYTES
        seg = self._segment("%s_f%d" % (seg_prefix, step), cursor)
        views = {
            name: np.ndarray(
                _shape_of(allocs[name][0]), dtype=DTYPES[allocs[name][1]],
                buffer=seg.buf, offset=offsets[name],
            )
            for name in facts.arrays
        }
        for name in facts.arrays:
            own = self.layout.owned_box(self.rank, allocs[name][0])
            if own is None:
                continue
            views[name][_index(allocs[name][0], own)] = (
                self.locals[name][_index(self.local_bounds[name], own)]
            )
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        payload = None
        if self.rank == 0:
            self.counters["comm.gather_bytes"] += cursor
            result = self._run_kernel(
                node, "fallback",
                {name: allocs[name] for name in facts.arrays}, bounds,
                {name: views[name].copy() for name in facts.arrays},
            )
            for name in facts.writes:
                views[name][...] = result.arrays[name]
            payload = {
                name: _scalar_value(result.scalars[name])
                for name in facts.corners + tuple(
                    target for _r, _k, _op, target in facts.reductions
                )
            }
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        for name in facts.writes:
            local = self.local_bounds[name]
            if _elements(local) > 0:
                self.locals[name][...] = np.reshape(
                    views[name][_index(allocs[name][0], local)],
                    self.locals[name].shape,
                )
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        if facts.corners or facts.reductions:
            self._bcast(0, payload)

    # -- the walk ----------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > 50_000_000:
            raise ShardError("step limit exceeded (runaway loop?)")

    def execute_body(self, body: Sequence[SNode]) -> None:
        index = 0
        while index < len(body):
            node = body[index]
            self._tick()
            if isinstance(node, LoopNest):
                end = index
                while end < len(body) and isinstance(body[end], LoopNest):
                    end += 1
                self._exec_run(body[index:end])
                index = end
                continue
            if isinstance(node, ScalarAssign):
                self._assign({node.target: self._eval(node.rhs)})
            elif isinstance(node, SeqLoop):
                lo = int(self._eval(node.lo))
                hi = int(self._eval(node.hi))
                iterator = (
                    range(lo, hi - 1, -1) if node.downto else range(lo, hi + 1)
                )
                for value in iterator:
                    self._assign({node.var: value})
                    self.execute_body(node.body)
            elif isinstance(node, SIf):
                if bool(self._eval(node.cond)):
                    self.execute_body(node.then_body)
                else:
                    self.execute_body(node.else_body)
            elif isinstance(node, SWhile):
                while bool(self._eval(node.cond)):
                    self._tick()
                    self.execute_body(node.body)
            elif isinstance(node, SBoundary):
                raise ShardError(
                    "boundary statements are not supported under sharding"
                )
            else:
                raise ShardError("cannot execute %r sharded" % (node,))
            index += 1

    def finish(self, out_names: Mapping[str, str]) -> dict:
        """Write owned boxes to the output segments; return the summary."""
        self._flush(list(self.pending))  # rank 0 reports every final scalar
        for name, seg_name in out_names.items():
            bounds, kind = self.layout.allocs[name]
            seg = self.segments.get(seg_name)
            if seg is None:
                from multiprocessing import shared_memory

                seg = shared_memory.SharedMemory(name=seg_name)
                self.segments[seg_name] = seg
            view = np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind], buffer=seg.buf
            )
            own = self.layout.owned_box(self.rank, bounds)
            if own is not None:
                view[_index(bounds, own)] = self.locals[name][
                    _index(self.local_bounds[name], own)
                ]
        summary = {
            "rank": self.rank,
            "measured": self.measured,
            "counters": self.counters,
        }
        if self.rank == 0:
            summary["scalars"] = {
                name: self.scalars[name] for name in self.program.scalars
            }
            summary["records"] = self.records
        return summary


def _worker_main(rank: int, program: ScalarProgram, layout: ShardLayout,
                 options: CommOptions, local_backend: str, sid: str,
                 barrier, inputs, scalars, out_names: Mapping[str, str],
                 result_queue, error_queue) -> None:
    worker = None
    try:
        worker = _Worker(
            rank, program, layout, options, local_backend, sid, barrier,
            inputs, scalars,
        )
        worker.execute_body(program.body)
        result_queue.put(worker.finish(out_names))
    except BaseException as error:
        # Run-time errors the single-process backends also raise keep
        # their type across the process boundary.
        kind = type(error) if isinstance(error, InterpError) else ReproError
        error_queue.put((rank, kind, traceback.format_exc()))
        try:
            barrier.abort()
        except (ValueError, OSError):
            pass
    finally:
        if worker is not None:
            # rank 0 owns unlinking of lockstep segments; output segments
            # belong to the coordinator, so drop them from the registry
            # before closing to avoid double-unlink races.
            for seg_name in list(out_names.values()):
                seg = worker.segments.pop(seg_name, None)
                if seg is not None:
                    try:
                        seg.close()
                    except (OSError, BufferError):
                        pass
            worker.close()


# -- the coordinator -------------------------------------------------------


def _single_process(program: ScalarProgram, initial_arrays, initial_scalars,
                    local_backend, procs: int, grid: ProcessorGrid):
    from repro.exec.backends import execute

    result = execute(
        program, local_backend, initial_arrays=initial_arrays,
        initial_scalars=initial_scalars,
    )
    report = CommReport(
        procs, grid.shape, [], dict.fromkeys(_COMM_COUNTERS, 0)
    )
    return result, report


def _dead_rank(workers) -> Optional[tuple]:
    """``(rank, error type, what happened)`` for a worker that died mute.

    A worker that posted its result — or caught an error and posted that
    — exits with code 0.  Any other exit (a signal, the OOM killer,
    ``os._exit``) posted nothing and leaves its peers waiting for it.
    """
    for rank, process in enumerate(workers):
        code = process.exitcode
        if code:
            how = (
                "killed by signal %d" % -code if code < 0
                else "exited with code %d" % code
            )
            return rank, ReproError, "process %s before posting a result" % how
    return None


def _reclaim(sid: str) -> None:
    """Unlink every segment of run ``sid`` a dead rank left behind.

    Ranks unlink what they create when they close, so this finds
    something only after one was killed.  Linux-only (elsewhere there is
    no ``/dev/shm`` to list)."""
    try:
        leftovers = [
            entry for entry in os.listdir("/dev/shm")
            if entry.startswith(sid + "_")
        ]
    except OSError:
        return
    if leftovers:
        from repro.daemon.shm import unlink_quietly

        for entry in leftovers:
            unlink_quietly(entry)


def execute_sharded(
    program: ScalarProgram,
    initial_arrays=None,
    procs: Optional[int] = None,
    local_backend: str = "codegen_np",
    comm_options: Optional[CommOptions] = None,
    metrics=None,
    tracer=None,
    initial_scalars=None,
):
    """Run ``program`` sharded over ``procs`` workers.

    Returns ``(ExecutionResult, CommReport)``.  The report carries one
    :class:`ExchangeRecord` per executed wire message with planned,
    model, corner and measured byte counts — the raw material of the
    measured-vs-modeled validation in :mod:`repro.parallel.validate`.
    ``initial_scalars`` seeds the program's ``scalar_inputs``, as in
    :func:`repro.exec.execute`.
    """
    from repro.exec.backends import ExecutionResult, get_backend

    local_backend = get_backend(local_backend).name
    if local_backend == "mp-shard":
        raise ReproError("mp-shard cannot be its own local backend")
    if procs is None:
        procs = default_procs()
    if procs < 1:
        raise ReproError("procs must be positive, got %d" % procs)
    rank = max(program_rank(program), 1)
    grid = ProcessorGrid(procs, rank)
    options = comm_options if comm_options is not None else ALL_COMM_OPTS
    initial_arrays = validate_inputs(program, initial_arrays)
    initial_scalars = validate_scalars(program, initial_scalars)
    started = time.perf_counter()
    # Boundary statements (wrap/reflect fills) address whole global
    # edges and have no clamped form: such programs run unsharded.
    if (
        procs == 1
        or not grid.cut_dimensions()
        or any(isinstance(node, SBoundary) for node in walk(program.body))
    ):
        result, report = _single_process(
            program, initial_arrays, initial_scalars, local_backend, procs,
            grid,
        )
        _emit_obs(report, metrics, tracer, time.perf_counter() - started)
        return result, report

    env = int_config_env(program.configs)
    layout = ShardLayout(program, grid, env)
    sid = "rs%s" % uuid.uuid4().hex[:10]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(procs)
    result_queue = ctx.Queue()
    error_queue = ctx.Queue()

    from multiprocessing import shared_memory

    out_names: Dict[str, str] = {}
    out_segments = []
    try:
        for index, name in enumerate(sorted(layout.allocs)):
            bounds, kind = layout.allocs[name]
            size = max(
                1,
                int(np.prod(_shape_of(bounds)))
                * np.dtype(DTYPES[kind]).itemsize,
            )
            seg = shared_memory.SharedMemory(
                name="%s_o%d" % (sid, index), create=True, size=size
            )
            out_segments.append(seg)
            out_names[name] = seg.name
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(
                    worker_rank, program, layout, options, local_backend,
                    sid, barrier, initial_arrays, initial_scalars, out_names,
                    result_queue, error_queue,
                ),
            )
            for worker_rank in range(procs)
        ]
        for process in workers:
            process.start()
        summaries = []
        deadline = time.monotonic() + _BARRIER_TIMEOUT_S + 60
        failure = None
        while len(summaries) < procs and time.monotonic() < deadline:
            if not error_queue.empty():
                failure = error_queue.get()
                break
            failure = _dead_rank(workers)
            if failure is not None:
                # Its peers are, or soon will be, parked in Barrier.wait.
                barrier.abort()
                break
            if not any(p.is_alive() for p in workers) and result_queue.empty():
                break
            try:
                summaries.append(result_queue.get(timeout=0.25))
            except Exception:
                continue
        for process in workers:
            process.join(timeout=5 if failure is None else 1)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1)
        if failure is None and not error_queue.empty():
            failure = error_queue.get()
        if failure is not None:
            failed_rank, kind, text = failure
            raise kind("mp-shard worker %d failed:\n%s" % (failed_rank, text))
        if len(summaries) != procs:
            raise ReproError(
                "mp-shard collected %d/%d worker results" % (
                    len(summaries), procs
                )
            )
        arrays: Dict[str, np.ndarray] = {}
        for name, seg_name in out_names.items():
            bounds, kind = layout.allocs[name]
            seg = next(s for s in out_segments if s.name == seg_name)
            arrays[name] = np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind], buffer=seg.buf
            ).copy()
    finally:
        for seg in out_segments:
            try:
                seg.close()
                seg.unlink()
            except OSError:
                pass
        _reclaim(sid)

    rank0 = next(s for s in summaries if s["rank"] == 0)
    records: List[ExchangeRecord] = rank0["records"]
    measured_total: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for summary in summaries:
        for ordinal, nbytes in summary["measured"].items():
            measured_total[ordinal] = measured_total.get(ordinal, 0) + nbytes
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    for record in records:
        record.measured_bytes = measured_total.get(record.ordinal, 0)
    report = CommReport(procs, grid.shape, records, counters)
    scalars = dict(rank0["scalars"])
    result = ExecutionResult(arrays, scalars)
    _emit_obs(report, metrics, tracer, time.perf_counter() - started)
    return result, report


def _emit_obs(report: CommReport, metrics, tracer, elapsed_s: float) -> None:
    if metrics is not None:
        for name, value in report.counters.items():
            if value:
                metrics.incr(name, value)
        for record in report.records:
            metrics.observe("comm.exchange", record.duration_us / 1e6)
    if tracer is not None and getattr(tracer, "enabled", False):
        for record in report.records:
            tracer.record(
                "comm.exchange",
                record.duration_us,
                ordinal=record.ordinal,
                arrays="+".join(record.arrays),
                planned_bytes=record.planned_bytes,
                measured_bytes=record.measured_bytes,
                model_bytes=record.model_bytes,
                corner_bytes=record.corner_bytes,
                post_point=record.post_point,
                wait_point=record.wait_point,
            )
