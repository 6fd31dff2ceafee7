"""Multi-process sharded execution: the communication model, executed.

``mp-shard`` partitions every region across rank *processes* laid out
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
  region and one barrier round trip (``comm.combined``);
* **pipelining** — posts happen at the schedule's post point, before the
  intervening nests execute, and the wait lands at the consuming nest.

The ranks are a *pool that lives behind* :func:`execute_sharded`.  The
first call that needs N ranks forks them (children on control pipes,
:mod:`repro.daemon.proc` — the substrate of the daemon's workers); later
calls reuse them; a call with another N, any failure, ``_IDLE_S`` seconds
without a call, and interpreter exit retire the pool, and a rank whose
coordinator died reads EOF on its pipe and exits.  One run at a time:
callers from several threads queue on the pool's lock.  A program
reaches the ranks once — the one a pool is forked for arrives with the
fork, a later one is pickled down the pipes the first time the pool sees
it — and is recognised by identity afterwards (the last
``_KEPT_PROGRAMS`` of them, the same LRU on both sides of the pipe).  Per program a rank **keeps** everything that
depends only on the program's structure — per-nest facts, loaded
kernels, run plans with their post/wait steps, exchange descriptions
and the mappings of its segments; per call it **resets** what depends on
the data — local arrays, scalars, pending corner scalars, ordinals,
record columns and counters.  So a warm call pays for its kernels and for
the exchanges that move bytes, and ``comm.kernel_loads`` reads the loads
*this* call performed: every kernel on a program's first call, 0 later.

Segments are unnamed between calls.  Rank 0 creates a segment under a
name, every rank maps it, rank 0 unlinks the name (two barrier waits,
once per segment per program); the mappings live on in the ranks.  The
one per-call segment — initial arrays in, result arrays out — belongs to
the coordinator, which unlinks it before returning.  Nothing of a killed
run can therefore outlive it under ``/dev/shm`` except a name caught
inside that handshake, and :func:`_reclaim` sweeps for those.

A rank that dies (a signal, the OOM killer, ``os._exit``) trips its
process sentinel, which the coordinator waits on together with the
pipes: the run fails at once with a typed :class:`ReproError` naming the
rank and how it went, its peers — parked in a barrier — are terminated
with the rest of the pool, and the next call forks a fresh one.

The driver walk is *lockstep deterministic*: every rank performs the
same walk over the same program, so barrier sequences, segment names and
exchange ordinals agree without any coordination messages.  A message
none of whose events crosses a chunk boundary on this grid (a row
sweep's strip crosses at one row only) has no copies: it is counted,
recorded and timed like any other, but no rank waits at a barrier for
it — the decision is read off the plan, so every rank takes it alike
(``comm.barrier_waits`` counts the waits rank 0 did perform).  The walk
executes runs of consecutive :class:`~repro.scalarize.loopnest.LoopNest`
nodes (the one node kind that touches arrays; a reduction is a fold
statement inside one) and evaluates everything else as replicated scalar
control flow.

Kernels are compiled once, not once per invocation.  Every nest a rank
executes becomes a one-nest mini-program whose region is *symbolic* over
reserved integer scalars (``__shard_lo<d>`` / ``__shard_hi<d>``) and whose
live-in scalars are declared ``scalar_inputs``; the local backend loads
it once per (nest, kind, allocation bounds) and every later execution —
the next row of a sweep, the next time step, the next call — is a call
with that invocation's clamp bounds and scalar values as arguments
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
rank_class`, computed once per nest per rank).  *Clamped* nests run on
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

import atexit
import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback
import uuid
from array import array
from collections import OrderedDict
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

from repro.daemon import proc, shm
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
    SCALAR_INIT,
    scalar_value,
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
    int_config_env,
    partition_plan,
    walk,
)
from repro.util.errors import InterpError, ReproError

Bounds = Tuple[Tuple[int, int], ...]

_SCAL_SEG_BYTES = 1 << 20
_BARRIER_TIMEOUT_S = 120.0
#: A pool nobody called for this long retires itself (the frozen
#: benchmark kills children still alive 3 s after its last operation).
_IDLE_S = 1.0
#: Programs a pool remembers, least recently run evicted first.
_KEPT_PROGRAMS = 8
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
    "comm.barrier_waits",
)

DAEMONIC_MESSAGE = (
    "mp-shard cannot start its rank processes from inside a daemonic "
    "process (a `repro serve --daemon` worker is one)"
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

    A row sweep executes value-equal messages hundreds of times, and a
    warm pool executes the same program call after call: rank 0 interns
    descriptions by value, ships each to the coordinator once per
    program, and every :class:`CommReport` of that program refers to the
    same objects.
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

    def __repr__(self) -> str:
        return (
            "ExchangeRecord(#%d %s planned=%dB measured=%dB model=%dB"
            "+%dB corner)" % (
                self.ordinal, "+".join(self.arrays), self.planned_bytes,
                self.measured_bytes, self.model_bytes, self.corner_bytes,
            )
        )


class CommReport:
    """Everything the validation harness compares against the model.

    A report is kept (the benchmark keeps every one of a run), so it
    holds its executed messages column-wise — ``described[i]``,
    ``measured[i]`` and ``durations_us[i]`` belong to ordinal ``i`` — over
    a ``descriptions`` tuple shared with every other report of the same
    program on the same pool.  :attr:`records` builds the
    :class:`ExchangeRecord` view on each access and keeps nothing.
    """

    def __init__(self, procs: int, grid_shape: Tuple[int, ...],
                 counters: Dict[str, int],
                 descriptions: Tuple[ExchangeDescription, ...] = (),
                 described: Sequence[int] = (),
                 measured: Sequence[int] = (),
                 durations_us: Sequence[float] = ()) -> None:
        self.procs = procs
        self.grid_shape = grid_shape
        self.counters = counters
        self.descriptions = descriptions
        #: per ordinal: index into ``descriptions``
        self.described = described
        #: per ordinal: bytes the ranks wrote, summed over ranks
        self.measured = measured
        #: per ordinal: post-to-wait time on rank 0
        self.durations_us = durations_us

    @property
    def records(self) -> List[ExchangeRecord]:
        return [
            ExchangeRecord(ordinal, self.descriptions[index], nbytes, us)
            for ordinal, (index, nbytes, us) in enumerate(
                zip(self.described, self.measured, self.durations_us)
            )
        ]

    @property
    def exchanges(self) -> int:
        return len(self.described)

    @property
    def measured_bytes(self) -> int:
        return sum(self.measured)

    @property
    def model_bytes(self) -> int:
        return sum(
            self.descriptions[index].model_bytes for index in self.described
        )


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
                ir.kind_of(stmt.rhs, array_kinds, scalar_kinds),
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


class _Steps(NamedTuple):
    """One run's plan as the walk executes it, derived once and kept."""

    plan: RunPlan
    seg_name: str
    #: rank 0 only: each message's index into the worker's descriptions
    described: Optional[List[int]]
    #: per step 0..len(run): None, or (messages posted here, messages
    #: awaited here, whether any of them has a copy — i.e. whether the
    #: ranks synchronise at this step at all)
    steps: List[Optional[tuple]]
    fallback: frozenset


def _global_bytes(layout: ShardLayout, name: str) -> int:
    bounds, kind = layout.allocs[name]
    return int(np.prod(_shape_of(bounds))) * np.dtype(DTYPES[kind]).itemsize


def _call_views(buf, layout: ShardLayout, seeded: Iterable[str]):
    """``(results, inputs)``: NumPy views over a call's segment.

    A result slot per array, then an input slot per seeded array, each
    the array's global allocation.  They are kept apart because a rank
    that runs ahead writes its results while a slower one may still be
    reading the initial values of its halo.
    """
    cursor = 0
    results: Dict[str, np.ndarray] = {}
    inputs: Dict[str, np.ndarray] = {}
    for views, names in ((results, layout.allocs), (inputs, seeded)):
        for name in sorted(names):
            bounds, kind = layout.allocs[name]
            views[name] = np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind], buffer=buf,
                offset=cursor,
            )
            cursor += _global_bytes(layout, name)
    return results, inputs


class _Worker:
    """One rank's share of one program: what it keeps, and the walk.

    Built when the program is shipped and kept while the pool remembers
    the program.  ``__init__`` holds what the program's structure
    decides; :meth:`_begin` resets what a call's data decides.
    """

    def __init__(self, rank: int, barrier, program: ScalarProgram,
                 layout: ShardLayout, options: CommOptions,
                 local_backend: str, sid: str) -> None:
        self.rank = rank
        self.barrier = barrier
        self.program = program
        self.layout = layout
        self.options = options
        self.local_backend = local_backend
        #: prefix of this program's segment names on this pool
        self.sid = sid
        self.config_env = int_config_env(program.configs)
        self.array_kinds = {n: k for n, (_b, k) in layout.allocs.items()}
        self.local_bounds: Dict[str, Bounds] = {
            name: layout.local_alloc(rank, name) for name in layout.allocs
        }
        #: mapped on every rank, named on none (see :meth:`_segment`)
        self.segments: Dict[str, object] = {}
        self.plan_cache: Dict[tuple, _Steps] = {}
        self.facts: Dict[int, _NestFacts] = {}
        #: (nest identity, mini kind, allocation bounds) -> (loaded
        #: kernel, scalar input names besides the region bounds, every
        #: scalar it declares at its kind's zero): the one memo behind
        #: every nest execution
        self.kernels: Dict[tuple, tuple] = {}
        #: rank 0: description value -> index, in first-seen order; the
        #: coordinator has been sent the first ``described_sent`` of them
        self.descriptions: Dict[tuple, int] = {}
        self.description_list: List[ExchangeDescription] = []
        self.described_sent = 0
        self.event_dicts: Dict[tuple, dict] = {}
        self.next_seg = 0

    def _begin(self, inputs: Optional[Mapping[str, np.ndarray]],
               scalars: Optional[Mapping[str, object]]) -> None:
        """Reset everything one call owns."""
        self.scalars: Dict[str, object] = {
            name: SCALAR_INIT[kind]
            for name, kind in self.program.scalars.items()
        }
        self.scalars.update(scalars or {})
        #: contraction-corner scalars only their owner holds: name -> rank
        self.pending: Dict[str, int] = {}
        self.locals: Dict[str, np.ndarray] = {}
        for name, (bounds, kind) in self.layout.allocs.items():
            local = self.local_bounds[name]
            values = np.zeros(_shape_of(local), dtype=DTYPES[kind])
            if inputs and name in inputs:
                box = _intersect(local, bounds)
                if box is not None:
                    values[_index(local, box)] = inputs[name][
                        _index(bounds, box)
                    ]
            self.locals[name] = values
        #: per ordinal: bytes this rank wrote / (rank 0) which description
        #: it executed and how long post-to-wait took
        self.measured = array("q")
        self.described = array("I")
        self.durations_us = array("d")
        self.counters: Dict[str, int] = dict.fromkeys(_COMM_COUNTERS, 0)
        self._inflight: Dict[int, float] = {}
        self._steps = 0

    # -- shared memory -----------------------------------------------------

    def _sync(self) -> None:
        if self.rank == 0:
            self.counters["comm.barrier_waits"] += 1
        self.barrier.wait(_BARRIER_TIMEOUT_S)

    def _segment(self, name: str, size: int):
        """The mapping of segment ``name``, shared on first use.

        Rank 0 creates it, every rank maps it, rank 0 unlinks the name:
        two waits once, then the mapping is kept with the program and
        ``/dev/shm`` holds nothing of it.
        """
        seg = self.segments.get(name)
        if seg is not None:
            return seg
        if self.rank == 0:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(
                name=name, create=True, size=max(size, 1)
            )
            try:
                self._sync()  # created
                self._sync()  # mapped everywhere
            finally:
                seg.unlink()
        else:
            self._sync()
            seg = shm.attach(name)
            self._sync()
        self.segments[name] = seg
        return seg

    def close(self) -> None:
        """Drop the mappings (the program was evicted)."""
        for seg in self.segments.values():
            shm.close_quietly(seg)
        self.segments.clear()

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
        self._sync()
        (length,) = struct.unpack_from("<Q", seg.buf, 0)
        self._assign(pickle.loads(bytes(seg.buf[8:8 + length])))
        self._sync()

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
                    arrays: Mapping[str, np.ndarray]) -> Mapping[str, object]:
        """Execute one mini kind of ``node`` over ``bounds``, in place on
        ``arrays`` (one per name of ``allocs``); returns its final scalars.

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
        run, names, zeros = kernel
        scalars = dict(zeros)
        for name in names:
            scalars[name] = scalar_value(self.scalars[name])
        for d, (lo, hi) in enumerate(bounds, start=1):
            scalars[_LO % d] = lo
            scalars[_HI % d] = hi
        return run(arrays, scalars)

    def _load_kernel(self, node: LoopNest, kind: str,
                     allocs: Dict[str, Tuple[Bounds, str]]) -> tuple:
        """(loaded kernel, its scalar input names besides the region
        bounds, its starting scalars before those are filled in)."""
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
        return (
            get_backend(self.local_backend).kernel(mini),
            names,
            {name: SCALAR_INIT[kind] for name, kind in scalars.items()},
        )

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
            self.measured[ordinal] += written
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

    def _describe(self, message) -> int:
        """The index of one planned message's interned description."""
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
        index = self.descriptions.get(key)
        if index is None:
            index = self.descriptions[key] = len(self.description_list)
            self.description_list.append(ExchangeDescription(
                message.arrays,
                tuple(
                    self.event_dicts.setdefault(items, dict(items))
                    for items in events
                ),
                *key[2:],
            ))
        return index

    # -- run execution -----------------------------------------------------

    def _plan_for(self, run: Sequence[LoopNest], bounds: Sequence[Bounds],
                  env: Mapping[str, int]) -> _Steps:
        key = (tuple(id(node) for node in run), tuple(bounds))
        entry = self.plan_cache.get(key)
        if entry is None:
            fallback = tuple(
                index for index, node in enumerate(run)
                if self._facts(node).gathered
            )
            plan = plan_run(run, self.layout, env, self.options, fallback)
            posts: List[list] = [[] for _ in range(len(run) + 1)]
            waits: List[list] = [[] for _ in range(len(run) + 1)]
            for message in plan.messages:
                posts[message.post_point].append(message)
                waits[message.wait_point].append(message)
            steps = [
                (
                    tuple(post), tuple(wait),
                    any(pe.copies for m in post + wait for pe in m.events),
                )
                if post or wait else None
                for post, wait in zip(posts, waits)
            ]
            entry = self.plan_cache[key] = _Steps(
                plan,
                "%s_x%d" % (self.sid, self.next_seg),
                [self._describe(message) for message in plan.messages]
                if self.rank == 0 else None,
                steps,
                frozenset(fallback),
            )
            self.next_seg += 1
        return entry

    def _exec_run(self, run: Sequence[LoopNest]) -> None:
        self._flush(
            name for node in run for name in node.region.free_variables()
        )
        env = self._region_env()
        bounds = [tuple(node.region.concrete_bounds(env)) for node in run]
        plan, seg_name, described, steps, fallback = self._plan_for(
            run, bounds, env
        )
        seg = (
            self._segment(seg_name, plan.segment_bytes)
            if plan.segment_bytes else None
        )
        first = len(self.measured)  # message.index is its place in the plan
        self.measured.frombytes(bytes(8 * len(plan.messages)))
        if self.rank == 0:
            self.counters["comm.exchanges"] += len(plan.messages)
            self.counters["comm.combined"] += plan.combined
            self.counters["comm.eliminated"] += plan.eliminated
            self.counters["comm.fallback_nests"] += len(fallback)
            self.described.extend(described)
            self.durations_us.frombytes(bytes(8 * len(described)))
        for step, here in enumerate(steps):
            if here is not None:
                posts, waits, sync = here
                now = time.perf_counter()
                for message in posts:
                    self._inflight[first + message.index] = now
                if sync:
                    for message in posts:
                        self._write_message(seg, message, first + message.index)
                    self._sync()
                    for message in waits:
                        self._read_message(seg, message)
                    self._sync()
                # A step none of whose messages has a copy moves nothing,
                # so nobody waits for anybody: the plan says so on every
                # rank alike.  Its messages are still recorded and timed.
                done = time.perf_counter()
                for message in waits:
                    ordinal = first + message.index
                    posted = self._inflight.pop(ordinal)
                    if self.rank == 0:
                        self.durations_us[ordinal] = max(
                            (done - posted) * 1e6, 1e-3
                        )
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
        arrays = final = None
        if clamp is not None:
            allocs = {
                name: (self.local_bounds[name], self.array_kinds[name])
                for name in facts.arrays
            }
            arrays = {name: self.locals[name] for name in facts.arrays}
            for red_name, kind, _op, _target in facts.reductions:
                allocs[red_name] = (clamp, kind)
                arrays[red_name] = np.zeros(
                    _shape_of(clamp), dtype=DTYPES[kind]
                )
            final = self._run_kernel(node, "clamped", allocs, clamp, arrays)
        if facts.reductions and _elements(bounds):
            # Over an empty region nothing is folded: every rank sees the
            # same bounds, so all of them skip the barriers together.
            self._combine_reductions(
                node, facts, bounds, clamp, arrays, seg_prefix, step
            )
        if facts.corners and _elements(bounds):
            # Only the rank owning the final index point holds the values
            # serial execution leaves behind; the others learn them when
            # (if ever) something reads them.
            owner = self.layout.corner_owner(bounds, node.structure)
            for name in facts.corners:
                if self.rank == owner:
                    self.scalars[name] = scalar_value(final[name])
                self.pending[name] = owner

    def _combine_reductions(self, node: LoopNest, facts: _NestFacts,
                            bounds: Bounds, clamp: Optional[Bounds],
                            arrays: Optional[Mapping[str, np.ndarray]],
                            seg_prefix: str, step: int) -> None:
        """Gather per-point operands to rank 0; fold in oracle order.

        ``arrays`` holds this rank's clamped scratch (None when its
        clamp is empty)."""
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
        if arrays is not None:
            for red_name, view in views.items():
                view[_index(bounds, clamp)] = arrays[red_name]
                self.counters["comm.reduce_bytes"] += (
                    _elements(clamp) * ELEM_BYTES
                )
        self._sync()
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
                bounds, views,
            )
            payload = {
                target: scalar_value(folded[target])
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
        self._sync()
        payload = None
        if self.rank == 0:
            self.counters["comm.gather_bytes"] += cursor
            final = self._run_kernel(
                node, "fallback",
                {name: allocs[name] for name in facts.arrays}, bounds, views,
            )
            payload = {
                name: scalar_value(final[name])
                for name in facts.corners + tuple(
                    target for _r, _k, _op, target in facts.reductions
                )
            }
        self._sync()
        for name in facts.writes:
            local = self.local_bounds[name]
            if _elements(local) > 0:
                self.locals[name][...] = np.reshape(
                    views[name][_index(allocs[name][0], local)],
                    self.locals[name].shape,
                )
        self._sync()
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

    def run(self, call_seg: str, seeded: Sequence[str],
            scalars: Optional[Mapping[str, object]]) -> dict:
        """One call: seed, walk, write the owned boxes, report."""
        seg = shm.attach(call_seg)
        try:
            results, inputs = _call_views(seg.buf, self.layout, seeded)
            self._begin(inputs, scalars)
            self.execute_body(self.program.body)
            self._flush(list(self.pending))  # rank 0 reports every scalar
            for name, view in results.items():
                bounds = self.layout.allocs[name][0]
                own = self.layout.owned_box(self.rank, bounds)
                if own is not None:
                    view[_index(bounds, own)] = self.locals[name][
                        _index(self.local_bounds[name], own)
                    ]
        finally:
            results = inputs = view = None  # views pin the mapping
            shm.close_quietly(seg)
            self.locals = {}  # a call's data is not kept with the program
        summary = {"measured": self.measured, "counters": self.counters}
        if self.rank == 0:
            summary["scalars"] = {
                name: scalar_value(self.scalars[name])
                for name in self.program.scalars
            }
            summary["described"] = self.described
            summary["durations_us"] = self.durations_us
            summary["descriptions"] = self.description_list[
                self.described_sent:
            ]
            self.described_sent = len(self.description_list)
        return summary


def _rank_main(conn, rank: int, barrier, born_with: dict) -> None:
    """A rank process: run what the coordinator says until it says stop.

    ``born_with`` (slot -> what would have been shipped) is the program
    the pool was forked for: it arrives with the fork, so a cold call
    pickles nothing."""
    #: slot -> the program's worker, least recently run first (the
    #: coordinator's memo evicts in the same order)
    workers: "OrderedDict[int, _Worker]" = OrderedDict()

    def run(message: tuple) -> tuple:
        _run, slot, shipped, call_seg, seeded, scalars = message
        try:
            shipped = shipped or born_with.pop(slot, None)
            if shipped is not None:
                workers[slot] = _Worker(rank, barrier, *shipped)
                if len(workers) > _KEPT_PROGRAMS:
                    workers.popitem(last=False)[1].close()
            workers.move_to_end(slot)
            return "ok", workers[slot].run(call_seg, seeded, scalars)
        except Exception as error:
            # Its peers are, or soon will be, parked in Barrier.wait.
            barrier.abort()
            # Run-time errors the single-process backends also raise keep
            # their type across the process boundary; a broken barrier is
            # some other rank's failure, not this one's.
            return (
                "error",
                type(error) if isinstance(error, InterpError) else ReproError,
                traceback.format_exc(),
                isinstance(error, threading.BrokenBarrierError),
            )

    proc.serve(conn, run)


# -- the coordinator -------------------------------------------------------


def _single_process(program: ScalarProgram, initial_arrays, initial_scalars,
                    local_backend, procs: int, grid: ProcessorGrid):
    from repro.exec.backends import execute

    result = execute(
        program, local_backend, initial_arrays=initial_arrays,
        initial_scalars=initial_scalars,
    )
    return result, CommReport(
        procs, grid.shape, dict.fromkeys(_COMM_COUNTERS, 0)
    )


def _reclaim(sid: str) -> None:
    """Unlink every segment of pool ``sid`` a killed run left behind.

    Between calls no segment has a name, so this finds something only
    when a rank died inside the create-map-unlink handshake.  Linux-only
    (elsewhere there is no ``/dev/shm`` to list)."""
    try:
        leftovers = [
            entry for entry in os.listdir("/dev/shm")
            if entry.startswith(sid + "_")
        ]
    except OSError:
        return
    for entry in leftovers:
        shm.unlink_quietly(entry)


class _Shipped:
    """What the coordinator remembers of a program its ranks hold."""

    __slots__ = ("program", "slot", "layout", "descriptions")

    def __init__(self, program: ScalarProgram, slot: int,
                 layout: ShardLayout) -> None:
        #: referenced, so the ``id`` in the memo's key cannot be recycled
        self.program = program
        self.slot = slot
        self.layout = layout
        #: every description rank 0 has sent so far; reports share it
        self.descriptions: Tuple[ExchangeDescription, ...] = ()


class _Pool:
    """``procs`` rank processes, kept between calls.

    Only :func:`execute_sharded` and :func:`_retire_pool` touch a pool,
    both under ``_POOL_LOCK``: one run at a time, and retiring cannot
    race a run.
    """

    def __init__(self, procs: int) -> None:
        self.procs = procs
        #: prefix of every segment name of this pool
        self.sid = "rs%s" % uuid.uuid4().hex[:10]
        #: forked by the first :meth:`run`, holding its program
        self.ranks: List[proc.Child] = []
        #: (program identity, comm options, local backend) -> _Shipped,
        #: least recently run first
        self.programs: "OrderedDict[tuple, _Shipped]" = OrderedDict()
        self.slots = 0
        self.calls = 0
        self.last_used = time.monotonic()
        self.retired = threading.Event()

    def _fork(self, born_with: dict) -> None:
        from multiprocessing import resource_tracker

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context("spawn")
        # Started before the fork so every rank inherits it: one tracker
        # sees rank 0's creates and unlinks in the order they happen.
        resource_tracker.ensure_running()
        barrier = ctx.Barrier(self.procs)
        for rank in range(self.procs):
            self.ranks.append(proc.Child(
                ctx, _rank_main, (rank, barrier, born_with),
                "repro-shard-rank-%d" % rank,
            ))
        threading.Thread(
            target=self._retire_when_idle, name="repro-shard-idle", daemon=True
        ).start()

    def _retire_when_idle(self) -> None:
        wait_s = _IDLE_S
        while not self.retired.wait(wait_s):
            with _POOL_LOCK:
                wait_s = self.last_used + _IDLE_S - time.monotonic()
                if wait_s <= 0 and not self.retired.is_set():
                    _retire_locked()

    def retire(self, failed: bool = False) -> None:
        """Stop the ranks; after a failure, without asking."""
        self.retired.set()
        for child in self.ranks:
            if failed:  # parked in a barrier, or worse: nobody is listening
                child.process.terminate()
            child.stop()
        for child in self.ranks:
            child.join(5)
        if failed:
            _reclaim(self.sid)

    def run(self, program: ScalarProgram, options: CommOptions,
            local_backend: str, initial_arrays, initial_scalars):
        """``(arrays, per-rank summaries, the program's memo entry)``."""
        from multiprocessing import shared_memory

        key = (
            id(program),
            (options.redundancy_elimination, options.combining,
             options.pipelining),
            local_backend,
        )
        entry = self.programs.get(key)
        shipped = None
        if entry is None:
            grid = ProcessorGrid(self.procs, max(program_rank(program), 1))
            entry = self.programs[key] = _Shipped(
                program, self.slots,
                ShardLayout(program, grid, int_config_env(program.configs)),
            )
            self.slots += 1
            if len(self.programs) > _KEPT_PROGRAMS:
                self.programs.popitem(last=False)
            shipped = (
                program, entry.layout, options, local_backend,
                "%s_p%d" % (self.sid, entry.slot),
            )
        self.programs.move_to_end(key)
        if not self.ranks:
            self._fork({entry.slot: shipped})
            shipped = None
        seeded = sorted(initial_arrays or ())
        self.calls += 1
        seg = shared_memory.SharedMemory(
            name="%s_c%d" % (self.sid, self.calls), create=True,
            size=max(1, sum(
                _global_bytes(entry.layout, name)
                for name in list(entry.layout.allocs) + seeded
            )),
        )
        try:
            results, inputs = _call_views(seg.buf, entry.layout, seeded)
            for name, view in inputs.items():
                view[...] = initial_arrays[name]
            message = (
                "run", entry.slot, shipped, seg.name, seeded, initial_scalars
            )
            proc.tell_all(self.ranks, message)
            summaries = self._collect()
            arrays = {name: view.copy() for name, view in results.items()}
        except proc.ChildDied as death:
            raise ReproError(
                "mp-shard worker %d failed:\nprocess %s before posting a "
                "result" % (self.ranks.index(death.child), death)
            ) from None
        finally:
            results = inputs = view = None  # views pin the mapping
            shm.close_quietly(seg)
            seg.unlink()
        entry.descriptions += tuple(summaries[0]["descriptions"])
        self.last_used = time.monotonic()
        return arrays, summaries, entry

    def _collect(self) -> List[dict]:
        """Every rank's summary, or the run's failure raised."""
        waiting = {id(child): rank for rank, child in enumerate(self.ranks)}
        summaries: List[Optional[dict]] = [None] * self.procs
        failure = None
        deadline = time.monotonic() + _BARRIER_TIMEOUT_S + 60
        while waiting:
            # After a rank that only saw the barrier break, give the one
            # that broke it a moment to say why.
            timeout = deadline - time.monotonic() if failure is None else 1.0
            spoke = proc.replies(
                [self.ranks[rank] for rank in waiting.values()], timeout
            )
            if not spoke:
                break
            for child, (status, *body) in spoke:
                rank = waiting.pop(id(child))
                if status == "ok":
                    summaries[rank] = body[0]
                    continue
                kind, text, secondhand = body
                if failure is None or not secondhand:
                    failure = (rank, kind, text)
                if not secondhand:
                    waiting.clear()
        if failure is not None:
            rank, kind, text = failure
            raise kind("mp-shard worker %d failed:\n%s" % (rank, text))
        if waiting:
            raise ReproError(
                "mp-shard collected %d/%d worker results"
                % (self.procs - len(waiting), self.procs)
            )
        return summaries


_POOL: Optional[_Pool] = None
_POOL_LOCK = threading.Lock()


def _retire_locked(failed: bool = False) -> None:
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL, None
        pool.retire(failed)


def _retire_pool() -> None:
    """Stop the rank pool, if there is one (interpreter exit; tests that
    patch rank code start from here so that the next call forks)."""
    with _POOL_LOCK:
        _retire_locked()


atexit.register(_retire_pool)


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
    """Run ``program`` sharded over ``procs`` ranks.

    Returns ``(ExecutionResult, CommReport)``.  The report carries one
    :class:`ExchangeRecord` per executed wire message with planned,
    model, corner and measured byte counts — the raw material of the
    measured-vs-modeled validation in :mod:`repro.parallel.validate`.
    ``initial_scalars`` seeds the program's ``scalar_inputs``, as in
    :func:`repro.exec.execute`.

    The ranks are kept for the next call (see the module docstring);
    after any failure they are all stopped, and the next call forks
    anew.
    """
    global _POOL
    from repro.exec.backends import ExecutionResult, get_backend

    if get_backend(local_backend).kernel is None:
        raise ReproError(
            "mp-shard needs a local backend with a kernel form to run on "
            "its ranks; %r has none" % local_backend
        )
    local_backend = get_backend(local_backend).name
    if procs is None:
        procs = default_procs()
    if procs < 1:
        raise ReproError("procs must be positive, got %d" % procs)
    grid = ProcessorGrid(procs, max(program_rank(program), 1))
    options = comm_options if comm_options is not None else ALL_COMM_OPTS
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
    initial_arrays = validate_inputs(program.layout, initial_arrays)
    initial_scalars = validate_scalars(program, initial_scalars)
    if multiprocessing.current_process().daemon:
        raise ReproError(DAEMONIC_MESSAGE)

    with _POOL_LOCK:
        if _POOL is not None and _POOL.procs != procs:
            _retire_locked()
        if _POOL is None:
            _POOL = _Pool(procs)
        try:
            arrays, summaries, entry = _POOL.run(
                program, options, local_backend, initial_arrays,
                initial_scalars,
            )
        except BaseException:
            _retire_locked(failed=True)
            raise

    counters: Dict[str, int] = dict.fromkeys(_COMM_COUNTERS, 0)
    measured = array("q", summaries[0]["measured"])
    for summary in summaries:
        for name, value in summary["counters"].items():
            counters[name] += value
    for summary in summaries[1:]:
        for ordinal, nbytes in enumerate(summary["measured"]):
            measured[ordinal] += nbytes
    report = CommReport(
        procs, grid.shape, counters, entry.descriptions,
        summaries[0]["described"], measured, summaries[0]["durations_us"],
    )
    result = ExecutionResult(arrays, dict(summaries[0]["scalars"]))
    _emit_obs(report, metrics, tracer, time.perf_counter() - started)
    return result, report


def _emit_obs(report: CommReport, metrics, tracer, elapsed_s: float) -> None:
    if metrics is not None:
        for name, value in report.counters.items():
            if value:
                metrics.incr(name, value)
        for duration_us in report.durations_us:
            metrics.observe("comm.exchange", duration_us / 1e6)
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
