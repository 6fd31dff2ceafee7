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
coordinator died reads EOF on its pipe, poisons the barrier a peer may be
parked in, and exits.  One run at a time: callers from several threads
queue on the pool's lock.  A program
reaches the ranks once — the one a pool is forked for arrives with the
fork, a later one is pickled down the pipes the first time the pool sees
it — and is recognised by identity afterwards (the last
``_KEPT_PROGRAMS`` of them, the same LRU on both sides of the pipe).
Per program a rank **keeps** everything that
depends only on the program's structure — per-nest facts, loaded
kernels, the :class:`~repro.parallel.shard.Exchange` values its messages
carry (rank 0 interns them by value, and every report of the program
shares them), the mappings of its segments, and one
*prepared run* per (run of nests, concrete bounds): its post/wait
steps, each nest's rank class, clamp and kernel arguments, and the
segment views of every copy.  Per call it **resets** what depends on
the data — local arrays, scalars, ordinals, record columns and
counters.  So a warm call looks its runs up
and pays for kernels and the exchanges that move bytes, and
``comm.kernel_loads`` / ``comm.runs_prepared`` read what *this* call
loaded and built: everything on a program's first call, 0 later.  The
coordinator keeps, per program and pool, everything (program, procs)
decides: the grid, whether the program shards at all, its layout, and
its call segment with the views over it.

The ranks synchronise through :class:`_PipeBarrier`, a pipe per ordered
pair of ranks: a wait is one token to and from every peer (one process
wake-up), a scalar broadcast one frame from its owner, an abort poison
to every peer.  Poison, EOF from a rank that died and the
``_BARRIER_TIMEOUT_S`` deadline all raise
:class:`threading.BrokenBarrierError`.  The coordinator holds every
pipe end until the ranks are forked, so :func:`_max_procs` caps a pool
by the open-file limit.

Segments are unnamed between calls.  Rank 0 creates a segment under a
name, every rank maps it, rank 0 unlinks the name (two barrier waits,
once per segment per program); the mappings live on in the ranks.  The
program's call segment — initial arrays in, result arrays out — belongs
to the coordinator, which creates it on the program's first call and
unlinks its name once that call's ranks have answered, so every rank has
mapped it; both sides keep the mapping with the program.  Nothing of a
killed run can therefore outlive it under ``/dev/shm`` except a name
caught inside a handshake or a first call; :func:`_reclaim` sweeps for
those, on the coordinator after a failure and on rank 0 when its loop
ends.

A rank that dies (a signal, the OOM killer, ``os._exit``) trips its
process sentinel, which the coordinator waits on together with the
pipes: the run fails at once with a typed :class:`ReproError` naming the
rank and how it went, its peers — reading EOF from its pipes, or parked
waiting on another rank — are terminated with the rest of the pool, and
the next call forks a fresh one.  A :class:`ReproError` a rank raises —
a runaway loop past :data:`repro.interp.evalexpr.STEP_LIMIT` is an
``InterpError`` here as on the interpreters — reaches the caller as its
own type and one line, ``mp-shard worker N: <message>``; any other
exception is a bug and arrives with the rank's traceback.

The driver walk is *lockstep deterministic*: every rank performs the
same walk over the same program, so barrier sequences, segment names and
exchange ordinals agree without any coordination messages; each rank
builds a prepared run at the same point of the walk from the same
replicated scalars, and maps the run's segments as it does.  A message
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

Scalars travel as pickled frames down the barrier's pipes, and only
fold results travel: rank 0 broadcasts them as soon as it has folded
them, because replicated control flow usually tests them next
(``comm.scalar_bcasts`` counts the broadcasts).  A contraction scalar
never leaves its rank — no read outside its nest exists
(:class:`~repro.scalarize.loopnest.ScalarProgram` refuses one) and no
run returns it — and every other scalar is assigned alike on every rank
by the replicated walk.

A nest's partition plan puts it in one of two rank classes for the
dimensions the grid cuts (:meth:`repro.scalarize.loopnest.PartitionPlan.
rank_class`, computed once per nest per rank).  *Clamped* nests run on
every rank over its own chunk.  *Gathered* nests — a flow crossing or a
circular buffer along a cut dimension — need their blocks in dependence
order and execute whole on rank 0 (gather → execute → scatter, counted
under ``comm.fallback_nests``): a prepared run's third step kind, beside
exchanges and clamped nests.

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
import math
import multiprocessing
import os
import pickle
import resource
import sys
import threading
import time
import traceback
import uuid
from array import array
from collections import OrderedDict
from itertools import groupby
from multiprocessing.connection import Connection, Pipe
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.daemon import proc, shm
from repro.interp import evalexpr
from repro.interp.evalexpr import eval_scalar
from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.obs.registry import registered_counter_names
from repro.parallel.comm import ELEM_BYTES
from repro.parallel.commopt import ALL_COMM_OPTS, CommOptions
from repro.parallel.distribution import ProcessorGrid
from repro.parallel.shard import (
    Exchange,
    ShardError,
    ShardLayout,
    box_elements,
    box_index,
    box_intersect,
    box_shape,
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
_COMM_COUNTERS = tuple(
    name for name in registered_counter_names() if name.startswith("comm.")
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


class ExchangeRecord(NamedTuple):
    """One executed wire message, with planned and measured bytes.

    Every field of its :class:`~repro.parallel.shard.Exchange` reads
    through (``record.arrays``, ``record.events``, ``record.model_bytes``
    ...).
    """

    ordinal: int
    description: Exchange
    measured_bytes: int = 0
    duration_us: float = 0.0

    def __getattr__(self, name: str):
        return getattr(self.description, name)

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
                 descriptions: Tuple[Exchange, ...] = (),
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


# -- the pipe barrier ------------------------------------------------------

#: What a message down a barrier pipe is: a token, poison, or a frame
#: (this tag byte, then the frame's bytes).
_TOKEN, _POISON, _FRAME = b"", b"\x00", b"\x01"


def _max_procs() -> int:
    """The most ranks a pool may have: the coordinator holds every pipe
    of their barrier, 2 N (N - 1) descriptors, before it forks them, and
    they must fit in half the soft open-file limit."""
    soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    if soft == resource.RLIM_INFINITY:
        return sys.maxsize
    procs = 1
    while 2 * (procs + 1) * procs <= soft // 2:
        procs += 1
    return procs


class _PipeBarrier:
    """The ranks' one synchronisation: a pipe per ordered pair of ranks.

    The coordinator makes every pipe before it forks the ranks.  Each
    rank keeps the read ends of the pipes into it and the write ends of
    those out of it (:meth:`keep`); the coordinator closes every end once
    the ranks are forked (:meth:`close`).  So rank a is the only writer
    of the pipe from a to b, and a's death reads as EOF at b.

    :meth:`wait` sends one token to every peer, then receives one from
    every peer: no rank leaves a wait before every peer has entered it.
    A pipe is FIFO, so a fast rank's token for its next wait queues
    behind the one for this wait and cannot complete a slow rank's
    current wait, however many ranks there are.  :meth:`send` /
    :meth:`receive` move one frame from one rank to every peer down the
    same pipes.  :meth:`abort` sends poison to every peer.  Poison, EOF
    and ``_BARRIER_TIMEOUT_S`` passing in one wait or receive raise
    :class:`threading.BrokenBarrierError`, as a broken
    ``multiprocessing.Barrier`` would, and leave the barrier broken.
    """

    def __init__(self, procs: int) -> None:
        #: (from rank, to rank) -> (read end, write end), until :meth:`keep`
        self.pipes: Dict[Tuple[int, int], tuple] = {}
        #: after :meth:`keep`: peer -> the read end from it, and the write
        #: end to every peer
        self.ins: Dict[int, Connection] = {}
        self.outs: Tuple[Connection, ...] = ()
        self.broken = self.aborted = False
        try:
            for a in range(procs):
                for b in range(procs):
                    if a != b:
                        self.pipes[a, b] = Pipe(duplex=False)
        except OSError:
            self.close()
            raise

    def keep(self, rank: int) -> None:
        """In rank ``rank``, after the fork: close the ends it does not own."""
        outs = []
        for (a, b), (read_end, write_end) in sorted(self.pipes.items()):
            if b == rank:
                self.ins[a] = read_end
            else:
                read_end.close()
            if a == rank:
                outs.append(write_end)
            else:
                write_end.close()
        self.pipes = {}
        self.outs = tuple(outs)

    def close(self) -> None:
        """Close every end still open in this process."""
        ends = [end for pair in self.pipes.values() for end in pair]
        ends += [*self.ins.values(), *self.outs]
        self.pipes, self.ins, self.outs = {}, {}, ()
        for end in ends:
            end.close()

    def wait(self) -> None:
        self._send(_TOKEN)
        deadline = time.monotonic() + _BARRIER_TIMEOUT_S
        for peer in self.ins:
            if self._receive(peer, deadline) != _TOKEN:
                self._break("rank %d sent a frame, not a token" % peer)

    def send(self, blob: bytes) -> None:
        """One frame, ``blob``, to every peer."""
        self._send(_FRAME + blob)

    def receive(self, peer: int) -> bytes:
        """The next frame from ``peer``."""
        message = self._receive(peer, time.monotonic() + _BARRIER_TIMEOUT_S)
        if message == _TOKEN:
            self._break("rank %d sent a token, not a frame" % peer)
        return message[1:]

    def abort(self) -> None:
        """Break the barrier here and poison every peer (once)."""
        self.broken = True
        if self.aborted:
            return
        self.aborted = True
        for end in self.outs:
            try:
                # Five bytes, written whole or not at all: EAGAIN means
                # the pipe is full, so its reader is not parked on it.
                os.set_blocking(end.fileno(), False)
                end.send_bytes(_POISON)
            except OSError:  # EPIPE: the peer is gone
                pass

    def _break(self, why: str):
        self.broken = True
        raise threading.BrokenBarrierError(why)

    def _send(self, message: bytes) -> None:
        if self.broken:
            self._break("the barrier is broken")
        for end in self.outs:
            try:
                end.send_bytes(message)
            except OSError:  # EPIPE: the peer is gone
                self._break("a peer is gone")

    def _receive(self, peer: int, deadline: float) -> bytes:
        if self.broken:
            self._break("the barrier is broken")
        end = self.ins[peer]
        if not end.poll(max(0.0, deadline - time.monotonic())):
            self.abort()
            self._break("timed out waiting for rank %d" % peer)
        try:
            message = end.recv_bytes()
        except (EOFError, OSError):
            self._break("rank %d is gone" % peer)
        if message == _POISON:
            self._break("rank %d aborted" % peer)
        return message


# -- the worker ------------------------------------------------------------


class _NestFacts:
    """What the walk needs to know about one nest, derived once."""

    __slots__ = (
        "arrays", "writes", "reductions", "kernels", "gathered",
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


class _Run:
    """A maximal run of consecutive nests in a body, with its prepared
    runs: functions executing it at one set of concrete bounds, with all
    that is pure in (run, bounds) — steps, clamps, kernel arguments,
    segment views — bound in."""

    __slots__ = ("nests", "free", "by_values", "by_bounds")

    def __init__(self, nests: Sequence[LoopNest]) -> None:
        self.nests = tuple(nests)
        #: every name the run's region bounds read
        self.free = tuple(dict.fromkeys(
            name for node in nests for name in node.region.free_variables()
        ))
        #: the values of ``free`` -> the prepared run they select
        self.by_values: Dict[tuple, Callable[[], None]] = {}
        #: concrete bounds per nest -> the one prepared run for them
        self.by_bounds: Dict[tuple, Callable[[], None]] = {}


def _call_bytes(layout: ShardLayout) -> int:
    """The size of a program's call segment (see :func:`_call_views`)."""
    return 2 * sum(
        math.prod(box_shape(bounds)) * np.dtype(DTYPES[kind]).itemsize
        for bounds, kind in layout.allocs.values()
    )


def _call_views(buf, layout: ShardLayout):
    """``(results, inputs)``: NumPy views over a program's call segment.

    A result slot per array, then an input slot per array, each the
    array's global allocation; a call seeds the input slots of the arrays
    it was given and reads no other.  They are kept apart because a rank
    that runs ahead writes its results while a slower one may still be
    reading the initial values of its halo.
    """
    cursor = 0
    results: Dict[str, np.ndarray] = {}
    inputs: Dict[str, np.ndarray] = {}
    for views in (results, inputs):
        for name in sorted(layout.allocs):
            bounds, kind = layout.allocs[name]
            view = views[name] = np.ndarray(
                box_shape(bounds), dtype=DTYPES[kind], buffer=buf,
                offset=cursor,
            )
            cursor += view.nbytes
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
        #: body identity -> its nodes, each run of nests one :class:`_Run`
        #: (which holds the run's prepared runs)
        self.bodies: Dict[int, list] = {}
        #: mapped on every rank, named on none (see :meth:`_segment`)
        self.segments: Dict[str, object] = {}
        self.facts: Dict[int, _NestFacts] = {}
        #: (nest identity, mini kind, allocation bounds) -> (loaded
        #: kernel, scalar input names besides the region bounds, every
        #: scalar it declares at its kind's zero)
        self.kernels: Dict[tuple, tuple] = {}
        #: rank 0: each distinct exchange -> its index, in first-seen
        #: order; the coordinator has been sent the first
        #: ``described_sent`` of them
        self.descriptions: Dict[Exchange, int] = {}
        self.described_sent = 0
        self.next_seg = 0
        #: the program's call segment, mapped on its first call, and the
        #: (results, inputs) views over it
        self.call = None
        self.call_views: Tuple[dict, dict] = ({}, {})

    def _begin(self, inputs: Optional[Mapping[str, np.ndarray]],
               scalars: Optional[Mapping[str, object]]) -> None:
        """Reset everything one call owns."""
        self.scalars: Dict[str, object] = {
            name: SCALAR_INIT[kind]
            for name, kind in self.program.scalars.items()
        }
        self.scalars.update(scalars or {})
        self.locals: Dict[str, np.ndarray] = {}
        for name, (bounds, kind) in self.layout.allocs.items():
            local = self.local_bounds[name]
            values = np.zeros(box_shape(local), dtype=DTYPES[kind])
            if inputs and name in inputs:
                box = box_intersect(local, bounds)
                if box is not None:
                    values[box_index(local, box)] = inputs[name][
                        box_index(bounds, box)
                    ]
            self.locals[name] = values
        #: per ordinal: bytes this rank wrote / (rank 0) which description
        #: it executed and how long post-to-wait took
        self.measured = array("q")
        self.described = array("I")
        self.durations_us = array("d")
        self.counters: Dict[str, int] = dict.fromkeys(_COMM_COUNTERS, 0)
        self._steps = 0
        self._max_steps = evalexpr.STEP_LIMIT

    # -- shared memory -----------------------------------------------------

    def _sync(self) -> None:
        if self.rank == 0:
            self.counters["comm.barrier_waits"] += 1
        self.barrier.wait()

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
        """Drop the prepared runs, whose views pin the mappings, then the
        mappings (the program was evicted, or the rank is stopping)."""
        self.bodies.clear()
        self.call_views = ({}, {})
        for seg in [self.call, *self.segments.values()]:
            if seg is not None:
                shm.close_quietly(seg)
        self.call = None
        self.segments.clear()

    # -- replicated scalars ------------------------------------------------

    def _bcast(self, owner: int, payload: Optional[dict]) -> None:
        """Owner → every replica: one frame down each of its pipes.

        No wait brackets it.  Each peer reads the values after the owner
        sent them, and a frame is bytes of its own in a FIFO, so nothing
        is overwritten behind a reader.  The frame also orders a fold:
        rank 0 reads every rank's operands in the fold views before it
        sends the frame, and a peer writes its next operands there only
        after the frame has reached it.
        """
        if self.rank == 0:
            self.counters["comm.scalar_bcasts"] += 1
        if self.rank == owner:
            self.barrier.send(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
        else:
            payload = pickle.loads(self.barrier.receive(owner))
        self.scalars.update(payload)

    # -- kernels -----------------------------------------------------------

    def _facts(self, node: LoopNest) -> _NestFacts:
        facts = self.facts.get(id(node))
        if facts is None:
            facts = self.facts[id(node)] = _NestFacts(
                node, self.array_kinds, self.program.scalars,
                self.program.partial, self.layout.grid.cut_dimensions(),
            )
        return facts

    def _kernel(self, node: LoopNest, kind: str,
                allocs: Dict[str, Tuple[Bounds, str]],
                bounds: Bounds) -> tuple:
        """One mini kind of ``node`` over ``bounds`` on arrays allocated
        over ``allocs``: (loaded kernel, the scalar inputs it reads from
        the walk, its other scalar arguments with ``__shard_lo/hi`` set).

        The kernel is loaded on first use and kept for the life of the
        worker: its region is symbolic over the ``__shard_lo/hi`` scalars
        and every scalar its body observes is a scalar input, so one load
        serves every clamp and every scalar state the walk ever reaches.
        """
        key = (
            id(node), kind,
            tuple((name, alloc) for name, (alloc, _kind) in allocs.items()),
        )
        if key not in self.kernels:
            self.kernels[key] = self._load_kernel(node, kind, allocs)
        run, names, zeros = self.kernels[key]
        template = dict(zeros)
        for d, (lo, hi) in enumerate(bounds, start=1):
            template[_LO % d] = lo
            template[_HI % d] = hi
        return run, names, template

    def _run_kernel(self, kernel: tuple,
                    arrays: Mapping[str, np.ndarray]) -> Mapping[str, object]:
        """Execute a :meth:`_kernel` in place on ``arrays``; returns its
        folds' final accumulators."""
        run, names, template = kernel
        scalars = dict(template)
        for name in names:
            scalars[name] = scalar_value(self.scalars[name])
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
            # what the walk reads back: the folds' accumulators
            results=[
                stmt.scalar_target for stmt in body
                if stmt.reduce_op is not None
            ],
        )
        self.counters["comm.kernel_loads"] += 1
        return (
            get_backend(self.local_backend).kernel(mini),
            names,
            {name: SCALAR_INIT[kind] for name, kind in scalars.items()},
        )

    # -- prepared runs -----------------------------------------------------

    def _exec_run(self, run: _Run) -> None:
        key = tuple(map(self.scalars.get, run.free))
        prepared = run.by_values.get(key)
        if prepared is None:
            # Every rank gets here at the same point of the walk with the
            # same replicated scalars, so all of them build alike.
            env = dict(self.config_env)
            env.update(
                (name, int(value)) for name, value in zip(run.free, key)
                if isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
            )
            bounds = tuple(
                node.region.concrete_bounds(env) for node in run.nests
            )
            prepared = run.by_bounds.get(bounds)
            if prepared is None:
                prepared = self._build(run.nests, bounds, env)
                run.by_bounds[bounds] = prepared
            run.by_values[key] = prepared
        prepared()

    def _build(self, nests: Sequence[LoopNest], bounds: Sequence[Bounds],
               env: Mapping[str, int]) -> Callable[[], None]:
        """Plan one run at concrete bounds and resolve each step of it: an
        exchange at every post/wait point of the §5.5 schedule, and per
        nest the step of its rank class."""
        gathered = tuple(
            index for index, node in enumerate(nests)
            if self._facts(node).gathered
        )
        plan = plan_run(nests, self.layout, env, self.options, gathered)
        prefix = "%s_x%d" % (self.sid, self.next_seg)
        self.next_seg += 1
        self.counters["comm.runs_prepared"] += 1
        seg = (
            self._segment(prefix, plan.segment_bytes)
            if plan.segment_bytes else None
        )
        posts: List[list] = [[] for _ in range(len(nests) + 1)]
        waits: List[list] = [[] for _ in range(len(nests) + 1)]
        for message in plan.messages:
            posts[message.exchange.post_point].append(message)
            waits[message.exchange.wait_point].append(message)
        steps = []
        for step, (post, wait) in enumerate(zip(posts, waits)):
            if post or wait:
                steps.append(self._exchange_step(seg, post, wait))
            if step == len(nests):
                break
            args = nests[step], bounds[step], prefix, step
            if step not in gathered:
                steps.append(self._clamped_step(*args))
            elif box_elements(bounds[step]):
                # over an empty region nothing executes: arrays and
                # scalars keep their values
                steps.append(self._gathered_step(*args))
        blank = bytes(8 * len(plan.messages))  # fresh per-ordinal columns
        if self.rank == 0:
            # interned by value: every report of the program shares one
            # object per distinct message
            described = tuple(
                self.descriptions.setdefault(
                    message.exchange, len(self.descriptions)
                )
                for message in plan.messages
            )
            counts = (
                ("comm.exchanges", len(plan.messages)),
                ("comm.combined", plan.combined),
                ("comm.eliminated", plan.eliminated),
                ("comm.fallback_nests", len(gathered)),
            )

        def execute() -> None:
            self._first = len(self.measured)  # message.index counts from here
            self.measured.frombytes(blank)
            if self.rank == 0:
                for name, count in counts:
                    self.counters[name] += count
                self.described.extend(described)
                self.durations_us.frombytes(blank)
            for step in steps:
                step()

        return execute

    def _slot(self, seg, name: str, box: Bounds, offset: int) -> np.ndarray:
        """The view of ``name``'s ``box`` laid out at ``offset`` in ``seg``."""
        return np.ndarray(
            box_shape(box), dtype=DTYPES[self.array_kinds[name]],
            buffer=seg.buf, offset=offset,
        )

    def _exchange_step(self, seg, posts, waits) -> Callable[[], None]:
        """One post/wait point: the boxes this rank writes for the
        messages posted here and reads for those awaited here."""

        def copies(messages, clip) -> list:
            """Per message: its index, and per copy ``clip`` leaves to this
            rank, (slot view of that box, array, local index, bytes)."""
            found = []
            for message in messages:
                mine = []
                for name, box, offset in message.copies:
                    part = clip(name, box)
                    if part is not None:
                        slot = self._slot(seg, name, box, offset)
                        mine.append((
                            slot[box_index(box, part)], name,
                            box_index(self.local_bounds[name], part),
                            box_elements(part) * ELEM_BYTES,
                        ))
                found.append((message.index, mine))
            return found

        writes = copies(
            posts, lambda _name, box: self.layout.owned_box(self.rank, box)
        )
        reads = copies(
            waits,
            lambda name, box: box_intersect(box, self.local_bounds[name]),
        )
        # A step none of whose messages has a copy moves nothing, so
        # nobody waits for anybody: the plan says so on every rank alike.
        # Its messages are still recorded and timed.
        sync = any(message.copies for message in posts + waits)

        def exchange() -> None:
            first = self._first
            if self.rank == 0:  # the post time, until the wait replaces it
                now = time.perf_counter()
                for index, _mine in writes:
                    self.durations_us[first + index] = now
            if sync:
                arrays = self.locals
                for index, mine in writes:
                    for slot, name, local, nbytes in mine:
                        slot[...] = arrays[name][local]
                        self.measured[first + index] += nbytes
                        self.counters["comm.bytes"] += nbytes
                self._sync()
                for _index, mine in reads:
                    for slot, name, local, _nbytes in mine:
                        arrays[name][local] = slot
                self._sync()
            if self.rank == 0:
                done = time.perf_counter()
                for index, _mine in reads:
                    posted = self.durations_us[first + index]
                    self.durations_us[first + index] = max(
                        (done - posted) * 1e6, 1e-3
                    )

        return exchange

    def _clamped_step(self, node: LoopNest, bounds: Bounds, prefix: str,
                      step: int) -> Callable[[], None]:
        """``node`` over this rank's clamp of ``bounds``; its folds gather
        per-point operands to rank 0, which folds them in oracle order."""
        facts = self._facts(node)
        clamp = self.layout.clamp(self.rank, bounds)
        kernel, scratch = None, ()
        if clamp is not None:
            allocs = {
                name: (self.local_bounds[name], self.array_kinds[name])
                for name in facts.arrays
            }
            for red_name, kind, _op, _target in facts.reductions:
                allocs[red_name] = (clamp, kind)
            kernel = self._kernel(node, "clamped", allocs, clamp)
            scratch = [
                (red_name, box_shape(clamp), DTYPES[kind])
                for red_name, kind, _op, _target in facts.reductions
            ]
        # Over an empty region nothing is folded: every rank sees the same
        # bounds, so all of them skip the barriers together.
        folds = facts.reductions if box_elements(bounds) else ()
        views, mine, fold = {}, [], None
        if folds:
            slot_bytes = box_elements(bounds) * ELEM_BYTES
            seg = self._segment(
                "%s_r%d" % (prefix, step), slot_bytes * len(folds)
            )
            for slot, (red_name, kind, _op, _target) in enumerate(folds):
                view = views[red_name] = np.ndarray(
                    box_shape(bounds), dtype=DTYPES[kind],
                    buffer=seg.buf, offset=slot * slot_bytes,
                )
                if clamp is not None:
                    mine.append((red_name, view[box_index(bounds, clamp)]))
            # Folds start from the accumulator's pre-nest value (the
            # oracle's ``acc = acc + np.sum(...)``): it is a scalar input.
            if self.rank == 0:
                fold = self._kernel(node, "fold", {
                    red_name: (bounds, kind) for red_name, kind, _, _ in folds
                }, bounds)
        nbytes = len(mine) * box_elements(clamp) * ELEM_BYTES if mine else 0

        def clamped() -> None:
            if kernel is not None:
                arrays = {name: self.locals[name] for name in facts.arrays}
                for red_name, shape, dtype in scratch:
                    arrays[red_name] = np.zeros(shape, dtype=dtype)
                self._run_kernel(kernel, arrays)
            if folds:
                for red_name, view in mine:
                    view[...] = arrays[red_name]
                self.counters["comm.reduce_bytes"] += nbytes
                self._sync()
                payload = None
                if fold is not None:
                    folded = self._run_kernel(fold, views)
                    payload = {
                        target: scalar_value(folded[target])
                        for _red, _kind, _op, target in folds
                    }
                self._bcast(0, payload)

        return clamped

    def _gathered_step(self, node: LoopNest, bounds: Bounds, prefix: str,
                       step: int) -> Callable[[], None]:
        """Gather → execute the whole nest on rank 0 → scatter."""
        facts = self._facts(node)
        allocs = self.layout.allocs
        offsets: Dict[str, int] = {}
        cursor = 0
        for name in facts.arrays:
            offsets[name] = cursor
            cursor += box_elements(allocs[name][0]) * ELEM_BYTES
        seg = self._segment("%s_f%d" % (prefix, step), cursor)
        views = {
            name: self._slot(seg, name, allocs[name][0], offsets[name])
            for name in facts.arrays
        }
        gathers = []  # (slot view, array, local index) of the owned boxes
        for name in facts.arrays:
            own = self.layout.owned_box(self.rank, allocs[name][0])
            if own is not None:
                gathers.append((
                    views[name][box_index(allocs[name][0], own)], name,
                    box_index(self.local_bounds[name], own),
                ))
        scatters = []  # (array, slot view of its local box, local shape)
        for name in facts.writes:
            local = self.local_bounds[name]
            if box_elements(local) > 0:
                scatters.append((
                    name, views[name][box_index(allocs[name][0], local)],
                    box_shape(local),
                ))
        kernel = self._kernel(
            node, "fallback",
            {name: allocs[name] for name in facts.arrays}, bounds,
        ) if self.rank == 0 else None
        results = [target for _r, _k, _op, target in facts.reductions]

        def gathered() -> None:
            for slot, name, local in gathers:
                slot[...] = self.locals[name][local]
            self._sync()
            payload = None
            if self.rank == 0:
                self.counters["comm.gather_bytes"] += cursor
                final = self._run_kernel(kernel, views)
                payload = {name: scalar_value(final[name]) for name in results}
            self._sync()
            for name, slot, shape in scatters:
                self.locals[name][...] = np.reshape(slot, shape)
            self._sync()
            if results:
                self._bcast(0, payload)

        return gathered

    # -- the walk ----------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._max_steps:
            raise InterpError("step limit exceeded (runaway loop?)")

    def execute_body(self, body: Sequence[SNode]) -> None:
        nodes = self.bodies.get(id(body))
        if nodes is None:
            nodes = self.bodies[id(body)] = []
            for is_nest, group in groupby(
                body, key=lambda node: isinstance(node, LoopNest)
            ):
                if is_nest:
                    nodes.append(_Run(list(group)))
                else:
                    nodes.extend(group)
        for node in nodes:
            self._tick()
            if isinstance(node, _Run):
                self._exec_run(node)
            elif isinstance(node, ScalarAssign):
                self.scalars[node.target] = eval_scalar(node.rhs, self.scalars)
            elif isinstance(node, SeqLoop):
                lo = int(eval_scalar(node.lo, self.scalars))
                hi = int(eval_scalar(node.hi, self.scalars))
                iterator = (
                    range(lo, hi - 1, -1) if node.downto else range(lo, hi + 1)
                )
                for value in iterator:
                    self.scalars[node.var] = value
                    self.execute_body(node.body)
            elif isinstance(node, SIf):
                if bool(eval_scalar(node.cond, self.scalars)):
                    self.execute_body(node.then_body)
                else:
                    self.execute_body(node.else_body)
            elif isinstance(node, SWhile):
                while bool(eval_scalar(node.cond, self.scalars)):
                    self._tick()
                    self.execute_body(node.body)
            elif isinstance(node, SBoundary):
                raise ShardError(
                    "boundary statements are not supported under sharding"
                )
            else:
                raise ShardError("cannot execute %r sharded" % (node,))

    def run(self, call_seg: str, seeded: Sequence[str],
            scalars: Optional[Mapping[str, object]]) -> dict:
        """One call: seed, walk, write the owned boxes, report."""
        if self.call is None:  # named until every rank has mapped it
            self.call = shm.attach(call_seg)
            self.call_views = _call_views(self.call.buf, self.layout)
        results, inputs = self.call_views
        try:
            self._begin({name: inputs[name] for name in seeded}, scalars)
            self.execute_body(self.program.body)
            for name in self.program.result_arrays:
                view = results[name]
                bounds = self.layout.allocs[name][0]
                own = self.layout.owned_box(self.rank, bounds)
                if own is not None:
                    view[box_index(bounds, own)] = self.locals[name][
                        box_index(self.local_bounds[name], own)
                    ]
        finally:
            self.locals = {}  # a call's data is not kept with the program
        summary = {"measured": self.measured, "counters": self.counters}
        if self.rank == 0:
            summary["scalars"] = {
                name: scalar_value(self.scalars[name])
                for name in self.program.result_scalars
            }
            summary["described"] = self.described
            summary["durations_us"] = self.durations_us
            summary["descriptions"] = list(self.descriptions)[
                self.described_sent:
            ]
            self.described_sent = len(self.descriptions)
        return summary


def _rank_main(conn, rank: int, barrier: _PipeBarrier, born_with: dict,
               sid: str) -> None:
    """A rank process: run what the coordinator says until it says stop.

    ``born_with`` (slot -> what would have been shipped) is the program
    the pool was forked for: it arrives with the fork, so a cold call
    pickles nothing.  ``sid`` prefixes every segment name of the pool."""
    barrier.keep(rank)
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
            # Its peers are, or soon will be, parked in a wait: poison
            # sends them home.
            barrier.abort()
            # A ReproError crosses as its type and one line; anything else
            # is a bug and keeps its traceback.  A broken barrier is some
            # other rank's failure, not this one's.
            if isinstance(error, ReproError):
                kind, text = type(error), ": %s" % error
            else:
                kind, text = ReproError, " failed:\n" + traceback.format_exc()
            return (
                "error", kind, text,
                isinstance(error, threading.BrokenBarrierError),
            )

    proc.serve(conn, run)
    # On EOF the coordinator may have died between two ranks' messages:
    # a peer that got its run is parked in a wait, and only poison (or
    # this rank's exit) sends it home before the timeout.
    barrier.abort()
    for worker in workers.values():
        worker.close()
    barrier.close()
    if rank == 0:
        # ... or inside SharedMemory() creating its call segment, before
        # the resource tracker heard of the name.  After a stop the sweep
        # finds nothing: between calls no segment has a name.
        _reclaim(sid)


# -- the coordinator -------------------------------------------------------


def _single_process(program: ScalarProgram, initial_arrays, initial_scalars,
                    local_backend, grid: ProcessorGrid, metrics, tracer,
                    started: float):
    """A program with nothing to shard, run by ``local_backend`` here."""
    from repro.exec.backends import execute

    result = execute(
        program, local_backend, initial_arrays=initial_arrays,
        initial_scalars=initial_scalars,
    )
    report = CommReport(
        grid.p, grid.shape, dict.fromkeys(_COMM_COUNTERS, 0)
    )
    _emit_obs(report, metrics, tracer, time.perf_counter() - started)
    return result, report


def _reclaim(sid: str) -> None:
    """Unlink every segment of pool ``sid`` a killed run left behind.

    Between calls no segment has a name, so this finds something only
    when a rank died inside the create-map-unlink handshake or the
    coordinator inside a program's first call.  Linux-only (elsewhere
    there is no ``/dev/shm`` to list)."""
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
    """What the coordinator keeps of a program for one pool: everything
    (program, procs) decides, so a warm call derives none of it."""

    __slots__ = (
        "key", "program", "slot", "grid", "layout", "shipped",
        "descriptions", "call", "results", "inputs",
    )

    def __init__(self, key: tuple, program: ScalarProgram, slot: int,
                 procs: int, options: CommOptions, local_backend: str,
                 prefix: str) -> None:
        self.key = key
        #: referenced, so the ``id`` in the memo's key cannot be recycled
        self.program = program
        self.slot = slot
        self.grid = ProcessorGrid(procs, max(program_rank(program), 1))
        #: None when the program runs unsharded: the grid cuts nothing, or
        #: it has boundary statements (wrap/reflect fills address whole
        #: global edges and have no clamped form)
        self.layout: Optional[ShardLayout] = None
        if self.grid.cut_dimensions() and not any(
            isinstance(node, SBoundary) for node in walk(program.body)
        ):
            self.layout = ShardLayout(
                program, self.grid, int_config_env(program.configs)
            )
        #: what the ranks are sent on the program's first call, then None
        self.shipped: Optional[tuple] = (
            program, self.layout, options, local_backend, prefix
        )
        #: every exchange rank 0 has sent so far; reports share it
        self.descriptions: Tuple[Exchange, ...] = ()
        #: the call segment, created by the first call, and the (results,
        #: inputs) views over it
        self.call = None
        self.results: Dict[str, np.ndarray] = {}
        self.inputs: Dict[str, np.ndarray] = {}

    def map_call(self, name: str) -> None:
        from multiprocessing import shared_memory

        self.call = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, _call_bytes(self.layout))
        )
        self.results, self.inputs = _call_views(self.call.buf, self.layout)

    def close(self) -> None:
        self.results = self.inputs = {}  # views pin the mapping
        if self.call is not None:
            shm.close_quietly(self.call)


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
        self.last_used = time.monotonic()
        self.retired = threading.Event()

    def _fork(self, born_with: dict) -> None:
        from multiprocessing import resource_tracker

        ctx = multiprocessing.get_context("fork")  # the ranks inherit pipes
        # Started before the fork so every rank inherits it: one tracker
        # sees rank 0's creates and unlinks in the order they happen.
        resource_tracker.ensure_running()
        barrier = _PipeBarrier(self.procs)
        try:
            for rank in range(self.procs):
                self.ranks.append(proc.Child(
                    ctx, _rank_main, (rank, barrier, born_with, self.sid),
                    "repro-shard-rank-%d" % rank,
                ))
        finally:
            # Held here, a dead rank's pipes would never read as EOF.
            barrier.close()
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
            if failed:  # parked in a wait, or worse: nobody is listening
                child.process.terminate()
            child.stop()
        for child in self.ranks:
            child.join(5)
        for entry in self.programs.values():
            entry.close()
        if failed:
            _reclaim(self.sid)

    def entry(self, program: ScalarProgram, options: CommOptions,
              local_backend: str) -> _Shipped:
        """The program's memo entry on this pool, made on first sight.

        Only :meth:`run` moves an entry up the LRU, once the call is sure
        to reach the ranks: a call refused before then (bad inputs, a
        daemonic caller) must not reorder the coordinator's side alone,
        or it would keep a program the ranks have evicted."""
        key = (id(program), options, local_backend)
        entry = self.programs.get(key)
        if entry is None:
            entry = self.programs[key] = _Shipped(
                key, program, self.slots, self.procs, options, local_backend,
                "%s_p%d" % (self.sid, self.slots),
            )
            self.slots += 1
            if len(self.programs) > _KEPT_PROGRAMS:
                self.programs.popitem(last=False)[1].close()
        return entry

    def run(self, entry: _Shipped, initial_arrays, initial_scalars):
        """``(arrays, per-rank summaries)`` of one call of a sharded
        entry."""
        self.programs.move_to_end(entry.key)
        shipped, entry.shipped = entry.shipped, None
        if not self.ranks:
            self._fork({entry.slot: shipped})
            shipped = None
        first = entry.call is None
        if first:
            entry.map_call("%s_c%d" % (self.sid, entry.slot))
        seeded = sorted(initial_arrays or ())
        try:
            for name in seeded:
                entry.inputs[name][...] = initial_arrays[name]
            proc.tell_all(self.ranks, (
                "run", entry.slot, shipped, entry.call.name, seeded,
                initial_scalars,
            ))
            summaries = self._collect()
            arrays = {
                name: entry.results[name].copy()
                for name in entry.program.result_arrays
            }
        except proc.ChildDied as death:
            raise ReproError(
                "mp-shard worker %d failed:\nprocess %s before posting a "
                "result" % (self.ranks.index(death.child), death)
            ) from None
        finally:
            if first:  # every rank has mapped it, or the pool retires
                entry.call.unlink()
        entry.descriptions += tuple(summaries[0]["descriptions"])
        self.last_used = time.monotonic()
        return arrays, summaries

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
                if not secondhand:  # retiring the pool stops the rest
                    waiting.clear()
                    break
        if failure is not None:
            rank, kind, text = failure
            raise kind("mp-shard worker %d%s" % (rank, text))
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
    most = _max_procs()
    if procs > most:
        raise ReproError(
            "procs=%d is more ranks than the open-file limit allows: their "
            "barrier needs %d pipe descriptors at once, so at most %d ranks"
            % (procs, 2 * procs * (procs - 1), most)
        )
    options = comm_options if comm_options is not None else ALL_COMM_OPTS
    started = time.perf_counter()
    if procs == 1:
        return _single_process(
            program, initial_arrays, initial_scalars, local_backend,
            ProcessorGrid(1, max(program_rank(program), 1)), metrics, tracer,
            started,
        )
    with _POOL_LOCK:
        # A pool of another size is retired only for a program it would
        # run: a fresh pool forks nothing until its first run.
        pool = _POOL if _POOL is not None and _POOL.procs == procs else (
            _Pool(procs)
        )
        entry = pool.entry(program, options, local_backend)
        if entry.layout is not None:
            initial_arrays = validate_inputs(program.layout, initial_arrays)
            initial_scalars = validate_scalars(program, initial_scalars)
            if multiprocessing.current_process().daemon:
                raise ReproError(DAEMONIC_MESSAGE)
            if pool is not _POOL:
                _retire_locked()
                _POOL = pool
            try:
                arrays, summaries = _POOL.run(
                    entry, initial_arrays, initial_scalars
                )
            except BaseException:
                _retire_locked(failed=True)
                raise
    if entry.layout is None:
        return _single_process(
            program, initial_arrays, initial_scalars, local_backend,
            entry.grid, metrics, tracer, started,
        )

    counters: Dict[str, int] = dict.fromkeys(_COMM_COUNTERS, 0)
    measured = array("q", summaries[0]["measured"])
    for summary in summaries:
        for name, value in summary["counters"].items():
            counters[name] += value
    for summary in summaries[1:]:
        for ordinal, nbytes in enumerate(summary["measured"]):
            measured[ordinal] += nbytes
    report = CommReport(
        procs, entry.grid.shape, counters, entry.descriptions,
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
