"""Shard geometry and executable exchange planning for ``mp-shard``.

The analytic communication model (:mod:`repro.parallel.comm`,
:mod:`repro.parallel.commopt`) prices border exchanges without ever
moving a byte.  This module is the bridge from that model to a real
multi-process execution: it decides *which elements live where* and
turns each run's schedule (:func:`repro.parallel.commopt.schedule`, the
same messages the model prices) into concrete, byte-addressed boxes that
the :mod:`repro.exec.mp_shard` backend executes through shared memory.

Everything here is pure and deterministic — no processes, no shared
memory, no clocks — so the same code computes the *predicted* schedule
(used by the validation harness and the docs walkthrough) and the
*executed* schedule (used by the worker processes).  Measured-equals-
modeled then holds by construction for the schedule, and the harness
only needs to check that the bytes actually written match the plan.

Layout contract
---------------

* Each array dimension ``d`` (1-based, as everywhere in the model) maps
  to grid dimension ``d`` of a :class:`~repro.parallel.distribution.
  ProcessorGrid`.  The *domain* of dimension ``d`` — the union of every
  allocation region's bounds along it — splits into ``grid.shape[d-1]``
  chunks with :func:`repro.parallel.distribution.block_chunks`.
* A worker *owns* the Cartesian product of its chunks; the first and
  last non-empty chunk along each dimension extend outward so halo
  margins of the global allocation have a unique owner too.
* A worker *allocates* its owned box widened by each array's halo — the
  widest constant offset the program ever applies to that array along
  that dimension — clipped to the global allocation region.

Strip geometry
--------------

For an event ``(array, dim, direction, width)`` consumed by a nest over
region ``R``, the strip crossing the internal boundary below global
index ``B+1`` covers, along ``dim``, the reads ``[R.lo+s*w .. R.hi+s*w]``
intersected with the ``width`` rows on the sending side of the boundary;
along every other dimension it covers ``[R.lo+min_off .. R.hi+max_off]``
where ``min_off``/``max_off`` range over the offsets of the references
that produced the event.  The extra elements beyond ``R``'s extent are
*corner bytes* — diagonal reads such as Tomcatv's ``X@(1,1)`` need them,
but the §5.5 model prices strips at the region extent, so the plan
accounts them separately (``corner_bytes``) and the validation asserts
``measured == model + corners`` exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.ir.region import Region
from repro.parallel.comm import CommEvent, analyze_run
from repro.parallel.commopt import CommOptions, schedule
from repro.parallel.distribution import ProcessorGrid, block_chunks
from repro.scalarize.loopnest import LoopNest, ScalarProgram, partition_plan
from repro.util.errors import ReproError

#: The model's element size (bytes): every counter and plan figure uses
#: it, regardless of the array's actual dtype, so measured bytes stay
#: directly comparable to ``CommEvent.bytes``.
ELEM_BYTES = 8

Bounds = Tuple[Tuple[int, int], ...]


class ShardError(ReproError):
    """A program shape the sharded backend cannot distribute."""


def program_rank(program: ScalarProgram) -> int:
    """The distribution rank: widest region the program touches."""
    rank = 0
    for region, _kind in program.array_allocs.values():
        rank = max(rank, region.rank)
    for nest in program.loop_nests():
        rank = max(rank, nest.rank)
    return rank


def halo_widths(program: ScalarProgram) -> Dict[str, Tuple[int, ...]]:
    """Per array: the widest |offset| applied along each dimension."""
    widths: Dict[str, List[int]] = {
        name: [0] * region.rank
        for name, (region, _kind) in program.array_allocs.items()
    }
    for nest in program.loop_nests():
        for ref in nest.reads():
            have = widths.get(ref.name)
            if have is None:
                continue
            for d, off in enumerate(ref.offset):
                if d < len(have):
                    have[d] = max(have[d], abs(off))
    return {name: tuple(vals) for name, vals in widths.items()}


class ShardLayout:
    """Where every element lives: chunks, ownership, local allocations.

    Built once per (program, grid); picklable, so the coordinator can
    ship it to spawned workers unchanged.
    """

    def __init__(self, program: ScalarProgram, grid: ProcessorGrid,
                 env: Mapping[str, int]) -> None:
        self.grid = grid
        self.rank = grid.rank
        self.env = dict(env)
        self.halos = halo_widths(program)
        #: array -> (concrete global allocation bounds, kind)
        self.allocs: Dict[str, Tuple[Bounds, str]] = {}
        for name, (region, kind) in program.array_allocs.items():
            self.allocs[name] = (tuple(region.concrete_bounds(env)), kind)
        self.domains: List[Tuple[int, int]] = []
        for dim in range(1, self.rank + 1):
            self.domains.append(self._domain_of(program, dim))
        self.chunks: List[List[Tuple[int, int]]] = [
            block_chunks(lo, hi, grid.shape[dim - 1])
            for dim, (lo, hi) in enumerate(self.domains, start=1)
        ]
        #: Per dim: strides to convert a linear rank to grid coordinates
        #: (row-major, first dimension slowest — matches the shape order
        #: balanced_factorization assigns its largest factors to).
        self._strides: List[int] = []
        acc = 1
        for extent in reversed(grid.shape):
            self._strides.append(acc)
            acc *= extent
        self._strides.reverse()
        self.procs = acc

    def _domain_of(self, program: ScalarProgram, dim: int) -> Tuple[int, int]:
        lo: Optional[int] = None
        hi: Optional[int] = None
        for bounds, _kind in self.allocs.values():
            if len(bounds) >= dim:
                blo, bhi = bounds[dim - 1]
                lo = blo if lo is None else min(lo, blo)
                hi = bhi if hi is None else max(hi, bhi)
        if lo is None:
            # No allocated arrays reach this dimension (e.g. a scalar-only
            # program like EP): partition the union of static node regions.
            for nest in program.loop_nests():
                region = nest.region
                if region.rank < dim:
                    continue
                rlo, rhi = region.dims[dim - 1]
                if not set(region.free_variables()) <= set(self.env):
                    continue
                blo = rlo.evaluate(self.env)
                bhi = rhi.evaluate(self.env)
                lo = blo if lo is None else min(lo, blo)
                hi = bhi if hi is None else max(hi, bhi)
        if lo is None:
            raise ShardError(
                "cannot derive a distribution domain for dimension %d" % dim
            )
        return lo, hi

    # -- coordinates -------------------------------------------------------

    def coords_of(self, rank_id: int) -> Tuple[int, ...]:
        return tuple(
            (rank_id // stride) % extent
            for stride, extent in zip(self._strides, self.grid.shape)
        )

    def chunk(self, dim: int, coord: int) -> Tuple[int, int]:
        return self.chunks[dim - 1][coord]

    def _nonempty_coords(self, dim: int) -> List[int]:
        return [
            c for c, (lo, hi) in enumerate(self.chunks[dim - 1]) if lo <= hi
        ]

    def boundaries(self, dim: int) -> List[int]:
        """Global indices ``B`` with an internal boundary after ``B``."""
        coords = self._nonempty_coords(dim)
        return [self.chunks[dim - 1][c][1] for c in coords[:-1]]

    def owner_slab(self, dim: int, coord: int) -> Tuple[int, int]:
        """The chunk extended to ±inf at the grid edges (halo ownership)."""
        lo, hi = self.chunks[dim - 1][coord]
        if lo > hi:
            return lo, hi
        coords = self._nonempty_coords(dim)
        if coord == coords[0]:
            lo = -(1 << 60)
        if coord == coords[-1]:
            hi = 1 << 60
        return lo, hi

    def owner_of(self, dim: int, index: int) -> int:
        for coord in self._nonempty_coords(dim):
            lo, hi = self.owner_slab(dim, coord)
            if lo <= index <= hi:
                return coord
        raise ShardError("index %d unowned along dim %d" % (index, dim))

    # -- per-worker boxes --------------------------------------------------

    def owned_box(self, rank_id: int, bounds: Bounds) -> Optional[Bounds]:
        """``bounds`` ∩ this worker's ownership, or None when empty."""
        coords = self.coords_of(rank_id)
        out: List[Tuple[int, int]] = []
        for dim, (lo, hi) in enumerate(bounds, start=1):
            if dim <= self.rank:
                slo, shi = self.owner_slab(dim, coords[dim - 1])
                lo, hi = max(lo, slo), min(hi, shi)
            if lo > hi:
                return None
            out.append((lo, hi))
        return tuple(out)

    def local_alloc(self, rank_id: int, array: str) -> Bounds:
        """The bounds of this worker's persistent copy of ``array``."""
        bounds, _kind = self.allocs[array]
        halo = self.halos[array]
        coords = self.coords_of(rank_id)
        out: List[Tuple[int, int]] = []
        for dim, (alo, ahi) in enumerate(bounds, start=1):
            if dim > self.rank or not self.grid.is_cut(dim):
                out.append((alo, ahi))
                continue
            slo, shi = self.owner_slab(dim, coords[dim - 1])
            if slo > shi:
                out.append((alo, alo - 1))
                continue
            h = halo[dim - 1] if dim - 1 < len(halo) else 0
            out.append((max(alo, slo - h), min(ahi, shi + h)))
        return tuple(out)

    def clamp(self, rank_id: int, bounds: Bounds) -> Optional[Bounds]:
        """``bounds`` ∩ this worker's raw chunks (compute clamp)."""
        coords = self.coords_of(rank_id)
        out: List[Tuple[int, int]] = []
        for dim, (lo, hi) in enumerate(bounds, start=1):
            if dim <= self.rank and self.grid.is_cut(dim):
                clo, chi = self.chunk(dim, coords[dim - 1])
                lo, hi = max(lo, clo), min(hi, chi)
            if lo > hi:
                return None
            out.append((lo, hi))
        return tuple(out)


# -- exchange planning -----------------------------------------------------


class PlannedCopy:
    """One contiguous global box of one event crossing one boundary."""

    __slots__ = ("array", "box", "offset_bytes", "model_bytes", "corner_bytes")

    def __init__(self, array: str, box: Bounds, offset_bytes: int,
                 model_bytes: int, corner_bytes: int) -> None:
        self.array = array
        self.box = box
        self.offset_bytes = offset_bytes
        self.model_bytes = model_bytes
        self.corner_bytes = corner_bytes

    @property
    def elements(self) -> int:
        count = 1
        for lo, hi in self.box:
            count *= hi - lo + 1
        return count

    @property
    def bytes(self) -> int:
        return self.elements * ELEM_BYTES


class PlannedEvent:
    """One CommEvent realized as boxes (one per crossed boundary).

    ``clipped`` marks the one sanctioned divergence from the analytic
    price: the consuming region is narrower along the exchanged
    dimension than the event width, so the wire strip is smaller than
    the ``width × perpendicular`` block ``CommEvent.bytes`` charges.
    """

    __slots__ = ("event", "copies", "clipped")

    def __init__(self, event: CommEvent, copies: List[PlannedCopy],
                 clipped: bool = False) -> None:
        self.event = event
        self.copies = copies
        self.clipped = clipped

    @property
    def bytes(self) -> int:
        return sum(copy.bytes for copy in self.copies)

    @property
    def model_bytes(self) -> int:
        return sum(copy.model_bytes for copy in self.copies)

    @property
    def corner_bytes(self) -> int:
        return sum(copy.corner_bytes for copy in self.copies)


class PlannedMessage:
    """One wire message: every event it carries shares one shm write."""

    __slots__ = ("index", "events", "post_point", "wait_point", "size_bytes")

    def __init__(self, index: int, events: List[PlannedEvent],
                 post_point: int, wait_point: int) -> None:
        self.index = index
        self.events = events
        self.post_point = post_point
        self.wait_point = wait_point
        self.size_bytes = sum(pe.bytes for pe in events)

    @property
    def model_bytes(self) -> int:
        return sum(pe.model_bytes for pe in self.events)

    @property
    def corner_bytes(self) -> int:
        return sum(pe.corner_bytes for pe in self.events)

    @property
    def arrays(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for pe in self.events:
            if pe.event.array not in seen:
                seen.append(pe.event.array)
        return tuple(seen)


class RunPlan(NamedTuple):
    """The executable exchange schedule for one run of nests."""

    messages: List[PlannedMessage]
    segment_bytes: int
    eliminated: int
    combined: int
    fallback_indices: Tuple[int, ...]


def _consumer_box(
    event: CommEvent,
    bounds: Bounds,
    spans: Sequence[Tuple[int, int]],
    alloc_bounds: Bounds,
    boundary: int,
) -> Optional[Bounds]:
    """One consumer's needed strip box at one chunk boundary, or None."""
    d, s, w = event.dim, event.direction, event.width
    window = (
        (boundary + 1, boundary + w) if s > 0 else (boundary - w + 1, boundary)
    )
    box: List[Tuple[int, int]] = []
    for dim, (rlo, rhi) in enumerate(bounds, start=1):
        alo, ahi = alloc_bounds[dim - 1]
        if dim == d:
            lo = max(rlo + s * w, window[0], alo)
            hi = min(rhi + s * w, window[1], ahi)
        else:
            mn, mx = spans[dim - 1]
            lo = max(rlo + mn, alo)
            hi = min(rhi + mx, ahi)
        if lo > hi:
            return None
        box.append((lo, hi))
    return tuple(box)


def _event_copies(
    consumers: Sequence[Tuple[Bounds, Sequence[Tuple[int, int]]]],
    event: CommEvent,
    layout: ShardLayout,
    offset_bytes: int,
) -> Tuple[List[PlannedCopy], int, bool]:
    """The strip boxes for one event, with slot offsets assigned.

    ``consumers`` is the kept event's own (nest bounds, spans) first,
    followed by those of every later event redundancy elimination
    satisfied with this one.  The wire box at each boundary is the
    bounding union of all consumer strips — an eliminated consumer may
    read a *wider* strip (diagonal stencils) than the event it leans on,
    and skipping its exchange is only sound if this one carries the
    union.  Model bytes price the primary consumer's strip alone (what
    :func:`repro.parallel.comm.analyze_run` predicts); the widening
    lands in ``corner_bytes``.
    """
    alloc_bounds, _kind = layout.allocs[event.array]
    d = event.dim
    primary_bounds = consumers[0][0]
    model_perp = 1
    for dim, (lo, hi) in enumerate(primary_bounds, start=1):
        if dim != d:
            model_perp *= max(0, hi - lo + 1)
    copies: List[PlannedCopy] = []
    clipped = False
    for B in layout.boundaries(d):
        boxes = [
            _consumer_box(event, bounds, spans, alloc_bounds, B)
            for bounds, spans in consumers
        ]
        live = [box for box in boxes if box is not None]
        if not live:
            continue
        box = tuple(
            (min(b[dim][0] for b in live), max(b[dim][1] for b in live))
            for dim in range(len(live[0]))
        )
        primary = boxes[0]
        if primary is not None:
            strip_extent = primary[d - 1][1] - primary[d - 1][0] + 1
            model = ELEM_BYTES * strip_extent * model_perp
            if strip_extent < event.width:
                clipped = True
        else:
            model = 0
            clipped = True
        copy = PlannedCopy(event.array, box, offset_bytes, model, 0)
        copy.corner_bytes = copy.bytes - model
        offset_bytes += copy.bytes
        copies.append(copy)
    return copies, offset_bytes, clipped


def plan_run(
    run: Sequence[LoopNest],
    layout: ShardLayout,
    env: Mapping[str, int],
    options: CommOptions,
    fallback_indices: Sequence[int] = (),
) -> RunPlan:
    """Turn one run's event stream into an executable exchange schedule.

    ``fallback_indices`` are positions of nests executed whole on rank 0
    (gather/scatter): their events are satisfied by the gather, so the
    schedule excludes them — the validation harness reports them
    separately rather than pretending they were border strips.
    """
    skip = set(fallback_indices)
    events = [
        event
        for event in analyze_run(run, layout.grid, env, set(layout.allocs))
        if event.nest_index not in skip
    ]
    scheduled = schedule(events, run, options)
    messages: List[PlannedMessage] = []
    segment_bytes = 0
    for index, message in enumerate(scheduled):
        planned_events: List[PlannedEvent] = []
        for event, covered in zip(message.events, message.covered):
            consumers = [
                (tuple(run[c.nest_index].region.concrete_bounds(env)), c.spans)
                for c in (event,) + covered
            ]
            copies, segment_bytes, clipped = _event_copies(
                consumers, event, layout, segment_bytes
            )
            planned_events.append(PlannedEvent(event, copies, clipped))
        messages.append(
            PlannedMessage(index, planned_events, message.post, message.wait)
        )
    return RunPlan(
        messages,
        segment_bytes,
        sum(len(covered) for m in scheduled for covered in m.covered),
        sum(len(m.events) - 1 for m in scheduled),
        tuple(fallback_indices),
    )


# -- clamp-safety analysis -------------------------------------------------


def nest_fallback_reason(node: LoopNest, layout: ShardLayout,
                         partial: Mapping[str, Tuple[int, int]]) -> Optional[str]:
    """Why a nest cannot execute clamped to worker chunks, or None.

    The rank class of the nest's partition plan for the dimensions
    ``layout`` cuts (:meth:`repro.scalarize.loopnest.PartitionPlan.
    rank_class`, where the argument lives): a *gathered* nest — today
    executed whole on rank 0 — comes with its reason, a *clamped* one
    with ``None``.
    """
    _mode, reason = partition_plan(node, partial).rank_class(
        layout.grid.cut_dimensions()
    )
    return reason
