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

A plan is immutable values, built once where it is decided:
:func:`plan_run` turns each scheduled message into a
:class:`PlannedMessage` — its :class:`Exchange` (what it carries, one
:class:`EventPlan` per event with every byte count a report shows) and
its ``(array, box, offset)`` copies — and ``mp-shard`` executes, interns
and reports those same values.  The box algebra both sides need
(:func:`box_elements`, :func:`box_shape`, :func:`box_index`,
:func:`box_intersect`) is written here once.

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

from repro.parallel.comm import ELEM_BYTES, CommEvent, analyze_run
from repro.parallel.commopt import CommOptions, schedule
from repro.parallel.distribution import ProcessorGrid, block_chunks
from repro.scalarize.loopnest import LoopNest, ScalarProgram, partition_plan
from repro.util.errors import ReproError

Bounds = Tuple[Tuple[int, int], ...]


def box_elements(box: Bounds) -> int:
    """Elements in ``box`` (0 when it is empty along any dimension)."""
    count = 1
    for lo, hi in box:
        count *= max(0, hi - lo + 1)
    return count


def box_shape(box: Bounds) -> Tuple[int, ...]:
    """The NumPy shape of an array allocated over ``box``."""
    return tuple(max(hi - lo + 1, 1) for lo, hi in box)


def box_index(alloc: Bounds, box: Bounds) -> Tuple[slice, ...]:
    """NumPy index of ``box`` inside an array allocated over ``alloc``."""
    return tuple(
        slice(blo - alo, bhi - alo + 1)
        for (alo, _ahi), (blo, bhi) in zip(alloc, box)
    )


def box_intersect(a: Bounds, b: Bounds) -> Optional[Bounds]:
    """``a`` ∩ ``b``, or None when they do not meet."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


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
        return box_intersect(bounds, tuple(
            self.owner_slab(dim, coords[dim - 1]) if dim <= self.rank else span
            for dim, span in enumerate(bounds, start=1)
        ))

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
        return box_intersect(bounds, tuple(
            self.chunk(dim, coords[dim - 1])
            if dim <= self.rank and self.grid.is_cut(dim) else span
            for dim, span in enumerate(bounds, start=1)
        ))


# -- exchange planning -----------------------------------------------------


class EventPlan(NamedTuple):
    """One :class:`~repro.parallel.comm.CommEvent` realized across the
    ``pairs`` chunk boundaries it crosses.

    ``clipped`` marks the one sanctioned divergence from the analytic
    price: the consuming region is narrower along the exchanged
    dimension than the event width, so the wire strip is smaller than
    the ``width × perpendicular`` block ``event_bytes`` charges.
    """

    array: str
    dim: int
    direction: int
    width: int
    nest_index: int
    event_bytes: int
    pairs: int
    clipped: bool
    planned_bytes: int
    model_bytes: int
    corner_bytes: int


class Exchange(NamedTuple):
    """What one planned wire message carries.

    A value: a row sweep plans value-equal messages hundreds of times,
    and ``mp-shard`` interns them, so every report of a program refers
    to one object per distinct message.
    """

    arrays: Tuple[str, ...]
    events: Tuple[EventPlan, ...]
    planned_bytes: int
    model_bytes: int
    corner_bytes: int
    post_point: int
    wait_point: int


class PlannedMessage(NamedTuple):
    """One wire message: its position in the run's schedule, what it
    carries, and per crossed boundary one ``(array, box, offset)`` copy —
    a contiguous global box laid out at ``offset`` bytes of the run's
    segment.  Every copy of a message shares one segment write."""

    index: int
    exchange: Exchange
    copies: Tuple[Tuple[str, Bounds, int], ...]


class RunPlan(NamedTuple):
    """The executable exchange schedule for one run of nests."""

    messages: List[PlannedMessage]
    segment_bytes: int
    eliminated: int
    combined: int


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


def _event_boxes(
    consumers: Sequence[Tuple[Bounds, Sequence[Tuple[int, int]]]],
    event: CommEvent,
    layout: ShardLayout,
) -> Tuple[List[Bounds], int, bool]:
    """The strip boxes for one event, their model bytes, and ``clipped``.

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
    boxes: List[Bounds] = []
    model = 0
    clipped = False
    for B in layout.boundaries(d):
        found = [
            _consumer_box(event, bounds, spans, alloc_bounds, B)
            for bounds, spans in consumers
        ]
        live = [box for box in found if box is not None]
        if not live:
            continue
        boxes.append(tuple(
            (min(b[dim][0] for b in live), max(b[dim][1] for b in live))
            for dim in range(len(live[0]))
        ))
        primary = found[0]
        if primary is not None:
            strip_extent = primary[d - 1][1] - primary[d - 1][0] + 1
            model += ELEM_BYTES * strip_extent * model_perp
            if strip_extent < event.width:
                clipped = True
        else:
            clipped = True
    return boxes, model, clipped


def plan_run(
    run: Sequence[LoopNest],
    layout: ShardLayout,
    env: Mapping[str, int],
    options: CommOptions,
    gathered: Sequence[int] = (),
) -> RunPlan:
    """Turn one run's event stream into an executable exchange schedule.

    ``gathered`` are positions of nests executed whole on rank 0
    (gather/scatter): their events are satisfied by the gather, so the
    schedule excludes them — the validation harness reports them
    separately rather than pretending they were border strips.
    """
    skip = set(gathered)
    events = [
        event
        for event in analyze_run(run, layout.grid, env, set(layout.allocs))
        if event.nest_index not in skip
    ]
    scheduled = schedule(events, run, options)
    messages: List[PlannedMessage] = []
    segment_bytes = 0
    for index, message in enumerate(scheduled):
        plans: List[EventPlan] = []
        copies: List[Tuple[str, Bounds, int]] = []
        for event, covered in zip(message.events, message.covered):
            consumers = [
                (tuple(run[c.nest_index].region.concrete_bounds(env)), c.spans)
                for c in (event,) + covered
            ]
            boxes, model, clipped = _event_boxes(consumers, event, layout)
            planned = 0
            for box in boxes:
                copies.append((event.array, box, segment_bytes + planned))
                planned += box_elements(box) * ELEM_BYTES
            segment_bytes += planned
            plans.append(EventPlan(
                event.array, event.dim, event.direction, event.width,
                event.nest_index, event.bytes, len(boxes), clipped, planned,
                model, planned - model,
            ))
        exchange = Exchange(
            tuple(dict.fromkeys(plan.array for plan in plans)),
            tuple(plans),
            sum(plan.planned_bytes for plan in plans),
            sum(plan.model_bytes for plan in plans),
            sum(plan.corner_bytes for plan in plans),
            message.post,
            message.wait,
        )
        messages.append(PlannedMessage(index, exchange, tuple(copies)))
    return RunPlan(
        messages,
        segment_bytes,
        sum(len(covered) for m in scheduled for covered in m.covered),
        sum(len(m.events) - 1 for m in scheduled),
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
