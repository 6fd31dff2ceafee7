"""The tuning search space and its cost-model prior.

A *plan* is everything the serving layer may vary without changing
program semantics: the optimization level (how aggressively to fuse and
contract), the execution backend, and — for the tile-parallel backend —
the worker count and forced tile shape.  Enumerating the full cross
product is cheap; *measuring* it is not, so every candidate is first
ranked by a closed-form instance of the analytic machine model
(:mod:`repro.machine.cost`) and only the best-ranked few are measured.

The prior reuses the model's ingredients directly: per-point operation
counts from :func:`repro.machine.cost._expr_costs` over the program's
:class:`~repro.machine.trace.MemoryLayout`, the host machine's cycle
parameters (:func:`repro.machine.models.host_machine_model`), and — for
tiled execution — the real tile layout from
:func:`repro.parallel.tiling.plan_tiles` with halo traffic accounted the
same way :func:`repro.parallel.comm.analyze_run` counts border-exchange
strips.  The full trace-driven simulator stays reserved for paper-scale
runs: a prior must rank hundreds of candidates in milliseconds, not
replay millions of addresses per candidate.

What the prior captures (the ratios that decide rankings, not absolute
times):

* vectorized backends beat interpreted ones by a per-point dispatch
  overhead term;
* statement-at-a-time whole-region execution streams every operand
  through memory once per statement, while tile-at-a-time execution of
  a fused cluster pays main-memory traffic roughly once per *array* as
  long as a tile's working set fits the last-level cache;
* parallel sweeps divide by the worker count but pay a per-tile
  dispatch cost and per-tile halo reads, so over-decomposition loses.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.fusion.redundancy import is_cse_scalar
from repro.interp.evalexpr import eval_scalar
from repro.ir.expr import ScalarRef
from repro.machine.cost import _expr_costs
from repro.machine.models import MachineModel, host_machine_model
from repro.machine.trace import MemoryLayout
from repro.parallel.tiling import TileShape, halo_elements, plan_tiles
from repro.scalarize.loopnest import (
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SNode,
    SWhile,
    partition_plan,
)
from repro.util.errors import ReproError

#: Element size assumed by the traffic terms (every array is float64 or
#: a full-width integer in this compiler).
ELEM_BYTES = 8

#: Extra execution cycles per index point, per backend: the price of
#: interpreting (or running Python bytecode for) one element instead of
#: being inside a vectorized slice operation.
PER_POINT_OVERHEAD_CYCLES = {
    "interp": 4000.0,
    "codegen_py": 400.0,
    "codegen_np": 0.0,
    "np-par": 0.0,
    "c": 0.0,
}

#: Fixed per-statement cost of one whole-region NumPy operation
#: (ufunc/slicing overhead), in microseconds.
VECTOR_STMT_OVERHEAD_US = 2.0

#: One host-compiler invocation, amortized: the ``c`` backend pays a
#: cold ``cc`` run (tens of milliseconds) whose shared object is then
#: cached content-addressed, so the prior spreads it over an assumed
#: request volume instead of charging it to a single execution.
NATIVE_COMPILE_US = 80_000.0
NATIVE_COMPILE_AMORTIZATION = 200

#: Estimated trip count for loops whose bounds the prior cannot evaluate
#: statically (runtime-computed scalars, while loops).
UNKNOWN_TRIPS = 4


class Plan(NamedTuple):
    """One candidate serving configuration.

    ``workers`` and ``tile_shape`` only apply to the ``np-par`` backend
    and stay ``None`` elsewhere.  ``tile_shape`` follows
    :data:`repro.parallel.tiling.TileShape`: ``None`` (heuristic), an
    int (per-dimension cap) or a tuple (forced extents).
    """

    level: str
    backend: str
    workers: Optional[int] = None
    tile_shape: TileShape = None

    def describe(self) -> str:
        parts = [self.level, self.backend]
        if self.workers is not None:
            parts.append("w%d" % self.workers)
        if self.tile_shape is not None:
            if isinstance(self.tile_shape, tuple):
                parts.append("t%s" % "x".join(map(str, self.tile_shape)))
            else:
                parts.append("t%d" % self.tile_shape)
        return "/".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "backend": self.backend,
            "workers": self.workers,
            "tile_shape": (
                list(self.tile_shape)
                if isinstance(self.tile_shape, tuple)
                else self.tile_shape
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Plan":
        try:
            tile_shape = data.get("tile_shape")
            if isinstance(tile_shape, list):
                tile_shape = tuple(int(extent) for extent in tile_shape)
            workers = data.get("workers")
            return cls(
                level=str(data["level"]),
                backend=str(data["backend"]),
                workers=None if workers is None else int(workers),
                tile_shape=tile_shape,
            )
        except (KeyError, TypeError, ValueError):
            raise ReproError("malformed plan record %r" % (data,))


def default_plan(level: str = "c2", backend: str = "codegen_np") -> Plan:
    """The hard-coded plan the serving layer runs without tuning."""
    return Plan(level=level, backend=backend)


class PlanSpace(NamedTuple):
    """The candidate axes the tuner crosses.

    ``tile_shapes`` may contain ``None`` (the heuristic layout), ints
    and tuples; tuples whose rank disagrees with a program's sweeps are
    dropped at prediction time.
    """

    levels: Tuple[str, ...]
    backends: Tuple[str, ...]
    worker_counts: Tuple[int, ...]
    tile_shapes: Tuple[TileShape, ...]


def _default_worker_counts(max_workers: Optional[int] = None) -> Tuple[int, ...]:
    limit = max_workers or os.cpu_count() or 1
    counts = []
    w = 1
    while w < limit:
        counts.append(w)
        w *= 2
    counts.append(limit)
    return tuple(dict.fromkeys(counts))


def default_space(
    level: str = "c2",
    backend: str = "codegen_np",
    max_workers: Optional[int] = None,
) -> PlanSpace:
    """The default search space around a service's configured plan.

    Levels pair the configured level with the paper's most aggressive
    fusion configuration; backends cover the three generated-code
    engines (the interpreter is never worth measuring); worker counts
    are powers of two up to the processor count; tile shapes mix the
    heuristic layout with square per-dimension caps (always rank-safe).
    Row-band shapes tailored to the program's sweeps are added by
    :func:`tile_shapes_for`.
    """
    from repro.exec.native import cc_available

    levels = tuple(dict.fromkeys([level, "c2+f4", "c2+f4+cse"]))
    candidates = [backend, "codegen_np", "np-par", "codegen_py"]
    # The native backend joins the space only on machines that can
    # actually compile it; degraded hosts never see it as a candidate.
    if cc_available():
        candidates.append("c")
    elif backend == "c":
        candidates[0] = "codegen_np"
    backends = tuple(dict.fromkeys(candidates))
    return PlanSpace(
        levels=levels,
        backends=backends,
        worker_counts=_default_worker_counts(max_workers),
        tile_shapes=(None, 32, 64, 128),
    )


def tile_shapes_for(
    program: ScalarProgram, base: Sequence[TileShape] = (None, 32, 64, 128)
) -> Tuple[TileShape, ...]:
    """Extend ``base`` with row-band shapes matched to the program.

    When every parallel sweep has the same rank and statically known
    bounds, a band over the leading (slowest-varying) dimension with the
    remaining dimensions left whole keeps tiles contiguous in memory —
    the layout that wins on long fused pipelines.  Programs with mixed
    sweep ranks only get the rank-safe entries of ``base``.
    """
    shapes: List[TileShape] = list(base)
    sweeps: List[Tuple[int, ...]] = []
    try:
        for nest in program.loop_nests():
            plan = partition_plan(nest, program.partial)
            if plan.thread_class().mode == "serial":
                continue
            bounds = nest.region.concrete_bounds({})
            sweeps.append(
                tuple(
                    bounds[dim - 1][1] - bounds[dim - 1][0] + 1
                    for dim in plan.free
                )
            )
    except Exception:
        return tuple(dict.fromkeys(shapes))
    ranks = {len(extents) for extents in sweeps}
    if len(ranks) == 1 and ranks == {max(ranks)} and max(ranks) >= 2:
        rank = ranks.pop()
        tails = tuple(
            max(extents[dim] for extents in sweeps) for dim in range(1, rank)
        )
        for rows in (16, 32, 64):
            shapes.append((rows,) + tails)
    return tuple(dict.fromkeys(shapes))


def enumerate_plans(
    space: PlanSpace, program: Optional[ScalarProgram] = None
) -> List[Plan]:
    """Every candidate plan in the space, serial backends first.

    Serial backends contribute one plan per level; ``np-par``
    contributes the cross product of worker counts and tile shapes.
    """
    plans: List[Plan] = []
    tile_shapes: Iterable[TileShape] = space.tile_shapes
    if program is not None:
        tile_shapes = tile_shapes_for(program, space.tile_shapes)
    for level in space.levels:
        for backend in space.backends:
            if backend == "np-par":
                for workers in space.worker_counts:
                    for tile_shape in tile_shapes:
                        plans.append(Plan(level, backend, workers, tile_shape))
            else:
                plans.append(Plan(level, backend))
    return list(dict.fromkeys(plans))


# -- the cost prior ----------------------------------------------------------


class _NestProfile(NamedTuple):
    """Static facts about one loop nest the prior prices repeatedly."""

    points: float
    compute_cycles: float
    ref_slots: float  # per-point loads+stores summed over statements
    cse_slots: float  # per-point defs+uses of redundancy-elimination scalars
    distinct_arrays: int
    statements: int
    parallel: bool
    sweep_bounds: Optional[Tuple[Tuple[int, int], ...]]
    serial_iterations: float
    halo: Tuple[int, ...]


def _line_fraction(machine: MachineModel) -> float:
    line = machine.caches[-1].line if machine.caches else 64
    return ELEM_BYTES / float(line)


def _safe_trips(node: SeqLoop) -> float:
    try:
        lo = int(eval_scalar(node.lo, {}))
        hi = int(eval_scalar(node.hi, {}))
    except Exception:
        return float(UNKNOWN_TRIPS)
    return float(max(0, (lo - hi if node.downto else hi - lo) + 1))


def _collect_profiles(
    body: Sequence[SNode],
    program: ScalarProgram,
    layout: MemoryLayout,
    factor: float,
    machine: MachineModel,
    out: List[Tuple[_NestProfile, float]],
) -> None:
    for node in body:
        if isinstance(node, LoopNest):
            out.append((_nest_profile(node, program, layout, machine), factor))
        elif isinstance(node, SeqLoop):
            _collect_profiles(
                node.body, program, layout, factor * _safe_trips(node), machine, out
            )
        elif isinstance(node, SIf):
            _collect_profiles(
                node.then_body, program, layout, factor, machine, out
            )
            _collect_profiles(
                node.else_body, program, layout, factor, machine, out
            )
        elif isinstance(node, SWhile):
            _collect_profiles(
                node.body, program, layout, factor * UNKNOWN_TRIPS, machine, out
            )
        elif isinstance(node, (SBoundary, ScalarAssign)):
            continue  # negligible next to the loop nests


def _points(bounds: Sequence[Tuple[int, int]]) -> float:
    total = 1.0
    for lo, hi in bounds:
        total *= max(0, hi - lo + 1)
    return total


def _nest_profile(
    nest: LoopNest,
    program: ScalarProgram,
    layout: MemoryLayout,
    machine: MachineModel,
) -> _NestProfile:
    try:
        bounds = nest.region.concrete_bounds({})
    except Exception:
        bounds = tuple((1, UNKNOWN_TRIPS) for _ in range(nest.rank))
    points = _points(bounds)
    compute = 0.0
    ref_slots = 0.0
    cse_slots = 0.0
    for stmt in nest.body:
        piece = _expr_costs(stmt.rhs, layout)
        compute += (
            piece["loads"] * machine.load_hit_cycles
            + piece["flops"] * machine.flop_cycles
            + piece["intrinsics"] * machine.intrinsic_cycles
            + machine.loop_overhead_cycles
        )
        ref_slots += piece["loads"]
        # Redundancy-elimination scalars are loop-local values in the
        # element backends, but the slice backends materialize each one
        # as a region-sized temporary: count its def and every use so
        # the prior can charge that traffic where it is real.
        if stmt.is_contracted and is_cse_scalar(stmt.scalar_target):
            cse_slots += 1.0
        for node in stmt.rhs.walk():
            if isinstance(node, ScalarRef) and is_cse_scalar(node.name):
                cse_slots += 1.0
        if stmt.reduce_op is not None:
            compute += machine.flop_cycles  # the accumulate operation
        elif not stmt.is_contracted:
            compute += machine.store_cycles
            ref_slots += 1
    plan = partition_plan(nest, program.partial)
    threads = plan.thread_class()
    sweep_bounds: Optional[Tuple[Tuple[int, int], ...]] = None
    serial_iterations = 1.0
    halo: Tuple[int, ...] = ()
    if threads.mode != "serial":
        sweep_bounds = tuple(bounds[dim - 1] for dim in plan.free)
        sweep_points = _points(sweep_bounds)
        serial_iterations = points / sweep_points if sweep_points else 1.0
        if threads.mode == "per-statement":
            # Statement-level barriers: each statement is its own sweep.
            serial_iterations *= max(1, len(nest.body))
        halo = tuple(plan.dims[dim - 1].halo for dim in plan.free)
    return _NestProfile(
        points=points,
        compute_cycles=compute * points,
        ref_slots=ref_slots,
        cse_slots=cse_slots,
        distinct_arrays=max(1, len(nest.arrays())),
        statements=len(nest.body),
        parallel=sweep_bounds is not None,
        sweep_bounds=sweep_bounds,
        serial_iterations=serial_iterations,
        halo=halo,
    )


def _profiles(
    program: ScalarProgram, machine: MachineModel
) -> List[Tuple[_NestProfile, float]]:
    layout = MemoryLayout(program)
    out: List[Tuple[_NestProfile, float]] = []
    _collect_profiles(program.body, program, layout, 1.0, machine, out)
    return out


def predict_cost(
    program: ScalarProgram,
    plan: Plan,
    machine: Optional[MachineModel] = None,
    profiles: Optional[List[Tuple[_NestProfile, float]]] = None,
) -> float:
    """Predicted execution time of one plan, in microseconds.

    Raises :class:`~repro.util.errors.MachineError` when the plan is
    infeasible for this program (a forced tuple tile shape whose rank
    disagrees with a sweep) — enumeration uses that as a validity
    filter.  ``profiles`` lets callers amortize the static walk across
    the many plans that share one compiled program.
    """
    machine = machine or host_machine_model()
    if profiles is None:
        profiles = _profiles(program, machine)
    llc = machine.caches[-1]
    line_fraction = _line_fraction(machine)
    overhead_cycles = PER_POINT_OVERHEAD_CYCLES.get(plan.backend, 0.0)
    vectorized = plan.backend in ("codegen_np", "np-par")
    total_us = 0.0
    for profile, factor in profiles:
        cycles = profile.compute_cycles + overhead_cycles * profile.points
        # Hoisted-term scalars ride in registers for the element
        # backends but become region-sized temporaries in the slice
        # backends: the flops a hoist saves are already gone from
        # compute_cycles, so this is the opposing traffic term.
        ref_slots = profile.ref_slots
        if vectorized and profile.cse_slots:
            ref_slots += profile.cse_slots
            cycles += (
                profile.cse_slots * profile.points * machine.load_hit_cycles
            )
        # Whole-region, statement-at-a-time execution streams every
        # operand through memory once per statement.
        stream_bytes = profile.points * ref_slots * ELEM_BYTES
        misses = (
            profile.points * ref_slots * line_fraction
            if stream_bytes > llc.size
            else 0.0
        )
        extra_us = 0.0
        if vectorized:
            extra_us += profile.statements * VECTOR_STMT_OVERHEAD_US
        if plan.backend == "c":
            # Amortized share of the one-time cc invocation (cached
            # cross-process afterwards); spread across the nests so the
            # whole program is charged one compile, not one per nest.
            extra_us += NATIVE_COMPILE_US / (
                NATIVE_COMPILE_AMORTIZATION * max(1, len(profiles))
            )
        us_serial = machine.cycles_to_us(cycles + misses * llc.miss_penalty)
        if (
            plan.backend == "np-par"
            and profile.parallel
            and profile.sweep_bounds is not None
        ):
            workers = plan.workers or 1
            tiles = plan_tiles(profile.sweep_bounds, workers, plan.tile_shape)
            n_tiles = max(1, len(tiles))
            tile_points = _points(tiles[0]) if tiles else profile.points
            tile_bytes = tile_points * profile.distinct_arrays * ELEM_BYTES
            if tile_bytes <= llc.size and stream_bytes > llc.size:
                # Tile-at-a-time over a fused cluster: main-memory
                # traffic collapses to one pass per distinct array.
                misses = (
                    profile.points * profile.distinct_arrays * line_fraction
                )
            halo_us = 0.0
            if tiles and any(profile.halo):
                halo_loads = halo_elements(tiles[0], profile.halo) * n_tiles
                halo_us = machine.cycles_to_us(
                    halo_loads * (machine.load_hit_cycles + line_fraction * llc.miss_penalty)
                )
            us = machine.cycles_to_us(
                (cycles + misses * llc.miss_penalty) / workers
            )
            dispatch_us = (
                n_tiles
                * profile.serial_iterations
                * machine.comm.sw_overhead_us
            )
            total_us += (us + halo_us + dispatch_us + extra_us) * factor
        else:
            total_us += (us_serial + extra_us) * factor
    return total_us


def rank_plans(
    program: ScalarProgram,
    plans: Sequence[Plan],
    machine: Optional[MachineModel] = None,
) -> List[Tuple[Plan, float]]:
    """(plan, predicted microseconds) sorted ascending; infeasible plans
    (tile-shape rank mismatches) are silently dropped."""
    machine = machine or host_machine_model()
    profiles = _profiles(program, machine)
    ranked: List[Tuple[Plan, float]] = []
    for plan in plans:
        try:
            ranked.append(
                (plan, predict_cost(program, plan, machine, profiles))
            )
        except Exception:
            continue
    ranked.sort(key=lambda pair: pair[1])
    return ranked
