"""The tile-parallel execution engine and its code generator.

The ``np-par`` backend executes each fusible cluster tile by tile
instead of as one whole-region slice operation.  Legality is the nest's
partition plan (:func:`repro.scalarize.loopnest.partition_plan`, where
the argument from the carry analysis is stated once): tiles along its
free dimensions may execute in any order — or concurrently — as long as
a barrier separates consecutive iterations of the serial (carried)
loops, and :meth:`~repro.scalarize.loopnest.PartitionPlan.thread_class`
says whether one kernel may sweep all statements, each statement needs
its own sweep, or the nest stays serial.  :mod:`repro.parallel.tiling`
lays the tiles out with the same :func:`~repro.parallel.distribution.
balanced_factorization` the block-distribution model uses for processor
grids.

Two pieces live here:

:class:`ParNumpyGenerator`
    Subclasses the vectorizing generator.  Nests whose thread class allows
    it are emitted as *kernels* — nested functions taking per-dimension
    tile bounds and applying every statement's slice operation to just
    that tile — driven by ``_engine.sweep(kernel, bounds)`` calls.
    Everything else (reductions, fully carried nests, circular buffers)
    inherits the whole-region or element-loop emission unchanged, so the
    serial fallback is bit-identical to the ``np`` backend by
    construction.

:class:`TileEngine`
    Executes sweeps: plans tiles, runs them inline or on a
    ``ThreadPoolExecutor`` (NumPy slice operations release the GIL), and
    joins every tile before returning — the inter-sweep barrier the
    safety argument requires.  Workers operate on slice-views of the
    shared arrays, so halo reads (constant-offset references reaching
    into neighbor tiles) need no copies: the thread class guarantees no
    sweep both writes an array and reads it across a tile boundary.
    The one exception — a statement that reads *its own target* at a
    non-zero offset along a free dimension — gets a read snapshot
    (:meth:`TileEngine.snapshot`), reproducing NumPy's buffer-the-whole-
    RHS-then-assign semantics under tiling.

Even on one processor the tile engine pays off: a fused cluster executed
tile at a time keeps every statement's working set cache-resident,
instead of streaming each array through memory once per statement the
way whole-region slices do.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.parallel.tiling import TileShape, parse_tile_shape, plan_tiles
from repro.scalarize.codegen_np import NumpyGenerator, _VectorContext
from repro.scalarize.emit_common import bound_text
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ScalarProgram,
    loop_variable,
    partition_plan,
)

ENV_WORKERS = "REPRO_WORKERS"
ENV_TILE_SHAPE = "REPRO_TILE_SHAPE"


class TileEngine:
    """Runs tile sweeps on a (lazily created) worker pool.

    ``workers=1`` executes tiles inline on the calling thread — same
    tiles, same order, zero threading machinery — which is what makes
    the single-worker oracle tests bit-for-bit trivial.  ``metrics``
    (a :class:`repro.service.metrics.Metrics`) additionally receives
    ``par.sweeps`` / ``par.tiles`` / ``par.serial_nests`` /
    ``par.snapshots`` counters; the same counts are always kept as plain
    attributes for engine-local inspection.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        tile_shape: TileShape = None,
        metrics=None,
        tracer=None,
    ) -> None:
        if workers is None:
            workers = default_workers()
        self.workers = max(int(workers), 1)
        if tile_shape is None:
            tile_shape = default_tile_shape()
        self.tile_shape = (
            tuple(tile_shape)
            if isinstance(tile_shape, (list, tuple))
            else tile_shape
        )
        self.metrics = metrics
        #: Optional :class:`repro.obs.Tracer`.  The untraced sweep path
        #: pays exactly one ``is not None and .enabled`` branch.
        self.tracer = tracer
        self.sweeps = 0
        self.tiles_executed = 0
        self.serial_nests = 0
        self.snapshots = 0
        self._pool = None
        self._lock = threading.Lock()

    # -- runtime hooks (called by generated code) --------------------------

    def sweep(
        self, kernel, bounds: Sequence[Tuple[int, int]]
    ) -> None:
        """Run ``kernel`` over every tile of ``bounds``; barrier at exit."""
        tiles = plan_tiles(tuple(bounds), self.workers, self.tile_shape)
        self.sweeps += 1
        self.tiles_executed += len(tiles)
        if self.metrics is not None:
            self.metrics.incr("par.sweeps")
            self.metrics.incr("par.tiles", len(tiles))
        if not tiles:
            return
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            self._traced_sweep(tracer, kernel, tiles)
            return
        if self.workers == 1 or len(tiles) == 1:
            for tile in tiles:
                kernel(*[bound for pair in tile for bound in pair])
            return
        pool = self._executor()
        futures = [
            pool.submit(kernel, *[bound for pair in tile for bound in pair])
            for tile in tiles
        ]
        for future in futures:
            future.result()

    def _traced_sweep(self, tracer, kernel, tiles) -> None:
        """The sweep with a ``par.sweep`` span and one ``par.tile`` per
        tile.  Pool tiles run on worker threads but attach to the sweep
        span via an explicit parent handle, so the trace keeps both the
        logical nesting and the per-worker thread ids."""
        with tracer.span(
            "par.sweep",
            cluster=kernel.__name__,
            tiles=len(tiles),
            workers=self.workers,
        ) as sweep_span:
            if self.workers == 1 or len(tiles) == 1:
                for index, tile in enumerate(tiles):
                    with tracer.span("par.tile", tile=index):
                        kernel(*[bound for pair in tile for bound in pair])
                return
            pool = self._executor()
            futures = [
                pool.submit(
                    self._traced_tile, tracer, sweep_span, kernel, index, tile
                )
                for index, tile in enumerate(tiles)
            ]
            for future in futures:
                future.result()

    @staticmethod
    def _traced_tile(tracer, parent, kernel, index, tile) -> None:
        with tracer.span("par.tile", parent=parent, tile=index):
            kernel(*[bound for pair in tile for bound in pair])

    def note_serial(self) -> None:
        """Record one serial-fallback nest execution."""
        self.serial_nests += 1
        if self.metrics is not None:
            self.metrics.incr("par.serial_nests")

    def snapshot(self, array):
        """A read copy of ``array`` for self-hazard statements."""
        self.snapshots += 1
        if self.metrics is not None:
            self.metrics.incr("par.snapshots")
        return array.copy()

    # -- pool management ---------------------------------------------------

    def _executor(self):
        with self._lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-tile",
                )
            return self._pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "TileEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return "TileEngine(workers=%d, tile_shape=%r)" % (
            self.workers,
            self.tile_shape,
        )


def default_workers() -> int:
    """Worker count from ``$REPRO_WORKERS``, else the processor count."""
    raw = os.environ.get(ENV_WORKERS)
    if raw:
        try:
            return max(int(raw), 1)
        except ValueError:
            pass
    return os.cpu_count() or 1


def default_tile_shape() -> TileShape:
    """Forced tile shape from ``$REPRO_TILE_SHAPE`` (``N`` or ``NxM``).

    Unset, empty, or unparsable values mean the heuristic layout.
    """
    raw = os.environ.get(ENV_TILE_SHAPE)
    if not raw:
        return None
    try:
        return parse_tile_shape(raw)
    except Exception:
        return None


#: Shared engines per (worker count, tile shape), so bare ``run()``
#: calls (no engine passed) reuse one pool instead of leaking executor
#: threads per run.
_DEFAULT_ENGINES: Dict[tuple, TileEngine] = {}
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> TileEngine:
    """The process-wide engine for the current default configuration."""
    workers = default_workers()
    key = (workers, default_tile_shape())
    with _DEFAULT_LOCK:
        engine = _DEFAULT_ENGINES.get(key)
        if engine is None:
            engine = _DEFAULT_ENGINES[key] = TileEngine(
                workers=workers, tile_shape=key[1]
            )
        return engine


class ParNumpyGenerator(NumpyGenerator):
    """Emits tile kernels plus ``_engine.sweep`` calls per shardable nest."""

    def __init__(self, program: ScalarProgram) -> None:
        super().__init__(program)
        self._kernel_id = 0
        #: Array name -> snapshot variable, applied to RHS reads only
        #: while rendering a self-hazard statement's kernel body.
        self._read_alias: Dict[str, str] = {}

    def render(self) -> str:
        self._kernel_id = 0
        self._read_alias = {}
        return super().render()

    def _preamble(self) -> List[str]:
        return [
            "import math",
            "import numpy as np",
            "",
            "from repro.parallel.engine import default_engine",
            "from repro.util.errors import InterpError",
            "",
            "def run(_arrays, _scalars, _engine=None):",
            "    if _engine is None:",
            "        _engine = default_engine()",
        ]

    # -- nest emission -----------------------------------------------------

    def _emit_nest(self, nest: LoopNest, depth: int) -> None:
        plan = partition_plan(nest, self._program.partial)
        threads = plan.thread_class()
        if threads.mode == "serial":
            # Inherit the np backend's emission (vectorized or element
            # loops) so serial fallbacks stay bit-identical to it.
            self._emit("_engine.note_serial()", depth)
            super()._emit_nest(nest, depth)
            return
        ctx = _VectorContext(nest.region, plan.free)
        inner = self._emit_loop_headers(nest.region, plan.serial_levels, depth)
        emptiness = self._region_emptiness(ctx)
        if emptiness == "empty":
            if plan.serial_levels:
                self._emit("pass", inner)
            return
        tile_ctx = self._tile_context(nest.region, plan.free)
        if threads.mode == "per-statement":
            for index, stmt in enumerate(nest.body):
                self._emit_tile_sweep(
                    nest,
                    [stmt],
                    tile_ctx,
                    inner,
                    snapshot=index in threads.snapshots,
                )
        else:
            self._emit_tile_sweep(nest, nest.body, tile_ctx, inner)
            self._emit_corner_restore(nest, ctx, inner, emptiness)

    @staticmethod
    def _tile_context(region: Region, vdims: Sequence[int]) -> _VectorContext:
        """The vector context over a tile's (symbolic) bounds.

        Shardable dimensions get the kernel's bound parameters as their
        region bounds, so all inherited slice/shape rendering applies to
        the tile exactly as it would to the whole region.
        """
        dims = list(region.dims)
        for dim in vdims:
            dims[dim - 1] = (
                LinearExpr.variable("_t%dlo" % dim),
                LinearExpr.variable("_t%dhi" % dim),
            )
        return _VectorContext(Region(dims), vdims)

    def _emit_tile_sweep(
        self,
        nest: LoopNest,
        stmts: Sequence[ElemAssign],
        tile_ctx: _VectorContext,
        depth: int,
        snapshot: bool = False,
    ) -> None:
        kernel = "_k%d" % self._kernel_id
        self._kernel_id += 1
        alias: Dict[str, str] = {}
        if snapshot:
            snap = "_snap%s" % kernel[2:]
            self._emit(
                "%s = _engine.snapshot(%s)" % (snap, stmts[0].target), depth
            )
            alias[stmts[0].target] = snap
        params = []
        for dim in tile_ctx.vdims:
            params.append("_t%dlo" % dim)
            params.append("_t%dhi" % dim)
        # Contraction scalars become kernel locals; a default-parameter
        # binding keeps any read that precedes the first assignment (and
        # the corner restore's starting value) at the outer scalar.
        for stmt in stmts:
            if stmt.reduce_op is None and stmt.is_contracted:
                binding = "%s=%s" % (stmt.scalar_target, stmt.scalar_target)
                if binding not in params:
                    params.append(binding)
        self._emit("def %s(%s):" % (kernel, ", ".join(params)), depth)
        self._read_alias = alias
        try:
            for stmt in stmts:
                self._emit_vector_stmt(stmt, nest, tile_ctx, depth + 1)
        finally:
            self._read_alias = {}
        bounds = ", ".join(
            "(%s, %s)" % (bound_text(lo), bound_text(hi))
            for lo, hi in (
                nest.region.dims[dim - 1] for dim in tile_ctx.vdims
            )
        )
        self._emit("_engine.sweep(%s, (%s,))" % (kernel, bounds), depth)

    def _emit_corner_restore(
        self, nest: LoopNest, ctx: _VectorContext, depth: int, emptiness: str
    ) -> None:
        """Recompute contraction scalars at the nest's final index point.

        The kernels' scalar materializations are kernel-local, so after
        the sweep the outer scalar is re-evaluated element-wise at the
        corner — the value serial execution would have left behind
        (the thread class is serial when a later statement overwrites an
        array these right-hand sides read).
        """
        contracted = [
            stmt
            for stmt in nest.body
            if stmt.reduce_op is None and stmt.is_contracted
        ]
        if not contracted:
            return
        if emptiness == "unknown":
            cond = self._nonempty_cond(ctx)
            if cond:
                self._emit("if %s:" % cond, depth)
                depth += 1
        for dim in ctx.vdims:
            lo, hi = nest.region.dims[dim - 1]
            final = hi if self._dim_direction(nest, dim) > 0 else lo
            self._emit(
                "%s = %s" % (loop_variable(dim), bound_text(final)), depth
            )
        for stmt in contracted:
            self._emit(
                "%s = %s" % (stmt.scalar_target, self._expr(stmt.rhs)), depth
            )

    # -- expression rendering ----------------------------------------------

    def _vexpr(self, expr: ir.IRExpr, ctx: _VectorContext) -> str:
        if isinstance(expr, ir.ArrayRef) and expr.name in self._read_alias:
            text = self._vector_element(expr.name, expr.offset, ctx)
            return self._read_alias[expr.name] + text[len(expr.name) :]
        return super()._vexpr(expr, ctx)


def render_numpy_par(program: ScalarProgram) -> str:
    """Render a scalarized program as tile-parallel NumPy source."""
    return ParNumpyGenerator(program).render()
