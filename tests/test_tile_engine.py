"""The tile-parallel execution engine: layout, safety metadata, oracle.

Four layers of coverage:

* ``plan_tiles`` geometry: exact disjoint cover of the sweep bounds,
  row-major order, forced tile shapes (including extent-1 tiles), empty
  sweeps, the small-sweep single-tile policy.
* ``partition_plan`` thread verdicts: free dimensions come from the
  carry analysis, halo widths equal the border-strip widths
  ``parallel/comm.analyze_run`` accounts bytes for, reductions and fully
  carried nests fall back to serial with a reason.
* The oracle: ``np-par`` must be **bit-identical** (values and dtypes)
  to the whole-region ``np`` backend over the full benchsuite at every
  optimization level for worker counts {1, 2, 4, 7}, under forced
  degenerate tile shapes (extent 1 — narrower than the halos —, huge
  single tiles), and on statically empty regions.
* Hand-built hazard nests: a statement reading its own target across a
  tile boundary gets a read snapshot, reproducing NumPy's
  evaluate-the-whole-RHS-then-assign semantics under tiling.
"""

import numpy as np
import pytest

from repro.benchsuite import ALL_BENCHMARKS
from repro.exec import execute
from repro.fusion import ALL_LEVELS, plan_program
from repro.ir import expr as ir
from repro.ir import normalize_source
from repro.ir.region import Region
from repro.parallel import ProcessorGrid, analyze_run
from repro.parallel.engine import (
    TileEngine,
    default_workers,
    render_numpy_par,
)
from repro.parallel.tiling import (
    MIN_SWEEP_ELEMS,
    halo_elements,
    plan_tiles,
)
from repro.scalarize import scalarize
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ScalarProgram,
    partition_plan,
)
from repro.service.metrics import Metrics
from repro.util.errors import MachineError

WORKER_COUNTS = (1, 2, 4, 7)


def assert_bit_identical(par, np_result, label):
    par_arrays, par_scalars = par
    np_arrays, np_scalars = np_result
    assert set(par_arrays) == set(np_arrays), label
    for name in np_arrays:
        assert par_arrays[name].dtype == np_arrays[name].dtype, (
            "%s: dtype of %s" % (label, name)
        )
        assert np.array_equal(
            par_arrays[name], np_arrays[name], equal_nan=True
        ), "%s: array %s diverged" % (label, name)
    assert set(par_scalars) == set(np_scalars), label
    for name in np_scalars:
        a, b = par_scalars[name], np_scalars[name]
        same = (a == b) or (
            isinstance(a, float) and np.isnan(a) and np.isnan(b)
        )
        assert same, "%s: scalar %s: %r != %r" % (label, name, a, b)


# ---------------------------------------------------------------------------
# tile layout


def _cover(tiles, bounds):
    """Every index point of ``bounds`` appears in exactly one tile."""
    points = set()
    for tile in tiles:
        ranges = [range(lo, hi + 1) for lo, hi in tile]
        tile_points = {(i,) for i in ranges[0]}
        for r in ranges[1:]:
            tile_points = {p + (i,) for p in tile_points for i in r}
        assert not points & tile_points, "tiles overlap"
        points |= tile_points
    expected = set()
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    expected = {(i,) for i in ranges[0]}
    for r in ranges[1:]:
        expected = {p + (i,) for p in expected for i in r}
    assert points == expected


def test_tiles_cover_bounds_exactly():
    bounds = ((1, 10), (3, 9))
    for workers in WORKER_COUNTS:
        _cover(plan_tiles(bounds, workers), bounds)
    for shape in (1, 3, (2, 5), 100):
        _cover(plan_tiles(bounds, 2, shape), bounds)


def test_small_sweep_stays_one_tile():
    # Below the dispatch-overhead floor the whole sweep is one tile.
    bounds = ((1, 10), (1, 10))
    assert 10 * 10 < MIN_SWEEP_ELEMS
    assert plan_tiles(bounds, workers=8) == (bounds,)


def test_large_sweep_oversubscribes_workers():
    side = 1 << 7
    bounds = ((1, side), (1, side))  # 16384 elements = 4 * MIN_SWEEP_ELEMS
    count = len(plan_tiles(bounds, workers=4))
    assert count == 4  # capped by total // MIN_SWEEP_ELEMS
    assert len(plan_tiles(bounds, workers=1)) == 4


def test_forced_tile_shape_and_extent_one_tiles():
    bounds = ((1, 5), (2, 4))
    tiles = plan_tiles(bounds, 2, 1)
    assert len(tiles) == 5 * 3
    assert all(lo == hi for tile in tiles for lo, hi in tile)
    # Row-major: the last dimension varies fastest.
    assert tiles[0] == ((1, 1), (2, 2))
    assert tiles[1] == ((1, 1), (3, 3))
    per_dim = plan_tiles(bounds, 2, (2, 3))
    assert len(per_dim) == 3 * 1
    _cover(per_dim, bounds)


def test_empty_sweep_has_no_tiles():
    assert plan_tiles(((2, 1),), 4) == ()
    assert plan_tiles(((1, 5), (7, 3)), 4, 1) == ()


def test_uneven_extents_split_near_equal():
    (a, b, c) = plan_tiles(((1, 10),), 1, 4)
    # ceil(10 / 4) = 3 chunks; remainder spread over the leading chunks.
    assert (a, b, c) == (((1, 4),), ((5, 7),), ((8, 10),))


def test_forced_shape_validation():
    with pytest.raises(MachineError):
        plan_tiles(((1, 4), (1, 4)), 1, (2,))
    with pytest.raises(MachineError):
        plan_tiles(((1, 4),), 1, 0)


def test_halo_elements_matches_strip_volume():
    # 3x3 tile with halo 1 in both dims: 5*5 - 3*3 = 16 neighbor elements.
    assert halo_elements(((1, 3), (1, 3)), (1, 1)) == 16
    assert halo_elements(((1, 3), (1, 3)), (0, 0)) == 0
    # Halo wider than the tile itself is well-defined (extent-1 tiles).
    assert halo_elements(((2, 2),), (2,)) == 4
    with pytest.raises(MachineError):
        halo_elements(((1, 3),), (1, 1))


# ---------------------------------------------------------------------------
# shard plans


STENCIL = """
program stencil;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C : [R] float;
begin
  [R] A := Index1 + Index2 * 0.5;
  [I] B := A@(-1,0) + A@(1,0) + A@(0,-2) + A@(0,2);
  [I] C := B * 0.25;
end;
"""


def _nests(source, level_name="c2"):
    from repro.fusion import LEVELS_BY_NAME

    program = normalize_source(source)
    plan = plan_program(program, LEVELS_BY_NAME[level_name])
    scalar_program = scalarize(program, plan)
    return scalar_program, [
        (nest, partition_plan(nest, scalar_program.partial))
        for nest in scalar_program.loop_nests()
    ]


def _halo(plan):
    return {dim: plan.dims[dim - 1].halo for dim in plan.free}


def test_stencil_plan_is_parallel_with_halo_from_offsets():
    scalar_program, plans = _nests(STENCIL)
    stencil_plans = [
        (nest, plan)
        for nest, plan in plans
        if any("A" == ref.name for s in nest.body for ref in s.rhs.array_refs())
        and plan.thread_class().mode != "serial"
    ]
    assert stencil_plans, "stencil nest should shard"
    nest, plan = stencil_plans[0]
    assert plan.thread_class().mode == "parallel"
    assert plan.serial_levels == ()
    assert plan.free == (1, 2)
    # Widest constant offsets per dimension: the Section 5 border widths.
    assert _halo(plan) == {1: 1, 2: 2}
    assert plan.thread_class().hazard_arrays == ()


def test_halo_widths_match_comm_analysis():
    # The plan's halo per free dimension is exactly the widest border
    # strip analyze_run would exchange for the same nest on a grid that
    # cuts that dimension.
    scalar_program, plans = _nests(STENCIL)
    env = {"n": 8}
    grid = ProcessorGrid(4, 2)  # 2x2: cuts both dimensions
    distributed = set(scalar_program.array_allocs)
    for nest, plan in plans:
        if plan.thread_class().mode == "serial":
            continue
        events = analyze_run([nest], grid, env, distributed)
        widest = {}
        for event in events:
            widest[event.dim] = max(widest.get(event.dim, 0), event.width)
        for dim in plan.free:
            assert _halo(plan)[dim] == widest.get(dim, 0), (
                "dim %d: halo %r vs comm %r" % (dim, _halo(plan), widest)
            )


def test_reduction_nest_falls_back_serial():
    source = """
program red;
config n : integer = 6;
region R = [1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 2.0;
  s := +<< [R] (A + 1.0);
end;
"""
    scalar_program, plans = _nests(source, "c2+f4")
    serial = [
        plan.thread_class() for _nest, plan in plans
        if plan.thread_class().mode == "serial"
    ]
    assert serial
    for threads in serial:
        assert threads.reason


def test_carried_nest_keeps_serial_prefix():
    # First-dimension recurrence: dim 1 must stay serial, dim 2 shards.
    source = """
program sweep;
config n : integer = 6;
region I = [2..n, 1..n];
region R = [1..n, 1..n];
var A, B : [R] float;
begin
  [R] A := Index1 + Index2;
  [I] A := A@(-1,0) * 0.5 + 1.0;
  [R] B := A * 2.0;
end;
"""
    scalar_program, plans = _nests(source, "f1")
    carried = [
        (nest, plan)
        for nest, plan in plans
        if plan.thread_class().mode != "serial" and plan.serial_levels
    ]
    assert carried, "expected a serial-prefix nest"
    nest, plan = carried[0]
    assert abs(plan.serial_levels[0]) == 1
    assert plan.free == (2,)
    # The carried offset is along the serial dim, not a free-dim halo.
    assert _halo(plan) == {2: 0}


def test_hand_built_nest_without_carry_info_is_serial():
    nest = LoopNest(
        Region.literal((1, 4)),
        (1,),
        [ElemAssign("A", None, ir.Const(1.0))],
        carried_depth=None,
    )
    threads = partition_plan(nest, {}).thread_class()
    assert threads.mode == "serial"
    assert "unknown" in threads.reason


# ---------------------------------------------------------------------------
# benchsuite oracle: bit-identical to the np backend


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_benchsuite_bit_identical_at_all_levels(bench, workers):
    for level in ALL_LEVELS:
        program = bench.test_program()
        scalar_program = scalarize(program, plan_program(program, level))
        expected = execute(scalar_program, "codegen_np")
        with TileEngine(workers=workers) as engine:
            actual = execute(scalar_program, "np-par", engine=engine)
        assert_bit_identical(
            actual,
            expected,
            "%s %s workers=%d" % (bench.name, level.name, workers),
        )


@pytest.mark.parametrize(
    "tile_shape", [1, 2, (1, 64), 10 ** 6], ids=str
)
def test_benchsuite_bit_identical_under_degenerate_tiles(tile_shape):
    # Extent-1 tiles make every halo wider than the tile; the huge shape
    # collapses each sweep to a single tile.
    for bench in ALL_BENCHMARKS:
        program = bench.test_program()
        scalar_program = scalarize(
            program, plan_program(program, ALL_LEVELS[-1])
        )
        expected = execute(scalar_program, "codegen_np")
        rank_ok = not isinstance(tile_shape, tuple)
        shape = tile_shape
        if not rank_ok:
            # Per-dimension shapes only fit rank-2 sweeps; widen scalars.
            shape = tile_shape[0]
        with TileEngine(workers=3, tile_shape=shape) as engine:
            actual = execute(scalar_program, "np-par", engine=engine)
        assert_bit_identical(
            actual, expected, "%s tiles=%r" % (bench.name, tile_shape)
        )


def test_statically_empty_region_is_a_no_op():
    source = """
program empty;
config n : integer = 2;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B : [R] float;
begin
  [R] A := Index1 * 3.0;
  [I] B := A@(1,0) + 1.0;
end;
"""
    program = normalize_source(source)
    scalar_program = scalarize(program, plan_program(program, ALL_LEVELS[0]))
    expected = execute(scalar_program, "codegen_np")
    with TileEngine(workers=2) as engine:
        actual = execute(scalar_program, "np-par", engine=engine)
    assert_bit_identical(actual, expected, "empty interior")
    assert np.all(actual[0]["B"] == 0.0)


# ---------------------------------------------------------------------------
# hand-built hazard nests: snapshots


def _hazard_program(body_builder, n=64):
    """A rank-1 program with a hand-built dependence-free nest."""
    alloc = Region.literal((0, n + 1))
    region = Region.literal((1, n))
    nest = LoopNest(region, (1,), body_builder(), carried_depth=0)
    return ScalarProgram(
        "hazard",
        {"n": n},
        {"A": (alloc, "float"), "B": (alloc, "float")},
        {},
        [nest],
    )


def test_self_hazard_statement_gets_a_snapshot():
    # A := A@(-1) + 1 with carried_depth forced to 0: whole-region NumPy
    # evaluates the full RHS before assigning.  Tiles must observe the
    # same pre-statement values even at tile boundaries, which requires
    # the read snapshot.
    def body():
        return [
            ElemAssign(
                "A",
                None,
                ir.BinOp("+", ir.ArrayRef("A", (-1,)), ir.Const(1.0)),
            )
        ]

    program = _hazard_program(body)
    plan = partition_plan(program.loop_nests()[0], program.partial)
    threads = plan.thread_class()
    assert threads.mode == "per-statement"
    assert threads.hazard_arrays == ("A",)
    assert threads.snapshots == (0,)
    assert _halo(plan) == {1: 1}

    seed = {"A": np.arange(66, dtype=np.float64)}
    expected = execute(program, "codegen_np", seed)
    with TileEngine(workers=2, tile_shape=1) as engine:
        actual = execute(program, "np-par", seed, engine=engine)
        assert engine.snapshots == 1
        assert engine.sweeps == 1
    assert_bit_identical(actual, expected, "self-hazard snapshot")
    assert "_engine.snapshot(A)" in render_numpy_par(program)


def test_cross_statement_hazard_uses_barriers_not_snapshots():
    # B := A@(1); A := B * 2.  The per-statement barrier alone reproduces
    # statement-by-statement whole-region execution; no snapshot needed.
    def body():
        return [
            ElemAssign("B", None, ir.ArrayRef("A", (1,))),
            ElemAssign(
                "A", None, ir.BinOp("*", ir.ArrayRef("B", (0,)), ir.Const(2.0))
            ),
        ]

    program = _hazard_program(body)
    threads = partition_plan(
        program.loop_nests()[0], program.partial
    ).thread_class()
    assert threads.mode == "per-statement"
    assert threads.hazard_arrays == ("A",)
    assert threads.snapshots == ()

    seed = {"A": np.arange(66, dtype=np.float64) ** 2}
    expected = execute(program, "codegen_np", seed)
    with TileEngine(workers=4, tile_shape=3) as engine:
        actual = execute(program, "np-par", seed, engine=engine)
        assert engine.snapshots == 0
        assert engine.sweeps == 2  # one barrier-separated sweep per stmt
    assert_bit_identical(actual, expected, "cross-statement hazard")


# ---------------------------------------------------------------------------
# engine accounting


def test_engine_counters_and_metrics():
    program = normalize_source(STENCIL)
    scalar_program = scalarize(program, plan_program(program, ALL_LEVELS[-1]))
    metrics = Metrics()
    with TileEngine(workers=2, tile_shape=2, metrics=metrics) as engine:
        execute(scalar_program, "np-par", engine=engine)
        assert engine.sweeps > 0
        assert engine.tiles_executed >= engine.sweeps
    assert metrics.counter("par.sweeps") == engine.sweeps
    assert metrics.counter("par.tiles") == engine.tiles_executed
    assert metrics.counter("par.serial_nests") == engine.serial_nests


def test_serial_fallback_is_counted():
    source = """
program red;
config n : integer = 6;
region R = [1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 2.0;
  s := +<< [R] (A + 1.0);
end;
"""
    program = normalize_source(source)
    scalar_program = scalarize(program, plan_program(program, ALL_LEVELS[-1]))
    with TileEngine(workers=1) as engine:
        execute(scalar_program, "np-par", engine=engine)
        assert engine.serial_nests > 0


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    assert default_workers() >= 1
    monkeypatch.delenv("REPRO_WORKERS")
    assert default_workers() >= 1


def test_service_np_par_matches_np(tmp_path):
    from repro.service import Service

    kwargs = dict(cache_dir=str(tmp_path), persistent=False)
    reference = Service(backend="np", **kwargs).submit(STENCIL)
    service = Service(backend="np-par", workers=4, **kwargs)
    result = service.submit(STENCIL)
    for name in reference.arrays:
        assert result.arrays[name].dtype == reference.arrays[name].dtype
        assert np.array_equal(result.arrays[name], reference.arrays[name])
    counters = service.stats()["metrics"]["counters"]
    assert counters.get("par.sweeps", 0) > 0
