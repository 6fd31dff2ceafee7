"""One partition plan per loop nest, one chunker, one §5.5 schedule.

* Hand-built nests, one per fact the plan records, each asserting all
  four verdicts derived from it: the slice split (``codegen_np``), the
  thread class (read by no executor today; a threaded ``c`` loop would),
  the rank class on three sets of cut dimensions (``mp-shard``) and
  ``sinkable`` of an enclosing column sweep (``c``).
* Thread-class and halo verdicts on small mini-ZPL programs and two
  hand-built hazard nests; the halo per free dimension is checked
  against the border strips ``parallel/comm.analyze_run`` prices.
* ``partition_plan.parent.json``: every verdict of every nest of the six
  benchsuite programs at eleven levels, **recorded at the commit before
  the plan existed** from the four scans it replaced — per nest
  ``vector_split(nest, partial)``, ``shard_plan(nest, partial)`` (mode,
  reason, serial levels, shardable dims, halo, hazard arrays) with the
  tile generator's self-hazard scan per statement,
  ``shard.nest_fallback_reason`` on grids of 2/4/6 processors, and
  ``sinkable`` of the ``SeqLoop`` directly around it (``null``: none) —
  deduplicated into distinct rows.  The derivations must reproduce it.
  One kind of row was re-derived since: a thread verdict that was
  ``serial`` only because of the nest's contraction scalars ("contraction
  scalars mixed with cross-tile reads ..." or "contraction scalar reads
  an array a later statement overwrites") became the verdict the nest's
  other facts give once those scalars stopped outliving their index
  point (150 nest rows, 13 of them at ``c2+f4+cse``).
* ``block_chunks`` against both chunkers it replaced, kept here as the
  reference.
* ``schedule()`` over every run of Tomcatv/SP/Simple under all eight
  ``CommOptions``: kept + covered partition the events, post <= wait, and
  ``plan_run``'s messages are the schedule's.
"""

import itertools
import json
import os

import pytest

from repro.benchsuite import ALL_BENCHMARKS, get_benchmark
from repro.fusion import ALL_LEVELS, C2P, LEVELS_BY_NAME, plan_program
from repro.ir import expr as ir
from repro.ir import normalize_source
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.parallel.comm import analyze_run
from repro.parallel.commopt import CommOptions, schedule
from repro.parallel.distribution import ProcessorGrid, block_chunks
from repro.parallel.shard import (
    ShardLayout,
    nest_fallback_reason,
    plan_run,
    program_rank,
)
from repro.scalarize import scalarize
from repro.scalarize.emit_common import int_config_env
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ScalarProgram,
    SeqLoop,
    partition_plan,
    sinkable,
    walk,
)
from tests.test_mp_shard import _all_runs

# -- (a) one hand-built nest per fact -----------------------------------------

CUTS = ((1,), (2,), (1, 2))
CLAMPED = ("clamped", None)


def ref(name, *offset):
    return ir.ArrayRef(name, offset or (0, 0))


def store(target, rhs):
    return ElemAssign(target, None, rhs)


def column_nest(body, carried_depth=0):
    """Rows 1..8 of column ``j``: what a ``for j`` column sweep wraps."""
    j = LinearExpr.variable("j")
    return LoopNest(Region([(1, 8), (j, j)]), (1, 2), body, carried_depth=carried_depth)


def verdicts(nest, partial=()):
    partial = dict(partial)
    plan = partition_plan(nest, partial)
    loop = SeqLoop("j", ir.Const(2), ir.Const(7), [nest], downto=False)
    return (
        plan,
        plan.slices(),
        plan.thread_class(),
        [plan.rank_class(cut) for cut in CUTS],
        sinkable(loop, partial, {}),
    )


def flow_reason(name, offset):
    return (
        "gathered",
        "reads %r at offset %r from an earlier statement of the same nest "
        "across a cut dimension" % (name, offset),
    )


def test_reads_of_arrays_the_nest_does_not_store_only_widen_the_halo():
    nest = column_nest([store("B", ir.BinOp("+", ref("A", -2, 0), ref("A", 0, 1)))])
    plan, slices, threads, ranks, sink = verdicts(nest)
    assert [facts.halo for facts in plan.dims] == [2, 1]
    assert not any(facts.flow or facts.anti for facts in plan.dims)
    assert plan.free == (1, 2) and plan.serial_levels == ()
    assert slices == ((), (1, 2))
    assert threads == ("parallel", None, (), ())
    assert ranks == [CLAMPED] * 3
    assert sink


def test_flow_along_a_row_dimension():
    # B reads, one row up, the A an earlier statement of the nest stores.
    nest = column_nest([store("A", ref("C")), store("B", ref("A", -1, 0))])
    plan, slices, threads, ranks, sink = verdicts(nest)
    (crossing,) = plan.dims[0].flow
    assert (crossing.stmt, crossing.slot, crossing.ref.name, crossing.own) == (
        1, 0, "A", False,
    )
    assert plan.dims[0].anti == plan.dims[1].flow == plan.dims[1].anti == ()
    assert slices == ((), (1, 2))
    assert threads == ("per-statement", None, ("A",), ())
    assert ranks == [flow_reason("A", (-1, 0)), CLAMPED, flow_reason("A", (-1, 0))]
    assert not sink


def test_flow_along_the_pinned_dimension_leaves_the_rows_free():
    nest = column_nest([store("A", ref("C")), store("B", ref("A", 0, -1))])
    plan, _slices, threads, ranks, sink = verdicts(nest)
    assert plan.dims[0].flow == () and len(plan.dims[1].flow) == 1
    assert threads.mode == "per-statement"
    assert ranks == [CLAMPED, flow_reason("A", (0, -1)), flow_reason("A", (0, -1))]
    assert sink  # a column recurrence: rows stay independent


def test_the_gather_reason_names_the_first_flow_read_in_body_order():
    nest = column_nest([
        store("A", ref("C")),
        store("B", ir.BinOp("+", ref("A", 0, 1), ref("A", -1, 0))),
    ])
    _plan, _slices, _threads, ranks, _sink = verdicts(nest)
    assert ranks == [
        flow_reason("A", (-1, 0)),
        flow_reason("A", (0, 1)),
        flow_reason("A", (0, 1)),  # both cut: the read that executes first
    ]


def test_anti_hazard_wants_the_pre_nest_value_a_halo_already_holds():
    # B reads the A a *later* statement overwrites.
    nest = column_nest([store("B", ref("A", 1, 0)), store("A", ref("C"))])
    plan, slices, threads, ranks, sink = verdicts(nest)
    assert plan.dims[0].flow == ()
    (crossing,) = plan.dims[0].anti
    assert (crossing.stmt, crossing.ref.name, crossing.own) == (0, "A", False)
    assert slices == ((), (1, 2))
    assert threads == ("per-statement", None, ("A",), ())
    assert ranks == [CLAMPED] * 3
    assert not sink


def test_self_hazard_is_an_anti_crossing_that_needs_a_snapshot():
    nest = column_nest([
        store("B", ref("C")),
        store("A", ir.BinOp("+", ref("A", -1, 0), ir.Const(1.0))),
    ])
    plan, _slices, threads, ranks, sink = verdicts(nest)
    (crossing,) = plan.dims[0].anti
    assert crossing.own and crossing.stmt == 1
    assert threads == ("per-statement", None, ("A",), (1,))
    assert ranks == [CLAMPED] * 3
    assert not sink


def test_a_buffered_dimension_matters_only_where_it_is_cut():
    # P is a circular buffer along dim 2, read one column back.
    body = [store("P", ref("A")), store("B", ref("P", 0, -1))]
    plan, slices, threads, ranks, sink = verdicts(column_nest(body), {"P": (2, 2)})
    assert plan.buffered
    assert plan.dims[0].buffered == () and plan.dims[1].buffered == (("touches", "P"),)
    assert slices is None
    assert threads == ("serial", "touches a circular-buffer array", (), ())
    gathered = ("gathered", "touches circular buffer 'P' cut along dim 2")
    assert ranks == [CLAMPED, gathered, gathered]
    assert not sink

    # Only stored to: still gathered when cut, and said so.
    plan, _slices, _threads, ranks, _sink = verdicts(
        column_nest([store("P", ref("A"))]), {"P": (1, 2)}
    )
    assert plan.dims[0].buffered == (("writes", "P"),)
    gathered = ("gathered", "writes circular buffer 'P' cut along dim 1")
    assert ranks == [gathered, CLAMPED, gathered]


def test_a_fold_keeps_slices_and_ranks_but_not_threads_or_the_sink():
    nest = column_nest([
        store("B", ref("A")),
        ElemAssign(None, "s", ref("B"), reduce_op="+"),
    ])
    plan, slices, threads, ranks, sink = verdicts(nest)
    assert plan.folds
    assert slices == ((), (1, 2))
    assert threads == ("serial", "fused reduction folds over the region", (), ())
    assert ranks == [CLAMPED] * 3
    assert not sink


def test_corners_safe_unsafe_and_mixed_with_a_crossing():
    # A contraction scalar dies with its index point, so it constrains no
    # split: the nests that once had a "corner" to keep are threaded like
    # any other.
    t = ir.ScalarRef("t")
    safe = column_nest([ElemAssign(None, "t", ref("A")), store("B", t)])
    _plan, _slices, threads, ranks, sink = verdicts(safe)
    assert threads == ("parallel", None, (), ())
    assert ranks == [CLAMPED] * 3 and sink

    # t reads the A a later statement overwrites, at the same point.
    unsafe = column_nest([ElemAssign(None, "t", ref("A")), store("A", t)])
    _plan, slices, threads, ranks, sink = verdicts(unsafe)
    assert slices == ((), (1, 2))
    assert threads == ("parallel", None, (), ())
    assert ranks == [CLAMPED] * 3 and sink

    mixed = column_nest([
        ElemAssign(None, "t", ref("A")),
        store("B", t),
        store("C", ref("B", 0, -1)),
    ])
    _plan, _slices, threads, ranks, sink = verdicts(mixed)
    assert threads == ("per-statement", None, ("B",), ())
    assert ranks == [CLAMPED, flow_reason("B", (0, -1)), flow_reason("B", (0, -1))]
    assert sink


def test_unknown_carry_depth_means_every_level_serial():
    nest = column_nest([store("B", ref("A", -1, 0))], carried_depth=None)
    plan, slices, threads, ranks, sink = verdicts(nest)
    assert plan.serial_levels is None and plan.free == ()
    assert all(facts.carried for facts in plan.dims)
    assert slices is None
    assert threads == ("serial", "carried depth unknown (hand-built nest)", (), ())
    # Ranks and the sink ask about values crossing an edge, not loop order.
    assert ranks == [CLAMPED] * 3 and sink


def test_every_level_carried():
    nest = column_nest([store("B", ref("A", -1, 0))], carried_depth=2)
    plan, slices, threads, ranks, sink = verdicts(nest)
    assert plan.serial_levels == (1, 2) and plan.free == ()
    assert slices is None
    assert threads == ("serial", "every loop level carries a dependence", (), ())
    assert ranks == [CLAMPED] * 3 and sink


def test_a_serial_prefix_leaves_the_inner_dimension_free():
    nest = column_nest([store("B", ref("A", -1, 2))], carried_depth=1)
    plan, slices, threads, _ranks, _sink = verdicts(nest)
    assert [facts.carried for facts in plan.dims] == [True, False]
    assert slices == ((1,), (2,))
    assert threads.mode == "parallel"
    assert plan.dims[1].halo == 2


# -- (a') verdicts on programs and hand-built hazard nests --------------------

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


def _plans(source, level_name="c2"):
    program = normalize_source(source)
    scalar_program = scalarize(program, plan_program(program, LEVELS_BY_NAME[level_name]))
    return scalar_program, [
        (nest, partition_plan(nest, scalar_program.partial))
        for nest in scalar_program.loop_nests()
    ]


def _halo(plan):
    return {dim: plan.dims[dim - 1].halo for dim in plan.free}


def test_stencil_plan_is_parallel_with_halo_from_offsets():
    _scalar, plans = _plans(STENCIL)
    stencil_plans = [
        (nest, plan)
        for nest, plan in plans
        if any("A" == ref.name for s in nest.body for ref in s.rhs.array_refs())
        and plan.thread_class().mode != "serial"
    ]
    assert stencil_plans, "stencil nest should split"
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
    scalar_program, plans = _plans(STENCIL)
    grid = ProcessorGrid(4, 2)  # 2x2: cuts both dimensions
    distributed = set(scalar_program.array_allocs)
    for nest, plan in plans:
        if plan.thread_class().mode == "serial":
            continue
        events = analyze_run([nest], grid, {"n": 8}, distributed)
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
    _scalar, plans = _plans(source, "c2+f4")
    serial = [
        plan.thread_class() for _nest, plan in plans
        if plan.thread_class().mode == "serial"
    ]
    assert serial
    for threads in serial:
        assert threads.reason


def test_carried_nest_keeps_serial_prefix():
    # First-dimension recurrence: dim 1 must stay serial, dim 2 splits.
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
    _scalar, plans = _plans(source, "f1")
    carried = [
        (nest, plan)
        for nest, plan in plans
        if plan.thread_class().mode != "serial" and plan.serial_levels
    ]
    assert carried, "expected a serial-prefix nest"
    _nest, plan = carried[0]
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


def _hazard_nest(body, n=64):
    """A rank-1 dependence-free nest of a hand-built program."""
    alloc = Region.literal((0, n + 1))
    nest = LoopNest(Region.literal((1, n)), (1,), body, carried_depth=0)
    program = ScalarProgram(
        "hazard",
        {"n": n},
        {"A": (alloc, "float"), "B": (alloc, "float")},
        {},
        [nest],
    )
    return partition_plan(program.loop_nests()[0], program.partial)


def test_self_hazard_statement_is_per_statement_with_a_snapshot():
    # A := A@(-1) + 1 with carried_depth forced to 0: whole-region NumPy
    # evaluates the full right-hand side before assigning, so blocks need
    # the pre-statement copy of their own target.
    plan = _hazard_nest([
        ElemAssign("A", None, ir.BinOp("+", ir.ArrayRef("A", (-1,)), ir.Const(1.0)))
    ])
    threads = plan.thread_class()
    assert threads.mode == "per-statement"
    assert threads.hazard_arrays == ("A",)
    assert threads.snapshots == (0,)
    assert _halo(plan) == {1: 1}


def test_cross_statement_hazard_needs_barriers_not_snapshots():
    # B := A@(1); A := B * 2.  A barrier per statement reproduces
    # statement-by-statement whole-region execution; no snapshot needed.
    plan = _hazard_nest([
        ElemAssign("B", None, ir.ArrayRef("A", (1,))),
        ElemAssign("A", None, ir.BinOp("*", ir.ArrayRef("B", (0,)), ir.Const(2.0))),
    ])
    threads = plan.thread_class()
    assert threads.mode == "per-statement"
    assert threads.hazard_arrays == ("A",)
    assert threads.snapshots == ()


# -- (b) the table recorded before the refactor -------------------------------


def _recorded():
    path = os.path.join(os.path.dirname(__file__), "partition_plan.parent.json")
    with open(path) as handle:
        return json.load(handle)


def _derived(scalar):
    """The recorded row's fields, from the single functions."""
    env = int_config_env(scalar.configs)
    partial = scalar.partial
    layouts = {
        procs: ShardLayout(
            scalar, ProcessorGrid(procs, max(program_rank(scalar), 1)), env
        )
        for procs in (2, 4, 6)
    }
    sunk = {}
    for node in walk(scalar.body):
        if isinstance(node, SeqLoop):
            verdict = sinkable(node, partial, env)
            for child in node.body:
                if isinstance(child, LoopNest):
                    sunk[id(child)] = verdict
    for nest in scalar.loop_nests():
        plan = partition_plan(nest, partial)
        threads = plan.thread_class()
        split = plan.slices()
        # A serial ShardPlan carried no dims: record what a thread
        # executor would consume.
        free = plan.free if threads.mode != "serial" else ()
        yield {
            "slices": None if split is None else [list(split[0]), list(split[1])],
            "mode": threads.mode,
            "reason": threads.reason,
            "serial_levels": list(plan.serial_levels) if free else [],
            "shardable_dims": list(free),
            "halo": {str(dim): plan.dims[dim - 1].halo for dim in free},
            "hazard_arrays": list(threads.hazard_arrays),
            "snapshots": list(threads.snapshots),
            "gather": {
                str(procs): nest_fallback_reason(nest, layouts[procs], partial)
                for procs in (2, 4, 6)
            },
            "sink": sunk.get(id(nest)),
        }


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_every_benchsuite_verdict_equals_the_one_recorded_at_the_parent(bench):
    recorded = _recorded()
    program = bench.test_program()
    for level in list(ALL_LEVELS) + [C2P]:
        scalar = scalarize(program, plan_program(program, level))
        rows = recorded["nests"]["%s|%s" % (bench.name, level.name)]
        derived = list(_derived(scalar))
        assert len(derived) == len(rows)
        for index, (row, verdict) in enumerate(zip(rows, derived)):
            assert verdict == recorded["verdicts"][row], (level.name, index)


def test_the_recorded_table_covers_every_class():
    recorded = _recorded()
    assert sum(len(rows) for rows in recorded["nests"].values()) == 918
    verdicts_seen = recorded["verdicts"]
    assert {row["mode"] for row in verdicts_seen} == {
        "parallel", "per-statement", "serial",
    }
    assert any(any(row["gather"].values()) for row in verdicts_seen)
    assert {row["sink"] for row in verdicts_seen} == {True, False, None}
    assert any(row["slices"] is None for row in verdicts_seen)


# -- (c) one chunker, against the two it replaced -----------------------------


def _old_chunk_bounds(lo, hi, parts):
    """``tiling._chunk_bounds``: non-empty chunks only, parts clamped."""
    extent = hi - lo + 1
    if extent <= 0:
        return ()
    parts = max(1, min(parts, extent))
    base, remainder = divmod(extent, parts)
    chunks, start = [], lo
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        chunks.append((start, start + size - 1))
        start += size
    return tuple(chunks)


def _old_balanced_chunks(lo, hi, parts):
    """``shard._balanced_chunks``: always ``parts`` chunks, empty tails."""
    extent = max(0, hi - lo + 1)
    base, rem = divmod(extent, parts)
    chunks, cursor = [], lo
    for index in range(parts):
        size = base + (1 if index < rem else 0)
        chunks.append((cursor, cursor + size - 1))
        cursor += size
    return chunks


def test_block_chunks_is_both_old_chunkers():
    for lo, extent, parts in itertools.product((-3, 0, 1, 5), range(0, 14), range(1, 9)):
        hi = lo + extent - 1
        assert block_chunks(lo, hi, parts) == _old_balanced_chunks(lo, hi, parts)
        if extent:
            assert tuple(block_chunks(lo, hi, min(parts, extent))) == (
                _old_chunk_bounds(lo, hi, parts)
            )


def test_a_rank_with_nothing_to_own_gets_an_empty_tail_chunk():
    chunks = block_chunks(1, 2, 4)
    assert chunks[:2] == [(1, 1), (2, 2)]
    assert all(lo > hi for lo, hi in chunks[2:])
    assert block_chunks(5, 4, 3) == [(5, 4)] * 3


# -- (d) one schedule, priced and executed ------------------------------------

ALL_OPTIONS = [
    CommOptions(*flags) for flags in itertools.product((True, False), repeat=3)
]


def _identity(event):
    """What a scheduled event and its plan agree on, compared by value."""
    return (event.array, event.dim, event.direction, event.width,
            event.nest_index)


@pytest.mark.parametrize("bench", ["Tomcatv", "SP", "Simple"])
def test_the_schedule_partitions_the_events_and_plan_run_executes_it(bench):
    from repro.fusion import LEVELS_BY_NAME

    program = get_benchmark(bench).test_program()
    scalar = scalarize(program, plan_program(program, LEVELS_BY_NAME["c2"]))
    env = int_config_env(scalar.configs)
    layout = ShardLayout(
        scalar, ProcessorGrid(4, max(program_rank(scalar), 1)), env
    )
    scheduled_something = 0
    for run in _all_runs(scalar):
        bound = dict(env)
        for node in run:  # runs under a SeqLoop name its variable
            for var in node.region.free_variables():
                bound.setdefault(var, 2)
        gathered = tuple(
            index for index, nest in enumerate(run)
            if nest_fallback_reason(nest, layout, scalar.partial)
        )
        events = [
            event
            for event in analyze_run(run, layout.grid, bound, set(layout.allocs))
            if event.nest_index not in gathered
        ]
        for options in ALL_OPTIONS:
            messages = schedule(events, run, options)
            kept = [event for message in messages for event in message.events]
            covered = [
                event
                for message in messages
                for group in message.covered
                for event in group
            ]
            assert sorted(map(id, kept + covered)) == sorted(map(id, events))
            if not options.redundancy_elimination:
                assert not covered
            if not options.combining:
                assert all(len(message.events) == 1 for message in messages)
            for message in messages:
                assert len(message.covered) == len(message.events)
                assert 0 <= message.post <= message.wait
                assert message.wait == min(e.nest_index for e in message.events)
                if not options.pipelining:
                    assert message.post == message.wait
                for event, group in zip(message.events, message.covered):
                    assert all(c.key() == event.key() for c in group)
                    assert all(c.nest_index > event.nest_index for c in group)

            plan = plan_run(run, layout, bound, options, gathered)
            assert [
                (
                    [_identity(plan) for plan in planned.exchange.events],
                    planned.exchange.post_point,
                    planned.exchange.wait_point,
                )
                for planned in plan.messages
            ] == [
                ([_identity(e) for e in message.events], message.post, message.wait)
                for message in messages
            ]
            assert plan.eliminated == len(covered)
            assert plan.combined == len(kept) - len(messages)
            scheduled_something += len(messages)
    assert scheduled_something
