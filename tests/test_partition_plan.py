"""One partition plan per loop nest, one chunker, one §5.5 schedule.

* Hand-built nests, one per fact the plan records, each asserting all
  four verdicts derived from it: the slice split (``codegen_np``), the
  thread class (``np-par``, the tuner), the rank class on three sets of
  cut dimensions (``mp-shard``) and ``sinkable`` of an enclosing column
  sweep (``c``).
* ``partition_plan.parent.json``: every verdict of every nest of the six
  benchsuite programs at eleven levels, **recorded at the commit before
  the plan existed** from the four scans it replaced — per nest
  ``vector_split(nest, partial)``, ``shard_plan(nest, partial)`` (mode,
  reason, serial levels, shardable dims, halo, hazard arrays) with
  ``ParNumpyGenerator._self_hazard`` per statement,
  ``shard.nest_fallback_reason`` on grids of 2/4/6 processors, and
  ``sinkable`` of the ``SeqLoop`` directly around it (``null``: none) —
  deduplicated into 22 distinct rows.  The derivations must reproduce it.
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
from repro.fusion import ALL_LEVELS, C2P, plan_program
from repro.ir import expr as ir
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
from repro.parallel.tiling import plan_tiles
from repro.scalarize import scalarize
from repro.scalarize.emit_common import int_config_env
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
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
    assert plan.folds and plan.corners == ()
    assert slices == ((), (1, 2))
    assert threads == ("serial", "fused reduction folds over the region", (), ())
    assert ranks == [CLAMPED] * 3
    assert not sink


def test_corners_safe_unsafe_and_mixed_with_a_crossing():
    t = ir.ScalarRef("t")
    safe = column_nest([ElemAssign(None, "t", ref("A")), store("B", t)])
    plan, _slices, threads, ranks, sink = verdicts(safe)
    assert plan.corners == ("t",) and not plan.unsafe_corner
    assert threads == ("parallel", None, (), ())
    assert ranks == [CLAMPED] * 3 and sink

    # The corner reads the A a later statement overwrites: recomputing it
    # after a sweep would see the new A.
    unsafe = column_nest([ElemAssign(None, "t", ref("A")), store("A", t)])
    plan, slices, threads, ranks, sink = verdicts(unsafe)
    assert plan.unsafe_corner
    assert slices == ((), (1, 2))
    assert threads == (
        "serial",
        "contraction scalar reads an array a later statement overwrites",
        (), (),
    )
    assert ranks == [CLAMPED] * 3 and sink

    mixed = column_nest([
        ElemAssign(None, "t", ref("A")),
        store("B", t),
        store("C", ref("B", 0, -1)),
    ])
    _plan, _slices, threads, ranks, sink = verdicts(mixed)
    assert threads == (
        "serial",
        "contraction scalars mixed with cross-tile reads of nest-written arrays",
        (), (),
    )
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
        # A serial ShardPlan carried no dims: record what np-par consumes.
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


def test_plan_tiles_still_clamps_parts_to_the_extent():
    # 9 tiles wanted -> a 3x3 grid, but dimension 1 has only two rows.
    bounds = ((1, 2), (1, 20000))
    tiles = plan_tiles(bounds, workers=8)
    assert len(tiles) == 2 * 3
    assert all(lo <= hi for tile in tiles for lo, hi in tile)
    assert sorted({tile[0] for tile in tiles}) == [(1, 1), (2, 2)]
    assert sum((hi - lo + 1) for _rows, (lo, hi) in tiles) == 2 * 20000


# -- (d) one schedule, priced and executed ------------------------------------

ALL_OPTIONS = [
    CommOptions(*flags) for flags in itertools.product((True, False), repeat=3)
]


def _identity(event):
    return event.key() + (event.nest_index, event.producer_index)


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
                    [_identity(pe.event) for pe in planned.events],
                    planned.post_point,
                    planned.wait_point,
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
