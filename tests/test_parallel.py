"""Tests for the parallel substrate: distribution, communication analysis,
communication optimizations and the interaction policies."""

import pytest

from repro.fusion import BASELINE, C2F3, plan_program
from repro.ir import normalize_source
from repro.machine import CRAY_T3E, IBM_SP2
from repro.parallel import (
    ALL_COMM_OPTS,
    NO_COMM_OPTS,
    CommOptions,
    FAVOR_COMM,
    FAVOR_FUSION,
    ProcessorGrid,
    analyze_run,
    balanced_factorization,
    combine_messages,
    eliminate_redundant,
    estimate_parallel,
    plan_program_with_policy,
)
from repro.scalarize import compile_program, scalarize


class TestDistribution:
    def test_balanced_factorization(self):
        assert balanced_factorization(4, 2) == (2, 2)
        assert balanced_factorization(16, 2) == (4, 4)
        assert balanced_factorization(8, 2) == (4, 2)
        assert balanced_factorization(1, 2) == (1, 1)
        assert balanced_factorization(12, 2) == (4, 3)

    def test_factorization_product(self):
        for p in (1, 2, 3, 4, 6, 8, 16, 64, 100):
            factors = balanced_factorization(p, 2)
            assert factors[0] * factors[1] == p

    def test_rank_one(self):
        assert balanced_factorization(8, 1) == (8,)

    def test_invalid_inputs(self):
        from repro.util.errors import MachineError

        with pytest.raises(MachineError):
            balanced_factorization(0, 2)
        with pytest.raises(MachineError):
            balanced_factorization(4, 0)

    def test_grid_cut_dimensions(self):
        grid = ProcessorGrid(4, 2)
        assert grid.cut_dimensions() == [1, 2]
        grid2 = ProcessorGrid(2, 2)
        assert grid2.cut_dimensions() == [1]
        assert ProcessorGrid(1, 2).cut_dimensions() == []

    def test_neighbor_count(self):
        assert ProcessorGrid(16, 2).neighbor_count(1) == 2
        assert ProcessorGrid(2, 2).neighbor_count(1) == 1
        assert ProcessorGrid(2, 2).neighbor_count(2) == 0


def stencil_program(body):
    source = """
program p;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B, C, D : [R] float;
var s : float;
begin
%s
end;
"""
    return normalize_source(source % body)


def run_of(program, level=BASELINE):
    sp = compile_program(program, level)
    return [
        node
        for node in sp.body
        if type(node).__name__ == "LoopNest"
    ], sp


class TestCommAnalysis:
    def test_offset_read_needs_exchange(self):
        program = stencil_program("[R] B := A@(-1,0);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert len(events) == 1
        event = events[0]
        assert event.array == "A"
        assert event.dim == 1
        assert event.direction == -1
        assert event.width == 1
        assert event.bytes == 8 * 8  # one row of 8 elements

    def test_zero_offset_no_exchange(self):
        program = stencil_program("[R] B := A;")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert events == []

    def test_uncut_dimension_no_exchange(self):
        program = stencil_program("[R] B := A@(0,1);")
        run, sp = run_of(program)
        # p=2 cuts only dimension 1.
        events = analyze_run(run, ProcessorGrid(2, 2), {}, set(sp.array_allocs))
        assert events == []

    def test_diagonal_offset_two_messages(self):
        program = stencil_program("[R] B := A@(1,1);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert {(e.dim, e.direction) for e in events} == {(1, 1), (2, 1)}

    def test_width_two(self):
        program = stencil_program("[R] B := A@(-2,0);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert events[0].width == 2
        assert events[0].bytes == 2 * 8 * 8

    def test_producer_tracked(self):
        program = stencil_program("[R] A := B;\n[R] C := A@(1,0);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        (event,) = events
        assert event.producer_index == 0
        assert event.nest_index == 1

    def test_external_producer_is_none(self):
        program = stencil_program("[R] C := A@(1,0);")
        run, sp = run_of(program)
        (event,) = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert event.producer_index is None


class TestCommOptimizations:
    def test_redundancy_elimination(self):
        program = stencil_program("[R] B := A@(-1,0);\n[R] C := A@(-1,0);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert len(events) == 2
        kept = eliminate_redundant(events, run)
        assert len(kept) == 1

    def test_rewrite_invalidates(self):
        program = stencil_program(
            "[R] B := A@(-1,0);\n[R] A := C;\n[R] D := A@(-1,0);"
        )
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        kept = eliminate_redundant(events, run)
        assert len(kept) == 2

    def test_combining_groups_same_neighbor(self):
        program = stencil_program("[R] C := A@(-1,0) + B@(-1,0);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        assert len(events) == 2
        groups = combine_messages(events)
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_combining_separates_directions(self):
        program = stencil_program("[R] C := A@(-1,0) + B@(1,0);")
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        groups = combine_messages(events)
        assert len(groups) == 2

    def test_pipelining_hides_latency(self):
        body = (
            "[R] A := B;\n"        # producer of A
            "[R] C := B * 2.0;\n"  # window computation
            "[R] D := A@(1,0);"    # consumer of A's border
        )
        program = stencil_program(body)
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        from repro.parallel import optimized_comm_cost_us

        compute = [100.0, 100.0, 100.0]
        with_pipe = optimized_comm_cost_us(
            events, run, CRAY_T3E.comm, compute, ALL_COMM_OPTS
        )
        without_pipe = optimized_comm_cost_us(
            events, run, CRAY_T3E.comm, compute,
            CommOptions(True, True, False),
        )
        assert with_pipe < without_pipe
        # Fully hidden: only software overhead remains.
        assert with_pipe == pytest.approx(CRAY_T3E.comm.sw_overhead_us)

    def test_no_opts_is_most_expensive(self):
        program = stencil_program(
            "[R] B := A@(-1,0);\n[R] C := A@(-1,0) + B@(-1,0);"
        )
        run, sp = run_of(program)
        events = analyze_run(run, ProcessorGrid(4, 2), {}, set(sp.array_allocs))
        from repro.parallel import optimized_comm_cost_us

        compute = [10.0, 10.0]
        costs = {
            "none": optimized_comm_cost_us(
                events, run, IBM_SP2.comm, compute, NO_COMM_OPTS
            ),
            "all": optimized_comm_cost_us(
                events, run, IBM_SP2.comm, compute, ALL_COMM_OPTS
            ),
        }
        assert costs["all"] < costs["none"]


class TestParallelCost:
    def test_p1_has_no_comm(self):
        program = stencil_program("[R] B := A@(-1,0);\ns := +<< [R] B;")
        sp = compile_program(program, BASELINE)
        result = estimate_parallel(sp, CRAY_T3E, 1)
        assert result.comm_microseconds == 0.0

    def test_parallel_adds_comm(self):
        program = stencil_program("[R] B := A@(-1,0);\ns := +<< [R] B;")
        sp = compile_program(program, BASELINE)
        result = estimate_parallel(sp, CRAY_T3E, 4)
        assert result.comm_microseconds > 0.0

    def test_reduction_scales_with_log_p(self):
        program = stencil_program("s := +<< [R] A;")
        sp = compile_program(program, BASELINE)
        comm4 = estimate_parallel(sp, CRAY_T3E, 4).comm_microseconds
        comm64 = estimate_parallel(sp, CRAY_T3E, 64).comm_microseconds
        assert comm64 == pytest.approx(3 * comm4)  # log2: 6 vs 2 stages


class TestInteractionPolicies:
    BODY = (
        "[R] A := B;\n"
        "[R] C := B * 2.0;\n"
        "[R] D := A@(1,0) + C;"
    )

    def test_policies_agree_at_p1(self):
        program = stencil_program(self.BODY)
        ff = plan_program_with_policy(program, C2F3, FAVOR_FUSION, 1)
        fc = plan_program_with_policy(program, C2F3, FAVOR_COMM, 1)
        assert ff.contracted_arrays() == fc.contracted_arrays()

    def test_favor_comm_preserves_window(self):
        program = stencil_program(self.BODY)
        ff = plan_program_with_policy(program, C2F3, FAVOR_FUSION, 4)
        fc = plan_program_with_policy(program, C2F3, FAVOR_COMM, 4)
        ff_clusters = next(iter(ff.block_plans.values())).cluster_count
        fc_clusters = next(iter(fc.block_plans.values())).cluster_count
        assert fc_clusters >= ff_clusters

    def test_favor_comm_can_lose_contraction(self):
        # C sits in the pipelining window between A's def and its offset
        # consumer; favoring communication keeps C's statements separate.
        body = (
            "[R] A := B;\n"
            "[R] C := B * 2.0;\n"
            "[R] D := A@(1,0) + C;"
        )
        program = stencil_program(body)
        ff = plan_program_with_policy(program, C2F3, FAVOR_FUSION, 4)
        fc = plan_program_with_policy(program, C2F3, FAVOR_COMM, 4)
        assert "C" in ff.contracted_arrays()
        assert "C" not in fc.contracted_arrays()

    def test_unknown_policy_rejected(self):
        program = stencil_program(self.BODY)
        with pytest.raises(ValueError):
            plan_program_with_policy(program, C2F3, "favour-tea", 4)
