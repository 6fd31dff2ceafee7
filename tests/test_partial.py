"""Tests for partial (rank-reducing) contraction — the Section 5.2 extension."""

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.fusion import C2, C2P, partial_candidate, plan_program
from repro.fusion.partial import buffer_bytes, find_partial_contractions
from repro.interp import run_reference, run_scalarized
from repro.ir import normalize_source
from repro.machine import MemoryLayout
from repro.exec import execute
from repro.scalarize import render_c, render_python, scalarize

SWEEP = """
program sweep;
config n : integer = 8;
region R = [1..n, 1..n];
var A, W, Z : [R] float;
var i : integer;
var s : float;
begin
  [R] A := Index1 * 1.0 + Index2 * 0.5;
  for i := 2 to n do
    [i, 1..n] W := A * 2.0 + W@(-1,0) * 0.25;
    [i, 1..n] Z := W + A;
  end;
  s := +<< [R] Z;
end;
"""


def sweep_block(program):
    blocks = [b for b in program.blocks() if len(b) >= 2]
    return blocks[0]


class TestCandidateAnalysis:
    def test_row_carried_array_found(self):
        program = normalize_source(SWEEP)
        block = sweep_block(program)
        assert partial_candidate(program, block, "W") == (1, 2)

    def test_depth_follows_max_lag(self):
        source = SWEEP.replace("W@(-1,0)", "W@(-2,0)")
        program = normalize_source(source)
        block = sweep_block(program)
        assert partial_candidate(program, block, "W") == (1, 3)

    def test_forward_offset_rejected(self):
        source = SWEEP.replace("W@(-1,0)", "W@(1,0)")
        program = normalize_source(source)
        block = sweep_block(program)
        assert partial_candidate(program, block, "W") is None

    def test_cross_column_offset_rejected(self):
        source = SWEEP.replace("W@(-1,0)", "W@(-1,1)")
        program = normalize_source(source)
        block = sweep_block(program)
        assert partial_candidate(program, block, "W") is None

    def test_escaping_array_rejected(self):
        # Z is reduced after the loop: its refs are not confined.
        program = normalize_source(SWEEP)
        block = sweep_block(program)
        assert partial_candidate(program, block, "Z") is None

    def test_full_region_statement_rejected(self):
        source = """
program p;
config n : integer = 8;
region R = [1..n, 1..n];
var A, W : [R] float;
begin
  [R] W := A;
  [R] A := W;
end;
"""
        program = normalize_source(source)
        block = next(iter(program.blocks()))
        # No degenerate dimension: not a sweep.
        assert partial_candidate(program, block, "W") is None

    def test_excluded_arrays_skipped(self):
        program = normalize_source(SWEEP)
        block = sweep_block(program)
        found = find_partial_contractions(program, block, exclude={"W"})
        assert "W" not in found

    def test_buffer_bytes(self):
        program = normalize_source(SWEEP)
        # depth 2 rows of 8 elements, 8 bytes each
        assert buffer_bytes(program, "W", 1, 2) == 2 * 8 * 8


class TestExecution:
    def test_semantics_preserved(self):
        program = normalize_source(SWEEP)
        reference = run_reference(program)
        plan = plan_program(program, C2P)
        assert plan.partial_arrays() == {"W": (1, 2)}
        scalar_program = scalarize(program, plan)
        result = run_scalarized(scalar_program)
        assert np.isclose(
            float(result.scalars["s"]), float(reference.scalars["s"])
        )
        assert np.allclose(result.arrays["Z"], reference.arrays["Z"])

    def test_buffer_allocation_shrinks(self):
        program = normalize_source(SWEEP)
        scalar_program = scalarize(program, plan_program(program, C2P))
        region, _kind = scalar_program.array_allocs["W"]
        assert region.concrete_bounds({})[0] == (0, 1)

    def test_codegen_python_wraps(self):
        program = normalize_source(SWEEP)
        scalar_program = scalarize(program, plan_program(program, C2P))
        source = render_python(scalar_program)
        assert "% 2" in source
        reference = run_reference(program)
        _arrays, scalars = execute(scalar_program, "codegen_py")
        assert np.isclose(float(scalars["s"]), float(reference.scalars["s"]))

    def test_codegen_c_wraps(self):
        program = normalize_source(SWEEP)
        scalar_program = scalarize(program, plan_program(program, C2P))
        code = render_c(scalar_program)
        assert "% 2]" in code
        assert "static double W[2][8];" in code

    def test_memory_layout_shrinks(self):
        program = normalize_source(SWEEP)
        full = MemoryLayout(scalarize(program, plan_program(program, C2)))
        partial = MemoryLayout(scalarize(program, plan_program(program, C2P)))
        assert partial.total_bytes < full.total_bytes


class TestSPIntegration:
    def test_sp_partial_targets(self):
        bench = get_benchmark("SP")
        program = bench.test_program()
        plan = plan_program(program, C2P)
        partial = plan.partial_arrays()
        for name in bench.module.PARTIALLY_CONTRACTIBLE:
            assert name in partial, name
        # The back-substitution coefficients must stay whole arrays.
        for name in ("DX1", "DX2", "DY1", "DY2"):
            assert name not in partial

    def test_sp_semantics_with_partial(self):
        bench = get_benchmark("SP")
        program = bench.test_program()
        reference = run_reference(program)
        scalar_program = scalarize(program, plan_program(program, C2P))
        result = run_scalarized(scalar_program)
        assert np.isclose(
            float(result.scalars["resid"]), float(reference.scalars["resid"])
        )
