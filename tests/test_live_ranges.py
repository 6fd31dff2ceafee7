"""Tests for live-range splitting in contraction (Figure 3's footnote)."""

import numpy as np
import pytest

from repro.fusion import C2, plan_program
from repro.fusion.contract import (
    RangeCandidate,
    range_candidates,
    split_live_ranges,
)
from repro.interp import run_reference, run_scalarized
from repro.ir import normalize_source
from repro.exec import execute
from repro.scalarize import scalarize

TEMPLATE = """
program p;
config n : integer = 6;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, T, U : [R] float;
var s : float;
begin
%s
end;
"""

#: T is used twice as a temporary with disjoint live ranges; its final
#: value feeds B, which is reduced later, so T itself stays live-out of
#: nothing (all in one block) — per-range machinery applies inside.
REUSE = """
  [R] A := Index1 * 1.0 + Index2;
  [R] T := A * 2.0;
  [R] B := T + 1.0;
  [R] T := B * 3.0;
  [R] U := T - A;
  s := +<< [R] (B + U);
"""


class TestSplitLiveRanges:
    def program_block(self, body):
        program = normalize_source(TEMPLATE % body)
        return program, next(iter(program.blocks()))

    def test_two_ranges(self):
        program, block = self.program_block(REUSE)
        has_incoming, ranges = split_live_ranges(block, "T")
        assert not has_incoming
        assert len(ranges) == 2
        assert [len(r.statements) for r in ranges] == [2, 2]
        assert ranges[0].scalar == "T__s"
        assert ranges[1].scalar == "T__s2"
        assert not ranges[0].is_last
        assert ranges[1].is_last

    def test_incoming_reads_detected(self):
        program, block = self.program_block(
            "  [R] B := T;\n  [R] T := A;\n  [R] U := T;"
        )
        has_incoming, ranges = split_live_ranges(block, "T")
        assert has_incoming
        assert len(ranges) == 1

    def test_single_def(self):
        program, block = self.program_block("  [R] T := A;\n  [R] B := T;")
        has_incoming, ranges = split_live_ranges(block, "T")
        assert not has_incoming
        assert len(ranges) == 1
        assert ranges[0].is_last


class TestRangeCandidates:
    def test_both_ranges_eligible(self):
        program = normalize_source(TEMPLATE % REUSE)
        block = next(iter(program.blocks()))
        candidates = range_candidates(program, block, True)
        t_ranges = [c for c in candidates if c.array == "T"]
        assert len(t_ranges) == 2

    def test_partial_kill_blocks_middle_range(self):
        # The second definition covers only the interior: the first range's
        # boundary elements stay observable.
        body = """
  [R] T := A * 2.0;
  [R] B := T + 1.0;
  [I] T := B * 3.0;
  [I] U := T - A;
"""
        program = normalize_source(TEMPLATE % body)
        block = next(iter(program.blocks()))
        candidates = range_candidates(program, block, True)
        t_ranges = [c for c in candidates if c.array == "T"]
        # Only the last (interior) range qualifies; the partially-killed
        # first range must keep its storage writes.
        assert all(c.is_last for c in t_ranges)

    def test_full_region_kill_enables_middle_range(self):
        program = normalize_source(TEMPLATE % REUSE)
        block = next(iter(program.blocks()))
        candidates = range_candidates(program, block, True)
        middles = [c for c in candidates if c.array == "T" and not c.is_last]
        assert len(middles) == 1


class TestEndToEnd:
    def test_reused_temp_fully_eliminated(self):
        program = normalize_source(TEMPLATE % REUSE)
        plan = plan_program(program, C2)
        assert "T" in plan.contracted_arrays()
        scalars = plan.all_range_scalars()
        names = set(scalars.values())
        assert {"T__s", "T__s2"} <= names

    def test_semantics_preserved(self):
        program = normalize_source(TEMPLATE % REUSE)
        reference = run_reference(program)
        plan = plan_program(program, C2)
        scalar_program = scalarize(program, plan)
        result = run_scalarized(scalar_program)
        assert np.isclose(
            float(result.scalars["s"]), float(reference.scalars["s"])
        )
        _arrays, scalars = execute(scalar_program, "codegen_py")
        assert np.isclose(float(scalars["s"]), float(reference.scalars["s"]))

    def test_last_range_not_contracted_when_observable(self):
        # A's final contents are the program's observable output; the last
        # range must keep writing storage when earlier ranges do not go.
        body = """
  [R] A := Index1 * 1.0;
  [R] B := A@(0,1) + A;
  [R] A := B * 2.0;
"""
        program = normalize_source(TEMPLATE % body)
        reference = run_reference(program)
        plan = plan_program(program, C2)
        result = run_scalarized(scalarize(program, plan))
        assert np.allclose(result.arrays["A"], reference.arrays["A"])

    def test_mixed_contraction_array_still_allocated(self):
        # Middle range contracts; final range keeps the array: storage
        # remains but the middle definition writes only the scalar.
        body = """
  [R] T := A * 2.0;
  [R] B := T + 1.0;
  [R] T := B * 3.0;
"""
        program = normalize_source(TEMPLATE % body)
        reference = run_reference(program)
        plan = plan_program(program, C2)
        # T's last range has no uses and T is dead: whole array goes.
        # Force observability instead: read T in a later block.
        body2 = body + "  s := 1.0;\n  s := s + (+<< [R] T);\n"
        program = normalize_source(TEMPLATE % body2)
        reference = run_reference(program)
        plan = plan_program(program, C2)
        assert "T" not in plan.contracted_arrays()
        scalars = set(plan.all_range_scalars().values())
        assert "T__s" in scalars  # the middle range still contracts
        result = run_scalarized(scalarize(program, plan))
        assert np.isclose(
            float(result.scalars["s"]), float(reference.scalars["s"])
        )
