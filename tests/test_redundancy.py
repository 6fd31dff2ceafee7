"""Tests for array-level redundancy elimination (fusion/redundancy.py)."""

import numpy as np
import pytest

from repro.exec import execute
from repro.fusion import CSE_TWINS, LEVELS_BY_NAME, plan_program
from repro.fusion.redundancy import (
    MIN_SAVED_OPS,
    _candidates,
    _canonical_key,
    _Entry,
    _key,
    _replace_key,
    is_cse_scalar,
)
from repro.interp import run_reference
from repro.ir import ArrayRef, BinOp, Call, Const, ScalarRef, normalize_source
from repro.scalarize import scalarize
from repro.scalarize.codegen_py import render_python
from tests.test_result_contract import assert_declared_results

BACKENDS = ("interp", "codegen_py", "codegen_np")

SHARED_STENCIL = """
program shared;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C, D : [R] float;
var s, t : float;
begin
  [R] A := Index1 * 1.5 + Index2;
  [I] B := (A@(0,-1) + A@(0,1) + A@(-1,0)) * 0.25;
  [I] C := (A@(0,-1) + A@(0,1) + A@(-1,0)) * 0.75 + B;
  [I] D := sqrt(abs(A@(0,-1) + A@(0,1) + A@(-1,0)) + 0.1);
  s := 0.5;
  t := (+<< [R] B) + (+<< [R] C) + (+<< [R] D);
end;
"""


def compile_at(source, level_name):
    program = normalize_source(source)
    plan = plan_program(program, LEVELS_BY_NAME[level_name])
    return program, plan, scalarize(program, plan)


def nest_op_count(scalar_program):
    return sum(
        stmt.rhs.op_count()
        for nest in scalar_program.loop_nests()
        for stmt in nest.body
    )


# -- value numbering ---------------------------------------------------------


class TestKeys:
    def test_const_types_are_distinguished(self):
        x = ArrayRef("A", (0, 0))
        assert _key(BinOp("*", x, Const(1))) != _key(BinOp("*", x, Const(1.0)))
        assert _key(Const(True)) != _key(Const(1))

    def test_identical_terms_share_a_key(self):
        a = BinOp("+", ArrayRef("A", (0, 1)), ScalarRef("s"))
        b = BinOp("+", ArrayRef("A", (0, 1)), ScalarRef("s"))
        assert _key(a) == _key(b)

    def test_shifted_terms_share_a_canonical_key_only(self):
        a = BinOp("+", ArrayRef("A", (0, 1)), ArrayRef("B", (0, 0)))
        shifted = BinOp("+", ArrayRef("A", (1, 1)), ArrayRef("B", (1, 0)))
        other = BinOp("+", ArrayRef("A", (1, 1)), ArrayRef("B", (0, 0)))
        assert _key(a) != _key(shifted)
        assert _canonical_key(a) == _canonical_key(shifted)
        # A non-uniform shift is a different value class.
        assert _canonical_key(a) != _canonical_key(other)

    def test_replace_is_top_down(self):
        inner = BinOp("+", ArrayRef("A", (0, 0)), ArrayRef("B", (0, 0)))
        outer = BinOp("*", inner, Const(2.0))
        # Replacing the outer term must win over its inner subterm.
        replaced = _replace_key(outer, _key(outer), ScalarRef("_cse0_0"))
        assert isinstance(replaced, ScalarRef)
        # Replacing the inner term rewrites in place.
        replaced = _replace_key(outer, _key(inner), ScalarRef("_cse0_0"))
        assert isinstance(replaced, BinOp)
        assert isinstance(replaced.left, ScalarRef)


# -- candidate legality ------------------------------------------------------


def entry(rhs, scalar_def=None):
    return _Entry(0, rhs, scalar_def)


class TestCandidates:
    TERM = BinOp(
        "+",
        BinOp("+", ArrayRef("A", (0, -1)), ArrayRef("A", (0, 1))),
        ScalarRef("s"),
    )

    def test_shared_term_found(self):
        entries = [
            entry(BinOp("*", self.TERM, Const(0.25))),
            entry(BinOp("*", self.TERM, Const(0.75))),
        ]
        found = _candidates(entries, {"B", "C"})
        assert any(c.saved >= MIN_SAVED_OPS for c in found)
        best = max(found, key=lambda c: c.saved)
        assert best.positions == [0, 1]

    def test_term_reading_written_array_rejected(self):
        entries = [
            entry(BinOp("*", self.TERM, Const(0.25))),
            entry(BinOp("*", self.TERM, Const(0.75))),
        ]
        assert not _candidates(entries, {"A"})

    def test_scalar_redefinition_is_a_barrier(self):
        # s is redefined (as a contraction scalar target) between the
        # second and third occurrence: reuse must stop there.
        entries = [
            entry(BinOp("*", self.TERM, Const(0.25))),
            entry(BinOp("*", self.TERM, Const(0.5)), scalar_def="s"),
            entry(BinOp("*", self.TERM, Const(0.75))),
        ]
        found = _candidates(entries, set())
        best = max(found, key=lambda c: c.saved)
        assert best.positions == [0, 1]

    def test_small_term_below_threshold(self):
        small = BinOp("+", ArrayRef("A", (0, 0)), ArrayRef("B", (0, 0)))
        entries = [
            entry(BinOp("*", small, Const(0.25))),
            entry(BinOp("*", small, Const(0.75))),
        ]
        found = _candidates(entries, set())
        assert all(c.expr.op_count() > 1 for c in found)


# -- end-to-end --------------------------------------------------------------


class TestEndToEnd:
    def test_shared_stencil_is_hoisted(self):
        _program, plan, scalar_program = compile_at(
            SHARED_STENCIL, "c2+f4+cse"
        )
        stats = plan.cse_stats()
        assert stats.terms_hoisted >= 1
        assert stats.saved_ops_per_point >= 4
        _b, base_plan, base_sp = compile_at(SHARED_STENCIL, "c2+f4")
        assert nest_op_count(scalar_program) < nest_op_count(base_sp)
        assert any(is_cse_scalar(name) for name in scalar_program.scalars)

    def test_non_cse_twin_unchanged(self):
        _program, plan, scalar_program = compile_at(SHARED_STENCIL, "c2+f4")
        assert plan.cse_stats() is None
        assert not any(is_cse_scalar(name) for name in scalar_program.scalars)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_to_twin(self, backend):
        program = normalize_source(SHARED_STENCIL)
        reference = run_reference(program)
        for cse_name, base_name in CSE_TWINS.items():
            _p, cse_plan, cse_sp = compile_at(SHARED_STENCIL, cse_name)
            _p, _plan, base_sp = compile_at(SHARED_STENCIL, base_name)
            cse_result = execute(cse_sp, backend)
            base_result = execute(base_sp, backend)
            assert_declared_results(cse_result, program, cse_plan)
            assert set(cse_result.arrays) == set(base_result.arrays)
            for name, array in base_result.arrays.items():
                other = cse_result.arrays[name]
                assert other.dtype == array.dtype
                assert np.array_equal(other, array, equal_nan=True)
            for name in ("s", "t"):
                assert repr(float(cse_result.scalars[name])) == repr(
                    float(base_result.scalars[name])
                )
            assert np.isclose(
                float(cse_result.scalars["t"]),
                float(reference.scalars["t"]),
            )

    def test_deterministic_output(self):
        _p1, _plan1, sp1 = compile_at(SHARED_STENCIL, "c2+f4+cse")
        _p2, _plan2, sp2 = compile_at(SHARED_STENCIL, "c2+f4+cse")
        assert render_python(sp1) == render_python(sp2)

    def test_unfused_levels_find_nothing(self):
        # Without fusion the statements sit in separate clusters; the
        # pass scans them but has nothing cross-statement to share.
        source = """
program lone;
config n : integer = 6;
region R = [1..n];
var A, B : [R] float;
var s, t : float;
begin
  [R] A := Index1 * 2.0;
  [R] B := A * 0.5;
  s := 0.0;
  t := (+<< [R] A) + (+<< [R] B);
end;
"""
        _program, plan, scalar_program = compile_at(source, "c2+f3+cse")
        stats = plan.cse_stats()
        assert stats is not None
        assert stats.terms_hoisted == 0

    def test_intra_statement_repetition_is_hoisted(self):
        # Two occurrences inside ONE statement count as reuse too.
        source = """
program intra;
config n : integer = 6;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B : [R] float;
var s, t : float;
begin
  [R] A := Index1 + Index2 * 0.5;
  [I] B := (A@(0,-1) + A@(0,1) + A@(-1,0)) * (A@(0,-1) + A@(0,1) + A@(-1,0));
  s := 0.0;
  t := +<< [R] B;
end;
"""
        program, plan, scalar_program = compile_at(source, "c2+f4+cse")
        stats = plan.cse_stats()
        assert stats.terms_hoisted == 1
        assert stats.uses_replaced == 2
        reference = run_reference(program)
        for backend in BACKENDS:
            result = execute(scalar_program, backend)
            assert np.isclose(
                float(result.scalars["t"]), float(reference.scalars["t"])
            )

    def test_offset_self_read_cluster_skipped(self):
        # A fused cluster reading its own output at an offset shards
        # per-statement; introducing a first scalar-target statement
        # would serialize it, so the pass must stay out.
        source = """
program selfread;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C : [R] float;
var s, t : float;
begin
  [R] A := Index1 * 1.5 + Index2;
  [I] B := (A@(0,-1) + A@(0,1)) * 0.25;
  [I] C := (A@(0,-1) + A@(0,1)) * 0.75 + B@(0,-1);
  s := 0.0;
  t := (+<< [R] B) + (+<< [R] C);
end;
"""
        program, plan, scalar_program = compile_at(source, "c2+f4+cse")
        stats = plan.cse_stats()
        # Either the cluster fused (then it must be skipped) or fusion
        # kept the statements apart (nothing to share); in both cases no
        # hoist may appear in a per-statement-sharded nest.
        assert not any(is_cse_scalar(name) for name in scalar_program.scalars)
        reference = run_reference(program)
        for backend in BACKENDS:
            result = execute(scalar_program, backend)
            assert np.isclose(
                float(result.scalars["t"]), float(reference.scalars["t"])
            )

    def test_shifted_reads_recorded_not_rewritten(self):
        source = """
program shifted;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C : [R] float;
var s, t : float;
begin
  [R] A := Index1 * 1.5 + Index2;
  [I] B := (A@(0,-1) + A@(0,0)) * 0.5;
  [I] C := (A@(0,0) + A@(0,1)) * 0.5;
  s := 0.0;
  t := (+<< [R] B) + (+<< [R] C);
end;
"""
        _program, plan, _sp = compile_at(source, "c2+f4+cse")
        stats = plan.cse_stats()
        assert stats.shifted_classes >= 1
        assert stats.terms_hoisted == 0
