"""The vectorizing NumPy back end: legality decisions and emitted shapes.

Correctness against the other back ends is covered by the three-way
oracle in ``test_differential.py``; these tests pin the *structure* of the
generated code — that dependence-free nests really become slice
operations, that carried dependences peel exactly the right loops, and
that the fallbacks fall back.
"""

import numpy as np
import pytest

from repro.exec import execute
from repro.fusion import BASELINE, C2, C2F3, F3, plan_program
from repro.interp import run_reference
from repro.ir import normalize_source
from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.scalarize import scalarize
from repro.scalarize.codegen_np import render_numpy
from repro.scalarize.loopnest import ElemAssign, LoopNest, ScalarProgram


def compile_np(source, level=C2F3):
    program = normalize_source(source)
    scalar_program = scalarize(program, plan_program(program, level))
    return program, scalar_program, render_numpy(scalar_program)


STENCIL = """
program stencil;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B : [R] float;
begin
  [R] A := Index1 * 2.0 + Index2;
  [I] B := (A@(-1,0) + A@(1,0) + A@(0,-1) + A@(0,1)) * 0.25;
end;
"""


def test_dependence_free_nest_has_no_element_loops():
    _program, _sp, source = compile_np(STENCIL, F3)
    assert "for _i" not in source, source


def test_stencil_offsets_become_shifted_slices():
    program, scalar_program, source = compile_np(STENCIL, F3)
    # A is allocated with a one-element halo (base 0), so A@(-1,0) over
    # rows [2..n-1] is raw rows 1..6 — the slice 1:7 — and A@(1,0) is 3:9.
    assert "A[1:7, 2:8]" in source
    assert "A[3:9, 2:8]" in source
    assert "A[2:8, 1:7]" in source
    assert "A[2:8, 3:9]" in source
    arrays, _ = execute(scalar_program, "codegen_np")
    reference = run_reference(program)
    assert np.allclose(arrays["B"], reference.arrays["B"])


CARRIED = """
program carried;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n, 1..n];
var A, B : [R] float;
begin
  [R] A := Index1 + Index2 * 0.5;
  [I] B := A@(-1,0) * 0.5;
  [I] A := B + 1.0;
end;
"""


def test_carried_dependence_peels_outer_loop_only():
    program, scalar_program, source = compile_np(CARRIED, F3)
    # Fusing the two [I] statements creates an anti-dependence on A carried
    # at loop level 0: dimension 1 stays a serial loop, dimension 2 must
    # still collapse to a slice.
    nests = scalar_program.loop_nests()
    assert nests[-1].carried_depth == 1
    assert "for _i1 in" in source
    assert "for _i2" not in source
    arrays, _ = execute(scalar_program, "codegen_np")
    reference = run_reference(program)
    assert np.allclose(arrays["A"], reference.arrays["A"])
    assert np.allclose(arrays["B"], reference.arrays["B"])


def test_contraction_scalar_restored_from_corner():
    source_text = """
program contract;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B, T : [R] float;
begin
  [R] T := A + 1.0;
  [R] B := T * 2.0;
end;
"""
    _program, scalar_program, source = compile_np(source_text, C2)
    # A + 1.0 already has the region's shape: no broadcast_to around it.
    assert "T__s = (A[0:6, 0:6] + 1.0)" in source
    assert "T__s = T__s[-1, -1]" in source
    # Without an array reference the value is widened to the region.
    _program, _scalar_program, source = compile_np(
        source_text.replace("A + 1.0", "Index1 * 1.0"), C2
    )
    assert "T__s = np.broadcast_to(" in source
    assert "T__s = T__s[-1, -1]" in source


def test_reversed_loops_take_corner_at_zero():
    region = Region([(LinearExpr(1), LinearExpr(6))])
    nest = LoopNest(
        region,
        (-1,),
        [ElemAssign(None, "T__s", ir.IndexRef(1))],
        carried_depth=0,
    )
    program = ScalarProgram(
        "rev", {}, {}, {"T__s": "float"}, [nest]
    )
    source = render_numpy(program)
    assert "T__s = T__s[0]" in source
    _arrays, scalars = execute(program, "codegen_np")
    # Downward iteration ends at the region's low bound.
    assert scalars["T__s"] == 1


def test_unknown_carry_depth_falls_back_to_element_loops():
    region = Region([(LinearExpr(1), LinearExpr(6))])
    nest = LoopNest(region, (1,), [ElemAssign("A", None, ir.Const(2.0))])
    assert nest.carried_depth is None
    program = ScalarProgram(
        "fallback", {}, {"A": (region, "float")}, {}, [nest]
    )
    source = render_numpy(program)
    assert "for _i1 in range(1, 6 + 1):" in source


def test_partial_contraction_falls_back_to_element_loops():
    source_text = """
program rowbuf;
config n : integer = 8;
region R = [1..n, 1..n];
var A, T : [R] float;
var i : integer;
var s : float;
begin
  for i := 2 to n do
    [i, 1..n] T := Index2 * 1.5;
    [i, 1..n] A := T + T@(-1,0);
  end;
  s := +<< [R] A;
end;
"""
    from repro.fusion import C2P

    program = normalize_source(source_text)
    scalar_program = scalarize(program, plan_program(program, C2P))
    if not scalar_program.partial:
        pytest.skip("C2P did not produce a row buffer here")
    source = render_numpy(scalar_program)
    # Circular buffers index modulo their depth: no slice form exists.
    assert "% 2" in source
    arrays, _ = execute(scalar_program, "codegen_np")
    reference = run_reference(program)
    assert np.allclose(arrays["A"], reference.arrays["A"])


def test_vectorized_index_grids_broadcast_per_dimension():
    source_text = """
program grids;
config n : integer = 5;
region R = [1..n, 1..n];
var A : [R] float;
begin
  [R] A := Index1 * 10.0 + Index2;
end;
"""
    program, scalar_program, source = compile_np(source_text, BASELINE)
    assert "np.arange(1, 6).reshape(-1, 1)" in source
    assert "np.arange(1, 6).reshape(1, -1)" in source
    arrays, _ = execute(scalar_program, "codegen_np")
    assert np.allclose(arrays["A"], run_reference(program).arrays["A"])


def test_fused_reduction_uses_whole_region_sum():
    source_text = """
program red;
config n : integer = 6;
region R = [1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 1.0;
  s := +<< [R] A;
end;
"""
    program, scalar_program, source = compile_np(source_text, C2F3)
    assert "np.sum(" in source
    _arrays, scalars = execute(scalar_program, "codegen_np")
    assert float(scalars["s"]) == 21.0


def test_symbolic_bounds_emit_runtime_guard_for_reductions():
    source_text = """
program dyn;
config n : integer = 6;
region R = [1..n, 1..n];
var A : [R] float;
var s : float;
var i : integer;
begin
  [R] A := 1.0;
  for i := 2 to n do
    s := +<< [2..i, 1..n] A;
  end;
end;
"""
    program, scalar_program, source = compile_np(source_text, BASELINE)
    _arrays, scalars = execute(scalar_program, "codegen_np")
    reference = run_reference(program)
    assert float(scalars["s"]) == float(reference.scalars["s"])
