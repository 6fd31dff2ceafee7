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


def test_contraction_scalar_absent_from_results_and_released():
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
    # B is computed into T's buffer, and the nest ends by releasing both
    # names: no run returns them, nothing outside the nest reads them.
    assert "B__s = np.multiply(T__s, 2.0, out=T__s)" in source
    assert source.rstrip().endswith("del T__s, B__s\n    return {}")
    result = execute(scalar_program, "codegen_np")
    assert set(result.arrays) == {"A"} and result.scalars == {}
    # Without an array reference the value is widened to the region.
    _program, _scalar_program, source = compile_np(
        source_text.replace("A + 1.0", "Index1 * 1.0"), C2
    )
    assert "T__s = np.broadcast_to(" in source
    assert "del T__s, B__s" in source


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


# -- in-place buffers ---------------------------------------------------------
#
# Inside a vectorized nest a stored statement writes straight into its
# target (``np.<ufunc>(..., out=target)``) and a contracted temporary
# evaluates into the owned buffer of a temporary it reads for the last
# time.  Each program below must leave bit-identical state on the element
# loops (``codegen_py``), the tree-walking ``interp`` and ``codegen_np``,
# and its text must show the rule firing, or not firing.


def _same_state(actual, expected, label):
    assert set(actual.arrays) == set(expected.arrays), label
    for name, array in expected.arrays.items():
        other = actual.arrays[name]
        assert other.dtype == array.dtype, (label, name)
        assert other.tobytes() == array.tobytes(), (label, name)
    assert list(actual.scalars) == list(expected.scalars), label
    for name, value in expected.scalars.items():
        other = actual.scalars[name]
        assert (type(other), repr(other)) == (type(value), repr(value)), (
            label, name, other, value)


def compile_checked(source, level=C2):
    """The NumPy text of ``source`` at ``level``, after checking that
    ``codegen_np`` leaves the state ``codegen_py`` and ``interp`` leave."""
    program, scalar_program, text = compile_np(source, level)
    expected = execute(scalar_program, "codegen_py")
    _same_state(execute(scalar_program, "interp"), expected, "interp")
    _same_state(execute(scalar_program, "codegen_np"), expected, "codegen_np")
    reference = run_reference(program)
    for name, array in reference.arrays.items():
        if name in expected.arrays:
            assert np.array_equal(expected.arrays[name], array), name
    return text


def _program(body, decls="var A, B, T1, T2, T3 : [R] float;", region="[1..n, 1..n]"):
    return (
        "program inplace;\nconfig n : integer = 8;\nregion R = %s;\n%s\n"
        "begin\n%s\n  [R] wrap B;\nend;\n" % (region, decls, body)
    )


_SEED_A = "  [R] A := Index1 * 0.5 + Index2;\n"


def test_contracted_chain_reuses_one_buffer():
    text = compile_checked(_program(
        _SEED_A
        + "  [R] T1 := A * A;\n  [R] T2 := T1 + 2.0;\n"
        "  [R] T3 := sqrt(T2);\n  [R] B := T3 * 0.5;"
    ))
    # Each temporary is computed into its predecessor's buffer.
    assert "T1__s = np.multiply(A__s, A__s, out=A__s)" in text
    assert "T2__s = np.add(T1__s, 2.0, out=T1__s)" in text
    assert "T3__s = np.sqrt(T2__s, out=T2__s)" in text
    # The stored statement writes straight into B.
    assert "np.multiply(T3__s, 0.5, out=B[" in text
    # The one buffer goes back to the allocator at the nest's end.
    assert "del A__s, T1__s, T2__s, T3__s" in text


def test_temporary_read_again_keeps_its_buffer():
    text = compile_checked(_program(
        _SEED_A
        + "  [R] T1 := A + 1.0;\n  [R] T2 := T1 * 2.0;\n  [R] B := T2 + T1;"
    ))
    assert "T2__s = (T1__s * 2.0)" in text
    assert "out=T1__s" not in text
    assert "del A__s, T1__s, T2__s" in text


def test_float_value_is_never_written_into_an_integer_buffer():
    # T is declared float but holds int64 values; U's float value must
    # not be computed into T's buffer, whatever T's declaration says.
    text = compile_checked(_program(
        "  [R] T1 := Index1 + 1;\n  [R] T2 := T1 * 0.5;\n  [R] B := T2 + 1.0;",
        region="[1..n]",
    ))
    assert "T1__s = (np.arange(1, 9) + 1)" in text
    assert "T2__s = (T1__s * 0.5)" in text
    assert "out=T1__s" not in text
    # An integer value may: the kind of the value decides, not the name's.
    text = compile_checked(_program(
        "  [R] T1 := Index1 + 1;\n  [R] T2 := T1 * 3;\n  [R] B := T2 + 1.0;",
        region="[1..n]",
    ))
    assert "np.multiply(T1__s, 3, out=T1__s)" in text


def test_aliased_buffer_is_never_reused():
    text = compile_checked(_program(
        _SEED_A
        + "  [R] T1 := A + 1.0;\n  [R] T2 := T1;\n  [R] T3 := T1 * 2.0;\n"
        "  [R] B := T2 + T3;",
    ))
    # T2 shares T1's buffer, so T1's last read frees nothing.
    assert "T2__s = T1__s" in text
    assert "T3__s = (T1__s * 2.0)" in text
    assert "out=T1__s" not in text


def test_serial_prefix_nest_reuses_per_hyperplane():
    # Figure 1's tridiagonal solve over a whole region: serial in i,
    # vectorized over j, the contracted R reused within each hyperplane.
    text = compile_checked(
        """
program fig1;
config n : integer = 8;
config m : integer = 6;
region G = [1..n, 1..m];
region H = [2..n, 1..m];
var R, D, DD, AA, RX, RY : [G] float;
begin
  [G] DD := Index1 + Index2 * 0.5 + 4.0;
  [G] AA := Index2 * 0.25 - Index1 * 0.125;
  [G] D := 1.0;
  [G] RX := Index1 * 1.5;
  [G] RY := Index2 * 0.75;
  [H] R := AA * D@(-1,0);
  [H] D := 1.0 / (DD - AA@(-1,0) * R);
  [H] RX := RX - RX@(-1,0) * R;
  [H] RY := RY - RY@(-1,0) * R;
  [G] wrap D;
  [G] wrap RX;
  [G] wrap RY;
end;
"""
    )
    assert "for _i1 in range(" in text
    assert "_T2__s = np.subtract(RY[_i1, 0:6], " in text
    assert "out=R__s)" in text
    assert "np.divide(1.0, " in text
    # released per hyperplane, inside the serial loop
    assert "        del R__s, _T1__s, _T2__s\n" in text


def test_guarded_nest_of_unknown_emptiness_reuses_inside_the_guard():
    text = compile_checked(_program(
        _SEED_A
        + "  for i := 1 to n do\n"
        "    [2..i, 1..n] T1 := A * 3.0;\n"
        "    [2..i, 1..n] T2 := T1 - A;\n"
        "    [2..i, 1..n] B := T2 * T2;\n"
        "  end;",
        decls="var A, B, T1, T2 : [R] float;\nvar i : integer;",
    ))
    guard = text.index("if (i) >= 2:")
    assert text.index("out=T1__s", guard) > guard
    assert text.index("del T1__s, T2__s", guard) > guard
    assert "np.multiply(T2__s, T2__s, out=B[" in text


def test_out_operand_may_overlap_its_target():
    # A hand-built vectorized nest reading A on both sides of the slice it
    # writes: NumPy's overlap rule makes ``out=`` equal to evaluating the
    # whole right-hand side first, as the language's array semantics do.
    region = Region([(LinearExpr(2), LinearExpr(7))])
    alloc = Region([(LinearExpr(1), LinearExpr(8))])
    rhs = ir.BinOp("+", ir.ArrayRef("A", (1,)), ir.ArrayRef("A", (-1,)))
    nest = LoopNest(region, (1,), [ElemAssign("A", None, rhs)], carried_depth=0)
    program = ScalarProgram("overlap", {}, {"A": (alloc, "float")}, {}, [nest])
    text = render_numpy(program)
    assert "np.add(A[2:8], A[0:6], out=A[1:7])" in text
    start = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    arrays, _ = execute(program, "codegen_np", initial_arrays={"A": start})
    expected = start.copy()
    expected[1:7] = start[2:8] + start[0:6]
    assert arrays["A"].tobytes() == expected.tobytes()


def test_reused_buffers_match_the_element_loops():
    # compile_checked compares every result with the element loops.
    for direction in ("", "\n  [R] B := B@(0,1) * 2.0;"):
        text = compile_checked(_program(
            _SEED_A
            + "  [R] T1 := A - 3.0;\n  [R] T2 := abs(T1);\n"
            "  [R] T3 := T2 * T1;\n  [R] B := T3 + A;" + direction,
        ))
        assert "T3__s = np.multiply(T2__s, T1__s, out=T2__s)" in text


def test_lazy_chain_run_peaks_at_seven_region_buffers():
    # One codegen_np run of the lazy smoothing chain at n = 256 holds the
    # layout's four arrays and one temporary per nest; the parent's text
    # held every contracted temporary of a nest at once (~9 buffers).
    import tracemalloc

    import repro.array as ra
    from repro.array.graph import Trace
    from repro.array.lowering import lower_trace
    from repro.exec import get_backend
    from repro.fusion import LEVELS_BY_NAME

    n = 256
    x = ra.asarray(np.zeros((n, n)))
    for _ in range(3):
        x = (x + x.shift(0, 1) + x.shift(0, -1) + x.shift(1, 1) + x.shift(1, -1)) * 0.2
    program = lower_trace(Trace((x.node, x.sum().node)))
    scalar_program = scalarize(
        program, plan_program(program, LEVELS_BY_NAME["c2+f4"])
    )
    run = get_backend("codegen_np").load(scalar_program)
    padded = np.zeros((n + 2, n + 2))
    padded[1:-1, 1:-1] = np.random.default_rng(0).random((n, n))
    run({"in0": padded}, None)
    tracemalloc.start()
    try:
        run({"in0": padded}, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * padded.nbytes, peak / padded.nbytes
