"""Differential testing: the optimizer must preserve array semantics.

Hypothesis generates random straight-line-and-loop programs; every
optimization level's scalarized execution — on every execution back end —
must produce exactly the state of the reference (array-semantics)
interpreter: final arrays equal, reduction results numerically close (fused
and vectorized reductions may reassociate floating-point sums).

The second half is a deterministic three-way oracle: every benchsuite
application, at every optimization level, on all three back ends
(interpreter, generated Python loops, generated whole-region NumPy), all
compared against the reference interpreter and against each other —
integer and boolean state bit for bit including dtype, float state to
tight tolerances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchsuite import ALL_BENCHMARKS
from repro.exec import BACKENDS, execute
from repro.fusion import ALL_LEVELS, plan_program
from repro.interp import run_reference
from repro.ir import normalize_source
from repro.scalarize import scalarize
from tests.test_result_contract import assert_declared_results


def assert_array_matches(actual, expected, label):
    """Exact for integer/boolean arrays (plus dtype), close for floats."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype, "%s: dtype %s != %s" % (
        label,
        actual.dtype,
        expected.dtype,
    )
    if expected.dtype.kind in "ib":
        assert np.array_equal(actual, expected), "%s diverged (exact)" % label
    else:
        assert np.allclose(
            actual, expected, rtol=1e-9, atol=1e-11, equal_nan=True
        ), "%s diverged (max |diff| = %s)" % (
            label,
            np.max(np.abs(actual - expected)),
        )


def assert_scalar_matches(actual, expected, label):
    if isinstance(expected, (bool, np.bool_)):
        assert bool(actual) == bool(expected), label
    elif isinstance(expected, (int, np.integer)) and isinstance(
        actual, (int, np.integer)
    ):
        assert int(actual) == int(expected), label
    else:
        assert np.isclose(
            float(actual), float(expected), rtol=1e-9, atol=1e-11, equal_nan=True
        ), "%s: %r != %r" % (label, actual, expected)

ARRAYS = ["A", "B", "C", "D", "E"]

HEADER = """
program rand;
config n : integer = 6;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C, D, E : [R] float;
var s, t : float;
var i : integer;
begin
  [R] A := Index1 * 1.5 + Index2;
  [R] B := Index1 - Index2 * 0.5;
  [R] C := (Index1 * 3.7 + Index2 * 1.3) % 2.0;
  [R] D := 1.0;
  [R] E := 0.25 * Index2;
  s := 0.5;
"""

FOOTER = """
  t := (+<< [R] (A + B)) + (+<< [R] (C + D)) + (+<< [R] E);
end;
"""


@st.composite
def offsets(draw):
    return (draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))


@st.composite
def exprs(draw, depth=0):
    choice = draw(st.integers(0, 6 if depth < 2 else 3))
    if choice == 0:
        return "%.2f" % draw(st.floats(0.5, 4.0, allow_nan=False))
    if choice == 1:
        name = draw(st.sampled_from(ARRAYS))
        off = draw(offsets())
        if off == (0, 0):
            return name
        return "%s@(%d,%d)" % (name, off[0], off[1])
    if choice == 2:
        return draw(st.sampled_from(["Index1", "Index2", "s"]))
    if choice == 3:
        return "sqrt(abs(%s) + 0.1)" % draw(exprs(depth + 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return "(%s %s %s)" % (draw(exprs(depth + 1)), op, draw(exprs(depth + 1)))


@st.composite
def statements(draw):
    target = draw(st.sampled_from(ARRAYS))
    region = draw(st.sampled_from(["R", "I"]))
    return "  [%s] %s := %s;" % (region, target, draw(exprs()))


@st.composite
def row_statements(draw):
    """Dynamic-region statements inside a row-sweep loop: the contraction
    soundness frontier (row-carried values, disjoint per-iteration rows)."""
    target = draw(st.sampled_from(ARRAYS))
    row_offset = draw(st.integers(-1, 0))
    name = draw(st.sampled_from(ARRAYS))
    if row_offset == 0:
        value = name
    else:
        value = "%s@(%d,0)" % (name, row_offset)
    return "  [i, 1..n] %s := %s + %s;" % (target, value, draw(exprs(2)))


@st.composite
def boundary_statements_strategy(draw):
    kind = draw(st.sampled_from(["wrap", "reflect"]))
    return "  [R] %s %s;" % (kind, draw(st.sampled_from(ARRAYS)))


@st.composite
def programs(draw):
    lines = draw(st.lists(statements(), min_size=1, max_size=7))
    if draw(st.booleans()):
        position = draw(st.integers(0, len(lines)))
        lines.insert(position, draw(boundary_statements_strategy()))
    body = "\n".join(lines)
    if draw(st.booleans()):
        inner = "\n  ".join(draw(st.lists(statements(), min_size=1, max_size=3)))
        body += "\n  for i := 1 to 3 do\n  %s\n  end;" % inner
    if draw(st.booleans()):
        inner = "\n  ".join(
            draw(st.lists(row_statements(), min_size=1, max_size=4))
        )
        body += "\n  for i := 2 to n do\n  %s\n  end;" % inner
    if draw(st.booleans()):
        body += "\n  s := +<< [R] %s;" % draw(st.sampled_from(ARRAYS))
    return HEADER + body + FOOTER


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_all_levels_preserve_semantics(source):
    program = normalize_source(source)
    reference = run_reference(program)
    for level in ALL_LEVELS:
        plan = plan_program(program, level)
        scalar_program = scalarize(program, plan)
        result = execute(scalar_program, "interp")
        assert_declared_results(result, program, plan)
        for name, array in result.arrays.items():
            assert np.allclose(
                array, reference.arrays[name], equal_nan=True
            ), "array %s diverged under %s\n%s" % (name, level.name, source)
        for scalar in ("s", "t"):
            assert np.isclose(
                float(result.scalars[scalar]),
                float(reference.scalars[scalar]),
                equal_nan=True,
            ), "scalar %s diverged under %s\n%s" % (scalar, level.name, source)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_all_backends_agree(source):
    """The generated-code back ends match the reference on random programs."""
    program = normalize_source(source)
    reference = run_reference(program)
    for level in ALL_LEVELS:
        plan = plan_program(program, level)
        scalar_program = scalarize(program, plan)
        for backend in ("codegen_py", "codegen_np"):
            result = execute(scalar_program, backend)
            assert_declared_results(result, program, plan)
            for name, array in result.arrays.items():
                assert np.allclose(
                    array, reference.arrays[name], equal_nan=True
                ), "array %s diverged under %s/%s\n%s" % (
                    name,
                    level.name,
                    backend,
                    source,
                )
            for scalar in ("s", "t"):
                assert np.isclose(
                    float(result.scalars[scalar]),
                    float(reference.scalars[scalar]),
                    equal_nan=True,
                ), "scalar %s diverged under %s/%s\n%s" % (
                    scalar,
                    level.name,
                    backend,
                    source,
                )


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda l: l.name)
def test_benchsuite_three_way_oracle(bench, level):
    """Interpreter, Python loops and NumPy slices agree on every benchmark.

    All three back ends execute the *same* scalarized program and are
    compared against the reference interpreter and against each other.
    """
    program = bench.test_program()
    reference = run_reference(program)
    plan = plan_program(program, level)
    scalar_program = scalarize(program, plan)
    results = {
        name: execute(scalar_program, name) for name in sorted(BACKENDS)
    }
    for backend, result in results.items():
        where = "%s %s %s" % (bench.name, level.name, backend)
        assert_declared_results(result, program, plan)
        for name, array in result.arrays.items():
            assert_array_matches(
                array, reference.arrays[name], "%s array %s" % (where, name)
            )
        for name, value in result.scalars.items():
            assert_scalar_matches(
                value, reference.scalars[name], "%s scalar %s" % (where, name)
            )
    # The two code generators must agree with the interpreter back end on
    # every declared result.
    anchor = results["interp"]
    for backend in ("codegen_py", "codegen_np"):
        result = results[backend]
        where = "%s %s interp-vs-%s" % (bench.name, level.name, backend)
        assert list(result.scalars) == list(anchor.scalars), where
        for name, array in result.arrays.items():
            assert_array_matches(
                array, anchor.arrays[name], "%s array %s" % (where, name)
            )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_plans_satisfy_definitions(source):
    """Every produced partition is a valid fusion partition (Definition 5)
    and every contracted array satisfies Definition 6."""
    from repro.fusion.contract import is_contractible

    program = normalize_source(source)
    for level in ALL_LEVELS:
        plan = plan_program(program, level)
        for block_plan in plan.block_plans.values():
            partition = block_plan.partition
            assert partition.is_valid(), level.name
            for name in block_plan.contracted:
                clusters = partition.clusters_referencing(name)
                assert len(clusters) <= 1
                assert is_contractible(name, clusters or {0}, partition)
