"""``x % 1.0`` lowered as ``x - floor(x)``: exact at every edge, everywhere.

The ``c`` and NumPy emitters replace a float modulo by the constant ``1.0``
with the fractional part (:func:`repro.scalarize.emit_common.frac_operand`);
``interp`` (``np.mod``) and ``codegen_py`` (Python ``%``) keep the defining
form and are the oracle.  One program, seeded with every value at which the
two forms could part ways, must give the same bits on all five backends at
``baseline`` and ``c2+f4+cse`` — and every other divisor must keep calling
``repro_mod``.
"""

import numpy as np
import pytest

from repro.exec import native
from repro.exec.backends import BACKENDS, execute
from repro.fusion import LEVELS_BY_NAME, plan_program
from repro.ir import expr as ir
from repro.ir import normalize_source
from repro.scalarize import render_c_module, render_numpy, render_python, scalarize
from repro.scalarize.emit_common import frac_operand

EDGES = np.array(
    [
        0.0, -0.0, 0.5, -0.5, -(2.0 ** -54), -1e-20, 1.0 - 2.0 ** -53,
        np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
        np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0),
        -3.0, -1.0, 1.0, 3.0, 7.0,
        2.0 ** 52, -(2.0 ** 52), 2.0 ** 52 + 1, -(2.0 ** 52 + 1),
        2.0 ** 53, -(2.0 ** 53), 1e300, -1e300, 5e-324, -5e-324,
        np.inf, -np.inf, np.nan,
        0.25, -0.75, 123456.789,
    ]
).reshape(4, 8)

SOURCE = """
program fracedge;
region R = [1..4, 1..8];
var A, F1, F2, F3, M2, M5, KEEP : [R] float;
var k : integer;
begin
  [R] F1 := A % 1.0;
  [R] F2 := mod(A, 1.0);
  [R] F3 := Index1 % 1.0;
  [R] M2 := A % 2.0;
  [R] M5 := mod(A, 5.0);
  -- a read from another basic block keeps each array out of contraction
  for k := 1 to 1 do
    [R] KEEP := F1 + F2 + F3 + M2 + M5;
  end;
end;
"""
OUTPUTS = ("F1", "F2", "F3", "M2", "M5")
LEVELS = ("baseline", "c2+f4+cse")


def compile_at(level):
    program = normalize_source(SOURCE)
    return scalarize(program, plan_program(program, LEVELS_BY_NAME[level]))


#: Every backend this host can run.
AVAILABLE = [
    name for name in sorted(BACKENDS) if name != "c" or native.cc_available()
]


def assert_same_bits(actual, expected, label):
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), label
    # tobytes() equality is bit equality: it tells -0.0 from +0.0.
    assert actual[~nan].tobytes() == expected[~nan].tobytes(), label


@pytest.fixture(scope="module")
def oracle():
    with np.errstate(invalid="ignore"):
        return execute(compile_at("baseline"), "interp", {"A": EDGES}).arrays


def test_the_oracle_is_the_defining_form(oracle):
    with np.errstate(invalid="ignore"):
        assert_same_bits(oracle["F1"], np.mod(EDGES, 1.0), "F1")
        assert_same_bits(oracle["M2"], np.mod(EDGES, 2.0), "M2")
    assert not np.signbit(oracle["F1"][EDGES == 0]).any()  # -0.0 % 1.0 is +0.0
    assert oracle["F1"].flat[list(EDGES.flat).index(-5e-324)] == 1.0
    assert oracle["M2"].flat[list(EDGES.flat).index(-5e-324)] == 2.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("backend", AVAILABLE)
def test_every_backend_agrees_bit_for_bit(backend, level, oracle):
    options = {"procs": 2} if backend == "mp-shard" else {}
    result = execute(compile_at(level), backend, {"A": EDGES}, **options)
    for name in OUTPUTS:
        assert result.arrays[name].dtype == np.float64
        assert_same_bits(
            result.arrays[name], oracle[name], "%s %s %s" % (backend, level, name)
        )


def _call_sites(text, helper):
    """Uses of a C helper, its own definition line not counted."""
    return sum(
        line.count(helper + "(")
        for line in text.splitlines()
        if not line.startswith("static ")
    )


def test_c_text_uses_frac_for_unit_divisors_only():
    text = render_c_module(compile_at("baseline"))
    assert _call_sites(text, "repro_frac") == 3  # F1, F2, F3
    assert _call_sites(text, "repro_mod") == 2  # M2, M5
    # libm fmod survives only inside the general-divisor helper.
    assert text.count("fmod(") == 1
    assert "repro_frac(_i1)" in text  # the integer-kind dividend converts
    assert "1.0)" not in text  # no call still carries the unit divisor


def test_numpy_text_uses_floor_for_unit_divisors_only():
    scalar_program = compile_at("baseline")
    text = render_numpy(scalar_program)
    assert text.count("np.floor(_f)") == 3
    assert text.count("% 2.0") == 1 and text.count("np.mod(") == 1
    assert "% 1.0" not in text and ", 1.0)" not in text
    # codegen_py keeps the defining form: it is the element-order oracle.
    text = render_python(scalar_program)
    assert text.count("% 1.0") == 3 and "floor" not in text


def test_frac_operand_accepts_only_the_float_constant_one():
    x = ir.ArrayRef("A", (0, 0))
    assert frac_operand(ir.BinOp("%", x, ir.Const(1.0))) is x
    assert frac_operand(ir.Call("mod", [x, ir.Const(1.0)])) is x
    for divisor in (ir.Const(1), ir.Const(True), ir.Const(2.0), ir.Const(0.5),
                    ir.Const(-1.0), ir.ScalarRef("one")):
        assert frac_operand(ir.BinOp("%", x, divisor)) is None
        assert frac_operand(ir.Call("mod", [x, divisor])) is None
    assert frac_operand(ir.BinOp("*", x, ir.Const(1.0))) is None
    assert frac_operand(ir.BinOp("%", ir.Const(1.0), x)) is None
    assert frac_operand(ir.Call("min", [x, ir.Const(1.0)])) is None


def test_why_not_other_powers_of_two():
    # The counter-example that keeps the predicate at exactly 1.0: the
    # floor form of ``x % 2.0`` loses the tiniest negative operand.
    x = -5e-324
    assert np.mod(x, 2.0) == 2.0
    assert x - 2.0 * np.floor(x / 2.0) == x
