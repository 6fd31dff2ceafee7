"""Tests for constant folding and algebraic simplification."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fusion import C2, plan_program
from repro.interp import run_reference, run_scalarized
from repro.interp.evalexpr import eval_point
from repro.ir import ArrayRef, BinOp, Call, Const, ScalarRef, UnOp, normalize_source
from repro.ir.simplify import simplify_expr, simplify_program
from repro.scalarize import scalarize


class TestFolding:
    def test_arithmetic_folds(self):
        expr = BinOp("*", Const(2.0), Const(0.5))
        assert simplify_expr(expr).value == 1.0

    def test_nested_folds(self):
        expr = BinOp("+", BinOp("*", Const(2.0), Const(3.0)), Const(4.0))
        assert simplify_expr(expr).value == 10.0

    def test_division_by_zero_not_folded(self):
        expr = BinOp("/", Const(1.0), Const(0.0))
        folded = simplify_expr(expr)
        assert isinstance(folded, BinOp)

    def test_call_folds(self):
        expr = Call("sqrt", (Const(16.0),))
        assert simplify_expr(expr).value == 4.0

    def test_call_domain_error_not_folded(self):
        expr = Call("log", (Const(-1.0),))
        assert isinstance(simplify_expr(expr), Call)

    def test_unary_folds(self):
        assert simplify_expr(UnOp("-", Const(3.0))).value == -3.0

    def test_double_negation(self):
        x = ScalarRef("x")
        assert simplify_expr(UnOp("-", UnOp("-", x))) is x


#: Kind tables naming ``X`` a float array / ``k`` an int scalar, for the
#: kind-gated identity rewrites.
FLOAT_X = ({"X": "float"}, {})
INT_X = ({"X": "integer"}, {})


class TestIdentities:
    X = ArrayRef("X", (0, 0))

    def test_add_zero_unknown_kind_not_folded(self):
        # Without a proved kind the +0 identities must not fire at all.
        assert isinstance(simplify_expr(BinOp("+", self.X, Const(0.0))), BinOp)
        assert isinstance(simplify_expr(BinOp("+", Const(0), self.X)), BinOp)

    def test_add_pos_zero_float_not_folded(self):
        # x + 0.0 is +0.0 for x = -0.0: not an identity on floats.
        expr = BinOp("+", self.X, Const(0.0))
        assert isinstance(simplify_expr(expr, *FLOAT_X), BinOp)

    def test_add_neg_zero_float_folds(self):
        assert simplify_expr(BinOp("+", self.X, Const(-0.0)), *FLOAT_X) is self.X
        assert simplify_expr(BinOp("+", Const(-0.0), self.X), *FLOAT_X) is self.X

    def test_add_int_zero_int_folds(self):
        assert simplify_expr(BinOp("+", self.X, Const(0)), *INT_X) is self.X
        assert simplify_expr(BinOp("+", Const(0), self.X), *INT_X) is self.X
        # ...but an int zero on a float operand would promote -0.0.
        assert isinstance(
            simplify_expr(BinOp("+", self.X, Const(0)), *FLOAT_X), BinOp
        )

    def test_sub_zero(self):
        # x - 0.0 is exact for every float x (-0.0 - 0.0 == -0.0)...
        assert simplify_expr(BinOp("-", self.X, Const(0.0)), *FLOAT_X) is self.X
        assert simplify_expr(BinOp("-", self.X, Const(0)), *INT_X) is self.X
        assert simplify_expr(BinOp("-", self.X, Const(0)), *FLOAT_X) is self.X

    def test_sub_neg_zero_not_folded(self):
        # ...while x - (-0.0) flips -0.0 to +0.0.
        expr = BinOp("-", self.X, Const(-0.0))
        assert isinstance(simplify_expr(expr, *FLOAT_X), BinOp)

    def test_mul_one(self):
        assert simplify_expr(BinOp("*", self.X, Const(1.0)), *FLOAT_X) is self.X
        assert simplify_expr(BinOp("*", Const(1.0), self.X), *FLOAT_X) is self.X
        assert simplify_expr(BinOp("*", self.X, Const(1)), *INT_X) is self.X
        assert simplify_expr(BinOp("*", self.X, Const(1)), *FLOAT_X) is self.X

    def test_mul_float_one_int_operand_not_folded(self):
        # int * 1.0 promotes to float: dropping it would change dtype.
        expr = BinOp("*", self.X, Const(1.0))
        assert isinstance(simplify_expr(expr, *INT_X), BinOp)

    def test_div_one(self):
        assert simplify_expr(BinOp("/", self.X, Const(1.0)), *FLOAT_X) is self.X
        # Division promotes int operands to float: keep the op.
        expr = BinOp("/", self.X, Const(1.0))
        assert isinstance(simplify_expr(expr, *INT_X), BinOp)

    def test_pow_one(self):
        assert simplify_expr(BinOp("^", self.X, Const(1.0)), *FLOAT_X) is self.X
        expr = BinOp("^", self.X, Const(1))
        assert isinstance(simplify_expr(expr, *INT_X), BinOp)

    def test_mul_zero_not_folded(self):
        # x * 0 must keep NaN/inf propagation.
        expr = BinOp("*", self.X, Const(0.0))
        assert isinstance(simplify_expr(expr, *FLOAT_X), BinOp)

    def test_boolean_consts_untouched(self):
        expr = BinOp("and", Const(True), Const(False))
        assert isinstance(simplify_expr(expr), BinOp)

    def test_boolean_operand_never_folded(self):
        expr = BinOp("+", ArrayRef("X", (0, 0)), Const(0))
        assert isinstance(simplify_expr(expr, {"X": "boolean"}, {}), BinOp)


class TestSignedZeroBitPatterns:
    def test_const_fold_of_neg_zero_sum_is_pos_zero(self):
        folded = simplify_expr(BinOp("+", Const(-0.0), Const(0.0)))
        assert folded.value == 0.0
        assert math.copysign(1.0, folded.value) == 1.0

    def test_gated_add_preserves_neg_zero_at_runtime(self):
        # x + 0.0 stays an op; evaluating it on x = -0.0 yields +0.0 —
        # exactly the bit the old unconditional fold destroyed.
        expr = BinOp("+", ScalarRef("x"), Const(0.0))
        kept = simplify_expr(expr, {}, {"x": "float"})
        assert isinstance(kept, BinOp)
        value = eval_point(kept, {"x": -0.0}, lambda n, o: 0.0, (1, 1))
        assert math.copysign(1.0, float(value)) == 1.0

    def test_neg_zero_identity_preserves_sign_at_runtime(self):
        # The fold that IS performed, x + (-0.0) -> x, is bit-exact.
        expr = BinOp("+", ScalarRef("x"), Const(-0.0))
        folded = simplify_expr(expr, {}, {"x": "float"})
        assert isinstance(folded, ScalarRef)
        for x in (-0.0, 0.0, -1.5, 2.25):
            direct = eval_point(expr, {"x": x}, lambda n, o: 0.0, (1, 1))
            via_fold = eval_point(folded, {"x": x}, lambda n, o: 0.0, (1, 1))
            assert repr(float(direct)) == repr(float(via_fold))


class TestIntCallFolds:
    def test_abs_int_stays_int(self):
        folded = simplify_expr(Call("abs", (Const(-3),)))
        assert folded.value == 3 and isinstance(folded.value, int)

    def test_min_max_int_stay_int(self):
        lo = simplify_expr(Call("min", (Const(2), Const(5))))
        hi = simplify_expr(Call("max", (Const(2), Const(5))))
        assert lo.value == 2 and isinstance(lo.value, int)
        assert hi.value == 5 and isinstance(hi.value, int)

    def test_pow_of_ints_is_float(self):
        # ``pow`` has one kind, the one sema declares: float, as ``^``.
        folded = simplify_expr(Call("pow", (Const(2), Const(3))))
        assert folded.value == 8.0 and isinstance(folded.value, float)

    def test_pow_negative_exponent_goes_float(self):
        folded = simplify_expr(Call("pow", (Const(2), Const(-1))))
        assert folded.value == 0.5 and isinstance(folded.value, float)

    def test_mixed_args_go_float(self):
        folded = simplify_expr(Call("min", (Const(2), Const(5.0))))
        assert folded.value == 2.0 and isinstance(folded.value, float)

    def test_float_args_stay_float(self):
        folded = simplify_expr(Call("abs", (Const(-3.0),)))
        assert folded.value == 3.0 and isinstance(folded.value, float)

    def test_sqrt_of_int_goes_float(self):
        folded = simplify_expr(Call("sqrt", (Const(16),)))
        assert folded.value == 4.0 and isinstance(folded.value, float)


def leaf_exprs():
    return st.one_of(
        st.floats(-8, 8, allow_nan=False).map(lambda v: Const(round(v, 2))),
        st.just(ScalarRef("x")),
        st.just(ArrayRef("A", (0, 0))),
    )


def random_exprs(depth=3):
    if depth == 0:
        return leaf_exprs()
    sub = random_exprs(depth - 1)
    return st.one_of(
        leaf_exprs(),
        st.builds(
            BinOp, st.sampled_from(["+", "-", "*"]), sub, sub
        ),
        st.builds(UnOp, st.just("-"), sub),
        st.builds(lambda a: Call("abs", (a,)), sub),
    )


class TestSemanticsPreservation:
    @given(random_exprs())
    def test_simplified_evaluates_identically(self, expr):
        simplified = simplify_expr(expr)

        def element(name, offset):
            return 2.5

        env = {"x": -1.25}
        original = eval_point(expr, env, element, (1, 1))
        folded = eval_point(simplified, env, element, (1, 1))
        assert np.isclose(float(original), float(folded), equal_nan=True)

    @given(random_exprs())
    def test_never_more_ops(self, expr):
        assert simplify_expr(expr).op_count() <= expr.op_count()


class TestProgramPass:
    SOURCE = """
program s;
config n : integer = 6;
config two : float = 2.0;
region R = [1..n, 1..n];
var A, B : [R] float;
var total : float;
begin
  [R] A := (Index1 * 1.0) * (two * 0.5) + 0.0;
  [R] B := A / 1.0 + sqrt(4.0);
  total := +<< [R] B;
end;
"""

    def test_ops_reduced_and_semantics_kept(self):
        baseline = normalize_source(self.SOURCE)
        reference = run_reference(baseline)

        program = simplify_program(normalize_source(self.SOURCE))
        before_ops = sum(
            stmt.rhs.op_count() for stmt in baseline.array_statements()
        )
        after_ops = sum(
            stmt.rhs.op_count() for stmt in program.array_statements()
        )
        assert after_ops < before_ops

        result = run_scalarized(scalarize(program, plan_program(program, C2)))
        assert np.isclose(
            float(result.scalars["total"]), float(reference.scalars["total"])
        )

    def test_loop_bounds_simplified(self):
        source = """
program p;
config n : integer = 4;
region R = [1..n];
var V : [R] float;
var i : integer;
begin
  for i := 1 + 0 to n do
    [R] V := 1.0;
  end;
end;
"""
        program = simplify_program(normalize_source(source))
        loop = program.body[0]
        assert isinstance(loop.lo, Const)
        assert loop.lo.value == 1
