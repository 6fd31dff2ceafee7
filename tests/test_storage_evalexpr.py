"""Unit tests for storage and expression evaluation."""

import numpy as np
import pytest

from repro.interp.evalexpr import eval_point, eval_region, eval_scalar
from repro.interp.storage import Storage
from repro.ir import (
    ArrayRef,
    BinOp,
    Call,
    Const,
    IndexRef,
    Reduce,
    Region,
    ScalarRef,
    UnOp,
)
from repro.lang.operators import REDUCTIONS
from repro.util.errors import InterpError


def _operand(value):
    """A leaf holding ``value``: a constant, or (arrays) a scalar-env entry."""
    if isinstance(value, np.ndarray):
        return ScalarRef("v%d" % id(value)), {"v%d" % id(value): value}
    return Const(value), {}


def apply_binop(op, left, right):
    """``left op right`` through the evaluator (the old helper's inputs)."""
    (lnode, lenv), (rnode, renv) = _operand(left), _operand(right)
    return eval_scalar(BinOp(op, lnode, rnode), {**lenv, **renv})


def apply_unop(op, operand):
    node, env = _operand(operand)
    return eval_scalar(UnOp(op, node), env)


def apply_intrinsic(name, args):
    nodes, env = [], {}
    for arg in args:
        node, arg_env = _operand(arg)
        nodes.append(node)
        env.update(arg_env)
    return eval_scalar(Call(name, nodes), env)


class TestStorage:
    def make(self):
        storage = Storage()
        storage.allocate_array("A", Region.literal((1, 4), (0, 5)), "float")
        storage.declare_scalar("s", "float")
        storage.declare_scalar("i", "integer")
        storage.declare_scalar("f", "boolean")
        return storage

    def test_allocation_shape_and_zeroing(self):
        storage = self.make()
        assert storage.arrays["A"].shape == (4, 6)
        assert storage.arrays["A"].dtype == np.float64
        assert np.all(storage.arrays["A"] == 0.0)

    def test_scalar_defaults(self):
        storage = self.make()
        assert storage.scalar("s") == 0.0
        assert storage.scalar("i") == 0
        assert storage.scalar("f") is False

    def test_undefined_scalar(self):
        with pytest.raises(InterpError):
            self.make().scalar("nope")

    def test_element_roundtrip(self):
        storage = self.make()
        storage.set_element("A", (2, 3), 7.5)
        assert storage.element("A", (2, 3)) == 7.5
        # Base offsets: (1, 0) -> raw index (1, 3).
        assert storage.arrays["A"][1, 3] == 7.5

    def test_slice_view_is_view(self):
        storage = self.make()
        view = storage.slice_view("A", ((2, 3), (1, 2)), (0, 0))
        view[...] = 4.0
        assert storage.element("A", (2, 1)) == 4.0
        assert storage.element("A", (1, 1)) == 0.0

    def test_slice_view_offset(self):
        storage = self.make()
        storage.set_element("A", (1, 0), 9.0)
        view = storage.slice_view("A", ((2, 2), (1, 1)), (-1, -1))
        assert view[0, 0] == 9.0

    @staticmethod
    def make_buffer():
        # A circular buffer is laid out like any array (the scalarizer
        # already made its modular dimension [0..depth-1]); the storage
        # is told which dimension wraps.
        return Storage(
            {"W": np.zeros((2, 4))}, {"W": (0, 1)}, wrapped={"W": (1, 2)}
        )

    def test_buffer_wraps(self):
        storage = self.make_buffer()
        storage.set_element("W", (5, 2), 3.0)  # 5 % 2 == 1
        assert storage.element("W", (7, 2)) == 3.0  # 7 % 2 == 1
        assert storage.element("W", (6, 2)) == 0.0

    def test_buffer_slice_rejected(self):
        storage = self.make_buffer()
        with pytest.raises(InterpError, match="circular buffer"):
            storage.slice_view("W", ((1, 8), (1, 4)), (0, 0))

    def test_snapshot_is_copy(self):
        storage = self.make()
        snap = storage.snapshot()
        storage.set_element("A", (1, 0), 1.0)
        assert snap["A"][0, 0] == 0.0

    def test_total_bytes(self):
        storage = self.make()
        assert storage.total_array_bytes() == 4 * 6 * 8


class TestOperators:
    def test_arithmetic(self):
        assert apply_binop("+", 2.0, 3.0) == 5.0
        assert apply_binop("-", 2.0, 3.0) == -1.0
        assert apply_binop("*", 2.0, 3.0) == 6.0
        assert apply_binop("/", 1, 2) == 0.5  # always float division
        assert apply_binop("%", 7, 3) == 1
        assert apply_binop("^", 2.0, 10) == 1024.0

    def test_comparisons(self):
        assert apply_binop("<", 1, 2)
        assert apply_binop("<=", 2, 2)
        assert not apply_binop(">", 1, 2)
        assert apply_binop(">=", 2, 2)
        assert apply_binop("=", 3, 3)
        assert apply_binop("!=", 3, 4)

    def test_logic(self):
        assert apply_binop("and", True, True)
        assert not apply_binop("and", True, False)
        assert apply_binop("or", False, True)
        assert apply_unop("not", False)
        assert apply_unop("-", 3.0) == -3.0

    def test_unknown_operator(self):
        with pytest.raises(InterpError):
            apply_binop("<=>", 1, 2)
        with pytest.raises(InterpError):
            apply_unop("~", 1)

    def test_vectorized(self):
        a = np.array([1.0, 2.0])
        assert np.array_equal(apply_binop("*", a, 2.0), np.array([2.0, 4.0]))


class TestIntrinsics:
    def test_math(self):
        assert apply_intrinsic("sqrt", [4.0]) == 2.0
        assert apply_intrinsic("abs", [-3.0]) == 3.0
        assert apply_intrinsic("min", [2.0, 5.0]) == 2.0
        assert apply_intrinsic("max", [2.0, 5.0]) == 5.0
        assert apply_intrinsic("pow", [2.0, 3.0]) == 8.0

    def test_floor_ceil_return_ints(self):
        assert apply_intrinsic("floor", [2.7]) == 2
        assert isinstance(apply_intrinsic("floor", [2.7]), int)
        assert apply_intrinsic("ceil", [2.1]) == 3

    def test_unknown(self):
        with pytest.raises(InterpError):
            apply_intrinsic("frob", [1.0])


class TestReductions:
    def test_reduce_values(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert REDUCTIONS["+"].np(values) == 10.0
        assert REDUCTIONS["*"].np(values) == 24.0
        assert REDUCTIONS["max"].np(values) == 4.0
        assert REDUCTIONS["min"].np(values) == 1.0

    def test_unknown_reducer(self):
        from repro.interp import run_reference
        from repro.ir import ReductionStatement, normalize_source
        from repro.scalarize.loopnest import ElemAssign

        program = normalize_source(
            "program p; config n : integer = 2; region R = [1..n]; "
            "var A : [R] float; var s : float; "
            "procedure main(); begin s := +<< [R] A; end;"
        )
        (fold,) = [
            stmt for stmt in program.body if isinstance(stmt, ReductionStatement)
        ]
        fold.op = "xor"
        with pytest.raises(InterpError):
            run_reference(program)
        # The scalarized form cannot even hold one.
        with pytest.raises(ValueError):
            ElemAssign(None, "s", Const(1.0), reduce_op="-")

    def test_accumulate(self):
        assert REDUCTIONS["+"].step(1.0, 2.0) == 3.0
        assert REDUCTIONS["*"].step(2.0, 3.0) == 6.0
        assert REDUCTIONS["max"].step(1.0, 5.0) == 5.0
        assert REDUCTIONS["min"].step(1.0, 5.0) == 1.0

    def test_nested_reduce_is_one_error_in_both_modes(self):
        nested = BinOp("+", Const(1.0), Reduce("+", None, Const(2.0)))
        with pytest.raises(InterpError) as point:
            eval_point(nested, {}, lambda name, offset: 0.0, (1,))
        with pytest.raises(InterpError) as region:
            eval_region(nested, {}, lambda name, offset: 0.0, lambda dim: 0)
        assert str(point.value) == str(region.value)
        assert "nested reduction" in str(point.value)


class TestEvalPoint:
    def test_index_ref(self):
        expr = BinOp("+", IndexRef(1), IndexRef(2))
        value = eval_point(expr, {}, lambda n, o: 0, (3, 4))
        assert value == 7

    def test_array_element(self):
        expr = ArrayRef("A", (1, 0))

        def element(name, offset):
            assert name == "A"
            return 42.0

        assert eval_point(expr, {}, element, (2, 2)) == 42.0

    def test_scalar_env(self):
        expr = BinOp("*", ScalarRef("s"), Const(2.0))
        assert eval_point(expr, {"s": 3.0}, lambda n, o: 0, ()) == 6.0

    def test_missing_scalar(self):
        with pytest.raises(InterpError):
            eval_scalar(ScalarRef("ghost"), {})

    def test_call(self):
        expr = Call("max", (Const(1.0), Const(2.0)))
        assert eval_scalar(expr, {}) == 2.0

    def test_eval_scalar_rejects_arrays(self):
        with pytest.raises(InterpError):
            eval_scalar(ArrayRef("A", (0, 0)), {})

    def test_unary(self):
        assert eval_scalar(UnOp("-", Const(4.0)), {}) == -4.0
