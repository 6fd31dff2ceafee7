"""Regression tests for interpreter/codegen divergences.

Each test pins one historical divergence between the loop interpreter and
the generated-code back ends:

1. ``mod`` rendered as ``math.fmod`` (truncated, sign of the dividend)
   while the interpreter uses ``np.mod`` (floored, sign of the divisor) —
   they differ whenever the operands' signs differ.
2. Reduction accumulators initialized with float literals (``0.0``,
   ``-math.inf``) regardless of the reduced values' kind, silently
   promoting integer reductions to float.
3. Reductions over empty regions: the array-level reference raises
   ``InterpError``; every scalarized backend folds from the operator's
   identity and so yields it, for source-level and hand-built
   reductions alike.
4. Allocation and halo-fill bounds evaluated with an empty environment,
   crashing on region bounds that reference configuration scalars.
"""

import numpy as np
import pytest

from repro.exec import BACKENDS, execute
from repro.fusion import ALL_LEVELS, BASELINE, plan_program
from repro.interp import run_reference
from repro.ir import normalize_source
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.ir import expr as ir
from repro.scalarize import scalarize
from repro.scalarize.codegen_c import render_c
from repro.scalarize.codegen_np import render_numpy
from repro.scalarize.codegen_py import render_python
from repro.scalarize.loopnest import ElemAssign, LoopNest, SBoundary, ScalarProgram
from repro.util.errors import InterpError

ALL_BACKEND_NAMES = sorted(BACKENDS)


def compile_at(source, level):
    program = normalize_source(source)
    return program, scalarize(program, plan_program(program, level))


# -- 1: floored vs truncated modulo -----------------------------------------

MOD_SOURCE = """
program modprog;
config n : integer = 4;
region R = [1..n];
var A, B : [R] float;
var s, t : float;
begin
  t := 0.0 - 3.0;
  s := mod(t, 5.0);
  [R] B := Index1 - 3.0;
  [R] A := mod(B, 5.0);
end;
"""


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
def test_mod_is_floored_on_negative_operands(backend):
    program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    reference = run_reference(program)
    assert float(reference.scalars["s"]) == 2.0  # np.mod(-3.0, 5.0)
    result = execute(scalar_program, backend)
    assert float(result.scalars["s"]) == 2.0
    # Element-wise: mod(-2..1, 5) = [3, 4, 0, 1] under floored semantics.
    assert np.allclose(result.arrays["A"], reference.arrays["A"])
    assert np.allclose(result.arrays["A"], [3.0, 4.0, 0.0, 1.0])


def test_generated_mod_never_uses_fmod():
    _program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    assert "fmod" not in render_python(scalar_program)
    assert "fmod" not in render_numpy(scalar_program)


def test_c_mod_emission_matches_golden():
    # The C back end used to map ``mod`` straight to ``fmod`` (truncated,
    # sign of the dividend); canonical semantics is floored ``np.mod``.
    # Golden-pin the whole translation unit so the helper and its call
    # sites cannot silently regress.
    import os

    _program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    rendered = render_c(scalar_program)
    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "c_mod.golden.c"
    )
    with open(golden_path) as handle:
        assert rendered == handle.read()


def test_c_mod_is_floored_helper():
    _program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    rendered = render_c(scalar_program)
    # fmod may appear only inside the floored-mod helper definition.
    assert "repro_mod(" in rendered
    for line in rendered.splitlines():
        if "fmod" in line:
            assert "double r = fmod(a, b);" in line
    # The % binop and the mod intrinsic both route through the helper.
    assert "repro_mod(t, 5.0)" in rendered


def test_c_mod_helper_omitted_when_unused():
    _program, scalar_program = compile_at(INT_REDUCE_SOURCE, BASELINE)
    assert "repro_mod" not in render_c(scalar_program)


# -- 2: reduction identities follow the reduced kind ------------------------

INT_REDUCE_SOURCE = """
program intred;
config n : integer = 4;
region R = [1..n];
var K : [R] integer;
var k, m : integer;
begin
  [R] K := Index1 - 10;
  k := max<< [R] K;
  m := +<< [R] K;
end;
"""


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda l: l.name)
def test_integer_reductions_stay_integral(backend, level):
    _program, scalar_program = compile_at(INT_REDUCE_SOURCE, level)
    result = execute(scalar_program, backend)
    for name, expected in (("k", -6), ("m", -30)):
        value = result.scalars[name]
        assert isinstance(
            value, (int, np.integer)
        ), "%s reduction became %r on %s" % (name, type(value), backend)
        assert int(value) == expected


def test_integer_reduction_init_literals_are_integral():
    _program, scalar_program = compile_at(INT_REDUCE_SOURCE, BASELINE)
    for source in (render_python(scalar_program), render_numpy(scalar_program)):
        assert "-math.inf" not in source
        assert "k = 0.0" not in source and "m = 0.0" not in source


# -- 3: empty-region and stand-alone reductions ------------------------------

EMPTY_REDUCE_SOURCE = """
program emptyred;
config n : integer = 4;
region R = [1..n];
region E = [3..2];
var A : [R] float;
var s : float;
begin
  [R] A := 1.0;
  s := +<< [E] A;
end;
"""


def test_empty_reduction_raises_in_reference():
    with pytest.raises(InterpError, match="empty region"):
        run_reference(normalize_source(EMPTY_REDUCE_SOURCE))


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
def test_empty_source_reduction_yields_the_identity(backend):
    # The array-level reference raises (above); every scalarized backend
    # starts the fold from the operator's identity and adds nothing.
    program = normalize_source(EMPTY_REDUCE_SOURCE)
    scalar_program = scalarize(program, plan_program(program, BASELINE))
    assert float(execute(scalar_program, backend).scalars["s"]) == 0.0


HAND_REDUCE_SOURCE = """
program handred;
config n : integer = 5;
region R = [1..n];
var A : [R] float;
var K : [R] integer;
var fsum, fprod, fmax, fmin, t : float;
var ksum, kprod, kmax, kmin : integer;
begin
  [R] A := Index1 * 0.5 - 1.25;
  [R] K := Index1 - 3;
end;
"""

_HAND_REDUCTIONS = [
    (prefix + name, op, array)
    for prefix, array in (("f", "A"), ("k", "K"))
    for name, op in (("sum", "+"), ("prod", "*"), ("max", "max"), ("min", "min"))
]


def hand_reduction_ir(lo=1, hi=5):
    """An IR program with ``ir.Reduce`` left inside scalar statements.

    No frontend produces this (normalization hoists every reduction into
    a block-resident reduction statement), so it is appended by hand: one
    whole-RHS reduction per operator and operand kind over ``[lo..hi]``,
    plus one reduction embedded in a larger expression.
    """
    from repro.ir.statement import ScalarStatement

    program = normalize_source(HAND_REDUCE_SOURCE)
    region = Region([(LinearExpr(lo), LinearExpr(hi))])
    for target, op, array in _HAND_REDUCTIONS:
        operand = ir.BinOp("*", ir.ArrayRef(array, (0,)), ir.Const(2))
        program.body.append(
            ScalarStatement(target, ir.Reduce(op, region, operand))
        )
    program.body.append(
        ScalarStatement(
            "t",
            ir.BinOp(
                "+",
                ir.Reduce("max", region, ir.ArrayRef("A", (0,))),
                ir.Const(1.0),
            ),
        )
    )
    return program


@pytest.mark.parametrize("level", [BASELINE, ALL_LEVELS[-1]], ids=lambda l: l.name)
def test_hand_built_reduce_lowers_to_identity_plus_fold_nest(level):
    from repro.scalarize.loopnest import ScalarAssign, walk

    program = hand_reduction_ir()
    scalar_program = scalarize(program, plan_program(program, level))
    kinds = {type(node) for node in walk(scalar_program.body)}
    assert kinds == {ScalarAssign, LoopNest}
    tail = scalar_program.body[-2 * len(_HAND_REDUCTIONS) - 3 : -3]
    for (target, op, _array), init, nest in zip(
        _HAND_REDUCTIONS, tail[0::2], tail[1::2]
    ):
        assert isinstance(init, ScalarAssign) and init.target == target
        assert isinstance(init.rhs, ir.Const)
        assert isinstance(init.rhs.value, int if target[0] == "k" else float)
        assert nest.structure == (1,) and nest.carried_depth == 0
        (fold,) = nest.body
        assert (fold.scalar_target, fold.reduce_op) == (target, op)
    # The embedded reduction folds into a typed temporary first.
    init, nest, assign = scalar_program.body[-3:]
    assert init.target == nest.body[0].scalar_target == "_red1"
    assert scalar_program.scalars["_red1"] == "float"
    assert assign.target == "t"


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
def test_nonempty_reduction_loop_still_works(backend):
    # A stand-alone reduction (hand-built ``ir.Reduce`` in a scalar
    # statement) agrees with the array-level reference for every operator
    # over float and integer operands.
    program = hand_reduction_ir()
    reference = run_reference(program)
    result = execute(scalarize(program, plan_program(program, BASELINE)), backend)
    for target, _op, _array in _HAND_REDUCTIONS + [("t", "max", "A")]:
        value, expected = result.scalars[target], reference.scalars[target]
        if target[0] == "k":
            assert isinstance(value, (int, np.integer)), (target, type(value))
            assert int(value) == int(expected), target
        else:
            assert np.isclose(float(value), float(expected), rtol=1e-12), target


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
def test_empty_standalone_reduction_yields_the_identity(backend):
    # Like every source-level reduction, a hand-built stand-alone one over
    # an empty region leaves the identity (it used to raise).
    program = hand_reduction_ir(3, 2)
    result = execute(scalarize(program, plan_program(program, BASELINE)), backend)
    assert float(result.scalars["fsum"]) == 0.0
    assert float(result.scalars["fprod"]) == 1.0
    assert float(result.scalars["fmax"]) == -np.inf
    assert int(result.scalars["ksum"]) == 0
    assert int(result.scalars["kmin"]) == 2 ** 63 - 1


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
def test_empty_fused_reduction_leaves_the_accumulator(backend):
    # A fold statement starts from its accumulator's value, so over an
    # empty region it adds nothing.
    region = Region([(LinearExpr(1), LinearExpr(4))])
    empty = Region([(LinearExpr(3), LinearExpr(2))])
    fold = [ElemAssign(None, "s", ir.ArrayRef("A", (0,)), reduce_op="+")]
    program = ScalarProgram(
        "emptyfold",
        {},
        {"A": (region, "float")},
        {"s": "float"},
        [
            LoopNest(
                region, (1,), [ElemAssign("A", None, ir.Const(1.0))], carried_depth=0
            ),
            LoopNest(region, (1,), fold, carried_depth=0),
            LoopNest(empty, (1,), fold, carried_depth=0),
        ],
    )
    assert float(execute(program, backend).scalars["s"]) == 4.0


# -- 4: config-dependent region bounds --------------------------------------


def config_bound_program():
    """A scalarized program whose allocation bounds reference a config.

    Source-level normalization folds configs into bounds, so this only
    arises for programmatically built ScalarPrograms — which the code
    generators must still handle by evaluating bounds under the program's
    configuration environment.
    """
    n = LinearExpr.variable("n")
    region = Region([(LinearExpr(1), n)])
    halo = Region([(LinearExpr(0), n + 1)])
    nest = LoopNest(
        region,
        (1,),
        [ElemAssign("A", None, ir.BinOp("*", ir.IndexRef(1), ir.Const(2.0)))],
        carried_depth=0,
    )
    return ScalarProgram(
        "configbounds",
        {"n": 5},
        {"A": (halo, "float")},
        {},
        [nest, SBoundary(region, "wrap", "A")],
    )


@pytest.mark.parametrize("backend", ALL_BACKEND_NAMES)
def test_config_dependent_bounds_execute(backend):
    result = execute(config_bound_program(), backend)
    array = result.arrays["A"]
    assert array.shape == (7,)  # halo [0..n+1] with n = 5
    assert np.allclose(array[1:6], [2.0, 4.0, 6.0, 8.0, 10.0])
    # wrap boundary: A[0] mirrors A[5] (period 5), A[6] mirrors A[1]
    assert array[0] == 10.0 and array[6] == 2.0


def test_config_dependent_bounds_render():
    program = config_bound_program()
    # The allocation shape is the layout's, evaluated under the configs;
    # the emitted kernels index from its bases and bind ``n`` by name.
    (slot,) = program.layout
    assert (slot.name, slot.shape, slot.bases) == ("A", (7,), (0,))
    for source in (render_python(program), render_numpy(program)):
        assert "    n = 5\n    A = _arrays['A']\n" in source


def test_cost_models_lay_out_what_the_backends_run():
    """``MemoryLayout`` and the cost models read the one layout, so a
    config-bound allocation prices instead of raising ``'n' is unbound``."""
    from repro.machine import CRAY_T3E, estimate_sequential
    from repro.machine.trace import MemoryLayout
    from repro.tune.space import default_plan, predict_cost

    program = config_bound_program()
    assert MemoryLayout(program).total_bytes == 7 * 8
    assert estimate_sequential(program, CRAY_T3E).cycles > 0
    assert predict_cost(program, default_plan()) > 0
