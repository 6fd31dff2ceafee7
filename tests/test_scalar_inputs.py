"""``ScalarProgram.scalar_inputs``: one contract on every backend.

A program may declare scalars whose starting value the caller supplies
per run (``run(inputs, scalars=...)`` / ``execute(...,
initial_scalars=...)``).  No frontend produces one — ``mp-shard`` builds
them to parameterise its per-nest kernels — so the program here is hand
built: a float read by a nest, an integer used as a region bound and a
fold accumulator seeded non-zero.
"""

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.exec import native
from repro.exec.backends import BACKENDS, execute
from repro.fusion import ALL_LEVELS
from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.parallel.engine import render_numpy_par
from repro.scalarize.codegen_c import render_c_module
from repro.scalarize.codegen_np import render_numpy
from repro.scalarize.codegen_py import render_python
from repro.scalarize.loopnest import ElemAssign, LoopNest, ScalarProgram
from repro.scalarize.scalarizer import compile_program
from repro.util.errors import InputError

N = 8
SCALARS = {"alpha": 0.5, "k": 5, "acc": 100.0}


def hand_built(scalar_inputs=("alpha", "k", "acc")) -> ScalarProgram:
    full = Region.literal((1, N), (1, N))
    upto_k = Region([(1, LinearExpr.variable("k")), (1, N)])
    here = (0, 0)
    body = [
        LoopNest(
            full, (1, 2),
            [ElemAssign("A", None, ir.BinOp(
                "+",
                ir.BinOp("*", ir.IndexRef(1), ir.ScalarRef("alpha")),
                ir.IndexRef(2),
            ))],
            carried_depth=0,
        ),
        LoopNest(
            upto_k, (1, 2),
            [ElemAssign("B", None, ir.BinOp(
                "+", ir.ArrayRef("A", here), ir.ScalarRef("alpha")
            ))],
            carried_depth=0,
        ),
        LoopNest(
            upto_k, (1, 2),
            [ElemAssign(None, "acc", ir.ArrayRef("B", here), reduce_op="+")],
            carried_depth=0,
        ),
    ]
    return ScalarProgram(
        "seeded", {}, {"A": (full, "float"), "B": (full, "float")},
        {"alpha": "float", "k": "integer", "acc": "float"},
        body, scalar_inputs=scalar_inputs,
    )


def expected():
    rows = np.arange(1, N + 1, dtype=float).reshape(-1, 1)
    cols = np.arange(1, N + 1, dtype=float).reshape(1, -1)
    a = rows * SCALARS["alpha"] + cols
    b = np.zeros((N, N))
    b[: SCALARS["k"]] = a[: SCALARS["k"]] + SCALARS["alpha"]
    return a, b, SCALARS["acc"] + b.sum()  # halves: every sum is exact


def backend_names():
    return [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                name == "c" and not native.cc_available(), reason="no cc"
            ),
        )
        for name in sorted(BACKENDS)
    ]


@pytest.mark.parametrize("backend", backend_names())
def test_every_backend_starts_from_the_supplied_scalars(backend):
    program = hand_built()
    a, b, acc = expected()
    options = {"procs": 2} if backend == "mp-shard" else {}
    via_execute = execute(
        program, backend, initial_scalars=SCALARS, **options
    )
    via_run = BACKENDS[backend].load(program)(None, dict(SCALARS), **options)
    for result in (via_execute, via_run):
        assert np.array_equal(result.arrays["A"], a)
        assert np.array_equal(result.arrays["B"], b)
        assert result.scalars["acc"] == acc
        assert result.scalars["k"] == SCALARS["k"]


def test_backends_agree_with_each_other():
    program = hand_built()
    results = [
        execute(program, name, initial_scalars=SCALARS)
        for name in ("interp", "codegen_py", "codegen_np", "np-par")
    ]
    for other in results[1:]:
        assert other.scalars == results[0].scalars
        for name in ("A", "B"):
            assert np.array_equal(other.arrays[name], results[0].arrays[name])


@pytest.mark.parametrize(
    "scalars,message",
    [
        (None, "missing"),
        ({"alpha": 0.5, "k": 5}, "missing initial value for scalar input 'acc'"),
        (dict(SCALARS, beta=1.0), "unknown scalar input 'beta'"),
        (dict(SCALARS, k=2.5), "not of kind integer"),
        (dict(SCALARS, k=True), "not of kind integer"),
        (dict(SCALARS, alpha="x"), "not of kind float"),
    ],
)
@pytest.mark.parametrize("backend", ["interp", "codegen_np", "mp-shard"])
def test_bad_scalars_raise_before_anything_runs(
    backend, scalars, message, spy_on_execution
):
    program = hand_built()
    ran = spy_on_execution(backend)
    options = {"procs": 2} if backend == "mp-shard" else {}
    with pytest.raises(InputError, match=message):
        execute(program, backend, initial_scalars=scalars, **options)
    assert not ran


def test_integer_is_accepted_for_a_float_scalar():
    result = execute(
        hand_built(), "codegen_np", initial_scalars=dict(SCALARS, acc=100)
    )
    assert result.scalars["acc"] == expected()[2]


def test_scalars_for_a_program_without_scalar_inputs_are_unknown():
    program = hand_built(scalar_inputs=())
    with pytest.raises(InputError, match="unknown scalar input"):
        execute(program, "interp", initial_scalars={"alpha": 1.0})
    assert execute(program, "interp", initial_scalars={}).scalars["acc"] == 0.0


def test_undeclared_scalar_input_is_rejected_at_construction():
    with pytest.raises(ValueError, match="not declared"):
        hand_built(scalar_inputs=("alpha", "nope"))


@pytest.mark.parametrize(
    "render", [render_python, render_numpy, render_numpy_par, render_c_module]
)
def test_text_without_scalar_inputs_is_unchanged(render):
    """... by declaring some: every scalar starts from what the caller
    hands the kernel (the C ABI's one-element buffers, ``_scalars`` in
    generated Python), so text does not depend on ``scalar_inputs``."""
    assert render(hand_built(scalar_inputs=())) == render(hand_built())


def test_frontend_programs_declare_no_scalar_inputs():
    levels = {str(level): level for level in ALL_LEVELS}
    program = compile_program(
        get_benchmark("Tomcatv").test_program(), levels["Level(c2+f4+cse)"]
    )
    assert program.scalar_inputs == ()
    assert "def run(_arrays, _scalars):" in render_numpy(program)
    assert (
        "def run(_arrays, _scalars, _engine=None):" in render_numpy_par(program)
    )
