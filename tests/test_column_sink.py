"""Sinking a column sweep's serial loop under its row loops (``c`` emitter).

``for j do [lo..hi, j] ...`` scalarizes to a :class:`SeqLoop` around a nest
whose last dimension is pinned to ``j``.  Printed as it stands, the C walks
every array with a whole-row stride; :func:`repro.scalarize.loopnest.sinkable`
says when the row loops may run outside the serial loop instead, and
``CGenerator._emit_seq_loop`` is its only consumer.  Here: the query on
hand-built nests (each condition, positive and negative), the emitted text,
and six-backend agreement from source.
"""

import re

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.exec import native
from repro.exec.backends import BACKENDS, execute
from repro.fusion import C2P, LEVELS_BY_NAME, plan_program
from repro.ir import expr as ir
from repro.ir import normalize_source
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.scalarize import c_abi, render_c_module, render_numpy, scalarize
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    sinkable,
)

N = 8
J = LinearExpr.variable("j")
HERE, LEFT, UP = (0, 0), (0, -1), (-1, 0)


def column(rows=(2, N - 1), pinned=(J, J)):
    return Region([rows, pinned])


def recurrence(target="T", source="B", offset=HERE):
    """``T := T@(0,-1) * 0.5 + source@offset``"""
    return ElemAssign(target, None, ir.BinOp(
        "+",
        ir.BinOp("*", ir.ArrayRef(target, LEFT), ir.Const(0.5)),
        ir.ArrayRef(source, offset),
    ))


def sweep(body, region=None, structure=(1, 2), downto=False, var="j"):
    nests = body if isinstance(body[0], LoopNest) else [
        LoopNest(region or column(), structure, body)
    ]
    return SeqLoop(var, ir.Const(2), ir.Const(N), nests, downto)


def sized_c_module(program):
    """The module text with every size spelled as its value: ``_p<k>`` is
    position ``k`` of the size vector (its loads at the top read oddly)."""
    values = c_abi(program)[-1].values
    return re.sub(
        r"\b_p(\d+)\b",
        lambda match: str(values[int(match.group(1))]),
        render_c_module(program),
    )


def can_sink(loop, partial=(), env=()):
    return sinkable(loop, dict(partial), dict(env))


# -- the query ---------------------------------------------------------------


def test_a_column_recurrence_is_sinkable():
    assert can_sink(sweep([recurrence()]))
    assert can_sink(sweep([recurrence()], downto=True))
    assert can_sink(sweep([recurrence()], region=column(pinned=(J + 1, J + 1))))
    # A written array may be read at any *column* offset, and an array the
    # nest does not write at any offset at all.
    assert can_sink(sweep([recurrence(source="T", offset=(0, 1))]))
    assert can_sink(sweep([recurrence(source="B", offset=(1, -2))]))
    # The structure may list the pinned dimension first, or run rows down.
    assert can_sink(sweep([recurrence()], structure=(2, -1)))


def test_row_bounds_resolve_through_the_config_env():
    n = LinearExpr.variable("n")
    loop = sweep([recurrence()], region=column(rows=(2, n - 1)))
    assert can_sink(loop, env={"n": N})
    assert not can_sink(loop)  # symbolic without the binding
    assert not can_sink(loop, env={"n": 2})  # [2..1]: empty rows


def test_contraction_scalars_defined_before_read_are_private_to_a_point():
    body = [
        ElemAssign(None, "e", ir.BinOp(
            "*", ir.ArrayRef("B", HERE), ir.ArrayRef("T", LEFT))),
        ElemAssign("T", None, ir.BinOp(
            "+", ir.ScalarRef("e"), ir.ScalarRef("j"))),
    ]
    assert can_sink(sweep(body))


@pytest.mark.parametrize(
    "loop",
    [
        # a nest-written array read at a non-zero row offset
        sweep([recurrence(source="T", offset=UP)]),
        sweep([recurrence("T"), recurrence("U", source="T", offset=(1, 0))]),
        # a fold statement
        sweep([recurrence(), ElemAssign(
            None, "acc", ir.ArrayRef("T", HERE), reduce_op="+")]),
        # an upward-exposed read of a scalar the nest assigns
        sweep([ElemAssign(None, "acc", ir.BinOp(
            "+", ir.ScalarRef("acc"), ir.ArrayRef("B", HERE))), recurrence()]),
        # the loop variable assigned by the nest
        sweep([ElemAssign(None, "j", ir.Const(3)), recurrence()]),
        # two nests, or a nest and anything else, in the loop body
        sweep([LoopNest(column(), (1, 2), [recurrence()]),
               LoopNest(column(), (1, 2), [recurrence("U")])]),
        SeqLoop("j", ir.Const(2), ir.Const(N),
                [ScalarAssign("s", ir.Const(0.0)),
                 LoopNest(column(), (1, 2), [recurrence()])], False),
        # a row sweep: the pinned dimension is not the last
        sweep([recurrence()], region=Region([(J, J), (2, N - 1)])),
        # rank 1
        sweep([ElemAssign("V", None, ir.ArrayRef("V", (-1,)))],
              region=Region([(J, J)]), structure=(1,)),
        # the last dimension is not exactly [j+c .. j+c]
        sweep([recurrence()], region=column(pinned=(J, J + 1))),
        sweep([recurrence()], region=column(pinned=(J * 2, J * 2))),
        sweep([recurrence()], region=column(pinned=(3, 3))),
        sweep([recurrence()], var="k"),
        # row bounds that move with the loop (triangular) or are empty
        sweep([recurrence()], region=column(rows=(2, J))),
        sweep([recurrence()], region=column(rows=(5, 4))),
    ],
    ids=lambda loop: None,
)
def test_not_sinkable(loop):
    assert not can_sink(loop)


def test_a_circular_buffer_array_blocks_the_sink():
    loop = sweep([recurrence()])
    assert not can_sink(loop, partial={"T": (2, 2)})
    assert not can_sink(loop, partial={"B": (2, 2)})
    assert can_sink(loop, partial={"Z": (2, 2)})


# -- emitted text ------------------------------------------------------------


def compile_at(source, level):
    program = normalize_source(source)
    if isinstance(level, str):
        level = LEVELS_BY_NAME[level]
    return scalarize(program, plan_program(program, level))


def seq_blocks(text):
    """``{var: 'sunk' | 'outer'}`` for every serial loop in a C unit: is the
    first loop header inside its ``{`` block a row loop or the iterator?"""
    found = {}
    lines = text.splitlines()
    for at, line in enumerate(lines):
        match = re.match(r"\s*int64_t (_seq\d+)_hi = ", line)
        if not match:
            continue
        it = match.group(1)
        first_for = next(l for l in lines[at + 1:] if l.lstrip().startswith("for ("))
        assign = next(l for l in lines[at + 1:] if l.strip().endswith("= %s;" % it))
        var = assign.split("=")[0].strip()
        found.setdefault(var, []).append(
            "outer" if "int64_t %s =" % it in first_for else "sunk"
        )
    return found


#: Every backend this host can run.
AVAILABLE = [
    name for name in sorted(BACKENDS) if name != "c" or native.cc_available()
]


def test_sp_y_sweeps_are_sunk_and_its_x_sweeps_are_not():
    program = get_benchmark("SP").test_program()
    sp = scalarize(program, plan_program(program, LEVELS_BY_NAME["c2+f4+cse"]))
    text = sized_c_module(sp)
    blocks = seq_blocks(text)
    assert blocks == {
        "t": ["outer"], "i": ["outer", "outer"], "j": ["sunk", "sunk"],
    }
    # forward and downto: hi/lo evaluated once, row loop, iterator, the
    # variable assignment, then the degenerate pinned loop.
    lines = [line.strip() for line in text.splitlines()]
    for it, lo, header in (
        ("_seq4", "3", "for (int64_t _seq4 = _seq4_lo; _seq4 <= _seq4_hi; _seq4++) {"),
        ("_seq5", "(10 - 2)", "for (int64_t _seq5 = _seq5_lo; _seq5 >= _seq5_hi; _seq5--) {"),
    ):
        at = lines.index("int64_t %s_lo = %s;" % (it, lo))
        assert lines[at - 1].startswith("int64_t %s_hi = " % it)
        assert lines[at + 1 : at + 5] == [
            "for (_i1 = 2; _i1 <= 9; _i1++) {",
            header,
            "j = %s;" % it,
            "for (_i2 = j; _i2 <= j; _i2++) {",
        ]
    # The NumPy emitter wants the opposite order and keeps it: serial j
    # outside, one slice over the rows inside.
    numpy_text = render_numpy(sp)
    assert "for j in range(3, (10 - 1) + 1):" in numpy_text
    assert "for j in range((10 - 2), 2 - 1, -1):" in numpy_text


def test_partial_contraction_keeps_sp_forward_y_sweep_outermost():
    # Under c2+p PY becomes a two-column circular buffer: rows no longer
    # own disjoint storage, so the forward sweep (which carries PY) stays
    # as written; the back-substitution touches no buffer and is sunk.
    program = get_benchmark("SP").test_program()
    sp = scalarize(program, plan_program(program, C2P))
    assert "PY" in sp.partial
    assert seq_blocks(render_c_module(sp))["j"] == ["outer", "sunk"]


HEADER = """
program colsink;
config n : integer = 9;
region R = [1..n, 1..n];
var T, U, B, W : [R] float;
var V : [1..n] float;
var i, j : integer;
var s : float;
begin
  j := 77;
  [R] T := (Index1 * -3.7 + Index2 * 1.3) % 1.0;
  [R] U := Index1 * 0.5 - Index2;
  [R] B := Index1 + Index2 * 0.25;
  [1..n] V := Index1;
"""

#: name -> (loop text, where the `j` / `i` loop ends up at c2+f4+cse)
SWEEPS = {
    "forward": ("""
  for j := 2 to n do
    [2..n-1, j] T := T@(0,-1) * 0.5 + B@(1,-1);
  end;""", "sunk"),
    "downto": ("""
  for j := n-1 downto 1 do
    [2..n-1, j] T := (T - U * T@(0,1)) * 0.5;
  end;""", "sunk"),
    "three statements and a contracted temporary": ("""
  for j := 2 to n do
    [2..n-1, j] W := B * T@(0,-1);
    [2..n-1, j] T := W * 0.5 + j;
    [2..n-1, j] B := B@(0,-1) - W;
  end;""", "sunk"),
    "empty trip count": ("""
  for j := 5 to 4 do
    [2..n-1, j] T := T@(0,-1) * 0.5 + B;
  end;""", "sunk"),
    "written array read one row up": ("""
  for j := 2 to n do
    [2..n-1, j] T := T@(-1,0) * 0.5 + B;
  end;""", "outer"),
    # The two diagonal reads are where the orders really differ: the row
    # above is finished in the sunk order and still old at column j+1 as
    # written; the row below is the other way round at column j-1.
    "written array read up and to the right": ("""
  for j := 2 to n-1 do
    [2..n-1, j] T := T@(-1,1) * 0.5 + B;
  end;""", "outer"),
    "written array read down and to the left by a second statement": ("""
  for j := 2 to n do
    [2..n-1, j] T := T@(0,-1) * 0.5 + B;
    [2..n-1, j] U := T@(1,-1) + U@(0,-1);
  end;""", "outer"),
    "reduction in the body": ("""
  for j := 2 to n do
    [2..n-1, j] T := T@(0,-1) * 0.5 + B;
    s := s + (+<< [2..n-1, j] T);
  end;""", "outer"),
    "row sweep": ("""
  for i := 2 to n do
    [i, 2..n-1] T := T@(-1,0) * 0.5 + B;
  end;""", "outer"),
    "rank 1": ("""
  for j := 2 to n do
    [j] V := V@(-1) * 0.5 + j;
  end;""", "outer"),
}


def sweep_source(name):
    return HEADER + SWEEPS[name][0] + "\n  s := s + (+<< [R] (T + U + B));\nend;\n"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_c_text_from_source(name):
    text = render_c_module(compile_at(sweep_source(name), "c2+f4+cse"))
    var = "i" if name == "row sweep" else "j"
    assert seq_blocks(text)[var] == [SWEEPS[name][1]], text


def test_unfused_statements_stay_as_written():
    # At baseline the self-referencing statement is a temporary plus a
    # copy, two nests in the loop body: nothing to sink.
    text = render_c_module(compile_at(sweep_source("forward"), "baseline"))
    assert seq_blocks(text)["j"] == ["outer"]


@pytest.mark.parametrize("level", ["baseline", "c2+f4+cse", "c2+p"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_backend_agrees(name, level):
    source = sweep_source(name)
    scalar_program = compile_at(source, C2P if level == "c2+p" else level)
    oracle = execute(compile_at(source, "baseline"), "interp")
    results = {}
    for backend in AVAILABLE:
        options = {"procs": 2} if backend == "mp-shard" else {}
        results[backend] = result = execute(scalar_program, backend, **options)
        for array in ("T", "U", "B"):
            assert np.array_equal(
                result.arrays[array], oracle.arrays[array]
            ), (backend, array)
        if name == "rank 1":  # V is contracted away everywhere else
            assert np.array_equal(result.arrays["V"], oracle.arrays["V"])
        # An empty trip count leaves the loop variable at its old value.
        assert int(result.scalars["j"]) == int(oracle.scalars["j"]), backend
        assert int(result.scalars["i"]) == int(oracle.scalars["i"]), backend
        assert np.isclose(float(result.scalars["s"]), float(oracle.scalars["s"]))
    if name == "empty trip count":
        assert int(oracle.scalars["j"]) == 77
    if name.startswith("three statements") and level != "baseline":
        assert "W" not in scalar_program.array_allocs  # contracted to W__s
    if "c" in results:
        # The sunk order and the element loops of codegen_py leave every
        # scalar, contraction corners included, with the same bits.
        py, c = results["codegen_py"].scalars, results["c"].scalars
        assert sorted(py) == sorted(c)
        for scalar in py:
            assert repr(float(c[scalar])) == repr(float(py[scalar])), scalar


# -- a contraction corner read after the loop --------------------------------


def corner_program():
    """Hand built, because no frontend reads a contraction scalar outside
    its nest: ``out`` takes ``e`` as the last index point left it."""
    full = Region.literal((1, N), (1, N))
    body = [
        LoopNest(full, (1, 2), [
            ElemAssign("B", None, ir.BinOp(
                "+", ir.BinOp("*", ir.IndexRef(1), ir.Const(0.375)),
                ir.IndexRef(2))),
            ElemAssign("T", None, ir.BinOp(
                "-", ir.IndexRef(1), ir.BinOp("*", ir.IndexRef(2), ir.Const(0.5)))),
        ], carried_depth=0),
        sweep([
            ElemAssign(None, "e", ir.BinOp(
                "*", ir.ArrayRef("B", HERE), ir.ArrayRef("T", LEFT))),
            ElemAssign("T", None, ir.BinOp(
                "+", ir.BinOp("*", ir.ScalarRef("e"), ir.Const(0.5)),
                ir.ScalarRef("j"))),
            ElemAssign("B", None, ir.BinOp(
                "-", ir.ArrayRef("B", LEFT), ir.ScalarRef("e"))),
        ], structure=(-1, 2)),
        ScalarAssign("out", ir.BinOp("+", ir.ScalarRef("e"), ir.ScalarRef("j"))),
    ]
    return ScalarProgram(
        "corner", {}, {"B": (full, "float"), "T": (full, "float")},
        {"e": "float", "j": "integer", "out": "float"}, body,
    )


@pytest.mark.skipif(not native.cc_available(), reason="no cc")
def test_the_corner_value_survives_the_interchange():
    program = corner_program()
    text = sized_c_module(program)
    assert seq_blocks(text) == {"j": ["sunk"]}
    assert "for (_i1 = 7; _i1 >= 2; _i1--) {" in text  # rows run downwards
    c = execute(program, "c")
    for backend in ("interp", "codegen_py"):
        other = execute(program, backend)
        for name in ("B", "T"):
            assert np.array_equal(c.arrays[name], other.arrays[name]), backend
        for name in ("e", "j", "out"):
            assert repr(float(c.scalars[name])) == repr(
                float(other.scalars[name])
            ), (backend, name)
    assert int(c.scalars["j"]) == N
