"""What a run returns is what the program declares.

A run's scalars are the program's declared scalars, in declared order, at
every fusion level and on every backend: no contraction scalar (``*__s``),
hoisted term (``_cse*``) or hoisted reduction (``_s*``, ``_red*``) is ever a
key.  Its arrays are the declared arrays minus the ones the plan contracted
(never a compiler temporary).  :func:`assert_declared_results` is the check
the differential suites share.
"""

import numpy as np
import pytest

from repro.benchsuite import ALL_BENCHMARKS
from repro.exec import BACKENDS, execute, native
from repro.exec.mp_shard import execute_sharded
from repro.fusion import ALL_LEVELS, C2P, LEVELS_BY_NAME, plan_program
from repro.ir import expr as ir
from repro.ir import normalize_source
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.scalarize import scalarize
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SWhile,
)


def declared_results(program, plan):
    """``(array names, scalar names in declared order)`` every run of
    ``program`` scalarized under ``plan`` returns."""
    arrays = {info.name for info in program.user_arrays()}
    return (
        arrays - plan.contracted_arrays(),
        [info.name for info in program.user_scalars()],
    )


def assert_declared_results(result, program, plan):
    arrays, scalars = declared_results(program, plan)
    assert set(result.arrays) == arrays, (sorted(result.arrays), sorted(arrays))
    assert list(result.scalars) == scalars, (list(result.scalars), scalars)


#: A contracted temporary ``T``, a hoisted reduction inside a scalar
#: expression (``_s1``) and, at ``c2+f4+cse``, a hoisted term.
SOURCE = """
program contract;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, T : [R] float;
var s, t : float;
begin
  [R] A := Index1 * 1.5 + Index2;
  [I] T := (A@(0,-1) + A@(0,1) + A@(-1,0)) * 0.25;
  [I] B := (A@(0,-1) + A@(0,1) + A@(-1,0)) * 0.75 + T;
  s := +<< [I] B;
  t := s + (max<< [R] A) * 0.5;
end;
"""


def _local_backends():
    names = ["codegen_np"]
    if native.cc_available():
        names.append("c")
    return names


@pytest.mark.parametrize("level", list(ALL_LEVELS) + [C2P], ids=lambda l: l.name)
@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_every_backend_returns_the_declared_results(bench, level):
    program = bench.test_program()
    plan = plan_program(program, level)
    scalar_program = scalarize(program, plan)
    for backend in sorted(BACKENDS):
        if backend == "mp-shard":
            for local in _local_backends():
                result, _report = execute_sharded(
                    scalar_program, procs=2, local_backend=local
                )
                assert_declared_results(result, program, plan)
        elif backend != "c" or native.cc_available():
            assert_declared_results(
                execute(scalar_program, backend), program, plan
            )


def test_the_temporaries_exist_but_are_not_results():
    program = normalize_source(SOURCE)
    plan = plan_program(program, LEVELS_BY_NAME["c2+f4+cse"])
    scalar_program = scalarize(program, plan)
    invented = set(scalar_program.scalars) - {"s", "t"}
    assert {"T__s", "_s1"} <= invented
    assert any(name.startswith("_cse") for name in invented)
    result = execute(scalar_program, "codegen_np")
    assert list(result.scalars) == ["s", "t"]
    assert set(result.arrays) == {"A", "B", "T"} - plan.contracted_arrays()
    assert "T" in plan.contracted_arrays()


def test_a_daemon_reply_holds_the_declared_scalars(tmp_path):
    from repro.daemon import Daemon, DaemonClient, DaemonConfig

    daemon = Daemon(DaemonConfig(workers=1, cache_dir=str(tmp_path / "cache")))
    daemon.start()
    try:
        with DaemonClient(port=daemon.port) as client:
            reply = client.execute(SOURCE, level="c2+f4+cse")
    finally:
        daemon.stop(drain=True)
    assert list(reply["scalars"]) == ["s", "t"]


def test_a_lazy_compute_runs_the_declared_results(monkeypatch):
    import repro.array as ra
    from repro.array.graph import Trace
    from repro.array.lowering import lower_trace
    from repro.service.compiled import CompiledProgram

    seen = []
    real = CompiledProgram.execute
    monkeypatch.setattr(
        CompiledProgram, "execute",
        lambda self, *args, **kw: seen.append(real(self, *args, **kw))
        or seen[-1],
    )
    x = ra.asarray(np.arange(36.0).reshape(6, 6))
    y = (x + x.shift(0, 1) + x.shift(0, -1)) * 0.5
    z = y * y - x
    total = (z * 2.0).sum() + y.max()
    ra.compute(z, total, level="c2+f4+cse")
    program = lower_trace(Trace((z.node, total.node)))
    plan = plan_program(program, LEVELS_BY_NAME["c2+f4+cse"])
    assert program.compiler_arrays() and plan.contracted_arrays()
    assert [info.name for info in program.scalars.values() if info.is_temp]
    (result,) = seen
    assert_declared_results(result, program, plan)


# -- hand-built programs -------------------------------------------------------

_FULL = Region.literal((1, 4), (1, 4))


def _producer():
    """A nest contracting ``t`` into ``A``."""
    return LoopNest(
        _FULL, (1, 2),
        [
            ElemAssign(None, "t", ir.BinOp("*", ir.IndexRef(1), ir.Const(0.5))),
            ElemAssign("A", None, ir.BinOp("+", ir.ScalarRef("t"), ir.Const(1.0))),
        ],
        carried_depth=0,
    )


def _program(*readers, results=None):
    return ScalarProgram(
        "local", {}, {"A": (_FULL, "float"), "B": (_FULL, "float")},
        {"t": "float", "u": "float", "j": "integer"},
        [_producer(), *readers], results=results,
    )


def test_contraction_scalars_are_not_results_by_default():
    program = _program()
    assert program.result_scalars == ("u", "j")
    assert program.result_arrays == ("A", "B")
    result = execute(program, "interp")
    assert list(result.scalars) == ["u", "j"] and list(result.arrays) == ["A", "B"]


def test_naming_a_contraction_scalar_as_a_result_is_refused():
    assert _program(results=["A", "u"]).result_scalars == ("u",)
    with pytest.raises(ValueError, match="'t'"):
        _program(results=["A", "t"])
    with pytest.raises(ValueError, match="'nope'"):
        _program(results=["nope"])


_T = ir.ScalarRef("t")


@pytest.mark.parametrize(
    "reader",
    [
        ScalarAssign("u", ir.BinOp("+", _T, ir.Const(1.0))),
        SIf(ir.BinOp(">", _T, ir.Const(1.0)), [], []),
        SWhile(ir.BinOp(">", _T, ir.Const(9.0)), []),
        SeqLoop("j", ir.Const(1), _T, [], downto=False),
        LoopNest(_FULL, (1, 2), [ElemAssign("B", None, _T)], carried_depth=0),
        LoopNest(
            Region([(1, LinearExpr.variable("t")), (1, 4)]), (1, 2),
            [ElemAssign("B", None, ir.Const(1.0))], carried_depth=0,
        ),
    ],
    ids=["scalar-assign", "if-condition", "while-condition", "loop-bound",
         "exposed-read", "region-bound"],
)
def test_reading_a_contraction_scalar_outside_its_nest_is_refused(reader):
    with pytest.raises(ValueError, match="read outside"):
        _program(reader)


def test_a_later_nest_that_sets_it_first_may_read_it():
    again = LoopNest(
        _FULL, (1, 2),
        [ElemAssign(None, "t", ir.ArrayRef("A", (0, 0))),
         ElemAssign("B", None, _T)],
        carried_depth=0,
    )
    assert _program(again).result_scalars == ("u", "j")
