"""The fill plan: a run zeroes only what a program reads before it writes.

:attr:`ScalarProgram.fill_plan` boxes, per array, the part of its
allocation the program stores before anything reads it;
:func:`emit_common.build_state` leaves that box uninitialised and zeroes
the ring around it.  The first half of this module makes the uninitialised
memory hostile (NaN, ``True``, a sentinel integer) and requires every
answer to stay bit-identical; the second half pins the rule on the cases
that must fall back to a whole fill, and the exact bytes one warm
``repro.array`` call zeroes.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from genprog import generate_program  # noqa: E402

from repro.benchsuite import ALL_BENCHMARKS  # noqa: E402
from repro.exec import execute  # noqa: E402
from repro.exec.native import cc_available  # noqa: E402
from repro.fusion import LEVEL_NAMES, resolve_level  # noqa: E402
from repro.ir import normalize_source  # noqa: E402
from repro.ir.expr import ArrayRef, BinOp, Const, ScalarRef  # noqa: E402
from repro.ir.linexpr import LinearExpr  # noqa: E402
from repro.ir.region import Region  # noqa: E402
from repro.scalarize import compile_program, emit_common  # noqa: E402
from repro.scalarize.loopnest import (  # noqa: E402
    ElemAssign,
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SWhile,
)

BACKENDS = ("interp", "codegen_py", "codegen_np") + (
    ("c",) if cc_available() else ()
)

#: What an uninitialised buffer holds under the poison, per dtype.
POISON = {
    np.dtype(np.float64): np.nan,
    np.dtype(np.int64): -0x5A5A5A5A5A5A5A5A,
    np.dtype(np.bool_): True,
}


class _PoisonedNumpy:
    """NumPy, except that ``empty`` hands out poison, not stale memory."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, POISON[np.dtype(dtype)], dtype=dtype)


@pytest.fixture
def poison(monkeypatch):
    def apply():
        monkeypatch.setattr(emit_common, "np", _PoisonedNumpy())

    return apply


def _assert_bit_identical(got, want, where):
    assert list(got.arrays) == list(want.arrays), where
    for name, array in want.arrays.items():
        other = got.arrays[name]
        assert other.dtype == array.dtype, (where, name)
        assert np.array_equal(other, array, equal_nan=True), (where, name)
    assert {k: repr(v) for k, v in got.scalars.items()} == {
        k: repr(v) for k, v in want.scalars.items()
    }, where


def _check_poisoned_runs(program, poison, where):
    compiled = [
        (name, compile_program(program, resolve_level(name)))
        for name in LEVEL_NAMES
    ]
    clean = {
        (level, backend): execute(scalar_program, backend)
        for level, scalar_program in compiled
        for backend in BACKENDS
    }
    poison()
    for level, scalar_program in compiled:
        for backend in BACKENDS:
            _assert_bit_identical(
                execute(scalar_program, backend),
                clean[level, backend],
                "%s %s %s" % (where, level, backend),
            )


def test_ringed_is_the_one_uninitialised_allocation():
    # So the poison reaches every buffer a run or a pad starts from.
    import inspect

    from repro.array import materialize
    from repro.exec import backends, native
    from repro.interp import loop_interp

    assert inspect.getsource(emit_common).count("np.empty(") == 1
    for module in (materialize, backends, native, loop_interp):
        assert "np.empty(" not in inspect.getsource(module), module.__name__


def test_the_poison_reaches_the_uninitialised_box(poison):
    poison()
    buffer, zeroed = emit_common.ringed((4, 5), np.float64, ((1, 3), (1, 4)))
    assert np.isnan(buffer[1:3, 1:4]).all()
    assert zeroed == (4 * 5 - 2 * 3) * 8
    buffer[1:3, 1:4] = 0.0
    assert not buffer.any()


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_benchsuite_answers_ignore_uninitialised_memory(bench, poison):
    _check_poisoned_runs(bench.test_program(), poison, bench.name)


#: Programs whose first stores a fill plan must not cover: a store that
#: reads its own target, a read before the first write, a store that only
#: a loop or a branch makes.
EDGE_SOURCES = {
    "self-read": """
program selfread;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var s : float;
begin
  [R] A := A@(0,1) + Index1;
  [R] B := A + A@(1,0);
  s := +<< [R] B;
end;
""",
    "read-first": """
program readfirst;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var s : float;
begin
  [R] B := A@(0,1) + Index2;
  [R] A := B * 2.0;
  s := +<< [R] A;
end;
""",
    "loop-and-branch": """
program loopbranch;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var s : float;
var i : integer;
begin
  for i := 1 to 2 do
    [R] A := A@(0,-1) + i;
  end;
  if s < 1.0 then
    [R] B := B@(1,0) + A;
  end;
  s := +<< [R] B;
end;
""",
}


@pytest.mark.parametrize("name", sorted(EDGE_SOURCES))
def test_edge_answers_ignore_uninitialised_memory(name, poison):
    _check_poisoned_runs(normalize_source(EDGE_SOURCES[name]), poison, name)


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_answers_ignore_uninitialised_memory(seed, poison):
    _check_poisoned_runs(
        normalize_source(generate_program(seed)), poison, "seed %d" % seed
    )


# -- the rule ------------------------------------------------------------------

N = LinearExpr.variable("n")
#: The declared region [1..n] and the allocation [0..n+1] around it.
R = Region([(1, N)])
ALLOC = Region([(0, N + 1)])


def _nest(*stmts, region=R):
    return LoopNest(region, (1,), list(stmts), carried_depth=0)


def _store(target, rhs):
    return ElemAssign(target, None, rhs)


def _ref(name, offset=0):
    return ArrayRef(name, (offset,))


def _program(body, n=6, partial=None):
    return ScalarProgram(
        "fill",
        {"n": n},
        {name: (ALLOC, "float") for name in ("A", "B")},
        {"s": "float", "i": "integer"},
        body,
        partial=partial,
    )


def test_a_nest_that_writes_before_it_reads_covers_its_region():
    program = _program([
        _nest(
            _store("A", Const(1.0)),
            _store("B", BinOp("+", _ref("A"), Const(2.0))),
            ElemAssign(None, "s", _ref("B"), reduce_op="+"),
        )
    ])
    assert program.fill_plan == {"A": ((1, 7),), "B": ((1, 7),)}


@pytest.mark.parametrize(
    "body",
    [
        # A := A@(1) + ...: the storing statement reads what it overwrites
        [_nest(_store("A", BinOp("+", _ref("A", 1), Const(1.0))))],
        # a read at an offset after the store, inside the storing nest
        [_nest(_store("A", Const(1.0)), _store("B", _ref("A", -1)))],
        # read by an earlier nest
        [_nest(_store("B", _ref("A"))), _nest(_store("A", Const(1.0)))],
        # stores inside for / if / while
        [SeqLoop("i", Const(1), Const(2), [_nest(_store("A", Const(1.0)))], False)],
        [SIf(Const(True), [_nest(_store("A", Const(1.0)))], [])],
        [SWhile(Const(False), [_nest(_store("A", Const(1.0)))])],
        # a halo fill before the store ends the scan
        [SBoundary(R, "wrap", "B"), _nest(_store("A", Const(1.0)))],
        # the region is empty under the configs
        [_nest(_store("A", Const(1.0)), region=Region([(3, 2)]))],
        # the region is not constant under the configs
        [
            ScalarAssign("i", Const(2)),
            _nest(
                _store("A", Const(1.0)),
                region=Region([(1, LinearExpr.variable("i"))]),
            ),
        ],
    ],
    ids=[
        "self-read", "offset-read", "earlier-read", "for", "if", "while",
        "boundary", "empty", "symbolic",
    ],
)
def test_these_arrays_are_zero_filled_whole(body):
    assert "A" not in _program(body).fill_plan


def test_a_partially_contracted_array_is_zero_filled_whole():
    body = [_nest(_store("A", Const(1.0)), _store("B", _ref("A")))]
    assert "A" in _program(body).fill_plan
    assert "A" not in _program(body, partial={"A": (1, 2)}).fill_plan


def test_only_the_first_storing_nest_counts():
    body = [
        _nest(_store("A", BinOp("+", _ref("A"), Const(1.0)))),
        _nest(_store("A", Const(1.0))),
    ]
    assert "A" not in _program(body).fill_plan
    scalar_read = [
        ScalarAssign("s", ScalarRef("s")),
        _nest(_store("A", Const(1.0))),
    ]
    assert _program(scalar_read).fill_plan == {"A": ((1, 7),)}


# -- what one warm repro.array call zeroes ---------------------------------------


@pytest.mark.parametrize(
    "size, zeroed, copied", [(64, 4160, 34848), (256, 16448, 532512)]
)
def test_a_warm_lazy_chain_zeroes_only_its_halo_rings(size, zeroed, copied):
    # The three-step five-point chain of the lazy_retrace workload: in0 is
    # copied in, out0 is written whole before the sum reads it, and the
    # two intermediates are written over their interior first, so only
    # their halo rings (2 x ((n+2)^2 - n^2) x 8 B) are zeroed.  A whole
    # fill was 3 x (n+2)^2 x 8 + n^2 x 8 B (137 312 / 2 121 824).
    import repro.array as ra
    from repro.service import Service

    def chain(values):
        x = ra.asarray(values)
        for _ in range(3):
            x = (
                x + x.shift(0, 1) + x.shift(0, -1) + x.shift(1, 1)
                + x.shift(1, -1)
            ) * 0.2
        return x, x.sum()

    service = Service(level="c2+f4", backend="codegen_np", persistent=False)
    ra.compute(*chain(np.zeros((size, size))), service=service)
    zeroed_before = service.metrics.counter("exec.bytes_zeroed")
    copied_before = service.metrics.counter("exec.bytes_copied")
    ra.compute(*chain(np.ones((size, size))), service=service)
    assert service.metrics.counter("exec.bytes_zeroed") - zeroed_before == zeroed
    assert service.metrics.counter("exec.bytes_copied") - copied_before == copied
