"""Row-by-row conformance of the operator table's columns.

For every row of :mod:`repro.lang.operators` and every operand-kind
combination semantic analysis accepts, a one-statement mini-ZPL program
stores the row's value into an array ``T`` of the row's declared result
kind (no kind-changing store) and must leave bit-identical arrays behind
on the reference interpreter (the ``np`` column, region mode), ``interp``
(the ``np`` column, point mode), ``codegen_py`` (``py_text``),
``codegen_np`` (``np_text``) and ``c`` (the C spelling), at ``baseline``
and ``c2`` — and the traced ``repro.array`` twin of the row must match.
An array nothing reads is contracted away at ``c2``, so the program
copies ``T`` out to ``X`` (same kind) and a boundary statement keeps
``X`` live: at ``baseline`` the value goes through storage, at ``c2``
through the contraction scalar.

Operands are small finite values derived from ``Index1``, negatives and
zero included, restricted only where the *mathematical* function is
undefined (a zero divisor, the square root of a negative, ...): what
happens out there is ROADMAP correctness item 1 (c)/(d), not a row's
conformance.
"""

import operator
import os

import numpy as np
import pytest

import repro.array as ra
from repro.exec import execute
from repro.exec.native import cc_available
from repro.fusion import LEVELS_BY_NAME, plan_program
from repro.interp import run_reference
from repro.ir import normalize_source
from repro.lang import operators
from repro.scalarize import scalarize
from repro.service import Service

N = 6
BACKENDS = ("interp", "codegen_py", "codegen_np") + (
    ("c",) if cc_available() else ()
)
LEVELS = ("baseline", "c2")
DTYPES = {"float": np.float64, "integer": np.int64, "boolean": np.bool_}


class Operand:
    """One operand: its mini-ZPL text and the same value traced lazily."""

    def __init__(self, kind, text, trace):
        self.kind, self.text, self.trace = kind, text, trace


#: (first operand, second operand) per kind — negatives and zero included.
ANYWHERE = {
    "float": (
        Operand("float", "((Index1 - 3) * 0.75)", lambda i: (i - 3) * 0.75),
        Operand("float", "((4 - Index1) * 0.5)", lambda i: (4 - i) * 0.5),
    ),
    "integer": (
        Operand("integer", "(Index1 - 3)", lambda i: i - 3),
        Operand("integer", "(4 - Index1)", lambda i: 4 - i),
    ),
    "boolean": (
        Operand("boolean", "(Index1 < 4)", lambda i: i < 4),
        Operand("boolean", "(Index1 * 2 > 5)", lambda i: i * 2 > 5),
    ),
}
NONZERO = {
    "float": Operand("float", "(Index1 - 3.5)", lambda i: i - 3.5),
    "integer": Operand("integer", "(2 * Index1 - 7)", lambda i: 2 * i - 7),
}
NONNEGATIVE = {
    "float": Operand("float", "((Index1 - 1) * 0.75)", lambda i: (i - 1) * 0.75),
    "integer": Operand("integer", "(Index1 - 1)", lambda i: i - 1),
}
POSITIVE = {
    "float": Operand("float", "(Index1 * 0.75)", lambda i: i * 0.75),
    "integer": Operand("integer", "Index1", lambda i: i),
}
#: 5 .. 0: under it every base is in the domain, negative and zero included.
SMALL_EXPONENT = Operand("integer", "(6 - Index1)", lambda i: 6 - i)


def operands_for(row, kinds):
    """The operands of ``row`` for ``kinds``, inside the function's domain."""
    if row.name in ("/", "%", "mod"):
        return [ANYWHERE[kinds[0]][0], NONZERO[kinds[1]]]
    if row.name in ("^", "pow"):
        if kinds[1] == "integer":
            return [ANYWHERE[kinds[0]][0], SMALL_EXPONENT]
        return [POSITIVE[kinds[0]], ANYWHERE["float"][1]]
    if row.name == "sqrt":
        return [NONNEGATIVE[kinds[0]]]
    if row.name == "log":
        return [POSITIVE[kinds[0]]]
    return [ANYWHERE[kind][slot] for slot, kind in enumerate(kinds)]


def accepted_kinds(row):
    per_operand = {
        operators.NUMERIC: ("float", "integer"),
        operators.BOOLEAN: ("boolean",),
        operators.ANY: ("float", "integer", "boolean"),
    }[row.operands]
    arity = getattr(row, "arity", 1)
    if arity == 1:
        return [(kind,) for kind in per_operand]
    return [(a, b) for a in per_operand for b in per_operand]


#: The lazy frontend's spelling of each row (every row is exposed).
TRACED = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod, "^": operator.pow,
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "=": operator.eq, "!=": operator.ne,
    "and": ra.logical_and, "or": ra.logical_or,
    "neg": operator.neg, "not": ra.logical_not,
    "sqrt": ra.sqrt, "exp": ra.exp, "log": ra.log, "sin": ra.sin,
    "cos": ra.cos, "tan": ra.tan, "atan": ra.atan, "abs": ra.absolute,
    "floor": ra.floor, "ceil": ra.ceil, "min": ra.minimum,
    "max": ra.maximum, "pow": ra.power, "mod": ra.mod, "sign": ra.sign,
}
TRACED_REDUCTIONS = {"+": "sum", "*": "prod", "min": "min", "max": "max"}

#: Rows whose columns disagree on these ordinary values: each is an entry
#: of ROADMAP correctness item 1, to be fixed by editing the row.  Not
#: ``strict``: which ``pow`` NumPy runs depends on the CPU it finds (SVML's
#: where AVX-512 is present, libm's — and then no divergence — elsewhere).
_POWER = (
    "ROADMAP item 1 (f): np.power and libm pow differ in the last bit at a "
    "fractional exponent (3.75 ^ -0.5), so the NumPy column of this row "
    "disagrees with the Python and C columns"
)
DIVERGENT = {
    ("^", ("float", "float")): _POWER,
    ("pow", ("float", "float")): _POWER,
}


def _cases():
    cases = []
    for table, render in (
        (operators.BINARY, lambda row, a, b: "%s %s %s" % (a, row.name, b)),
        (operators.UNARY, lambda row, a: "%s %s" % (row.name, a)),
        (operators.INTRINSICS,
         lambda row, *args: "%s(%s)" % (row.name, ", ".join(args))),
    ):
        for row in table.values():
            traced = TRACED["neg" if row is operators.UNARY["-"] else row.name]
            for kinds in accepted_kinds(row):
                marks = []
                reason = DIVERGENT.get((row.name, kinds))
                if reason is not None:
                    marks.append(pytest.mark.xfail(strict=False, reason=reason))
                cases.append(pytest.param(
                    row, kinds, render, traced,
                    id="%s(%s)" % (row.name, ",".join(kinds)), marks=marks,
                ))
    return cases


@pytest.fixture(scope="module")
def service():
    return Service(persistent=False)


def _program(declarations, statement):
    return normalize_source(
        "program conform;\n"
        "config n : integer = %d;\n"
        "region R = [1..n];\n"
        "%s\n"
        "procedure main();\nbegin\n  %s\nend;\n" % (N, declarations, statement)
    )


def _runs(program):
    """(label, result) for every backend at every level."""
    for level in LEVELS:
        scalar_program = scalarize(
            program, plan_program(program, LEVELS_BY_NAME[level])
        )
        for backend in BACKENDS:
            yield "%s at %s" % (backend, level), execute(scalar_program, backend)


def _same_bits(actual, expected, label):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, "%s: dtype %s != %s" % (
        label, actual.dtype, expected.dtype)
    assert actual.tobytes() == expected.tobytes(), "%s: %r != %r" % (
        label, actual, expected)


@pytest.mark.parametrize("row, kinds, render, traced", _cases())
def test_row_columns_agree(row, kinds, render, traced, service):
    operands = operands_for(row, kinds)
    result_kind = operators.result_kind(row, kinds)
    program = _program(
        "var T, X : [R] %s;" % result_kind,
        "[R] T := %s;\n  [R] X := T;\n  [R] wrap X;"
        % render(row, *[operand.text for operand in operands]),
    )
    expected = run_reference(program).arrays["X"]
    assert expected.dtype == DTYPES[result_kind]
    assert np.all(np.isfinite(expected)), "operands left the row's domain"
    for label, result in _runs(program):
        _same_bits(result.arrays["X"], expected, label)
    index = ra.index((N,), 1)
    twin = traced(*[operand.trace(index) for operand in operands])
    assert twin.dtype == expected.dtype
    _same_bits(
        twin.compute(backend="codegen_np", service=service),
        expected, "repro.array",
    )


@pytest.mark.parametrize("kind", ("float", "integer"))
@pytest.mark.parametrize("name", list(operators.REDUCTIONS))
def test_reduction_columns_agree(name, kind, service):
    row = operators.REDUCTIONS[name]
    assert (kind,) in accepted_kinds(row) and ("boolean",) not in accepted_kinds(row)
    operand = ANYWHERE[kind][0]
    result_kind = operators.result_kind(row, (kind,))
    program = _program(
        "var s : %s;" % result_kind,
        "s := %s<< [R] %s;" % (name, operand.text),
    )
    expected = run_reference(program).scalars["s"]
    assert np.asarray(expected).dtype == DTYPES[result_kind]
    for label, result in _runs(program):
        value = result.scalars["s"]
        assert type(value) is (float if kind == "float" else int), label
        _same_bits(DTYPES[kind](value), expected, label)
    twin = getattr(operand.trace(ra.index((N,), 1)), TRACED_REDUCTIONS[name])()
    _same_bits(
        twin.compute(backend="codegen_np", service=service),
        expected, "repro.array",
    )


def test_every_row_is_covered():
    covered = set(TRACED) | set(TRACED_REDUCTIONS)
    for table in (operators.BINARY, operators.INTRINSICS, operators.REDUCTIONS):
        assert set(table) <= covered
    assert set(operators.UNARY) == {"-", "not"}


def test_language_reference_is_generated_from_the_table():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "docs", "LANGUAGE.md"
    )
    with open(path) as handle:
        text = handle.read()
    begin = "<!-- BEGIN generated: operators (repro.lang.operators) -->\n"
    end = "\n<!-- END generated: operators -->"
    embedded = text[text.index(begin) + len(begin):text.index(end)]
    assert embedded == operators.reference_markdown()


# -- ``pow`` has one kind ------------------------------------------------------

POW_PROGRAMS = {
    # np.power on int64 wrapped where math.pow / C pow did not.
    "[R] A := pow(3, 39 + Index1); s := max<< [R] A;": "3.28257e+20",
    # ... and refused a negative integer exponent with a raw ValueError.
    "[R] A := pow(2, 0 - Index1); s := +<< [R] A;": "0.9375",
}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("backend", BACKENDS + ("mp-shard",))
@pytest.mark.parametrize("body", list(POW_PROGRAMS))
def test_pow_has_one_answer(body, backend, level):
    program = normalize_source(
        "program powers;\nconfig n : integer = 4;\nregion R = [1..n];\n"
        "var A : [R] float;\nvar s : float;\n"
        "procedure main();\nbegin\n  %s\nend;\n" % body
    )
    scalar_program = scalarize(
        program, plan_program(program, LEVELS_BY_NAME[level])
    )
    options = {"procs": 2} if backend == "mp-shard" else {}
    result = execute(scalar_program, backend, **options)
    assert "%g" % result.scalars["s"] == POW_PROGRAMS[body]
    assert float(result.scalars["s"]).hex() == float(
        run_reference(program).scalars["s"]
    ).hex()
