"""The operator table: what every operator of the expression language means.

The paper's normal form is ``[R] X := f(A1@d1, ..., As@ds)``; this module
is the one place that says what ``f`` may be built from and what each
piece means.  One immutable row per binary operator (:data:`BINARY`),
unary operator (:data:`UNARY`), intrinsic (:data:`INTRINSICS`) and
reduction (:data:`REDUCTIONS`).  Every consumer looks its row up here:
semantic analysis and the lazy frontend read arity, operand constraint
and result kind; kind inference (:func:`repro.ir.expr.kind_of`) reads the
result kind; the constant folder reads ``fold``; the interpreters
(:mod:`repro.interp.evalexpr`) evaluate with ``np``; the three emitters
format ``py_text`` / ``np_text`` / ``c``, and ``codegen_np`` writes a
result in place through ``ufunc``; the scalarizer takes reduction
identities from ``identity``.

What is *definition* (arity, kinds, identities) is shared.  The
evaluation columns are deliberately independent implementations of the
same function — the reference NumPy callable, the Python text, the NumPy
text and the C text — and the differential tests keep comparing them
against each other (``tests/test_operator_conformance.py`` row by row).
Changing what an operator means is an edit to its row.

A leaf module: it imports nothing from :mod:`repro` but ``util``, so the
front end, the IR, the interpreters and the back ends can all depend on it.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

import numpy as np

from repro.util.tables import markdown_table

#: Result-kind rules.  A fixed kind, or ``JOIN``: the widest operand kind.
FLOAT, INTEGER, BOOLEAN, JOIN = "float", "integer", "boolean", "join"

#: Operand-kind constraints (what semantic analysis accepts).
NUMERIC, ANY = "numeric", "any"  # and BOOLEAN: boolean operands only

#: numpy promotion order of the three element kinds.
_KIND_RANK = {"boolean": 0, "integer": 1, "float": 2}


def join_kinds(left: str, right: str) -> str:
    """The wider of two element kinds (numpy promotion order)."""
    return left if _KIND_RANK[left] >= _KIND_RANK[right] else right


class CText(NamedTuple):
    """A C spelling and the helper function it pulls into the unit."""

    text: str
    helper: Optional[str] = None


class Op(NamedTuple):
    """One element-wise operator or intrinsic.

    Text columns are ``str.format`` templates over the rendered operands
    (``{0}``, ``{1}``).  ``c`` is one spelling, or — where C needs a
    different one while Python and NumPy dispatch on the value (``fabs`` /
    ``repro_iabs``, the ``(double)`` casts of integer ``/``) — one per
    :func:`operand_class`.
    """

    name: str
    arity: int
    #: NUMERIC (no booleans), BOOLEAN (only booleans) or ANY.
    operands: str
    #: FLOAT / INTEGER / BOOLEAN / JOIN.
    result: str
    #: The reference evaluation, on NumPy arrays and scalars alike.
    np: Callable
    #: What the constant folder applies to Python numbers (the value the
    #: emitted Python computes, converted to the result kind); ``None``
    #: leaves the row to run time.
    fold: Optional[Callable]
    py_text: str
    np_text: str
    c: Union[CText, Mapping[str, CText]]
    #: The NumPy ufunc ``np_text`` computes (``np_text`` of an array
    #: operand is ``np.<ufunc>(a, b)``), so ``codegen_np`` can write the
    #: result into an existing buffer with ``out=``; ``None`` where
    #: ``np_text`` is more than one ufunc call.
    ufunc: Optional[str] = None


class Reduction(NamedTuple):
    """One full reduction ``op<< [R] expr``.

    ``identity`` is keyed like :attr:`Op.c` (a boolean operand folds from
    the integer identity).  The step templates take the accumulator as
    ``{0}`` and the folded value (the whole region's, for ``np_step``) as
    ``{1}``; ``min``/``max`` keep the accumulator on ties, in every column.
    """

    name: str
    operands: str
    result: str
    identity: Mapping[str, object]
    #: The reference reduction of a whole region's values.
    np: Callable
    #: The reference fold of one value into the accumulator.
    step: Callable
    py_step: str
    np_step: str
    c_step: str

    def identity_of(self, kind: str):
        """The value a fold over operands of ``kind`` starts from.

        It must match the kind of the reduced values: a float identity
        (``0.0``) would silently promote an integer reduction to float,
        diverging from the reference (``np.sum`` over an int array is an
        ``np.int64``).
        """
        return self.identity[operand_class((kind,))]


def operand_class(kinds: Iterable[Optional[str]]) -> str:
    """The key of a kind-dependent column: ``"float"`` or ``"integer"``."""
    return FLOAT if FLOAT in kinds else INTEGER


def result_kind(row, kinds: Iterable[Optional[str]]) -> Optional[str]:
    """The element kind ``row`` produces from operands of ``kinds``.

    The one result-kind rule: ``/`` and ``^`` are float, comparisons and
    logic boolean, ``floor``/``ceil`` integer, everything else the join
    of its operand kinds.  An unknown operand kind (``None``) makes a
    joined result unknown; ``kinds`` is not consumed for a fixed one.
    """
    if row.result != JOIN:
        return row.result
    joined = BOOLEAN
    for kind in kinds:
        if kind is None:
            return None
        joined = join_kinds(joined, kind)
    return joined


def _float_power(base, exponent):
    return np.power(np.asarray(base, dtype=np.float64), exponent)


_FLOAT_POWER_TEXT = "np.power(np.asarray({0}, dtype=np.float64), {1})"


def _integral(rounder: Callable) -> Callable:
    """``floor``/``ceil`` yield integers: ``int`` scalars, int64 arrays."""

    def rounded(value):
        result = np.asarray(rounder(value))
        if result.ndim == 0:
            return int(result)
        return result.astype(np.int64)

    return rounded


#: Floored modulo (sign of the divisor), one spelling for ``%`` and ``mod``.
_C_MOD = {
    FLOAT: CText("repro_mod({0}, {1})", "repro_mod"),
    INTEGER: CText("repro_imod({0}, {1})", "repro_imod"),
}


def _arith(name, np_fn, fold, ufunc, c=None, result=JOIN) -> Op:
    text = "({0} %s {1})" % name
    return Op(
        name, 2, NUMERIC, result, np_fn, fold, text, text, c or CText(text),
        ufunc,
    )


def _compare(name, fn, ufunc) -> Op:
    text = "({0} %s {1})" % ("==" if name == "=" else name)
    return Op(name, 2, ANY, BOOLEAN, fn, None, text, text, CText(text), ufunc)


def _logical(name, np_fn, c_op) -> Op:
    return Op(
        name, 2, BOOLEAN, BOOLEAN, np_fn, None,
        "({0} %s {1})" % name,
        "np.logical_%s({0}, {1})" % name,
        CText("({0} %s {1})" % c_op),
        "logical_" + name,
    )


BINARY: Mapping[str, Op] = MappingProxyType({
    row.name: row
    for row in (
        _arith("+", operator.add, operator.add, "add"),
        _arith("-", operator.sub, operator.sub, "subtract"),
        _arith("*", operator.mul, operator.mul, "multiply"),
        # Language division is float division; C would truncate when
        # both operands are integral.
        _arith("/", np.true_divide, operator.truediv, "divide", {
            FLOAT: CText("({0} / {1})"),
            INTEGER: CText("((double)({0}) / (double)({1}))"),
        }, result=FLOAT),
        # C's % truncates toward zero (and rejects doubles).
        _arith("%", np.mod, operator.mod, "remainder", _C_MOD),
        Op(
            "^", 2, NUMERIC, FLOAT, _float_power,
            lambda base, exponent: float(base) ** exponent,
            "({0} ** {1})", _FLOAT_POWER_TEXT, CText("pow({0}, {1})"),
        ),
        _compare("<", operator.lt, "less"),
        _compare("<=", operator.le, "less_equal"),
        _compare(">", operator.gt, "greater"),
        _compare(">=", operator.ge, "greater_equal"),
        _compare("=", operator.eq, "equal"),
        _compare("!=", operator.ne, "not_equal"),
        _logical("and", np.logical_and, "&&"),
        _logical("or", np.logical_or, "||"),
    )
})

UNARY: Mapping[str, Op] = MappingProxyType({
    "-": Op(
        "-", 1, NUMERIC, JOIN, operator.neg, operator.neg,
        "(-{0})", "(-{0})", CText("(-{0})"), "negative",
    ),
    "not": Op(
        "not", 1, BOOLEAN, BOOLEAN, np.logical_not, None,
        "(not {0})", "np.logical_not({0})", CText("(!{0})"), "logical_not",
    ),
})


def _libm(name, np_fn, math_fn, np_name=None) -> Op:
    """A float-valued function of one argument, ``<name>`` in libm."""
    call = name + "({0})"
    np_name = np_name or name
    return Op(
        name, 1, NUMERIC, FLOAT, np_fn, math_fn,
        "math." + call, "np.%s({0})" % np_name, CText(call), np_name,
    )


def _rounding(name, np_fn) -> Op:
    call = name + "({0})"
    return Op(
        name, 1, NUMERIC, INTEGER, _integral(np_fn), None,
        "math." + call,
        "np.asarray(np.%s).astype(np.int64)" % call,
        CText(call),
    )


def _select(name, np_fn, py_fn, cmp) -> Op:
    """``min``/``max``.  The C ternary mirrors Python's: the *second*
    argument wins only on a strict comparison, so ties (and NaN
    comparisons) keep the first."""
    return Op(
        name, 2, NUMERIC, JOIN, np_fn, py_fn,
        name + "({0}, {1})",
        "np.%simum({0}, {1})" % name,
        CText("(({1} %s {0}) ? {1} : {0})" % cmp),
        name + "imum",
    )


INTRINSICS: Mapping[str, Op] = MappingProxyType({
    row.name: row
    for row in (
        _libm("sqrt", np.sqrt, math.sqrt),
        _libm("exp", np.exp, math.exp),
        _libm("log", np.log, math.log),
        _libm("sin", np.sin, math.sin),
        _libm("cos", np.cos, math.cos),
        _libm("tan", np.tan, math.tan),
        _libm("atan", np.arctan, math.atan, "arctan"),
        Op(
            "abs", 1, NUMERIC, JOIN, np.abs, abs,
            "abs({0})", "np.abs({0})",
            {
                FLOAT: CText("fabs({0})"),
                INTEGER: CText("repro_iabs({0})", "repro_iabs"),
            },
            "absolute",
        ),
        _rounding("floor", np.floor),
        _rounding("ceil", np.ceil),
        _select("min", np.minimum, min, "<"),
        _select("max", np.maximum, max, ">"),
        # ``pow`` is ``^`` spelled as a call: float, whatever the operands.
        Op(
            "pow", 2, NUMERIC, FLOAT, _float_power, math.pow,
            "math.pow({0}, {1})", _FLOAT_POWER_TEXT, CText("pow({0}, {1})"),
        ),
        # Floored, matching np.mod (math.fmod follows the dividend).
        Op(
            "mod", 2, NUMERIC, JOIN, np.mod, None,
            "({0} % {1})", "np.mod({0}, {1})", _C_MOD, "remainder",
        ),
        # Plain copysign is wrong at zero.
        Op(
            "sign", 1, NUMERIC, JOIN, np.sign, None,
            "(0.0 if {0} == 0 else math.copysign(1.0, {0}))",
            "np.sign({0})",
            CText("repro_sign({0})", "repro_sign"),
            "sign",
        ),
    )
})

_INT64_MAX = 2 ** 63 - 1

REDUCTIONS: Mapping[str, Reduction] = MappingProxyType({
    row.name: row
    for row in (
        Reduction(
            "+", NUMERIC, JOIN, {FLOAT: 0.0, INTEGER: 0},
            np.sum, operator.add,
            "{0} + {1}", "{0} + np.sum({1})", "{0} += {1};",
        ),
        Reduction(
            "*", NUMERIC, JOIN, {FLOAT: 1.0, INTEGER: 1},
            np.prod, operator.mul,
            "{0} * {1}", "{0} * np.prod({1})", "{0} *= {1};",
        ),
        Reduction(
            "min", NUMERIC, JOIN, {FLOAT: math.inf, INTEGER: _INT64_MAX},
            np.min, np.minimum,
            "min({0}, {1})", "np.minimum({0}, np.min({1}))",
            "{0} = ({1} < {0}) ? {1} : {0};",
        ),
        Reduction(
            "max", NUMERIC, JOIN, {FLOAT: -math.inf, INTEGER: -_INT64_MAX - 1},
            np.max, np.maximum,
            "max({0}, {1})", "np.maximum({0}, np.max({1}))",
            "{0} = ({1} > {0}) ? {1} : {0};",
        ),
    )
})


# -- the reference table in docs/LANGUAGE.md -----------------------------------

_OPERANDS_TEXT = {NUMERIC: "integer, float", BOOLEAN: "boolean", ANY: "any"}
_RESULT_TEXT = {JOIN: "widest operand kind"}


def reference_markdown() -> str:
    """The operator reference embedded in ``docs/LANGUAGE.md`` (between its
    ``BEGIN/END generated`` markers; a test regenerates and compares it)."""

    def op_rows(table):
        return [
            (
                "`%s`" % row.name,
                str(row.arity),
                _OPERANDS_TEXT[row.operands],
                _RESULT_TEXT.get(row.result, row.result),
                "`%s`" % row.np_text.format("a", "b"),
                "`np.%s(%s, out=t)`" % (row.ufunc, ", ".join("ab"[: row.arity]))
                if row.ufunc
                else "—",
            )
            for row in table.values()
        ]

    header = (
        "arity", "operand kinds", "result kind", "reference NumPy operation",
        "in place into `t` (`codegen_np`)",
    )
    operator_table = markdown_table(
        ("operator",) + header, op_rows(BINARY) + op_rows(UNARY)
    )
    intrinsic_table = markdown_table(("intrinsic",) + header, op_rows(INTRINSICS))
    reduction_table = markdown_table(
        ("reduction", "operand kinds", "result kind",
         "fold of a region's values `a` into `s`",
         "identity (float)", "identity (integer)"),
        [
            (
                "`%s<<`" % row.name,
                _OPERANDS_TEXT[row.operands],
                _RESULT_TEXT.get(row.result, row.result),
                "`%s`" % row.np_step.format("s", "a"),
                "`%r`" % row.identity[FLOAT],
                "`%r`" % row.identity[INTEGER],
            )
            for row in REDUCTIONS.values()
        ],
    )
    return "### Operators\n\n%s\n\n### Intrinsic functions\n\n%s\n\n### Reductions\n\n%s" % (
        operator_table, intrinsic_table, reduction_table
    )
