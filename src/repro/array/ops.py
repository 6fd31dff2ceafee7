"""The user-facing lazy ndarray API of :mod:`repro.array`.

:class:`LazyArray` and :class:`LazyScalar` are thin wrappers over graph
nodes: every arithmetic/comparison dunder, unary ufunc, ``shift`` and
reduction records a new node and returns a new wrapper — nothing
executes until a materialization trigger (``.compute()``, ``float()``,
``np.asarray``/``__array__``, ``print``) flushes the trace through the
fusion pipeline.

Semantics follow the mini-ZPL dialect, not full NumPy:

* element-wise ops combine equal shapes or an array with a scalar —
  there is no broadcasting;
* dtypes are the IR's three element kinds (float64 / int64 / bool);
* ``shift(axis, offset)`` reads the neighbor ``offset`` steps along
  ``axis`` (the ``A@d`` stencil read); reads past the edge return 0,
  the zero-filled-halo rule every backend shares.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.array import graph
from repro.util.errors import ReproError


def _as_node(value, context: str) -> graph.Node:
    """The graph node for any operand a dunder may receive."""
    if isinstance(value, (LazyArray, LazyScalar)):
        return value.node
    if isinstance(value, np.ndarray):
        return graph.input_node(value)
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        return graph.const_node(value)
    raise ReproError(
        "cannot use %r as an operand of %s (expected LazyArray, ndarray, "
        "or a Python scalar)" % (type(value).__name__, context)
    )


def _wrap(node: graph.Node) -> Union["LazyArray", "LazyScalar"]:
    return LazyArray(node) if node.is_array else LazyScalar(node)


class _LazyBase:
    """Arithmetic shared by arrays and scalars (records, never computes)."""

    __slots__ = ("node",)

    def __init__(self, node: graph.Node) -> None:
        self.node = node

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(graph.DTYPE_OF_KIND[self.node.kind])

    # -- recording helpers -------------------------------------------------

    def _bin(self, op, other, reflected=False):
        try:
            other_node = _as_node(other, "%r" % op)
        except ReproError:
            return NotImplemented
        left, right = (other_node, self.node) if reflected else (self.node, other_node)
        return _wrap(graph.bin_node(op, left, right))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return self._bin("+", other, reflected=True)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, reflected=True)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return self._bin("*", other, reflected=True)

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, reflected=True)

    def __mod__(self, other):
        try:
            other_node = _as_node(other, "mod")
        except ReproError:
            return NotImplemented
        return _wrap(graph.call_node("mod", (self.node, other_node)))

    def __rmod__(self, other):
        try:
            other_node = _as_node(other, "mod")
        except ReproError:
            return NotImplemented
        return _wrap(graph.call_node("mod", (other_node, self.node)))

    def __pow__(self, other):
        return self._bin("^", other)

    def __rpow__(self, other):
        return self._bin("^", other, reflected=True)

    def __neg__(self):
        return _wrap(graph.un_node("-", self.node))

    def __pos__(self):
        return self

    def __abs__(self):
        return _wrap(graph.call_node("abs", (self.node,)))

    # -- comparisons -------------------------------------------------------

    def __lt__(self, other):
        return self._bin("<", other)

    def __le__(self, other):
        return self._bin("<=", other)

    def __gt__(self, other):
        return self._bin(">", other)

    def __ge__(self, other):
        return self._bin(">=", other)

    def __eq__(self, other):  # element-wise, like numpy
        return self._bin("=", other)

    def __ne__(self, other):
        return self._bin("!=", other)

    # Element-wise __eq__ would otherwise make instances unhashable.
    __hash__ = object.__hash__

    # -- materialization ---------------------------------------------------

    def compute(
        self,
        backend: Optional[str] = None,
        level=None,
        service=None,
    ):
        """Materialize this value through the fusion pipeline.

        Compiles (or cache-hits, keyed by the structural trace digest)
        and executes; returns an ``np.ndarray`` for arrays, a numpy
        scalar for reductions.  See :func:`repro.array.compute` for
        multi-output materialization that shares one fused program.
        """
        from repro.array import materialize

        return materialize.compute_nodes(
            (self.node,), backend=backend, level=level, service=service
        )[0]


class LazyArray(_LazyBase):
    """An unevaluated array value: a node in the traced expression DAG."""

    __slots__ = ()

    @property
    def shape(self):
        return self.node.shape

    @property
    def ndim(self) -> int:
        return len(self.node.shape)

    @property
    def size(self) -> int:
        size = 1
        for extent in self.node.shape:
            size *= extent
        return size

    # -- stencil access ----------------------------------------------------

    def shift(self, axis: int, offset: int) -> "LazyArray":
        """The ``A@d`` stencil read: element ``[i]`` becomes
        ``A[i + offset]`` along ``axis`` (0-based); out-of-edge reads are 0.
        """
        rank = self.ndim
        if not -rank <= axis < rank:
            raise ReproError(
                "axis %d out of range for rank-%d array" % (axis, rank)
            )
        if axis < 0:
            axis += rank
        direction = [0] * rank
        direction[axis] = int(offset)
        return LazyArray(graph.shift_node(self.node, direction))

    # -- reductions --------------------------------------------------------

    def sum(self) -> "LazyScalar":
        """Full ``+<<`` reduction over the array's region."""
        return LazyScalar(graph.reduce_node("+", self.node))

    def prod(self) -> "LazyScalar":
        return LazyScalar(graph.reduce_node("*", self.node))

    def min(self) -> "LazyScalar":
        return LazyScalar(graph.reduce_node("min", self.node))

    def max(self) -> "LazyScalar":
        return LazyScalar(graph.reduce_node("max", self.node))

    # -- implicit materialization ------------------------------------------

    def __array__(self, dtype=None, copy=None):
        value = np.asarray(self.compute())
        if dtype is not None:
            value = value.astype(dtype)
        return value

    def __repr__(self) -> str:
        return "LazyArray(shape=%s, dtype=%s)\n%r" % (
            self.shape,
            self.dtype.name,
            self.compute(),
        )

    def __str__(self) -> str:
        return str(self.compute())

    def __bool__(self):
        raise ReproError(
            "the truth value of a LazyArray is ambiguous; materialize with "
            "compute() and use numpy's any()/all()"
        )


class LazyScalar(_LazyBase):
    """An unevaluated scalar (a reduction result or arithmetic over one)."""

    __slots__ = ()

    shape = ()
    ndim = 0

    def __float__(self) -> float:
        return float(self.compute())

    def __int__(self) -> int:
        return int(self.compute())

    def __bool__(self) -> bool:
        return bool(self.compute())

    def __repr__(self) -> str:
        return "LazyScalar(dtype=%s, value=%r)" % (
            self.dtype.name,
            self.compute(),
        )

    def __str__(self) -> str:
        return str(self.compute())


# -- module-level constructors ----------------------------------------------


def asarray(value) -> LazyArray:
    """Trace an ndarray (or nested lists) as a program input.

    The value is copied at trace time; dtypes are canonicalized to
    float64 / int64 / bool.  Equal program *shapes* (shape + dtype + op
    topology) share one compiled artifact regardless of the values.
    """
    if isinstance(value, LazyArray):
        return value
    return LazyArray(graph.input_node(value))


def _kind_of_dtype_arg(dtype) -> Optional[str]:
    if dtype is None:
        return None
    name = np.dtype(dtype).name
    kind = {"float64": "float", "int64": "integer", "bool": "boolean"}.get(name)
    if kind is None:
        # Any float/int flavour canonicalizes like inputs do.
        np_dtype = np.dtype(dtype)
        if np.issubdtype(np_dtype, np.bool_):
            return "boolean"
        if np.issubdtype(np_dtype, np.integer):
            return "integer"
        if np.issubdtype(np_dtype, np.floating):
            return "float"
        raise ReproError("unsupported dtype %r" % (dtype,))
    return kind


def zeros(shape: Sequence[int], dtype=None) -> LazyArray:
    """A constant-zero array (defaults to float64, like numpy)."""
    kind = _kind_of_dtype_arg(dtype) or "float"
    return LazyArray(graph.full_node(shape, 0, kind))


def ones(shape: Sequence[int], dtype=None) -> LazyArray:
    kind = _kind_of_dtype_arg(dtype) or "float"
    return LazyArray(graph.full_node(shape, 1, kind))


def full(shape: Sequence[int], value, dtype=None) -> LazyArray:
    return LazyArray(graph.full_node(shape, value, _kind_of_dtype_arg(dtype)))


def index(shape: Sequence[int], dim: int) -> LazyArray:
    """The ZPL ``Index<dim>`` grid: element ``[i1, ..., in]`` holds its own
    1-based coordinate along ``dim`` (1-based, matching ``Index1``...)."""
    return LazyArray(graph.index_node(shape, dim))


def _unary(name):
    def ufunc(value):
        return _wrap(graph.call_node(name, (_as_node(value, name),)))

    ufunc.__name__ = name
    ufunc.__doc__ = "Element-wise %r (the mini-ZPL intrinsic)." % name
    return ufunc


sqrt = _unary("sqrt")
exp = _unary("exp")
log = _unary("log")
sin = _unary("sin")
cos = _unary("cos")
tan = _unary("tan")
atan = _unary("atan")
absolute = _unary("abs")
floor = _unary("floor")
ceil = _unary("ceil")
sign = _unary("sign")


def _binary(name):
    def ufunc(left, right):
        return _wrap(
            graph.call_node(name, (_as_node(left, name), _as_node(right, name)))
        )

    ufunc.__name__ = name
    ufunc.__doc__ = "Element-wise binary %r (the mini-ZPL intrinsic)." % name
    return ufunc


minimum = _binary("min")
maximum = _binary("max")
power = _binary("pow")
mod = _binary("mod")


def logical_and(left, right):
    """Element-wise ``and`` (Python's ``and`` cannot be overloaded)."""
    return _wrap(
        graph.bin_node("and", _as_node(left, "and"), _as_node(right, "and"))
    )


def logical_or(left, right):
    return _wrap(
        graph.bin_node("or", _as_node(left, "or"), _as_node(right, "or"))
    )


def logical_not(value):
    return _wrap(graph.un_node("not", _as_node(value, "not")))
