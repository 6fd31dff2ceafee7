"""Helpers shared by the executable-Python code generators.

Both back ends — the element-loop emitter (:mod:`codegen_py`) and the
whole-region slice emitter (:mod:`codegen_np`) — agree on dtype mapping,
scalar initialization, the halo-plane order of boundary fills and the
slice/offset translation that turns a region bound plus a constant
reference offset into a storage index.  This module centralizes those
rules so the two emitters cannot drift apart, and so they match the
interpreters in :mod:`repro.interp`.  What an operator means and how each
emitter spells it is not here: that is :mod:`repro.lang.operators`.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
# Re-exported: the frozen benchmark and two test modules import it from here.
from repro.scalarize.loopnest import int_config_env  # noqa: F401
from repro.util.errors import InputError

#: Element-kind -> numpy dtype attribute name (matches interp.storage).
DTYPES = {"float": "float64", "integer": "int64", "boolean": "bool_"}

#: Element-kind -> numpy dtype.
NP_DTYPES = {kind: np.dtype(name) for kind, name in DTYPES.items()}

#: Element-kind -> the value a declared scalar starts at.
SCALAR_INIT = {"float": 0.0, "integer": 0, "boolean": False}


def frac_operand(expr: ir.IRExpr) -> Optional[ir.IRExpr]:
    """The dividend of a modulo by the float constant ``1.0``, else ``None``.

    ``x % 1.0`` and ``mod(x, 1.0)`` are the fractional part ``x - floor(x)``,
    bit for bit: both are the correctly rounded value of the same real
    number, ``-0.0`` and every ``|x| >= 2**52`` give ``+0.0`` (the zero takes
    the divisor's sign), infinities and NaN give NaN.  The emitters that call
    libm per element lower it that way (glibc's ``fmod`` costs ~30x a
    ``floor``).  No other divisor qualifies, powers of two included:
    ``-5e-324 % 2.0`` is ``2.0``, but ``x / 2.0`` rounds to ``-0.0`` there
    and the floor form returns ``-5e-324``.
    """
    if isinstance(expr, ir.BinOp) and expr.op == "%":
        dividend, divisor = expr.left, expr.right
    elif isinstance(expr, ir.Call) and expr.name == "mod":
        dividend, divisor = expr.args
    else:
        return None
    if (
        isinstance(divisor, ir.Const)
        and isinstance(divisor.value, float)
        and divisor.value == 1.0
    ):
        return dividend
    return None


def validate_inputs(layout, inputs):
    """Check per-request initial arrays against a program's storage layout.

    Every backend shares one contract: a seeded value must name a real
    (non-contracted) array, match its allocation-region shape exactly
    (halo included — the layout an :class:`ExecutionResult` returns),
    and carry a dtype safely castable to the declared element kind.
    Violations raise :class:`repro.util.errors.InputError` (a
    ``ReproError``) with the offending name spelled out, instead of a
    raw numpy broadcast/cast surprise deep inside a generated kernel.

    ``layout`` is :attr:`ScalarProgram.layout`.  Returns the inputs as
    ndarrays, or None when ``inputs`` is None.
    """
    if inputs is None:
        return None
    slots = {slot.name: slot for slot in layout if slot.role == "array"}
    checked = {}
    for name, value in inputs.items():
        slot = slots.get(name)
        if slot is None:
            raise InputError(
                "cannot seed unknown array %r (have: %s)"
                % (name, ", ".join(sorted(slots)) or "none")
            )
        value = np.asarray(value)
        if value.shape != slot.shape:
            raise InputError(
                "initial value for %r has shape %s, allocation needs %s"
                % (name, value.shape, slot.shape)
            )
        dtype = NP_DTYPES[slot.kind]
        if value.dtype != dtype and not np.can_cast(
            value.dtype, dtype, casting="safe"
        ):
            raise InputError(
                "initial value for %r has dtype %s, array is %s (%s) and "
                "the cast is not value-preserving"
                % (name, value.dtype, dtype, slot.kind)
            )
        checked[name] = value
    return checked


@functools.lru_cache(maxsize=256)
def ring(shape: Tuple[int, ...], box) -> Tuple[Tuple[Tuple[slice, ...], ...], int]:
    """``(slabs, elements)``: disjoint index tuples that cover an
    allocation of ``shape`` minus ``box``, and how many elements they hold.

    ``box`` is one ``(start, stop)`` raw index pair per dimension, inside
    the allocation; what lies outside it is the *ring* (a region's halo).
    Along each dimension in turn, the slabs below and above the box span
    the box in the dimensions before it and the whole allocation in those
    after.  Memoised: a program's runs ask for the same few rings.
    """
    slabs = []
    inner: Tuple[slice, ...] = ()
    for dim, (extent, (start, stop)) in enumerate(zip(shape, box)):
        rest = (slice(None),) * (len(shape) - dim - 1)
        for lo, hi in ((0, start), (stop, extent)):
            if lo < hi:
                slabs.append(inner + (slice(lo, hi),) + rest)
        inner += (slice(start, stop),)
    boxed = math.prod(stop - start for start, stop in box)
    return tuple(slabs), math.prod(shape) - boxed


def ringed(shape: Tuple[int, ...], dtype, box) -> Tuple[np.ndarray, int]:
    """``(buffer, bytes zeroed)``: a fresh buffer that is zero on the
    :func:`ring` around ``box`` and uninitialised inside it."""
    slabs, elements = ring(shape, box)
    buffer = np.empty(shape, dtype=dtype)
    for slab in slabs:
        buffer[slab] = 0
    return buffer, elements * buffer.itemsize


def build_state(layout, inputs=None, scalars=None, metrics=None, fill=None):
    """``(arrays, scalars)``: the state one run of a program starts from.

    The one place storage is allocated and seeded.  ``inputs`` is checked
    (:func:`validate_inputs`) before anything is allocated; every array
    slot of ``layout`` gets a fresh buffer of its shape and kind.  The
    caller's value, where one was given, is copied in (the caller's array
    is never written); an array ``fill`` (:attr:`ScalarProgram.fill_plan`)
    boxes is zeroed only on the :func:`ring` around its box, which the
    program writes before it reads; every other array starts at zero.
    Every scalar slot starts at its kind's zero (:data:`SCALAR_INIT`)
    unless ``scalars`` — already checked by :func:`validate_scalars` —
    names it.  A kernel then works in place on exactly these arrays.

    ``metrics`` (anything with ``incr``) counts ``exec.bytes_zeroed`` and
    ``exec.bytes_copied``, the bytes actually zeroed and copied in.
    """
    inputs = validate_inputs(layout, inputs) or {}
    fill = fill or {}
    arrays = {}
    start = {}
    zeroed = copied = 0
    for name, role, kind, shape, _bases in layout:
        if role != "array":
            start[name] = SCALAR_INIT[kind]
            continue
        # A seeded array is covered whole by its copy.
        box = (
            tuple((0, extent) for extent in shape)
            if name in inputs
            else fill.get(name)
        )
        if box is None:
            arrays[name] = buffer = np.zeros(shape, dtype=NP_DTYPES[kind])
            zeroed += buffer.nbytes
            continue
        arrays[name], count = ringed(shape, NP_DTYPES[kind], box)
        zeroed += count
        if name in inputs:
            arrays[name][...] = inputs[name]
            copied += arrays[name].nbytes
    if scalars:
        start.update(scalars)
    if metrics is not None:
        metrics.incr("exec.bytes_zeroed", zeroed)
        if inputs:
            metrics.incr("exec.bytes_copied", copied)
    return arrays, start


#: The exact types runs leave in scalars -> the plain type of each (one
#: dict probe; the ``isinstance`` ladder below costs 4x as much a value).
_PLAIN = {
    bool: bool, int: int, float: float,
    np.bool_: bool, np.int64: int, np.float64: float,
}


def scalar_value(value: object) -> object:
    """A plain Python ``bool`` / ``int`` / ``float``, by run-time type.

    What leaves a run as a final scalar and what crosses an mp-shard
    broadcast.  The *value's* type decides, never the scalar's declared
    kind: a float left in an integer scalar stays visible as a float.
    """
    plain = _PLAIN.get(type(value))
    if plain is not None:
        return plain(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


_KIND_TYPES = {"float": float, "integer": int, "boolean": bool}


def _is_kind(value, kind: str) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return kind == "boolean"
    if isinstance(value, (int, np.integer)):
        return kind in ("integer", "float")
    return isinstance(value, (float, np.floating)) and kind == "float"


def validate_scalars(program, scalars):
    """Check per-request initial scalars against a scalarized program.

    The scalar twin of :func:`validate_inputs`: exactly the names
    ``program.scalar_inputs`` declares must be supplied — an unknown or a
    missing name raises :class:`repro.util.errors.InputError` — and each
    value must be of its scalar's declared kind (an integer is accepted
    for a float scalar, nothing else converts).

    Returns plain Python values keyed by name, or None when the program
    declares no scalar inputs and none were given.
    """
    expected = program.scalar_inputs
    if not expected and not scalars:
        return None
    scalars = dict(scalars or {})
    unknown = sorted(set(scalars) - set(expected))
    if unknown:
        raise InputError(
            "cannot seed unknown scalar input %s (have: %s)"
            % (", ".join(map(repr, unknown)),
               ", ".join(sorted(expected)) or "none")
        )
    missing = sorted(set(expected) - set(scalars))
    if missing:
        raise InputError(
            "missing initial value for scalar input %s"
            % ", ".join(map(repr, missing))
        )
    checked = {}
    for name in expected:
        value, kind = scalars[name], program.scalars[name]
        if not _is_kind(value, kind):
            raise InputError(
                "initial value %r for scalar input %r is not of kind %s"
                % (value, name, kind)
            )
        checked[name] = _KIND_TYPES[kind](value)
    return checked


def halo_planes(
    kind: str,
    bounds: Sequence[Tuple[int, int]],
    alloc: Sequence[Tuple[int, int]],
) -> Iterator[Tuple[int, int, int]]:
    """The plane copies of a ``wrap``/``reflect`` fill, in execution order.

    Yields ``(dim, dest, source)``: along 0-based ``dim``, raw storage
    plane ``dest`` (outside ``bounds``, inside the allocation ``alloc``)
    is overwritten from raw plane ``source``.  Dimensions go in order and
    within one the low halo precedes the high halo, so corner cells
    combine both dimensions' rules; the interpreters and all three
    emitters replay exactly this sequence.
    """
    for dim, ((lo, hi), (alo, ahi)) in enumerate(zip(bounds, alloc)):
        lo_raw = lo - alo
        hi_raw = hi - alo
        period = hi_raw - lo_raw + 1
        for raw in (*range(0, lo_raw), *range(hi_raw + 1, ahi - alo + 1)):
            if kind == "wrap":
                yield dim, raw, lo_raw + ((raw - lo_raw) % period)
            elif raw < lo_raw:
                yield dim, raw, 2 * lo_raw - 1 - raw
            else:
                yield dim, raw, 2 * hi_raw + 1 - raw


def slice_start_stop(
    lo: int, hi: int, offset: int, base: int
) -> Tuple[int, int]:
    """Translate region bounds + reference offset to storage slice indices.

    The same translation :meth:`repro.interp.storage.Storage.slice_view`
    performs: element ``p`` of the region read at ``offset`` lives at raw
    storage index ``p + offset - base``.
    """
    return lo + offset - base, hi + offset - base + 1


def bound_text(bound: LinearExpr, shift: int = 0) -> str:
    """Render an affine region bound (plus a constant shift) as Python source.

    Constant bounds fold to a plain literal; symbolic bounds (dynamic
    regions inside sequential loops) render as an expression over the loop
    variables, e.g. ``i + 1``.
    """
    shifted = bound + shift
    if shifted.is_constant:
        return str(shifted.const)
    return "(%s)" % str(shifted).replace(" ", "")
