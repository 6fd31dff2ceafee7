"""Address-trace generation from scalarized loop nests.

Arrays are laid out contiguously in a flat address space (row-major, as the
C back end would allocate them), so the simulated cache sees the same
conflict structure a real static allocation produces.  Trace generation is
vectorized with numpy: one address vector per reference, interleaved in
iteration order.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.ir.expr import ArrayRef, IRExpr
from repro.scalarize.loopnest import LoopNest, ScalarProgram
from repro.util.errors import MachineError

_ELEM_SIZES = {"float": 8, "integer": 8, "boolean": 1}


class MemoryLayout:
    """Base addresses, strides and element sizes of all allocated arrays."""

    def __init__(self, program: ScalarProgram, alignment: int = 64) -> None:
        self.bases: Dict[str, int] = {}
        self.strides: Dict[str, Tuple[int, ...]] = {}
        self.lower_bounds: Dict[str, Tuple[int, ...]] = {}
        self.elem_sizes: Dict[str, int] = {}
        #: circular-buffer arrays: name -> (dim, depth)
        self.partial: Dict[str, Tuple[int, int]] = dict(
            getattr(program, "partial", {}) or {}
        )
        #: name -> allocation shape, as :attr:`ScalarProgram.layout` has it
        self.shapes: Dict[str, Tuple[int, ...]] = {}
        slots = {slot.name: slot for slot in program.layout}
        cursor = 0
        for name in program.array_allocs:  # addresses follow declaration order
            slot = slots[name]
            elem = _ELEM_SIZES[slot.kind]
            strides: List[int] = []
            running = elem
            for extent in reversed(slot.shape):
                strides.append(running)
                running *= extent
            strides.reverse()
            cursor = -(-cursor // alignment) * alignment  # round up
            self.bases[name] = cursor
            self.strides[name] = tuple(strides)
            self.lower_bounds[name] = slot.bases
            self.shapes[name] = slot.shape
            self.elem_sizes[name] = elem
            cursor += running
        self.total_bytes = cursor

    def address_of(self, name: str, point: Sequence[int]) -> int:
        """The byte address of one element (for tests)."""
        base = self.bases[name]
        for coord, lo, stride in zip(
            point, self.lower_bounds[name], self.strides[name]
        ):
            base += (coord - lo) * stride
        return base


def _iteration_grids(
    nest_region_bounds: Sequence[Tuple[int, int]], structure: Sequence[int]
) -> List[np.ndarray]:
    """Per-dimension coordinate grids, broadcastable over the iteration space.

    Axis ``l`` of every grid corresponds to loop ``l`` (outermost first), so
    flattening in C order yields iteration order.
    """
    rank = len(nest_region_bounds)
    grids: List[np.ndarray] = [np.zeros(1)] * rank
    for level, signed_dim in enumerate(structure):
        dim = abs(signed_dim)
        lo, hi = nest_region_bounds[dim - 1]
        coords = np.arange(lo, hi + 1, dtype=np.int64)
        if signed_dim < 0:
            coords = coords[::-1]
        shape = [1] * len(structure)
        shape[level] = coords.shape[0]
        grids[dim - 1] = coords.reshape(shape)
    return grids


def _ref_addresses(
    name: str,
    offset: Sequence[int],
    grids: List[np.ndarray],
    layout: MemoryLayout,
    space_shape: Tuple[int, ...],
) -> np.ndarray:
    base = layout.bases[name]
    strides = layout.strides[name]
    lows = layout.lower_bounds[name]
    wrap = layout.partial.get(name)
    address = np.full(space_shape, base, dtype=np.int64)
    for dim in range(len(offset)):
        if wrap is not None and dim + 1 == wrap[0]:
            index = np.mod(grids[dim] + offset[dim], wrap[1])
        else:
            index = grids[dim] + (offset[dim] - lows[dim])
        address = address + strides[dim] * index
    return address.reshape(space_shape).ravel()


def _collect_refs(expr: IRExpr) -> List[Tuple[str, Tuple[int, ...]]]:
    return [(ref.name, ref.offset) for ref in expr.array_refs()]


def nest_trace(
    nest: LoopNest, layout: MemoryLayout, env: Mapping[str, int]
) -> np.ndarray:
    """The full byte-address trace of one loop nest execution.

    Per iteration point: the reads of each statement (in expression order)
    followed by its write, statements in order.  Contracted targets and
    scalar reads generate no memory traffic.
    """
    bounds = nest.region.concrete_bounds(env)
    if any(lo > hi for lo, hi in bounds):
        return np.empty(0, dtype=np.int64)
    grids = _iteration_grids(bounds, nest.structure)
    space_shape = tuple(
        bounds[abs(d) - 1][1] - bounds[abs(d) - 1][0] + 1 for d in nest.structure
    )

    columns: List[np.ndarray] = []
    for stmt in nest.body:
        for name, offset in _collect_refs(stmt.rhs):
            if name in layout.bases:
                columns.append(
                    _ref_addresses(name, offset, grids, layout, space_shape)
                )
        if not stmt.is_contracted:
            columns.append(
                _ref_addresses(
                    stmt.target, (0,) * nest.rank, grids, layout, space_shape
                )
            )
    if not columns:
        return np.empty(0, dtype=np.int64)
    return np.stack(columns, axis=1).ravel()


def run_trace(
    run: Sequence[object], layout: MemoryLayout, env: Mapping[str, int]
) -> np.ndarray:
    """Concatenated trace of a run of loop nests."""
    pieces: List[np.ndarray] = []
    for node in run:
        if not isinstance(node, LoopNest):
            raise MachineError("cannot trace %r" % node)
        pieces.append(nest_trace(node, layout, env))
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)
