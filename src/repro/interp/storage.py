"""Numpy-backed storage shared by both interpreters.

Arrays are allocated over their *allocation region* (declared region plus
halo), so constant-offset references never index outside storage.  Elements
outside the declared region ("boundary" elements in ZPL terms) are
zero-initialized, giving deterministic semantics to stencil reads at the
edges.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ir.region import Region
from repro.scalarize.emit_common import (
    NP_DTYPES,
    SCALAR_INIT,
    slice_start_stop,
)
from repro.util.errors import InterpError


class Storage:
    """All program state: arrays (with halos) and scalars.

    Built empty and filled by :meth:`allocate_array` /
    :meth:`declare_scalar` (the reference interpreter), or built *over*
    state the caller already holds — ``arrays`` with their lower bounds
    ``bases``, ``scalars``, and ``wrapped`` naming the circular buffers —
    which it then reads and writes in place (the loop interpreter).
    """

    def __init__(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        bases: Optional[Dict[str, Tuple[int, ...]]] = None,
        scalars: Optional[Dict[str, object]] = None,
        wrapped: Optional[Mapping[str, Tuple[int, int]]] = None,
    ) -> None:
        self.arrays: Dict[str, np.ndarray] = {} if arrays is None else arrays
        self.bases: Dict[str, Tuple[int, ...]] = {} if bases is None else bases
        self.scalars: Dict[str, object] = {} if scalars is None else scalars
        #: Circular-buffer arrays (partial contraction): name -> (dim, depth);
        #: indices along ``dim`` are taken modulo ``depth`` on every access.
        self.wrapped: Dict[str, Tuple[int, int]] = dict(wrapped or {})

    # -- construction ------------------------------------------------------

    def allocate_array(
        self,
        name: str,
        region: Region,
        kind: str,
        env: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Allocate ``name`` over a region; ``env`` binds config scalars
        appearing in its bounds."""
        bounds = region.concrete_bounds(dict(env) if env else {})
        shape = tuple(max(hi - lo + 1, 1) for lo, hi in bounds)
        self.arrays[name] = np.zeros(shape, dtype=NP_DTYPES[kind])
        self.bases[name] = tuple(lo for lo, _hi in bounds)

    def _map_point(self, name: str, point: Tuple[int, ...]) -> Tuple[int, ...]:
        wrap = self.wrapped.get(name)
        base = self.bases[name]
        if wrap is None:
            return tuple(p - b for p, b in zip(point, base))
        dim, depth = wrap
        mapped = []
        for index, (p, b) in enumerate(zip(point, base), start=1):
            if index == dim:
                mapped.append(p % depth)
            else:
                mapped.append(p - b)
        return tuple(mapped)

    def declare_scalar(self, name: str, kind: str) -> None:
        self.scalars[name] = SCALAR_INIT[kind]

    # -- access --------------------------------------------------------------

    def scalar(self, name: str) -> object:
        if name not in self.scalars:
            raise InterpError("undefined scalar %r" % name)
        return self.scalars[name]

    def set_scalar(self, name: str, value: object) -> None:
        self.scalars[name] = value

    def element(self, name: str, point: Tuple[int, ...]) -> object:
        """Read one array element at absolute index ``point``."""
        return self.arrays[name][self._map_point(name, point)]

    def set_element(self, name: str, point: Tuple[int, ...], value: object) -> None:
        self.arrays[name][self._map_point(name, point)] = value

    def slice_view(
        self,
        name: str,
        bounds: Tuple[Tuple[int, int], ...],
        offset: Tuple[int, ...],
    ) -> np.ndarray:
        """A view of ``name`` over ``bounds`` translated by ``offset``."""
        if name in self.wrapped:
            raise InterpError(
                "circular buffer %s cannot be viewed as a region slice" % name
            )
        array = self.arrays[name]
        base = self.bases[name]
        slices: List[slice] = []
        for (lo, hi), off, b in zip(bounds, offset, base):
            start, stop = slice_start_stop(lo, hi, off, b)
            if start < 0 or stop > array.shape[len(slices)]:
                raise InterpError(
                    "reference to %s at offset %r escapes its allocation "
                    "(bounds %r)" % (name, offset, bounds)
                )
            slices.append(slice(start, stop))
        return array[tuple(slices)]

    def region_view(self, name: str, region_bounds) -> np.ndarray:
        """A view over the array's own (un-offset) region."""
        rank = len(region_bounds)
        return self.slice_view(name, tuple(region_bounds), (0,) * rank)

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copies of all arrays, for differential testing."""
        return {name: array.copy() for name, array in self.arrays.items()}

    def total_array_bytes(self) -> int:
        return sum(array.nbytes for array in self.arrays.values())
