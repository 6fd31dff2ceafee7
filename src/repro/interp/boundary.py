"""Halo filling for ``wrap`` and ``reflect`` boundary statements.

A boundary statement fills every allocated element of an array *outside*
the given region: ``wrap`` copies periodically from the opposite edge,
``reflect`` mirrors across the region boundary.  Dimensions are processed
in order, so corner halo cells combine both dimensions' rules (the
standard order-dependent corner fill).  The plane order is
:func:`repro.scalarize.emit_common.halo_planes`, shared with the emitters.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.interp.storage import Storage
from repro.scalarize.emit_common import halo_planes
from repro.util.errors import InterpError


def fill_boundary(
    storage: Storage,
    array: str,
    region_bounds: Tuple[Tuple[int, int], ...],
    kind: str,
) -> None:
    """Fill ``array``'s halo outside ``region_bounds`` in place."""
    data = storage.arrays[array]
    base = storage.bases[array]
    if array in storage.wrapped:
        raise InterpError("cannot apply %s to circular buffer %s" % (kind, array))
    if len(region_bounds) != data.ndim:
        raise InterpError(
            "boundary region rank %d does not match array %s rank %d"
            % (len(region_bounds), array, data.ndim)
        )
    if kind not in ("wrap", "reflect"):
        raise InterpError("unknown boundary kind %r" % kind)
    if any(hi < lo for lo, hi in region_bounds):
        raise InterpError("empty boundary region for %s" % array)
    alloc = [(lo, lo + extent - 1) for lo, extent in zip(base, data.shape)]
    for dim, dest, source in halo_planes(kind, region_bounds, alloc):
        _copy_plane(data, dim, dest, source)


def _copy_plane(data: np.ndarray, dim: int, dest: int, source: int) -> None:
    if source < 0 or source >= data.shape[dim]:
        raise InterpError(
            "boundary source index %d outside allocation (dim %d)" % (source, dim)
        )
    dest_slice = [slice(None)] * data.ndim
    source_slice = [slice(None)] * data.ndim
    dest_slice[dim] = dest
    source_slice[dim] = source
    data[tuple(dest_slice)] = data[tuple(source_slice)]
