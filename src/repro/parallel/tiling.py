"""Tile layout for the tile-parallel execution engine.

A *sweep* is the dependence-free part of one loop nest execution: the
index region spanned by the free dimensions of the nest's partition plan
(:func:`repro.scalarize.loopnest.partition_plan`).  This module cuts
that region into rectangular tiles:

* the tile grid comes from :func:`repro.parallel.distribution.
  balanced_factorization` over the free dimensions — the same
  most-balanced layout the block distribution model uses for processor
  grids, largest factors on the earliest (slowest-varying) dimensions so
  tiles stay contiguous runs of rows under row-major allocation;
* per dimension the extent splits into near-equal chunks with
  :func:`repro.parallel.distribution.block_chunks`, the chunker that
  also blocks a distribution domain over processors;
* the number of tiles *oversubscribes* the worker count for load
  balance, and is additionally raised until tiles fit a target element
  budget — tile-at-a-time execution of a fused cluster keeps the working
  set cache-resident instead of streaming every array through memory
  once per statement, which is where the single-processor speedup of the
  ``np-par`` backend comes from;
* tiny sweeps are left as a single tile: below a minimum element count
  the per-tile dispatch overhead outweighs any locality or parallelism.

Tiles carry only bounds.  Workers execute NumPy slice-views of the
shared arrays directly, so a tile's *halo* — the neighbor elements a
constant-offset reference reads beyond the tile bounds (the strip widths
:func:`repro.parallel.comm.analyze_run` accounts border-exchange bytes
for) — needs no copying: the plan's thread class guarantees those
elements are not written during the same sweep.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from repro.parallel.distribution import balanced_factorization, block_chunks
from repro.util.errors import MachineError

#: Inclusive per-dimension bounds, e.g. ``((1, 64), (1, 64))``.
Bounds = Tuple[Tuple[int, int], ...]

#: One tile: inclusive bounds per sharded dimension.
Tile = Tuple[Tuple[int, int], ...]

#: A forced tile shape: one max extent for every dimension, or one per
#: dimension.
TileShape = Union[int, Sequence[int], None]

#: Tiles per worker, for load balance across uneven tile costs.
OVERSUBSCRIBE = 4

#: Raise the tile count until tiles hold at most this many elements
#: (256k elements = 2 MiB of float64: roughly an L2 working set).
TARGET_TILE_ELEMS = 1 << 18

#: Never split a sweep smaller than this: dispatch overhead dominates.
MIN_SWEEP_ELEMS = 1 << 12


def parse_tile_shape(text: Optional[str]) -> TileShape:
    """Parse a user-facing tile-shape spec: ``"32"`` or ``"32x1600"``.

    A single integer applies to every sharded dimension (rank-safe for
    any sweep); an ``x``-separated list forces one extent per dimension
    and is rejected at sweep time if the ranks disagree.  Empty or
    ``None`` means the heuristic layout.
    """
    if text is None:
        return None
    text = text.strip().lower()
    if not text:
        return None
    try:
        extents = tuple(int(part) for part in text.split("x"))
    except ValueError:
        raise MachineError(
            "tile shape must be N or NxM[x...], got %r" % (text,)
        )
    if any(extent < 1 for extent in extents):
        raise MachineError("tile extents must be positive, got %r" % (text,))
    return extents[0] if len(extents) == 1 else extents


def _forced_extents(tile_shape: TileShape, rank: int) -> Optional[Tuple[int, ...]]:
    if tile_shape is None:
        return None
    if isinstance(tile_shape, int):
        extents: Tuple[int, ...] = (tile_shape,) * rank
    else:
        extents = tuple(int(e) for e in tile_shape)
        if len(extents) != rank:
            raise MachineError(
                "tile shape %r has rank %d, sweep has rank %d"
                % (tile_shape, len(extents), rank)
            )
    if any(e < 1 for e in extents):
        raise MachineError("tile extents must be positive, got %r" % (tile_shape,))
    return extents


@lru_cache(maxsize=4096)
def plan_tiles(
    bounds: Bounds, workers: int = 1, tile_shape: TileShape = None
) -> Tuple[Tile, ...]:
    """Cut a sweep's inclusive bounds into tiles, row-major tile order.

    With ``tile_shape`` given, every dimension is chunked to at most that
    extent (ceil division).  Otherwise the tile count is
    ``workers * OVERSUBSCRIBE``, raised until tiles fit
    ``TARGET_TILE_ELEMS``, factored over the dimensions with
    :func:`balanced_factorization`; sweeps under ``MIN_SWEEP_ELEMS``
    elements stay one tile.  An empty sweep (any ``hi < lo``) yields no
    tiles.  Deterministic in its arguments (and memoized, so the serial
    prefix of a nest re-plans the same sweep for free).
    """
    rank = len(bounds)
    if rank == 0:
        raise MachineError("sweeps must have rank >= 1")
    extents = [hi - lo + 1 for lo, hi in bounds]
    if any(extent <= 0 for extent in extents):
        return ()
    total = 1
    for extent in extents:
        total *= extent

    forced = _forced_extents(tile_shape, rank)
    if forced is not None:
        per_dim = [
            block_chunks(lo, hi, -(-extent // forced[dim]))
            for dim, ((lo, hi), extent) in enumerate(zip(bounds, extents))
        ]
    else:
        parts = max(1, workers) * OVERSUBSCRIBE
        parts = max(parts, -(-total // TARGET_TILE_ELEMS))
        # Never create tiles smaller than the dispatch overhead is worth.
        parts = min(parts, max(1, total // MIN_SWEEP_ELEMS))
        if parts <= 1:
            return (tuple(bounds),)
        grid = balanced_factorization(parts, rank)
        per_dim = [
            block_chunks(lo, hi, min(factor, extent))
            for (lo, hi), extent, factor in zip(bounds, extents, grid)
        ]

    tiles: list = [()]
    for chunks in per_dim:
        tiles = [tile + (chunk,) for tile in tiles for chunk in chunks]
    return tuple(tiles)


def halo_elements(tile: Tile, halo: Sequence[int]) -> int:
    """Neighbor elements a tile reads beyond its bounds.

    ``halo[d]`` is the widest constant offset along sharded dimension
    ``d`` (see :attr:`repro.scalarize.loopnest.DimFacts.halo`); the
    count is the volume of the halo-expanded tile minus the tile itself,
    mirroring the border-strip byte accounting of
    :func:`repro.parallel.comm.analyze_run`.
    """
    if len(tile) != len(halo):
        raise MachineError(
            "halo rank %d does not match tile rank %d" % (len(halo), len(tile))
        )
    inner = 1
    outer = 1
    for (lo, hi), width in zip(tile, halo):
        extent = hi - lo + 1
        inner *= extent
        outer *= extent + 2 * int(width)
    return outer - inner
