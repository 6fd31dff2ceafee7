"""Partial (rank-reducing) contraction — the paper's Section 5.2 extension.

The published algorithm contracts an array to a scalar or not at all, which
is why SP's compiled code keeps more arrays than the hand-written version:
its sweep-carried state could live in small *row buffers* ("Though the
resulting arrays cannot be manipulated in registers, they conserve memory
and make better use of the cache").  This module implements that extension:

An array ``x`` is **partially contractible along dimension k** with buffer
depth ``w + 1`` when

* every reference to ``x`` in the whole program lies in one basic block,
* every statement referencing ``x`` has a region *degenerate* in dimension
  ``k`` (a single row, e.g. ``[i, 1..m]``) with the same symbolic row
  expression, so the block sweeps ``x`` one row per iteration,
* reads of ``x`` have offset 0 in every dimension but ``k`` and offsets in
  ``[-w, 0]`` along ``k`` (the sweep consumes only the last ``w`` rows),
* the block defines row ``i`` of ``x`` (offset-0 write), so every row a
  read chases was produced within the last ``w`` iterations.

Storage then shrinks to ``w + 1`` rows addressed modulo the buffer depth —
a circular buffer that the scalarizer, interpreters, code generators and
the cache model all understand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.program import IRProgram
from repro.ir.statement import ArrayStatement

#: name -> (dimension (1-based), buffer depth)
PartialMap = Dict[str, Tuple[int, int]]


def _degenerate_dims(stmt: ArrayStatement) -> List[int]:
    """1-based dimensions in which the statement's region is a single row."""
    return [
        dim
        for dim, (lo, hi) in enumerate(stmt.region.dims, start=1)
        if lo == hi
    ]


def partial_candidate(
    program: IRProgram, block: List[ArrayStatement], variable: str
) -> Optional[Tuple[int, int]]:
    """The ``(dim, depth)`` of a partial contraction of ``variable``, if legal."""
    info = program.arrays.get(variable)
    if info is None:
        return None
    if not program.refs_confined_to_block(variable, block):
        return None

    ref_stmts = [
        stmt
        for stmt in block
        if stmt.target == variable or variable in stmt.read_names()
    ]
    writes = [stmt for stmt in ref_stmts if stmt.target == variable]
    if not writes:
        return None

    # A common degenerate dimension with a common symbolic row bound.
    common_dims: Optional[Set[int]] = None
    for stmt in ref_stmts:
        dims = set(_degenerate_dims(stmt))
        common_dims = dims if common_dims is None else common_dims & dims
    if not common_dims:
        return None

    for dim in sorted(common_dims):
        row_bounds = {stmt.region.dims[dim - 1][0] for stmt in ref_stmts}
        if len(row_bounds) != 1:
            continue
        row = next(iter(row_bounds))
        if row.is_constant:
            continue  # a fixed row needs no sweeping buffer
        depth = _max_lag(block, variable, dim)
        if depth is None:
            continue
        return (dim, depth + 1)
    return None


def _max_lag(
    block: List[ArrayStatement], variable: str, dim: int
) -> Optional[int]:
    """Largest ``w`` with reads at ``-w`` along ``dim``; None if illegal."""
    max_lag = 0
    for stmt in block:
        for ref in stmt.reads():
            if ref.name != variable:
                continue
            for d, component in enumerate(ref.offset, start=1):
                if d == dim:
                    if component > 0:
                        return None  # reads a row not yet produced
                    max_lag = max(max_lag, -component)
                elif component != 0:
                    return None  # cross-row AND cross-column reference
    return max_lag


def find_partial_contractions(
    program: IRProgram,
    block: List[ArrayStatement],
    exclude: Set[str],
) -> PartialMap:
    """All partial contractions available in ``block``.

    ``exclude`` holds arrays already fully contracted (scalars beat rows).
    """
    result: PartialMap = {}
    seen: List[str] = []
    for stmt in block:
        for name in stmt.referenced_arrays():
            if name not in seen:
                seen.append(name)
    for name in seen:
        if name in exclude:
            continue
        candidate = partial_candidate(program, block, name)
        if candidate is not None:
            result[name] = candidate
    return result


def buffer_bytes(
    program: IRProgram, variable: str, dim: int, depth: int
) -> int:
    """Bytes of the circular buffer replacing ``variable``."""
    region = program.arrays[variable].region
    total = 8 * depth
    for d, extent in enumerate(region.extents(), start=1):
        if d != dim:
            total *= extent.substitute({}).evaluate({})
    return total
