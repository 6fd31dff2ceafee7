"""Dependence analysis: building the ASDG of a basic block.

For each ordered statement pair and each shared array, the analysis decides
whether the accessed index sets overlap and, if so, adds a flow, anti or
output dependence whose unconstrained distance vector is
``source_offset - target_offset`` (Definition 2).

Accessed sets are the statement region translated by the reference offset.
With affine region bounds the overlap test reduces to per-dimension interval
comparisons whose symbolic parts usually cancel (e.g. two references to row
``i`` of a dynamic region); when they do not, the analysis conservatively
assumes overlap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.deps.asdg import ASDG, DepLabel, DepType
from repro.ir.expr import compile_memo
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.ir.statement import ArrayStatement
from repro.util.vectors import IntVector, sub, zero


def _may_precede(lo: LinearExpr, lo_shift: int, hi: LinearExpr, hi_shift: int) -> bool:
    """May ``lo + lo_shift <= hi + hi_shift`` hold?  (True when symbolic.)"""
    gap = hi.constant_offset_from(lo)
    return gap is None or gap + hi_shift - lo_shift >= 0


def regions_may_overlap(
    region_a: Region, offset_a: IntVector, region_b: Region, offset_b: IntVector
) -> bool:
    """May ``region_a + offset_a`` intersect ``region_b + offset_b``?

    Exact when the symbolic parts of corresponding bounds cancel; otherwise
    conservatively true.
    """
    if region_a.rank != region_b.rank:
        return False
    for dim in range(region_a.rank):
        lo_a, hi_a = region_a.dims[dim]
        lo_b, hi_b = region_b.dims[dim]
        # Overlap in this dimension requires lo_a <= hi_b and lo_b <= hi_a.
        if not _may_precede(lo_a, offset_a[dim], hi_b, offset_b[dim]):
            return False
        if not _may_precede(lo_b, offset_b[dim], hi_a, offset_a[dim]):
            return False
    return True


class _Access:
    """One array access of a statement: read or write, with its offset."""

    __slots__ = ("array", "offset", "is_write")

    def __init__(self, array: str, offset: IntVector, is_write: bool) -> None:
        self.array = array
        self.offset = tuple(offset)
        self.is_write = is_write


def _accesses(stmt: ArrayStatement) -> List[_Access]:
    result = []
    if stmt.writes_array:
        result.append(_Access(stmt.target, zero(stmt.rank), True))
    seen = set()
    for ref in stmt.reads():
        key = (ref.name, ref.offset)
        if key in seen:
            continue
        seen.add(key)
        result.append(_Access(ref.name, ref.offset, False))
    return result


def build_asdg(block: Sequence[ArrayStatement]) -> ASDG:
    """Build the ASDG of a basic block of normalized array statements.

    Besides the array dependences of Definition 2, scalar dependences are
    added around fused reductions: a statement reading a scalar that a
    reduction in the same block writes (or vice versa) must stay in a
    different cluster, ordered after (before) the reduction.
    """
    with compile_memo():
        return _build_asdg(block)


def _build_asdg(block: Sequence[ArrayStatement]) -> ASDG:
    graph = ASDG(block)
    accesses = [_accesses(stmt) for stmt in block]
    for stmt in block:
        if not stmt.writes_array:
            continue
        seen_offsets = set()
        for ref in stmt.reads():
            if ref.name == stmt.target and ref.offset not in seen_offsets:
                seen_offsets.add(ref.offset)
                graph.add_self_dependence(
                    stmt, DepLabel(stmt.target, ref.offset, DepType.ANTI)
                )
    # Per statement: array -> its accesses, in access order.
    by_array = []
    for stmt_accesses in accesses:
        grouped = {}
        for access in stmt_accesses:
            grouped.setdefault(access.array, []).append(access)
        by_array.append(grouped)
    scalar_writes = [set(stmt.scalar_writes()) for stmt in block]
    scalar_reads = [
        {ref.name for ref in stmt.rhs.scalar_refs()} for stmt in block
    ]
    for i, earlier in enumerate(block):
        for j in range(i + 1, len(block)):
            later = block[j]
            shared = by_array[j]
            for src in accesses[i]:
                for dst in shared.get(src.array, ()):
                    dep_type = _classify(src.is_write, dst.is_write)
                    if dep_type is None:
                        continue
                    if not regions_may_overlap(
                        earlier.region, src.offset, later.region, dst.offset
                    ):
                        continue
                    udv = sub(src.offset, dst.offset)
                    graph.add_dependence(
                        earlier, later, DepLabel(src.array, udv, dep_type)
                    )
            if not (scalar_writes[i] or scalar_writes[j]):
                continue
            conflicts = (
                (scalar_writes[i] & scalar_reads[j])
                | (scalar_reads[i] & scalar_writes[j])
                | (scalar_writes[i] & scalar_writes[j])
            )
            for name in sorted(conflicts):
                graph.add_dependence(
                    earlier,
                    later,
                    DepLabel(name, (), DepType.SCALAR),
                )
    return graph


def _classify(source_is_write: bool, target_is_write: bool) -> Optional[DepType]:
    if source_is_write and not target_is_write:
        return DepType.FLOW
    if not source_is_write and target_is_write:
        return DepType.ANTI
    if source_is_write and target_is_write:
        return DepType.OUTPUT
    return None  # read-after-read is not a dependence
