"""Contractibility (Definition 6) and contraction candidates.

An array ``x`` is contractible under a fusion partition iff

(i)  the source and target of every dependence due to ``x`` lie in the same
     fusible cluster (all references end up in a single loop nest), and
(ii) the UDVs of all dependences due to ``x`` are null vectors (no
     loop-carried dependences on ``x``).

Beyond Definition 6, an array may only be eliminated if its value does not
escape the basic block: the paper's fragments state "arrays B, T1 and T2 are
not live beyond the given code fragments"; for whole programs we compute this
(:meth:`repro.ir.program.IRProgram.refs_confined_to_block` and
:meth:`~repro.ir.program.IRProgram.first_ref_is_definition`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.fusion.partition import FusionPartition
from repro.ir.program import IRProgram
from repro.ir.statement import ArrayStatement
from repro.util.vectors import is_zero


def is_contractible(
    variable: str, cluster_ids: Set[int], partition: FusionPartition
) -> bool:
    """CONTRACTIBLE?: Definition 6 against a hypothetical merged cluster.

    ``cluster_ids`` is the set of clusters about to be fused into one; the
    predicate holds iff every dependence due to ``variable`` has both ends in
    that set and a null UDV.
    """
    for source, target, label in partition.graph.dependences_on(variable):
        if (
            partition.cluster_of(source) not in cluster_ids
            or partition.cluster_of(target) not in cluster_ids
        ):
            return False
        if not is_zero(label.udv):
            return False
    # Every *reference* (not only every dependence) must be inside the
    # cluster: an array read by two statements has no dependence between
    # them, yet both reads must land in the single loop nest.
    referencing = partition.clusters_referencing(variable)
    return referencing <= set(cluster_ids)


def _contained(outer_region, inner_region, offset) -> bool:
    """Is ``inner_region + offset`` definitely contained in ``outer_region``?

    Conservative: symbolic bound differences that do not cancel answer
    False.  Degenerate dynamic dimensions (row ``i`` vs row ``i + d``)
    cancel exactly, which is the case that matters.
    """
    if outer_region.rank != inner_region.rank:
        return False
    for (olo, ohi), (ilo, ihi), off in zip(
        outer_region.dims, inner_region.dims, offset
    ):
        low_gap = ilo.constant_offset_from(olo)  # ilo + off >= olo
        if low_gap is None or low_gap + off < 0:
            return False
        high_gap = ohi.constant_offset_from(ihi)  # ohi >= ihi + off
        if high_gap is None or high_gap - off < 0:
            return False
    return True


def reads_covered_by_defs(
    variable: str, block: List[ArrayStatement]
) -> bool:
    """Every read of ``variable`` must be covered by a definition in ``block``.

    Contraction replaces the array with a scalar holding only the value of
    the *current* index point, so each read's accessed set must lie inside
    some same-instance definition's region.  This rejects row-sweep
    temporaries read at a row offset (``W@(-1,0)`` against a definition of
    row ``i``), whose reads reach the previous loop iteration even though
    the block's ASDG carries no dependence for them.
    """
    def_regions = [stmt.region for stmt in block if stmt.target == variable]
    for stmt in block:
        for ref in stmt.reads():
            if ref.name != variable:
                continue
            if not any(
                _contained(region, stmt.region, ref.offset)
                for region in def_regions
            ):
                return False
    return True


def eligible_candidates(
    program: IRProgram,
    block: List[ArrayStatement],
    include_user_arrays: bool,
) -> List[str]:
    """Arrays in ``block`` that liveness allows to be contracted.

    ``include_user_arrays`` False restricts to compiler temporaries (the
    ``c1`` strategy); True admits user arrays too (``c2``).  In both cases
    the array's references must be confined to the block and the block's
    first touch must be a definition (no values carried around an enclosing
    sequential loop).
    """
    graph_vars: List[str] = []
    for stmt in block:
        for name in stmt.referenced_arrays():
            if name not in graph_vars:
                graph_vars.append(name)

    result: List[str] = []
    for name in graph_vars:
        info = program.arrays.get(name)
        if info is None:
            continue
        if not info.is_temp and not include_user_arrays:
            continue
        if not program.refs_confined_to_block(name, block):
            continue
        if not program.first_ref_is_definition(name, block):
            continue
        if not reads_covered_by_defs(name, block):
            continue
        result.append(name)
    return result


class RangeCandidate:
    """One live range of an array definition — a contraction candidate.

    The paper's footnote to Figure 3: the algorithm "operates on array
    variable definitions, so that different references to the same array in
    disjoint live ranges can be optimized separately."  A range is the
    defining statement plus every read up to (not including) the next
    definition.  A middle range (fully killed by the next definition) can
    contract even when the array itself is live elsewhere; the last range
    can contract only if the array is dead outside the block.
    """

    __slots__ = ("array", "statements", "uids", "index", "is_last", "scalar")

    def __init__(
        self,
        array: str,
        statements: List[ArrayStatement],
        index: int,
        is_last: bool,
    ) -> None:
        self.array = array
        self.statements = statements
        self.uids = frozenset(stmt.uid for stmt in statements)
        self.index = index
        self.is_last = is_last
        suffix = "" if index == 0 else str(index + 1)
        self.scalar = "%s__s%s" % (array, suffix)

    @property
    def def_stmt(self) -> ArrayStatement:
        return self.statements[0]

    def __repr__(self) -> str:
        return "RangeCandidate(%s range %d, %d stmts%s)" % (
            self.array,
            self.index,
            len(self.statements),
            ", last" if self.is_last else "",
        )


def split_live_ranges(
    block: List[ArrayStatement], variable: str
) -> Tuple[bool, List[RangeCandidate]]:
    """Split ``variable``'s references in ``block`` into live ranges.

    Returns ``(has_incoming_reads, ranges)``: reads before the first
    definition consume the block's live-in value and belong to no candidate
    range.
    """
    ranges: List[List[ArrayStatement]] = []
    current: Optional[List[ArrayStatement]] = None
    has_incoming = False
    for stmt in block:
        if stmt.target == variable and stmt.writes_array:
            ranges.append([stmt])
            current = ranges[-1]
            continue
        if variable in stmt.read_names():
            if current is None:
                has_incoming = True
            else:
                current.append(stmt)
    candidates = [
        RangeCandidate(variable, stmts, index, index == len(ranges) - 1)
        for index, stmts in enumerate(ranges)
    ]
    return has_incoming, candidates


def _range_reads_covered(candidate: RangeCandidate) -> bool:
    """Reads within a range must lie inside its definition's index set."""
    def_region = candidate.def_stmt.region
    for stmt in candidate.statements:
        for ref in stmt.reads():
            if ref.name != candidate.array:
                continue
            if not _contained(def_region, stmt.region, ref.offset):
                return False
    return True


def _fully_killed_by_next(
    block: List[ArrayStatement], candidate: RangeCandidate
) -> bool:
    """Does the next definition of the array overwrite this range entirely?

    Required for a middle range: if the next definition covers only part of
    this range's index set, elements outside it still carry this range's
    values and may be observed later.
    """
    positions = {stmt.uid: i for i, stmt in enumerate(block)}
    my_def_pos = positions[candidate.def_stmt.uid]
    for stmt in block[my_def_pos + 1 :]:
        if stmt.target == candidate.array and stmt.writes_array:
            zero_off = (0,) * candidate.def_stmt.region.rank
            return _contained(stmt.region, candidate.def_stmt.region, zero_off)
    return False


def range_candidates(
    program: IRProgram,
    block: List[ArrayStatement],
    include_user_arrays: bool,
) -> List[RangeCandidate]:
    """All live-range contraction candidates in ``block``.

    Generalizes :func:`eligible_candidates`: an array defined several times
    yields one candidate per definition; middle ranges are eligible even if
    the array escapes the block, as long as the next definition fully kills
    them.
    """
    names: List[str] = []
    for stmt in block:
        for name in stmt.referenced_arrays():
            if name not in names:
                names.append(name)

    result: List[RangeCandidate] = []
    for name in names:
        info = program.arrays.get(name)
        if info is None:
            continue
        if not info.is_temp and not include_user_arrays:
            continue
        has_incoming, ranges = split_live_ranges(block, name)
        dead_outside = program.refs_confined_to_block(name, block)
        for candidate in ranges:
            if not _range_reads_covered(candidate):
                continue
            if candidate.is_last:
                # The final value survives the block (or the loop back
                # edge, when incoming reads consume it next iteration).
                if not dead_outside or has_incoming:
                    continue
            elif not _fully_killed_by_next(block, candidate):
                # A partially-killed middle range leaves observable
                # elements behind: its storage writes must stay.
                continue
            result.append(candidate)
    return result


def range_is_contractible(
    candidate: RangeCandidate,
    cluster_ids: Set[int],
    partition: FusionPartition,
) -> bool:
    """Definition 6 restricted to one live range.

    Every statement of the range must land in the merged cluster, and every
    dependence due to the array *within the range* must be a null vector.
    Dependences linking the range to other ranges (output dependences
    between definitions, anti dependences from earlier reads) disappear
    when the range's accesses become scalar and impose nothing here.
    """
    for stmt in candidate.statements:
        if partition.cluster_of(stmt) not in cluster_ids:
            return False
    for source, target, label in partition.graph.dependences_on(candidate.array):
        if source.uid in candidate.uids and target.uid in candidate.uids:
            if not is_zero(label.udv):
                return False
    return True
