"""Fusion vs communication-optimization interaction (Section 5.5).

Two policies:

* **favor fusion** (the paper's default): fusion proceeds unrestricted;
  communication optimizations are applied to whatever statement schedule
  fusion produces.  Pipelining windows may shrink because the statements
  that used to separate a border exchange's post and wait are now inside
  the producer's or consumer's loop nest.
* **favor communication**: fusion merges are vetoed whenever they would
  collapse a pipelining window — the clusters between a communicated
  array's producer and its consumer must remain separate loop nests.

The veto is expressed as a :data:`~repro.fusion.algorithm.MergeFilter`
handed to the fusion passes, exactly where the paper says the integration
must happen: at the array level, before scalarization.

Contract: :func:`comm_merge_filter` builds the veto for one statement
block and grid — it returns a predicate over candidate cluster merges
that rejects any merge joining two clusters whose positions straddle a
communication window (the statements between a distributed array's last
writer and a reader with a non-zero offset along a cut dimension).
Windows are computed from the *original* statement order, so the filter
is stable under the fusion pass's own reordering.
:func:`plan_program_with_policy` is the entry point: given a program, a
level, a policy name (:data:`FAVOR_FUSION` or :data:`FAVOR_COMM`) and a
processor count it returns an ordinary
:class:`~repro.fusion.pipeline.ProgramPlan`; under
``favor-fusion`` it is byte-for-byte the default planner.  Downstream
consumers (scalarize, backends, ``mp-shard``) cannot tell which policy
produced a plan — the policy only changes which merges happen.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.fusion.algorithm import MergeFilter
from repro.fusion.partition import FusionPartition
from repro.fusion.pipeline import Level, ProgramPlan, plan_block
from repro.ir.program import IRProgram
from repro.ir.statement import ArrayStatement
from repro.parallel.distribution import ProcessorGrid

FAVOR_FUSION = "favor-fusion"
FAVOR_COMM = "favor-comm"


def _comm_windows(
    block: List[ArrayStatement], grid: ProcessorGrid
) -> List[Tuple[int, int]]:
    """(endpoint position, window positions) per border exchange.

    For every read of a distributed array at a non-zero offset along a cut
    dimension, the window is the span of statements between the array's last
    preceding writer (exclusive) and the consumer (exclusive); the exchange
    overlaps the computation of exactly those statements.  Returns
    ``(producer_pos, consumer_pos)`` pairs; producer_pos is -1 when the
    value enters the block from outside.
    """
    windows: List[Tuple[int, int]] = []
    last_writer: Dict[str, int] = {}
    for position, stmt in enumerate(block):
        for ref in stmt.reads():
            if grid.cut_crossings(ref.offset):
                windows.append((last_writer.get(ref.name, -1), position))
        last_writer[stmt.target] = position
    return windows


def comm_merge_filter(
    block: List[ArrayStatement], grid: ProcessorGrid
) -> MergeFilter:
    """A merge filter that preserves every pipelining window in ``block``."""
    windows = _comm_windows(block, grid)

    def allow(cluster_ids: Set[int], partition: FusionPartition) -> bool:
        if len(cluster_ids) <= 1:
            return True
        position_cluster = {
            partition.graph.position(stmt): partition.cluster_of(stmt)
            for stmt in partition.graph.statements
        }
        for producer_pos, consumer_pos in windows:
            window_clusters = {
                position_cluster[pos]
                for pos in range(producer_pos + 1, consumer_pos)
                if pos >= 0
            }
            if not window_clusters:
                continue
            endpoints = {position_cluster[consumer_pos]}
            if producer_pos >= 0:
                endpoints.add(position_cluster[producer_pos])
            if cluster_ids & endpoints and cluster_ids & window_clusters:
                return False
        return True

    return allow


def plan_program_with_policy(
    program: IRProgram,
    level: Level,
    policy: str,
    p: int,
) -> ProgramPlan:
    """Plan a program under either interaction policy.

    ``favor-fusion`` ignores communication when fusing; ``favor-comm``
    applies the window-preserving merge filter (with ``p == 1`` there is no
    communication and the policies coincide).
    """
    if policy not in (FAVOR_FUSION, FAVOR_COMM):
        raise ValueError("unknown policy %r" % policy)
    plan = ProgramPlan(program, level)
    rank = max((info.rank for info in program.arrays.values()), default=2)
    grid = ProcessorGrid(p, rank)
    for ordinal, block in enumerate(program.blocks()):
        if policy == FAVOR_COMM and p > 1:
            merge_filter = comm_merge_filter(block, grid)
        else:
            merge_filter = None
        plan.add(
            plan_block(
                program, block, level, merge_filter, block_ordinal=ordinal
            )
        )
    return plan
