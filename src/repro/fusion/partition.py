"""Fusion partitions (Definition 5).

A fusion partition groups the statements of an ASDG into *fusible clusters*.
Upon scalarization each cluster becomes a single loop nest.  The conditions:

(i)   all statements in a cluster operate under the same region;
(ii)  intra-cluster **flow** dependences have null UDVs (loop-carried flow
      dependences would inhibit parallelism);
(iii) there are no inter-cluster cycles;
(iv)  a loop structure vector exists for the cluster that preserves all
      intra-cluster dependences (decided by FIND-LOOP-STRUCTURE).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.deps.asdg import ASDG, DepType
from repro.fusion.loopstruct import find_loop_structure
from repro.ir.statement import ArrayStatement
from repro.util.errors import FusionError
from repro.util.graph import has_cycle, topological_sort
from repro.util.vectors import IntVector, identity_loop_structure, is_zero


class FusionPartition:
    """A partition of an ASDG's statements into fusible clusters.

    Clusters are identified by integer ids; statements keep their block
    order within a cluster.  The partition object is mutable (the fusion
    algorithms merge clusters in place) but always maps every statement to
    exactly one cluster.
    """

    def __init__(self, graph: ASDG) -> None:
        self.graph = graph
        # Trivial partition: one cluster per statement.
        self._cluster_of: Dict[int, int] = {
            stmt.uid: i for i, stmt in enumerate(graph.statements)
        }
        self._members: Dict[int, List[ArrayStatement]] = {
            i: [stmt] for i, stmt in enumerate(graph.statements)
        }
        #: The quotient graph, found on first use after the last merge.
        self._cluster_edges: Optional[Dict[int, Set[int]]] = None

    # -- queries --------------------------------------------------------

    def cluster_ids(self) -> List[int]:
        return sorted(self._members)

    def cluster_count(self) -> int:
        return len(self._members)

    def cluster_of(self, stmt: ArrayStatement) -> int:
        return self._cluster_of[stmt.uid]

    def members(self, cluster_id: int) -> List[ArrayStatement]:
        return list(self._members[cluster_id])

    def clusters(self) -> List[List[ArrayStatement]]:
        return [self.members(cid) for cid in self.cluster_ids()]

    def clusters_referencing(self, variable: str) -> Set[int]:
        """Ids of clusters containing a reference to ``variable``."""
        return {
            self._cluster_of[stmt.uid]
            for stmt in self.graph.statements_referencing(variable)
        }

    def intra_cluster_udvs(self, cluster_ids: Iterable[int]) -> List[
        Tuple[str, IntVector, DepType]
    ]:
        """All dependences whose source and target both lie in ``cluster_ids``.

        Returns ``(variable, udv, type)`` tuples; used to decide conditions
        (ii) and (iv) for a hypothetical merged cluster.
        """
        ids = set(cluster_ids)
        result = []
        for source, target, labels in self.graph.edges():
            if (
                self._cluster_of[source.uid] in ids
                and self._cluster_of[target.uid] in ids
            ):
                for label in labels:
                    result.append((label.variable, label.udv, label.type))
        for stmt in self.graph.statements:
            if self._cluster_of[stmt.uid] in ids:
                for label in self.graph.self_labels(stmt):
                    result.append((label.variable, label.udv, label.type))
        return result

    def cluster_graph(self) -> Dict[int, Set[int]]:
        """The quotient graph: edges between distinct clusters.

        Kept until the next merge; callers read it and must not change it.
        """
        if self._cluster_edges is None:
            edges: Dict[int, Set[int]] = {cid: set() for cid in self._members}
            for source, target, _labels in self.graph.edges():
                src_cluster = self._cluster_of[source.uid]
                dst_cluster = self._cluster_of[target.uid]
                if src_cluster != dst_cluster:
                    edges[src_cluster].add(dst_cluster)
            self._cluster_edges = edges
        return self._cluster_edges

    # -- validity (Definition 5) -------------------------------------------

    def merge_is_fusion_partition(self, cluster_ids: Set[int]) -> bool:
        """FUSION-PARTITION?: would merging ``cluster_ids`` stay valid?

        Checks conditions (i), (ii) and (iv) for the merged cluster and
        condition (iii) for the whole partition.  (The caller is expected to
        have applied GROW, which makes fresh cycles impossible, but the check
        is performed anyway for safety.)
        """
        if not cluster_ids:
            return True
        merged: List[ArrayStatement] = []
        for cid in cluster_ids:
            merged.extend(self._members[cid])

        # (i) common region.
        regions = {stmt.region for stmt in merged}
        if len(regions) > 1:
            return False

        deps = self.intra_cluster_udvs(cluster_ids)

        # (ii) intra-cluster flow dependences must be null vectors; scalar
        # dependences (through a fused reduction's result) can never be
        # carried by a loop, so their endpoints may not share a cluster.
        for _var, udv, dep_type in deps:
            if dep_type is DepType.SCALAR:
                return False
            if dep_type is DepType.FLOW and not is_zero(udv):
                return False

        # (iv) a loop structure vector must exist.
        rank = merged[0].region.rank
        vector_deps = [udv for _v, udv, t in deps if t is not DepType.SCALAR]
        if find_loop_structure(vector_deps, rank) is None:
            return False

        # (iii) no inter-cluster cycles after the merge.
        return not self._merge_creates_cycle(cluster_ids)

    def _merge_creates_cycle(self, cluster_ids: Set[int]) -> bool:
        edges = self.cluster_graph()
        representative = min(cluster_ids)
        merged_edges: Dict[int, Set[int]] = {}
        for cid, succs in edges.items():
            new_cid = representative if cid in cluster_ids else cid
            new_succs = {
                representative if succ in cluster_ids else succ for succ in succs
            }
            new_succs.discard(new_cid)
            merged_edges.setdefault(new_cid, set()).update(new_succs)
        return has_cycle(list(merged_edges), merged_edges)

    def is_valid(self) -> bool:
        """Check the full Definition 5 for the current partition."""
        for cid in self.cluster_ids():
            if not self.merge_is_fusion_partition({cid}):
                return False
        return True

    # -- mutation ----------------------------------------------------------

    def merge(self, cluster_ids: Set[int]) -> int:
        """Merge clusters into the one with the smallest id; returns that id."""
        if not cluster_ids:
            raise FusionError("cannot merge an empty set of clusters")
        target = min(cluster_ids)
        merged: List[ArrayStatement] = []
        for cid in sorted(cluster_ids):
            merged.extend(self._members.pop(cid) if cid != target else [])
        # Keep block order within the merged cluster.
        survivors = self._members[target] + merged
        survivors.sort(key=self.graph.position)
        self._members[target] = survivors
        for stmt in survivors:
            self._cluster_of[stmt.uid] = target
        self._cluster_edges = None
        return target

    # -- scalarization support ------------------------------------------------

    def cluster_order(self) -> List[int]:
        """Cluster ids in a dependence-respecting execution order."""
        edges = self.cluster_graph()
        return topological_sort(self.cluster_ids(), edges)

    def statement_order(self, cluster_id: int) -> List[ArrayStatement]:
        """Statements of a cluster in a dependence-respecting order.

        Statements keep block order, which is always a valid topological
        order of the intra-cluster dependence subgraph (ASDG edges point
        forward).
        """
        return self.members(cluster_id)

    def loop_structure(self, cluster_id: int) -> IntVector:
        """The loop structure vector for a cluster (Definition 4).

        Falls back to the identity (row-major forward loops) when the
        cluster has no constraining dependences.
        """
        members = self._members[cluster_id]
        rank = members[0].region.rank
        deps = [
            (v, udv, t)
            for v, udv, t in self.intra_cluster_udvs({cluster_id})
            if t is not DepType.SCALAR
        ]
        structure = find_loop_structure([udv for _v, udv, _t in deps], rank)
        if structure is None:
            raise FusionError(
                "cluster %d has no legal loop structure (invalid partition)"
                % cluster_id
            )
        if not deps:
            return identity_loop_structure(rank)
        return structure

    def render(self) -> str:
        lines = ["FusionPartition (%d clusters)" % self.cluster_count()]
        for cid in self.cluster_order():
            lines.append("  cluster %d:" % cid)
            for stmt in self.members(cid):
                lines.append("    %s" % stmt)
        return "\n".join(lines)
