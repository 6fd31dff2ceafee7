"""Analytic cache model: closed-form miss estimation without traces.

The trace-driven simulator is the fidelity reference; this model estimates
misses from an *array-granularity stack-distance* argument instead, running
orders of magnitude faster:

* each loop nest touches a set of arrays, each with a footprint of
  ``points x 8`` bytes;
* an array's accesses hit when the data touched since its previous use
  (its LRU stack distance) fits in the cache's effective capacity,
  otherwise the array streams in (``footprint / line`` misses);
* direct-mapped caches get half their nominal capacity (a standard rule of
  thumb for conflict misses), set-associative ones 90%;
* when a single nest's combined working set overflows the cache, the
  per-iteration interleaving of its streams defeats even intra-nest line
  reuse: every reference of the overflowing nest pays the per-line miss
  rate.

``benchmarks/bench_ablation_analytic.py`` validates that the model
preserves the trace simulator's *ordering* of optimization levels — the
property the figures depend on — while being ~100x cheaper.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.ir import expr as ir
from repro.machine.cache import CacheConfig
from repro.machine.cost import Counts, SequentialCostModel, _expr_costs
from repro.machine.models import MachineModel
from repro.scalarize.loopnest import LoopNest, ScalarProgram


def effective_capacity(config: CacheConfig) -> float:
    """Usable bytes once conflict misses are accounted for."""
    if config.assoc == 1:
        return config.size * 0.5
    return config.size * 0.9


class _LevelState:
    """Array-granularity LRU stack for one cache level."""

    __slots__ = ("capacity", "line", "stack")

    def __init__(self, config: CacheConfig) -> None:
        self.capacity = effective_capacity(config)
        self.line = config.line
        # Most recently used last: list of (array name, footprint bytes).
        self.stack: List[Tuple[str, float]] = []

    def touch(self, array: str, footprint: float) -> bool:
        """Record a use; returns True when the reuse hits in this level."""
        distance = 0.0
        found = False
        for name, bytes_count in reversed(self.stack):
            if name == array:
                found = True
                break
            distance += bytes_count
        hit = found and (distance + footprint) <= self.capacity
        self.stack = [entry for entry in self.stack if entry[0] != array]
        self.stack.append((array, footprint))
        # Bound the stack: entries beyond 4x capacity can never hit.
        total = 0.0
        kept: List[Tuple[str, float]] = []
        for entry in reversed(self.stack):
            kept.append(entry)
            total += entry[1]
            if total > 4 * self.capacity:
                break
        self.stack = list(reversed(kept))
        return hit


class AnalyticCostModel(SequentialCostModel):
    """The sequential cost model with analytic misses instead of traces."""

    def __init__(
        self,
        program: ScalarProgram,
        machine: MachineModel,
        sample_iterations: int = 3,
    ) -> None:
        super().__init__(program, machine, sample_iterations)
        self._states: List[_LevelState] = []

    def estimate(self):
        self._states = [_LevelState(config) for config in self.machine.caches]
        return super().estimate()

    # ------------------------------------------------------------------

    def _node_cost(self, node: LoopNest, env: Mapping[str, int], hierarchy) -> Counts:
        del hierarchy  # analytic: no trace simulation
        counts = Counts(self._levels)
        bounds = node.region.concrete_bounds(env)
        points = 1
        for lo, hi in bounds:
            points *= max(0, hi - lo + 1)
        counts.points += points
        if points == 0:
            return counts

        # Reference census: reads+writes per array, op counts.
        ref_counts: Dict[str, int] = {}
        for stmt in node.body:
            piece = _expr_costs(stmt.rhs, self.layout)
            counts.loads += points * piece["loads"]
            counts.flops += points * piece["flops"]
            counts.intrinsics += points * piece["intrinsics"]
            for ref in stmt.rhs.array_refs():
                if ref.name in self.layout.bases:
                    ref_counts[ref.name] = ref_counts.get(ref.name, 0) + 1
            if stmt.reduce_op is not None:
                counts.flops += points
            elif not stmt.is_contracted:
                counts.stores += points
                ref_counts[stmt.target] = ref_counts.get(stmt.target, 0) + 1

        elem_bytes = 8
        working_set = sum(
            points * elem_bytes for _name in ref_counts
        )
        for level, state in enumerate(self._states):
            line = state.line
            overflow = working_set > state.capacity
            for name, refs in ref_counts.items():
                footprint = points * elem_bytes
                lines = max(1.0, footprint / line)
                hit = state.touch(name, footprint)
                if overflow:
                    # Streams interleave per iteration point: every group of
                    # line/elem accesses to this array misses once, for every
                    # reference, reuse defeated.
                    counts.misses[level] += lines * refs
                elif not hit:
                    counts.misses[level] += lines
            # Deeper levels only see this level's misses.
            if counts.misses[level] == 0:
                for deeper in range(level + 1, self._levels):
                    # Nothing reaches deeper levels from this nest.
                    pass
                break
        # Clamp: deeper levels cannot miss more than the previous level.
        for level in range(1, self._levels):
            counts.misses[level] = min(counts.misses[level], counts.misses[level - 1])
        return counts


def estimate_analytic(
    program: ScalarProgram,
    machine: MachineModel,
    sample_iterations: int = 3,
):
    """Analytic cost estimate (no cache simulation)."""
    return AnalyticCostModel(program, machine, sample_iterations).estimate()
