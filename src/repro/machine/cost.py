"""Sequential (per-node) cost model.

Walks a scalarized program, generating the address trace of every run of
loop nests and feeding it through the machine's cache hierarchy, while
counting loads, stores, flops, intrinsic calls and loop iterations.
Sequential loops are *sampled*: the first few iterations are simulated with
their real loop-variable values (so dynamic regions slide realistically) and
the remainder extrapolated from the last sampled iteration.

The resulting cycle count combines:

* memory: hits at ``load_hit_cycles``/``store_cycles``, misses at each
  level's penalty;
* computation: flops, intrinsics, scalar ops;
* loop overhead per iteration point (fusion reduces total points).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.interp.evalexpr import eval_scalar
from repro.ir import expr as ir
from repro.machine.cache import CacheHierarchy
from repro.machine.models import MachineModel
from repro.machine.trace import MemoryLayout, run_trace
from repro.scalarize.loopnest import (
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SNode,
    SWhile,
    int_config_env,
)
from repro.util.errors import MachineError


class Counts:
    """Raw operation counts accumulated by the cost walk."""

    __slots__ = (
        "loads",
        "stores",
        "flops",
        "intrinsics",
        "points",
        "scalar_ops",
        "misses",
        "comm_us",
    )

    def __init__(self, levels: int) -> None:
        self.loads = 0.0
        self.stores = 0.0
        self.flops = 0.0
        self.intrinsics = 0.0
        self.points = 0.0
        self.scalar_ops = 0.0
        self.misses: List[float] = [0.0] * levels
        self.comm_us = 0.0

    def add(self, other: "Counts", factor: float = 1.0) -> None:
        self.loads += factor * other.loads
        self.stores += factor * other.stores
        self.flops += factor * other.flops
        self.intrinsics += factor * other.intrinsics
        self.points += factor * other.points
        self.scalar_ops += factor * other.scalar_ops
        self.comm_us += factor * other.comm_us
        for i, misses in enumerate(other.misses):
            self.misses[i] += factor * misses

    def __repr__(self) -> str:
        return (
            "Counts(loads=%g, stores=%g, flops=%g, intrinsics=%g, points=%g, "
            "misses=%r)"
            % (self.loads, self.stores, self.flops, self.intrinsics, self.points,
               self.misses)
        )


class CostResult:
    """The outcome of a sequential cost estimate."""

    __slots__ = ("counts", "cycles", "machine")

    def __init__(self, counts: Counts, cycles: float, machine: MachineModel):
        self.counts = counts
        self.cycles = cycles
        self.machine = machine

    @property
    def compute_microseconds(self) -> float:
        return self.machine.cycles_to_us(self.cycles)

    @property
    def comm_microseconds(self) -> float:
        return self.counts.comm_us

    @property
    def microseconds(self) -> float:
        return self.compute_microseconds + self.comm_microseconds

    @property
    def seconds(self) -> float:
        return self.microseconds * 1e-6

    def __repr__(self) -> str:
        return "CostResult(%.0f cycles on %s)" % (self.cycles, self.machine.name)


def _expr_costs(expr: ir.IRExpr, layout: MemoryLayout) -> Dict[str, int]:
    loads = flops = intrinsics = 0
    for node in expr.walk():
        if isinstance(node, ir.ArrayRef):
            if node.name in layout.bases:
                loads += 1
        elif isinstance(node, ir.Call):
            intrinsics += 1
        elif isinstance(node, (ir.BinOp, ir.UnOp)):
            flops += 1
    return {"loads": loads, "flops": flops, "intrinsics": intrinsics}


class SequentialCostModel:
    """Estimates per-node execution cycles for a scalarized program."""

    def __init__(
        self,
        program: ScalarProgram,
        machine: MachineModel,
        sample_iterations: int = 3,
        while_trip_estimate: int = 1,
    ) -> None:
        self.program = program
        self.machine = machine
        self.layout = MemoryLayout(program)
        self.sample_iterations = max(1, sample_iterations)
        self.while_trip_estimate = while_trip_estimate
        self._levels = len(machine.caches)

    def estimate(self) -> CostResult:
        hierarchy = CacheHierarchy(self.machine.caches)
        counts = self._body_cost(
            self.program.body, int_config_env(self.program.configs), hierarchy
        )
        cycles = self._cycles(counts)
        return CostResult(counts, cycles, self.machine)

    # ------------------------------------------------------------------

    def _cycles(self, counts: Counts) -> float:
        machine = self.machine
        cycles = (
            counts.loads * machine.load_hit_cycles
            + counts.stores * machine.store_cycles
            + counts.flops * machine.flop_cycles
            + counts.intrinsics * machine.intrinsic_cycles
            + counts.points * machine.loop_overhead_cycles
            + counts.scalar_ops * machine.scalar_op_cycles
        )
        for level, misses in enumerate(counts.misses):
            cycles += misses * machine.caches[level].miss_penalty
        return cycles

    def _body_cost(
        self,
        body: Sequence[SNode],
        env: Dict[str, int],
        hierarchy: CacheHierarchy,
    ) -> Counts:
        counts = Counts(self._levels)
        index = 0
        while index < len(body):
            node = body[index]
            if isinstance(node, LoopNest):
                run: List[LoopNest] = []
                while index < len(body) and isinstance(body[index], LoopNest):
                    run.append(body[index])
                    index += 1
                counts.add(self._run_cost(run, env, hierarchy))
                continue
            if isinstance(node, SBoundary):
                counts.add(self._boundary_cost(node, env))
            elif isinstance(node, ScalarAssign):
                piece = _expr_costs(node.rhs, self.layout)
                counts.scalar_ops += piece["flops"] + 1
                counts.intrinsics += piece["intrinsics"]
            elif isinstance(node, SeqLoop):
                counts.add(self._seq_loop_cost(node, env, hierarchy))
            elif isinstance(node, SIf):
                counts.scalar_ops += 1
                counts.add(self._body_cost(node.then_body, env, hierarchy))
            elif isinstance(node, SWhile):
                for _ in range(self.while_trip_estimate):
                    counts.scalar_ops += 1
                    counts.add(self._body_cost(node.body, env, hierarchy))
            else:
                raise MachineError("cannot cost %r" % node)
            index += 1
        return counts

    def _boundary_cost(self, node: SBoundary, env: Mapping[str, int]) -> Counts:
        """A halo fill costs one load and one store per copied element."""
        counts = Counts(self._levels)
        bounds = node.region.concrete_bounds(env)
        if node.array not in self.layout.bases:
            return counts
        region_extents = [hi - lo + 1 for lo, hi in bounds]
        alloc_extents = self.layout.shapes[node.array]
        cells = 0
        for dim in range(len(bounds)):
            halo = alloc_extents[dim] - region_extents[dim]
            plane = 1
            for d in range(len(bounds)):
                if d != dim:
                    plane *= alloc_extents[d]
            cells += halo * plane
        counts.loads += cells
        counts.stores += cells
        return counts

    def _seq_loop_cost(
        self, node: SeqLoop, env: Dict[str, int], hierarchy: CacheHierarchy
    ) -> Counts:
        lo = int(eval_scalar(node.lo, env))
        hi = int(eval_scalar(node.hi, env))
        values = list(range(lo, hi - 1, -1)) if node.downto else list(
            range(lo, hi + 1)
        )
        counts = Counts(self._levels)
        if not values:
            return counts
        sample = min(len(values), self.sample_iterations)
        sampled: List[Counts] = []
        for value in values[:sample]:
            inner_env = dict(env)
            inner_env[node.var] = value
            sampled.append(self._body_cost(node.body, inner_env, hierarchy))
        for piece in sampled:
            counts.add(piece)
        remaining = len(values) - sample
        if remaining > 0:
            counts.add(sampled[-1], factor=float(remaining))
        counts.scalar_ops += len(values)  # loop bookkeeping
        return counts

    def _run_cost(
        self,
        run: Sequence[LoopNest],
        env: Mapping[str, int],
        hierarchy: CacheHierarchy,
    ) -> Counts:
        per_node = [self._node_cost(node, env, hierarchy) for node in run]
        self._process_run(run, per_node, env)
        counts = Counts(self._levels)
        for piece in per_node:
            counts.add(piece)
        return counts

    def _node_cost(
        self,
        node: LoopNest,
        env: Mapping[str, int],
        hierarchy: CacheHierarchy,
    ) -> Counts:
        """Cost of one loop nest through the shared hierarchy."""
        counts = Counts(self._levels)
        trace = run_trace([node], self.layout, env)
        misses = hierarchy.run_trace(trace.tolist())
        for level, value in enumerate(misses):
            counts.misses[level] += value
        bounds = node.region.concrete_bounds(env)
        points = 1
        for lo, hi in bounds:
            points *= max(0, hi - lo + 1)
        counts.points += points
        for stmt in node.body:
            piece = _expr_costs(stmt.rhs, self.layout)
            counts.loads += points * piece["loads"]
            counts.flops += points * piece["flops"]
            counts.intrinsics += points * piece["intrinsics"]
            if stmt.reduce_op is not None:
                counts.flops += points  # the accumulate operation
            elif not stmt.is_contracted:
                counts.stores += points
        return counts

    def _process_run(
        self,
        run: Sequence[LoopNest],
        per_node: List[Counts],
        env: Mapping[str, int],
    ) -> None:
        """Hook for subclasses (the parallel model adds communication)."""
        del run, per_node, env

    def node_compute_us(self, counts: Counts) -> float:
        """Convert one node's counts to microseconds of computation."""
        return self.machine.cycles_to_us(self._cycles(counts))


def estimate_sequential(
    program: ScalarProgram,
    machine: MachineModel,
    sample_iterations: int = 3,
) -> CostResult:
    """Estimate the per-node execution cost of a scalarized program."""
    model = SequentialCostModel(program, machine, sample_iterations)
    return model.estimate()
