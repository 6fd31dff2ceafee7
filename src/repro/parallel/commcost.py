"""The parallel cost model: per-node computation plus communication.

Extends the sequential model (Section 5.4's scaled-problem methodology:
the data per processor is constant, so one *local-size* compiled program
serves every processor count).  :class:`ParallelCostModel` inherits the
sequential per-node compute estimate unchanged and adds communication
per run of loop nests:

* border exchanges for every non-zero constant offset along a cut
  dimension, as enumerated by :func:`repro.parallel.comm.analyze_run`
  and priced through the §5.5 optimizer
  (:func:`repro.parallel.commopt.optimized_comm_cost_us`), so the
  estimate reflects whichever :class:`~repro.parallel.commopt.
  CommOptions` the caller selects.

Reductions are fold statements inside the nests and are priced as the
nest's compute; no combining tree is charged for them.

Contract: ``p`` is the total processor count; the grid shape is the
:func:`~repro.parallel.distribution.balanced_factorization` of ``p``
over the rank of the widest allocated region, matching what the
``mp-shard`` backend executes.  All arrays are treated as distributed
(Section 6's "every dimension is a potential source of parallelism").
``p == 1`` degenerates to the sequential model exactly — no events.
Costs are attributed to node 0 of each run, which is correct for the
per-node (not aggregate) time the scaled-speedup plots in Section 5.4
need.  :func:`estimate_parallel` is the one-call wrapper the CLI and
benchmarks use.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Set

from repro.machine.cost import CostResult, Counts, SequentialCostModel
from repro.machine.models import MachineModel
from repro.parallel.comm import analyze_run
from repro.parallel.commopt import ALL_COMM_OPTS, CommOptions, optimized_comm_cost_us
from repro.parallel.distribution import ProcessorGrid
from repro.scalarize.loopnest import ScalarProgram, SNode


class ParallelCostModel(SequentialCostModel):
    """Cost model for one node of a ``p``-processor execution."""

    def __init__(
        self,
        program: ScalarProgram,
        machine: MachineModel,
        p: int,
        comm_options: CommOptions = ALL_COMM_OPTS,
        sample_iterations: int = 3,
    ) -> None:
        super().__init__(program, machine, sample_iterations)
        self.p = p
        self.comm_options = comm_options
        rank = max(
            (region.rank for region, _kind in program.array_allocs.values()),
            default=2,
        )
        self.grid = ProcessorGrid(p, rank)
        self.distributed_arrays: Set[str] = set(program.array_allocs)

    # ------------------------------------------------------------------

    def _process_run(
        self,
        run: Sequence[SNode],
        per_node: List[Counts],
        env: Mapping[str, int],
    ) -> None:
        if self.p == 1 or not per_node:
            return
        compute_us = [self.node_compute_us(counts) for counts in per_node]
        events = analyze_run(run, self.grid, env, self.distributed_arrays)
        comm_us = optimized_comm_cost_us(
            events, run, self.machine.comm, compute_us, self.comm_options
        )
        per_node[0].comm_us += comm_us


def estimate_parallel(
    program: ScalarProgram,
    machine: MachineModel,
    p: int,
    comm_options: CommOptions = ALL_COMM_OPTS,
    sample_iterations: int = 3,
) -> CostResult:
    """Estimate per-node time of a scaled-problem run on ``p`` processors."""
    model = ParallelCostModel(program, machine, p, comm_options, sample_iterations)
    return model.estimate()
