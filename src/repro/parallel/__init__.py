"""Parallel substrate: distribution, communication, interaction
policies, shard geometry, and measured-vs-modeled validation."""

from repro.parallel.comm import CommEvent, analyze_run
from repro.parallel.commcost import ParallelCostModel, estimate_parallel
from repro.parallel.commopt import (
    ALL_COMM_OPTS,
    NO_COMM_OPTS,
    CommOptions,
    combine_messages,
    eliminate_redundant,
    message_cost_us,
    optimized_comm_cost_us,
    schedule,
    singleton_messages,
)
from repro.parallel.distribution import (
    ProcessorGrid,
    balanced_factorization,
    block_chunks,
)
from repro.parallel.shard import (
    RunPlan,
    ShardLayout,
    halo_widths,
    plan_run,
    program_rank,
)
from repro.parallel.validate import (
    ValidationError,
    ValidationRow,
    check_report,
    exchange_table,
    validate_benchsuite,
    validate_program,
)
from repro.parallel.interaction import (
    FAVOR_COMM,
    FAVOR_FUSION,
    comm_merge_filter,
    plan_program_with_policy,
)

__all__ = [
    "ALL_COMM_OPTS",
    "CommEvent",
    "CommOptions",
    "FAVOR_COMM",
    "FAVOR_FUSION",
    "NO_COMM_OPTS",
    "ParallelCostModel",
    "ProcessorGrid",
    "RunPlan",
    "ShardLayout",
    "ValidationError",
    "ValidationRow",
    "analyze_run",
    "balanced_factorization",
    "block_chunks",
    "check_report",
    "combine_messages",
    "comm_merge_filter",
    "eliminate_redundant",
    "estimate_parallel",
    "exchange_table",
    "halo_widths",
    "message_cost_us",
    "optimized_comm_cost_us",
    "plan_run",
    "program_rank",
    "schedule",
    "singleton_messages",
    "validate_benchsuite",
    "validate_program",
]
