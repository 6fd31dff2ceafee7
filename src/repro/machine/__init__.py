"""Machine substrate: cache simulation, traces, models, cost estimation."""

from repro.machine.analytic import AnalyticCostModel, estimate_analytic
from repro.machine.cache import Cache, CacheConfig, CacheHierarchy, simulate_trace
from repro.machine.cost import (
    CostResult,
    Counts,
    SequentialCostModel,
    estimate_sequential,
)
from repro.machine.models import (
    ALL_MACHINES,
    CRAY_T3E,
    CommParams,
    IBM_SP2,
    INTEL_PARAGON,
    MACHINES_BY_NAME,
    MachineModel,
)
from repro.machine.trace import MemoryLayout, nest_trace, run_trace

__all__ = [
    "ALL_MACHINES",
    "AnalyticCostModel",
    "CRAY_T3E",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "CommParams",
    "CostResult",
    "Counts",
    "IBM_SP2",
    "INTEL_PARAGON",
    "MACHINES_BY_NAME",
    "MachineModel",
    "MemoryLayout",
    "SequentialCostModel",
    "estimate_analytic",
    "estimate_sequential",
    "nest_trace",
    "run_trace",
    "simulate_trace",
]
