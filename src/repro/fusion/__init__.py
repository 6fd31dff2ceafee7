"""Statement fusion and array contraction at the array level."""

from repro.fusion.algorithm import (
    fuse_all_legal,
    fusion_for_contraction,
    fusion_for_locality,
)
from repro.fusion.contract import eligible_candidates, is_contractible
from repro.fusion.grow import grow, grown
from repro.fusion.loopstruct import find_loop_structure, structure_preserves
from repro.fusion.partition import FusionPartition
from repro.fusion.partial import (
    buffer_bytes,
    find_partial_contractions,
    partial_candidate,
)
from repro.fusion.pipeline import (
    ALL_LEVELS,
    C2P,
    BASELINE,
    BlockPlan,
    C1,
    C2,
    C2F3,
    C2F3CSE,
    C2F4,
    C2F4CSE,
    CSE_TWINS,
    F1,
    F2,
    F3,
    LEVEL_NAMES,
    LEVELS_BY_NAME,
    PAPER_LEVELS,
    Level,
    ProgramPlan,
    plan_block,
    plan_program,
    resolve_level,
)
from repro.fusion.redundancy import (
    BlockCSE,
    CSEStats,
    eliminate_redundancies,
    is_cse_scalar,
)
from repro.fusion.weights import (
    contraction_benefit,
    reference_weight,
    weights_by_decreasing,
)

__all__ = [
    "ALL_LEVELS",
    "BASELINE",
    "BlockCSE",
    "BlockPlan",
    "C1",
    "C2",
    "C2F3",
    "C2F3CSE",
    "C2F4",
    "C2F4CSE",
    "C2P",
    "CSEStats",
    "CSE_TWINS",
    "F1",
    "F2",
    "F3",
    "FusionPartition",
    "LEVEL_NAMES",
    "LEVELS_BY_NAME",
    "PAPER_LEVELS",
    "Level",
    "ProgramPlan",
    "eliminate_redundancies",
    "is_cse_scalar",
    "buffer_bytes",
    "contraction_benefit",
    "find_partial_contractions",
    "partial_candidate",
    "eligible_candidates",
    "find_loop_structure",
    "fuse_all_legal",
    "fusion_for_contraction",
    "fusion_for_locality",
    "grow",
    "grown",
    "is_contractible",
    "plan_block",
    "plan_program",
    "reference_weight",
    "resolve_level",
    "structure_preserves",
    "weights_by_decreasing",
]
