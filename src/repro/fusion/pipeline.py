"""Optimization strategies: the paper's incremental levels (Section 5.4).

========  =============================================================
baseline  no fusion or contraction
f1        fusion to enable contraction of compiler arrays, no contraction
c1        f1 plus the compiler-array contraction is performed
f2        c1 plus fusion to enable user-array contraction, not performed
f3        c1 plus fusion for locality
c2        c1 plus user-array contraction is performed
c2+f3     c2 plus fusion for locality
c2+f4     c2+f3 plus all legal fusion (greedy pair-wise)
========  =============================================================

Each level plans every basic block of a program: it builds the ASDG, runs
the configured fusion passes, and records which arrays are actually
contracted.  The plans drive scalarization and the performance models.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.deps.analysis import build_asdg
from repro.fusion.algorithm import (
    MergeFilter,
    fuse_all_legal,
    fusion_for_contraction,
    fusion_for_locality,
)
from repro.fusion.contract import eligible_candidates
from repro.fusion.partition import FusionPartition
from repro.fusion.weights import weight_env
from repro.ir.expr import compile_memo
from repro.ir.program import IRProgram
from repro.ir.statement import ArrayStatement
from repro.util.errors import ReproError


class Level:
    """One optimization strategy configuration."""

    __slots__ = (
        "name",
        "fuse_compiler",
        "fuse_user",
        "contract_compiler",
        "contract_user",
        "fuse_locality",
        "fuse_all",
        "contract_partial",
        "cse",
    )

    def __init__(
        self,
        name: str,
        fuse_compiler: bool = False,
        fuse_user: bool = False,
        contract_compiler: bool = False,
        contract_user: bool = False,
        fuse_locality: bool = False,
        fuse_all: bool = False,
        contract_partial: bool = False,
        cse: bool = False,
    ) -> None:
        self.name = name
        self.fuse_compiler = fuse_compiler
        self.fuse_user = fuse_user
        self.contract_compiler = contract_compiler
        self.contract_user = contract_user
        self.fuse_locality = fuse_locality
        self.fuse_all = fuse_all
        self.contract_partial = contract_partial
        self.cse = cse

    def __repr__(self) -> str:
        return "Level(%s)" % self.name


BASELINE = Level("baseline")
F1 = Level("f1", fuse_compiler=True)
C1 = Level("c1", fuse_compiler=True, contract_compiler=True)
F2 = Level("f2", fuse_compiler=True, fuse_user=True, contract_compiler=True)
F3 = Level("f3", fuse_compiler=True, contract_compiler=True, fuse_locality=True)
C2 = Level(
    "c2",
    fuse_compiler=True,
    fuse_user=True,
    contract_compiler=True,
    contract_user=True,
)
C2F3 = Level(
    "c2+f3",
    fuse_compiler=True,
    fuse_user=True,
    contract_compiler=True,
    contract_user=True,
    fuse_locality=True,
)
C2F4 = Level(
    "c2+f4",
    fuse_compiler=True,
    fuse_user=True,
    contract_compiler=True,
    contract_user=True,
    fuse_locality=True,
    fuse_all=True,
)

#: Redundancy-elimination variants (not paper strategies): the fusion
#: levels that expose shared terms across fused statements, plus the
#: array-level CSE pass of :mod:`repro.fusion.redundancy`.
C2F3CSE = Level(
    "c2+f3+cse",
    fuse_compiler=True,
    fuse_user=True,
    contract_compiler=True,
    contract_user=True,
    fuse_locality=True,
    cse=True,
)
C2F4CSE = Level(
    "c2+f4+cse",
    fuse_compiler=True,
    fuse_user=True,
    contract_compiler=True,
    contract_user=True,
    fuse_locality=True,
    fuse_all=True,
    cse=True,
)

#: The Section 5.2 extension (not one of the paper's measured strategies):
#: c2+f3 plus partial contraction of sweep-carried arrays to row buffers.
C2P = Level(
    "c2+p",
    fuse_compiler=True,
    fuse_user=True,
    contract_compiler=True,
    contract_user=True,
    fuse_locality=True,
    contract_partial=True,
)

ALL_LEVELS: List[Level] = [
    BASELINE,
    F1,
    C1,
    F2,
    F3,
    C2,
    C2F3,
    C2F4,
    C2F3CSE,
    C2F4CSE,
]
LEVELS_BY_NAME: Dict[str, Level] = {level.name: level for level in ALL_LEVELS}

#: The paper's eight measured strategies (Section 5.4) — the evaluation
#: harness iterates these; the +cse variants are repo extensions.
PAPER_LEVELS: List[Level] = [BASELINE, F1, C1, F2, F3, C2, C2F3, C2F4]

#: Each +cse level's non-CSE twin (identical fusion/contraction flags).
CSE_TWINS: Dict[str, str] = {"c2+f3+cse": "c2+f3", "c2+f4+cse": "c2+f4"}

#: Everything :func:`resolve_level` accepts: the measured levels plus the
#: ``c2+p`` extension, which sweeps over ``ALL_LEVELS`` leave out.
_RESOLVABLE: Dict[str, Level] = {**LEVELS_BY_NAME, C2P.name: C2P}
LEVEL_NAMES: Tuple[str, ...] = tuple(sorted(_RESOLVABLE))


def resolve_level(
    level: Union[Level, str, None], default: Union[Level, str, None] = None
) -> Level:
    """The :class:`Level` for a name (or a level itself; ``None`` = default).

    The one place a user-supplied level name is validated: the CLI, the
    service, the daemon and ``repro.array`` all come here.
    """
    if level is None:
        level = default
    if isinstance(level, Level):
        return level
    resolved = _RESOLVABLE.get(level)
    if resolved is None:
        raise ReproError(
            "unknown level %r (choose from %s)" % (level, ", ".join(LEVEL_NAMES))
        )
    return resolved


class BlockPlan:
    """The optimization outcome for one basic block.

    ``contracted`` holds arrays whose storage is *eliminated* (every live
    range contracted and no reference escapes the block);
    ``range_scalars`` maps ``(statement uid, array)`` to the scalar that
    replaces the array's access in that statement — per-live-range
    contraction can rewrite some definitions of an array while others keep
    writing storage (Figure 3's footnote).  ``cse``, when the level runs
    redundancy elimination, is the :class:`repro.fusion.redundancy.BlockCSE`
    holding per-cluster hoisted terms and rewritten right-hand sides.
    """

    __slots__ = (
        "block",
        "partition",
        "contracted",
        "partial",
        "range_scalars",
        "cse",
    )

    def __init__(
        self,
        block: List[ArrayStatement],
        partition: FusionPartition,
        contracted: Set[str],
        partial: Optional[Dict[str, tuple]] = None,
        range_scalars: Optional[Dict[tuple, str]] = None,
        cse=None,
    ) -> None:
        self.block = block
        self.partition = partition
        self.contracted = contracted
        self.partial = dict(partial or {})
        self.cse = cse
        if range_scalars is None:
            # Whole-array contraction (hand-built plans, tests): every
            # statement touching a contracted array uses its one scalar.
            range_scalars = {}
            for stmt in block:
                for name in contracted:
                    touches = (
                        stmt.target == name and stmt.writes_array
                    ) or name in stmt.read_names()
                    if touches:
                        range_scalars[(stmt.uid, name)] = name + "__s"
        self.range_scalars = range_scalars

    @property
    def cluster_count(self) -> int:
        return self.partition.cluster_count()

    def __repr__(self) -> str:
        return "BlockPlan(%d stmts, %d clusters, contracted=%s)" % (
            len(self.block),
            self.cluster_count,
            sorted(self.contracted),
        )


class ProgramPlan:
    """Plans for every basic block of a program under one level."""

    def __init__(self, program: IRProgram, level: Level) -> None:
        self.program = program
        self.level = level
        self.block_plans: Dict[int, BlockPlan] = {}

    def plan_for(self, block: Sequence[ArrayStatement]) -> BlockPlan:
        return self.block_plans[block[0].uid]

    def add(self, plan: BlockPlan) -> None:
        self.block_plans[plan.block[0].uid] = plan

    def contracted_arrays(self) -> Set[str]:
        """All arrays eliminated by contraction anywhere in the program."""
        result: Set[str] = set()
        for plan in self.block_plans.values():
            result |= plan.contracted
        return result

    def partial_arrays(self) -> Dict[str, tuple]:
        """Arrays reduced to circular row buffers: name -> (dim, depth)."""
        result: Dict[str, tuple] = {}
        for plan in self.block_plans.values():
            result.update(plan.partial)
        return result

    def all_range_scalars(self) -> Dict[tuple, str]:
        """(statement uid, array) -> contraction scalar, program-wide."""
        result: Dict[tuple, str] = {}
        for plan in self.block_plans.values():
            result.update(plan.range_scalars)
        return result

    def live_arrays(self) -> List[str]:
        """Arrays that still require allocation after contraction."""
        contracted = self.contracted_arrays()
        return [name for name in self.program.arrays if name not in contracted]

    def cse_stats(self):
        """Aggregated redundancy-elimination statistics, or ``None``."""
        from repro.fusion.redundancy import CSEStats

        if not self.level.cse:
            return None
        stats = CSEStats()
        for plan in self.block_plans.values():
            if plan.cse is not None:
                stats = stats.merge(plan.cse.stats)
        return stats


def plan_block(
    program: IRProgram,
    block: List[ArrayStatement],
    level: Level,
    merge_filter: Optional[MergeFilter] = None,
    timers=None,
    block_ordinal: int = 0,
) -> BlockPlan:
    """Run the level's fusion passes over one basic block.

    ``timers``, when given, is a metrics object with a ``time(name)``
    context manager (see :class:`repro.service.metrics.Metrics`); the
    dependence analysis and the fusion/contraction passes are recorded
    under ``compile.deps`` and ``compile.fusion`` respectively.
    """
    from contextlib import nullcontext

    from repro.fusion.algorithm import fusion_for_contraction_ranges
    from repro.fusion.contract import range_candidates, split_live_ranges

    timed = timers.time if timers is not None else (lambda _name: nullcontext())

    # Only reference weights read it: stand-ins for loop variables never
    # reach a legality test.
    config_env = weight_env(program, block)
    with timed("compile.deps"):
        graph = build_asdg(block)
    partition = FusionPartition(graph)
    contracted: Set[str] = set()
    range_scalars: Dict[tuple, str] = {}

    with timed("compile.fusion"):
        if level.fuse_compiler or level.fuse_user:
            candidates = range_candidates(
                program, block, include_user_arrays=level.fuse_user
            )
            enabled = fusion_for_contraction_ranges(
                partition, candidates, config_env, merge_filter
            )
            applied_by_array: Dict[str, List] = {}
            for candidate in enabled:
                info = program.arrays[candidate.array]
                if info.is_temp and not level.contract_compiler:
                    continue
                if not info.is_temp and not level.contract_user:
                    continue
                applied_by_array.setdefault(candidate.array, []).append(candidate)
            for name, applied in applied_by_array.items():
                has_incoming, ranges = split_live_ranges(block, name)
                # An array's storage is eliminated when every one of its
                # ranges contracted and no reference enters or escapes the
                # block.
                eliminated = (
                    not has_incoming
                    and len(applied) == len(ranges)
                    and program.refs_confined_to_block(name, block)
                )
                for candidate in applied:
                    if candidate.is_last and not eliminated:
                        # The final range's value is the array's observable
                        # state: contract it only when the whole array goes.
                        continue
                    for stmt in candidate.statements:
                        range_scalars[(stmt.uid, name)] = candidate.scalar
                if eliminated:
                    contracted.add(name)

        if level.fuse_locality:
            fusion_for_locality(partition, config_env, merge_filter)

        if level.fuse_all:
            fuse_all_legal(partition, merge_filter)

        partial = None
        if level.contract_partial:
            from repro.fusion.partial import find_partial_contractions

            touched = {name for (_uid, name) in range_scalars}
            partial = find_partial_contractions(program, block, touched)

    cse = None
    if level.cse:
        from repro.fusion.redundancy import eliminate_redundancies

        with timed("compile.cse"):
            cse = eliminate_redundancies(
                partition, range_scalars, block_ordinal
            )

    return BlockPlan(block, partition, contracted, partial, range_scalars, cse)


def plan_program(
    program: IRProgram,
    level: Level,
    merge_filter: Optional[MergeFilter] = None,
    timers=None,
) -> ProgramPlan:
    """Plan every basic block of ``program`` under ``level``.

    ``timers`` is forwarded to :func:`plan_block` so a serving layer can
    meter the dependence and fusion passes separately.
    """
    plan = ProgramPlan(program, level)
    with compile_memo(), program.indexed():
        for ordinal, block in enumerate(program.blocks()):
            plan.add(
                plan_block(
                    program, block, level, merge_filter, timers, ordinal
                )
            )
    return plan
