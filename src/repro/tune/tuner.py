"""The tuning loop: enumerate, predict, prune, measure, persist.

``tune(source)`` is the offline entry point behind ``repro tune``:

1. probe the :class:`~repro.tune.tunedb.TuneDB` — a hit returns the
   stored plan with **zero** compilation or measurement (the runner is
   never invoked; a test asserts this);
2. compile the program once per candidate optimization level (levels
   share a normalized IR; scalarization differs per level);
3. enumerate the plan space and rank every candidate with the
   cost-model prior (:func:`repro.tune.space.rank_plans`);
4. measure the top-K candidates — always including the serving layer's
   default plan, so the stored winner can never be slower than what an
   untuned service would have run — under the wall-clock budget;
5. persist the winner, stamped with the machine signature.

The result's :meth:`TuneResult.render_table` prints the
predicted-vs-measured ranking the paper's evaluation methodology calls
for: the prior's ordering next to reality, so a misranking is visible
rather than silently absorbed.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.exec import get_backend
from repro.fusion import plan_program, resolve_level
from repro.ir import normalize_source
from repro.scalarize import scalarize
from repro.scalarize.loopnest import ScalarProgram
from repro.service.metrics import Metrics
from repro.tune.runner import Budget, Measurement, Runner
from repro.tune.space import (
    Plan,
    PlanSpace,
    default_plan,
    default_space,
    enumerate_plans,
    rank_plans,
)
from repro.tune.tunedb import TuneDB, fresh_record

#: How many top-ranked candidates are measured by default.
DEFAULT_TOP_K = 6

#: Default wall-clock budget for one tuning run, in seconds.
DEFAULT_BUDGET_S = 20.0


class RankedPlan(NamedTuple):
    """One row of the predicted-vs-measured ranking table."""

    plan: Plan
    predicted_us: float
    measurement: Optional[Measurement]
    note: str


class TuneResult:
    """The outcome of one ``tune()`` call."""

    def __init__(
        self,
        digest: str,
        winner: Plan,
        ranking: List[RankedPlan],
        from_db: bool,
        budget_elapsed_s: float = 0.0,
        measured_s: Optional[float] = None,
        predicted_us: Optional[float] = None,
    ) -> None:
        self.digest = digest
        self.winner = winner
        self.ranking = ranking
        #: True when the plan came straight from the tuning database —
        #: no compilation, no measurement.
        self.from_db = from_db
        self.budget_elapsed_s = budget_elapsed_s
        self.measured_s = measured_s
        self.predicted_us = predicted_us

    def render_table(self) -> str:
        """Predicted vs. measured ranking, one line per candidate."""
        lines = [
            "tuning %s%s" % (
                self.digest[:12],
                " (tunedb hit — no measurements)" if self.from_db else "",
            ),
            "winner: %s" % self.winner.describe(),
            "",
            "%-4s %-28s %14s %14s  %s"
            % ("rank", "plan", "predicted", "measured", "note"),
        ]
        for index, row in enumerate(self.ranking):
            measured = (
                "%11.3f ms" % (row.measurement.seconds * 1e3)
                if row.measurement is not None
                else "-"
            )
            predicted = (
                "%11.1f us" % row.predicted_us
                if row.predicted_us == row.predicted_us  # not NaN
                else "-"
            )
            lines.append(
                "%-4d %-28s %14s %14s  %s"
                % (index + 1, row.plan.describe(), predicted, measured, row.note)
            )
        if not self.from_db:
            lines.append("")
            lines.append("budget used: %.2fs" % self.budget_elapsed_s)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "TuneResult(winner=%s%s)" % (
            self.winner.describe(),
            ", from_db" if self.from_db else "",
        )


def compile_for_plan(source: str, plan: Plan, config=None, **kwargs):
    """Compile ``source`` the way a plan's level demands."""
    scalar_programs = _compile_levels(source, (plan.level,), config, **kwargs)
    return scalar_programs[plan.level]


def _compile_levels(
    source: str,
    levels: Sequence[str],
    config=None,
    self_temp_policy: str = "always",
    simplify: bool = False,
    metrics: Optional[Metrics] = None,
) -> Dict[str, ScalarProgram]:
    compiled: Dict[str, ScalarProgram] = {}
    for level_name in dict.fromkeys(levels):
        level = resolve_level(level_name)
        timed = (
            metrics.time("tune.compile")
            if metrics is not None
            else contextlib.nullcontext()
        )
        with timed:
            program = normalize_source(source, config, self_temp_policy)
            if simplify:
                from repro.ir import simplify_program

                simplify_program(program)
            compiled[level_name] = scalarize(
                program, plan_program(program, level)
            )
    return compiled


def make_executor(scalar_program: ScalarProgram, plan: Plan):
    """(callable, closer) executing one run of ``plan`` on its program.

    The expensive one-time work — the backend's ``load`` (rendering,
    ``compile()``, the host C compiler) and tile-engine construction —
    happens here, outside the runner's timed region (the warmup runs
    then absorb pool spin-up and allocator effects).
    """
    backend = get_backend(plan.backend)
    run = backend.load(scalar_program)
    if "engine" not in backend.options:
        return (lambda: run(None)), (lambda: None)
    from repro.parallel.engine import TileEngine

    engine = TileEngine(workers=plan.workers, tile_shape=plan.tile_shape)
    return (lambda: run(None, engine=engine)), engine.close


def tune(
    source: str,
    config=None,
    level: str = "c2",
    backend: str = "codegen_np",
    space: Optional[PlanSpace] = None,
    top_k: int = DEFAULT_TOP_K,
    budget_s: Optional[float] = DEFAULT_BUDGET_S,
    repeats: int = 3,
    warmup: int = 1,
    db: Optional[TuneDB] = None,
    runner: Optional[Runner] = None,
    force: bool = False,
    save: bool = True,
    metrics: Optional[Metrics] = None,
    self_temp_policy: str = "always",
    simplify: bool = False,
    clock: Optional[Callable[[], float]] = None,
    tracer=None,
) -> TuneResult:
    """Pick the fastest serving plan for a program on this machine.

    A database hit short-circuits everything (``force=True`` re-tunes);
    otherwise the top-``top_k`` candidates by predicted cost — plus the
    default plan, always — are measured under ``budget_s`` and the
    winner is persisted.
    """
    metrics = metrics or Metrics()
    db = db or TuneDB(metrics=metrics)
    digest = db.digest_for(source, config, self_temp_policy, simplify)

    if not force:
        record = db.get(digest)
        if record is not None:
            return TuneResult(
                digest=digest,
                winner=record.plan,
                ranking=[
                    RankedPlan(
                        record.plan,
                        record.predicted_us
                        if record.predicted_us is not None
                        else float("nan"),
                        None,
                        "tunedb hit (measured %.3f ms when tuned)"
                        % ((record.measured_s or 0.0) * 1e3),
                    )
                ],
                from_db=True,
                measured_s=record.measured_s,
                predicted_us=record.predicted_us,
            )

    if runner is None:
        runner_kwargs = {
            "warmup": warmup,
            "repeats": repeats,
            "metrics": metrics,
            "tracer": tracer,
        }
        if clock is not None:
            runner_kwargs["clock"] = clock
        runner = Runner(**runner_kwargs)
    space = space or default_space(level, backend)
    baseline = default_plan(level, backend)

    with metrics.time("tune.total"):
        compile_kwargs = {
            "self_temp_policy": self_temp_policy,
            "simplify": simplify,
            "metrics": metrics,
        }
        programs = _compile_levels(source, space.levels, config, **compile_kwargs)
        if baseline.level not in programs:
            programs.update(
                _compile_levels(source, (baseline.level,), config, **compile_kwargs)
            )

        # Rank every candidate per level with that level's program.
        plans = enumerate_plans(space, programs[space.levels[0]])
        if baseline not in plans:
            plans.append(baseline)
        ranked: List[tuple] = []
        for level_name in dict.fromkeys(p.level for p in plans):
            level_plans = [p for p in plans if p.level == level_name]
            ranked.extend(rank_plans(programs[level_name], level_plans))
        ranked.sort(key=lambda pair: pair[1])
        metrics.incr("tune.candidates", len(ranked))

        # Prune: measure the top-K plus (always) the default plan.
        to_measure = [plan for plan, _cost in ranked[: max(1, top_k)]]
        if baseline in [plan for plan, _cost in ranked] and baseline not in to_measure:
            to_measure.append(baseline)

        budget = Budget(budget_s, clock=clock) if clock else Budget(budget_s)
        rows: List[RankedPlan] = []
        measurements: Dict[Plan, Measurement] = {}
        best_s: Optional[float] = None
        for plan, predicted_us in ranked:
            if plan not in to_measure:
                rows.append(
                    RankedPlan(plan, predicted_us, None, "pruned (cost prior)")
                )
                continue
            if budget.exhausted:
                rows.append(
                    RankedPlan(plan, predicted_us, None, "skipped (budget)")
                )
                continue
            run, close = make_executor(programs[plan.level], plan)
            try:
                cutoff = best_s * 3.0 if best_s is not None else None
                measurement = runner.measure(run, budget, cutoff_s=cutoff)
            finally:
                close()
            if measurement is None:
                rows.append(
                    RankedPlan(plan, predicted_us, None, "skipped (budget)")
                )
                continue
            measurements[plan] = measurement
            note = "aborted (cutoff)" if measurement.aborted else "measured"
            rows.append(RankedPlan(plan, predicted_us, measurement, note))
            if not measurement.aborted and (
                best_s is None or measurement.seconds < best_s
            ):
                best_s = measurement.seconds

        if measurements:
            complete = {
                plan: m for plan, m in measurements.items() if not m.aborted
            } or measurements
            winner = min(complete, key=lambda plan: complete[plan].seconds)
            winner_measured: Optional[float] = measurements[winner].seconds
        else:
            # Budget exhausted before any measurement: trust the prior.
            winner = ranked[0][0] if ranked else baseline
            winner_measured = None
        winner_predicted = next(
            (cost for plan, cost in ranked if plan == winner), None
        )
        rows = [
            row._replace(note=row.note + " <- winner")
            if row.plan == winner
            else row
            for row in rows
        ]

    if save:
        db.put(
            digest,
            fresh_record(
                winner, winner_measured, winner_predicted, signature=db.signature
            ),
        )
    return TuneResult(
        digest=digest,
        winner=winner,
        ranking=rows,
        from_db=False,
        budget_elapsed_s=budget.elapsed(),
        measured_s=winner_measured,
        predicted_us=winner_predicted,
    )
