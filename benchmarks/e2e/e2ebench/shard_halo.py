"""``shard_halo``: the ``mp-shard`` backend at two worker processes.

Tomcatv, SP and Simple at the benchsuite's default ``n = m = 64``,
``steps = 2``: each timed call forks two workers, walks the program in
lockstep and exchanges halo strips through shared memory.  SP also takes
the rank-0 gather path (``comm.fallback_nests``).  The local executor is
``codegen_np``; ``local_backend="c"`` is left out on purpose (see the
README: it is a recorded defect of the baseline, not a workload).
"""

from __future__ import annotations

import statistics
import time

from e2ebench import oracle, pipeline
from e2ebench.stats import geomean
from e2ebench.workload import Measured, rounds_until, timed

LEVEL = "c2+f4+cse"
PROGRAMS = ("Tomcatv", "SP", "Simple")
SIZE = 64
SMOKE_SIZE = 12
PROCS = 2
LOCAL_BACKEND = "codegen_np"
MIN_ROUNDS = 3
#: What the issue called each class of timed operation.
ISSUE_NAMES = {"sharded": "shard_ms"}


class State:
    def __init__(self) -> None:
        #: name -> (scalar program, single-process codegen_np result)
        self.programs = {}
        self.single_s = {}


def _sharded(program, procs):
    from repro.exec.mp_shard import execute_sharded

    return execute_sharded(program, procs=procs, local_backend=LOCAL_BACKEND)


def setup(ctx) -> State:
    from repro.benchsuite import get_benchmark
    from repro.exec import execute
    from repro.fusion import LEVELS_BY_NAME
    from repro.scalarize import compile_program

    state = State()
    size = SMOKE_SIZE if ctx.smoke else SIZE
    for name in PROGRAMS:
        bench = get_benchmark(name)
        config = oracle.bench_config(bench, size)
        program = compile_program(bench.program(config), LEVELS_BY_NAME[LEVEL])
        state.programs[name] = (program, execute(program, "codegen_np"))
        started = time.perf_counter()
        _sharded(program, 1)
        state.single_s[name] = time.perf_counter() - started
    _sharded(state.programs[PROGRAMS[0]][0], PROCS)  # untimed: the first fork and exchange
    return state


def measure(ctx, state: State, seconds: float) -> Measured:
    from repro.parallel.validate import assert_identical, check_report
    from repro.util.errors import ReproError

    measured = Measured()
    reports = {}
    deadline = time.perf_counter() + seconds
    for number in rounds_until(deadline, 1 if ctx.smoke else MIN_ROUNDS):
        for name, (program, single) in state.programs.items():
            with timed(ctx, measured, "sharded", name, "shard.execute", "%s#%d" % (name, number)):
                result, report = _sharded(program, PROCS)
            try:
                assert_identical(result, single)
                check_report(report)  # measured bytes == the model's, per exchange
            except ReproError as error:
                measured.problems.append("%s round %d: %s" % (name, number, error))
            reports.setdefault(name, []).append(report)
    ctx.calibrator.burst()
    measured.kept["reports"] = reports
    return measured


def teardown(ctx, state: State) -> None:
    pass


def verify(ctx, state: State, measured: Measured):
    """The sharded runs were compared bit for bit with ``codegen_np`` as they
    ran; what is left is that oracle itself against ``interp`` at baseline."""
    from repro.benchsuite import get_benchmark
    from repro.service import Service

    service = Service(level=LEVEL, backend=LOCAL_BACKEND, persistent=False)
    problems = []
    for name in PROGRAMS:
        problems += oracle.small_gate(service, get_benchmark(name), [(LEVEL, LOCAL_BACKEND)])
    return len(PROGRAMS), problems


def layers(ctx, state: State, measured: Measured) -> dict:
    from repro.parallel.commopt import ALL_COMM_OPTS
    from repro.parallel.distribution import ProcessorGrid
    from repro.parallel.shard import (
        ShardLayout,
        nest_fallback_reason,
        plan_run,
        program_rank,
    )
    from repro.scalarize import LoopNest, ReductionLoop, compile_program
    from repro.scalarize.emit_common import int_config_env
    from repro.fusion import LEVELS_BY_NAME
    from repro.ir import normalize_source

    spans = ctx.spans
    plan_seconds = 0.0
    for name, (program, _single) in state.programs.items():
        env = int_config_env(program.configs)
        with spans.span("shard.plan", name) as span:
            layout = ShardLayout(program, ProcessorGrid(PROCS, program_rank(program)), env)
            run = []
            for node in list(program.body) + [None]:
                if isinstance(node, (LoopNest, ReductionLoop)):
                    run.append(node)
                elif run:
                    gathered = tuple(
                        index
                        for index, nest in enumerate(run)
                        if nest_fallback_reason(nest, layout, program.partial)
                    )
                    plan_run(run, layout, env, ALL_COMM_OPTS, gathered)
                    run = []
        plan_seconds += span.seconds

    tiny = compile_program(normalize_source(pipeline.ONE_POINT, {"n": 2}), LEVELS_BY_NAME[LEVEL])
    floors = []
    for _ in range(3 if ctx.smoke else 7):
        with spans.span("shard.fork_floor") as span:
            _sharded(tiny, PROCS)
        floors.append(span.seconds)

    first = {name: reports[0] for name, reports in measured.kept["reports"].items()}

    def counter(key):
        return sum(report.counters.get(key, 0) for report in first.values())

    waits = [
        sum(record.duration_us for record in report.records)
        for reports in measured.kept["reports"].values()
        for report in reports
    ]
    sharded = {
        name: statistics.median(times) for name, times in measured.samples["sharded"].items()
    }
    return {
        "shard.plan_ms": plan_seconds * 1e3,
        "shard.fork_floor_ms": statistics.median(floors) * 1e3,
        "shard.exchanges": sum(report.exchanges for report in first.values()),
        "shard.halo_bytes": sum(report.measured_bytes for report in first.values()),
        "shard.gather_bytes": counter("comm.gather_bytes"),
        "shard.fallback_nests": counter("comm.fallback_nests"),
        "shard.exchange_wait_ms": statistics.fmean(waits) * len(first) / 1e3,
        # base: the same program through execute_sharded at procs=1
        "shard.overhead_x": geomean(sharded[name] / state.single_s[name] for name in sharded),
    }
