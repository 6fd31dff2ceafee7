"""``kernel_large``: warm execution of the six benchsuite programs.

Artifacts are compiled before the timed phase; every timed call is one
``CompiledProgram.execute`` at ``n = m = 512`` on backend ``c`` or
``codegen_np``, round-robin over (program, backend) so machine drift
spreads evenly.  Each call seeds one array with fresh random values, so
no two requests are identical and a result cache cannot answer them.
"""

from __future__ import annotations

import time

import numpy as np

from e2ebench import oracle, pipeline
from e2ebench.workload import Measured, rounds_until, timed

LEVEL = "c2+f4+cse"
BACKENDS = ("c", "codegen_np")
SIZE = 512
SMOKE_SIZE = 40
MIN_ROUNDS = 5
#: What the issue called each class of timed operation.
ISSUE_NAMES = {"c": "exec_ms_c", "codegen_np": "exec_ms_np"}


class State:
    def __init__(self, service, size) -> None:
        self.service = service
        self.size = size
        #: (bench, config, {backend: CompiledProgram}, the array slot to seed or None)
        self.programs = []


def setup(ctx) -> State:
    from repro.benchsuite import ALL_BENCHMARKS
    from repro.service import Service

    # A rehearsed set-up compiles a region one point smaller each time: its C
    # source differs, so the in-process kernel memo cannot skip the compiler.
    size = (SMOKE_SIZE if ctx.smoke else SIZE) - ctx.rehearsal
    service = Service(level=LEVEL, backend="c", cache_dir=ctx.scratch_dir("kernel"))
    state = State(service, size)
    for bench in ALL_BENCHMARKS[1:3] if ctx.smoke else ALL_BENCHMARKS:
        config = oracle.bench_config(bench, size)
        compiled = {
            backend: service.compile(bench.source, config=config, backend=backend)
            for backend in BACKENDS
        }
        for artifact in compiled.values():
            artifact.execute()  # loads the .so / builds the runner
        # EP keeps no array once contracted: it has nothing to seed.
        slots = pipeline.array_slots(compiled["c"].scalar_program)
        state.programs.append((bench, config, compiled, slots[0] if slots else None))
    return state


def measure(ctx, state: State, seconds: float) -> Measured:
    measured = Measured()
    rng = np.random.default_rng(ctx.seed)
    last = {}
    deadline = time.perf_counter() + seconds
    for number in rounds_until(deadline, 2 if ctx.smoke else MIN_ROUNDS):
        for bench, _config, compiled, slot in state.programs:
            arrays = {slot.name: rng.random(slot.shape)} if slot else {}
            results = {}
            for backend in BACKENDS:
                request = "%s/%s#%d" % (bench.name, backend, number)
                with timed(ctx, measured, backend, bench.name, "exec." + backend, request):
                    results[backend] = compiled[backend].execute({"arrays": arrays})
            if not oracle.scalars_close(
                results["c"].scalars, results["codegen_np"].scalars, bench.check_scalars
            ):
                measured.problems.append(
                    "%s round %d: c and codegen_np disagree" % (bench.name, number)
                )
            last[bench.name] = (arrays, results)
    ctx.calibrator.burst()
    measured.kept["last"] = last
    return measured


def teardown(ctx, state: State) -> None:
    pass


def verify(ctx, state: State, measured: Measured):
    """(checks made, problems found), against references the run did not use."""
    checks, problems = 0, []
    cells = [(LEVEL, backend) for backend in BACKENDS]
    for bench, config, _compiled, _slot in state.programs:
        checks += len(cells)
        problems += oracle.small_gate(state.service, bench, cells)
        arrays, results = measured.kept["last"][bench.name]
        reference = oracle.numpy_baseline(state.service, bench, config, arrays)
        for backend in BACKENDS:
            checks += 1
            if not oracle.scalars_close(
                results[backend].scalars, reference.scalars, bench.check_scalars
            ):
                problems.append(
                    "%s on %s differs from codegen_np/baseline at n=%d"
                    % (bench.name, backend, state.size)
                )
    return checks, problems


def layers(ctx, state: State, measured: Measured) -> dict:
    from repro.fusion import LEVELS_BY_NAME, plan_program

    rounds = max(len(times) for times in measured.samples["c"].values())
    out = {}
    statements = 0
    live_bytes = 0
    counts = pipeline.Counts()
    for bench, config, compiled, _slot in state.programs:
        program = bench.program(config)
        statements += len(program.array_statements())
        counts.add_plan(plan_program(program, LEVELS_BY_NAME[LEVEL]))
        live_bytes += pipeline.live_bytes(compiled["c"].scalar_program)
    points = state.size * state.size * statements
    for backend, label in (("c", "c"), ("codegen_np", "np")):
        busy = sum(sum(times) for times in measured.samples[backend].values())
        out["exec.%s.busy_ms" % label] = busy / rounds * 1e3
        out["exec.%s.mpoints_per_s" % label] = points * rounds / busy / 1e6
    out["exec.live_array_bytes"] = live_bytes
    out["fusion.clusters"] = counts.clusters
    out["fusion.contracted_arrays"] = counts.contracted_arrays
    out["fusion.cse_hoisted"] = counts.cse_hoisted
    floor = pipeline.call_floor(ctx, state.service)
    out["exec.call_floor_us"] = floor["execute_us"]
    out["service.execute_overhead_us"] = floor["overhead_us"]
    return out
