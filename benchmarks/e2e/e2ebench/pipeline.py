"""Layer probes: the compile pipeline driven step by step from outside.

``Service.compile`` runs lang -> ir -> deps -> fusion -> scalarize ->
codegen -> cc in one call.  The traced run repeats that walk through each
layer's public function with a span around every step, which is how the
per-layer times and counts are obtained without touching ``src/``.
"""

from __future__ import annotations

import statistics
from typing import Dict

import numpy as np

ITEMSIZE = {"float": 8, "integer": 8, "boolean": 1}

#: The smallest program the language can express; executing it costs only
#: what every call pays (marshalling, dispatch, metrics).
ONE_POINT = """
program floor;
config n : integer = 1;
region R = [1..n, 1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 1.0;
  s := +<< [R] A;
end;
"""


def array_slots(scalar_program):
    """The arrays a compiled program allocates: (name, kind, shape) entries."""
    from repro.scalarize import c_abi

    return [entry for entry in c_abi(scalar_program) if entry.role == "array"]


def live_bytes(scalar_program) -> int:
    return sum(
        int(np.prod(entry.shape)) * ITEMSIZE[entry.kind]
        for entry in array_slots(scalar_program)
    )


class Counts:
    """Work counts read from public results; they repeat exactly."""

    def __init__(self) -> None:
        self.source_tokens = 0
        self.statements = 0
        self.edges = 0
        self.clusters = 0
        self.contracted_arrays = 0
        self.cse_hoisted = 0
        self.loop_nests = 0
        self.code_bytes = 0
        self.so_bytes = 0
        self.cc_invocations = 0

    def add_plan(self, plan) -> None:
        self.clusters += sum(block.cluster_count for block in plan.block_plans.values())
        self.contracted_arrays += len(plan.contracted_arrays())
        stats = plan.cse_stats()
        if stats is not None:
            self.cse_hoisted += stats.terms_hoisted


def probe(spans, counts: Counts, source: str, config, level, backend: str, request) -> None:
    """One cold compile, one public function at a time, one span each."""
    from repro.deps.analysis import build_asdg
    from repro.exec import native
    from repro.fusion import plan_program
    from repro.ir import normalize, walk_statements
    from repro.lang import check_source, tokenize
    from repro.scalarize import render_c_module, render_numpy, scalarize

    with spans.span("probe.compile", request):
        with spans.span("lang.parse"):
            checked = check_source(source)
        counts.source_tokens += len(tokenize(source))
        with spans.span("ir.normalize"):
            program = normalize(checked, config)
        counts.statements += sum(1 for _ in walk_statements(program.body))
        with spans.span("deps.asdg"):
            graphs = [build_asdg(block) for block in program.blocks()]
        counts.edges += sum(graph.edge_count() for graph in graphs)
        with spans.span("fusion.plan"):
            program_plan = plan_program(program, level)
        counts.add_plan(program_plan)
        with spans.span("scalarize.nests"):
            scalar_program = scalarize(program, program_plan)
        counts.loop_nests += len(scalar_program.loop_nests())
        with spans.span("scalarize.codegen"):
            if backend == "c":
                code = render_c_module(scalar_program)
            else:
                code = render_numpy(scalar_program)
        counts.code_bytes += len(code)
        if backend == "c" and native.cc_available():
            with spans.span("native.cc"):
                shared_object = native.compile_shared(code)
            counts.cc_invocations += 1
            counts.so_bytes += len(shared_object)
            with spans.span("native.load"):
                native.load_kernel(shared_object)


def call_floor(ctx, service, calls: int = 300) -> Dict[str, float]:
    """What one ``execute`` of a one-point program costs, in microseconds.

    ``overhead_us`` is ``CompiledProgram.execute`` minus the bare backend
    call (``native.run_kernel`` on the same loaded kernel).
    """
    from repro.exec import native
    from repro.scalarize import c_abi

    compiled = service.compile(ONE_POINT, backend="c")
    compiled.execute()
    kernel = native.kernel_for_source(compiled.code)
    abi = c_abi(compiled.scalar_program)
    whole, bare = [], []
    for _ in range(30 if ctx.smoke else calls):
        with ctx.spans.span("exec.floor") as span:
            compiled.execute()
        whole.append(span.seconds)
        with ctx.spans.span("exec.floor.kernel") as span:
            native.run_kernel(kernel, abi, None)
        bare.append(span.seconds)
    execute_us = statistics.median(whole) * 1e6
    return {
        "execute_us": execute_us,
        "overhead_us": execute_us - statistics.median(bare) * 1e6,
    }
