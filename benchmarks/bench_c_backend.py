"""Native-backend speedup and .so cache latency.

Times host-compiled C against the whole-region NumPy backend on three
fused element-bound pipelines — exactly the shape the paper's fusion
argument targets: ``codegen_np`` executes one whole-region pass per
statement (streaming every operand through memory each time), while the
``c`` backend runs the entire fused cluster in a single pass with
contracted values held in registers.

Also measures the serving-layer compile latency: a *cold* compile pays
one host ``cc`` invocation; a *warm* serve in a fresh process loads the
content-addressed ``.so`` artifact with zero compiler invocations.

Saves the table to ``results/c_backend.txt``; asserts the native backend
beats NumPy on every pipeline and that a warm serve is at least 5x
cheaper than a cold one.  Skips entirely on hosts without a C compiler.
"""

import tempfile
import time

import numpy as np
import pytest

from repro.exec import execute
from repro.exec.native import cc_available, find_cc
from repro.fusion import LEVELS_BY_NAME, plan_program
from repro.ir import normalize_source
from repro.scalarize import scalarize

pytestmark = pytest.mark.skipif(
    not cc_available(), reason="no host C compiler"
)

LEVEL = "c2+f4+cse"

#: Eight-statement elementwise chain: maximal fusion, full contraction —
#: NumPy pays eight memory passes, the fused C kernel pays one.
CHAIN = """program chain;
config n : integer = 512;
region R = [1..n, 1..n];
var A, B, C, D, E, F, G, H : [R] float;
var s : float;
begin
  [R] A := Index1 * 0.001 + Index2 * 0.002;
  [R] B := A * 1.5 + 0.25;
  [R] C := B * B - A;
  [R] D := C * 0.5 + B * 0.125;
  [R] E := D - C * 0.25;
  [R] F := E * E + D;
  [R] G := F * 0.75 - E;
  [R] H := G + F * 0.0625;
  s := +<< [R] H;
end;
"""

#: Stencil feeding an elementwise tail: the halo keeps the producer
#: materialized, the tail still fuses into one pass.
STENCIL = """program stencil;
config n : integer = 512;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var U, V, W : [R] float;
var s : float;
begin
  [R] U := Index1 * 0.01 + Index2 * 0.02;
  [I] V := (U@(1,0) + U@(-1,0) + U@(0,1) + U@(0,-1)) * 0.25;
  [I] W := (V - U) * (V - U) + V * 0.5;
  s := max<< [I] W;
end;
"""

#: Deep pipeline on a small region: whole-region NumPy pays a fixed
#: ufunc/slicing overhead per statement that dwarfs the element work,
#: while the fused kernel's cost tracks the region size alone — the
#: paper's small-array fusion argument.
SMALL_DEEP = """program smalldeep;
config n : integer = 48;
region R = [1..n, 1..n];
var A, B, C, D, E, F, G, H, P, Q : [R] float;
var s : float;
begin
  [R] A := Index1 * 0.25 + Index2;
  [R] B := A * 0.5 + 1.0;
  [R] C := B - A * 0.125;
  [R] D := C * C + B;
  [R] E := D * 0.75 - C;
  [R] F := E + D * 0.0625;
  [R] G := F * F - E;
  [R] H := G * 0.5 + F;
  [R] P := H - G * 0.25;
  [R] Q := P * 1.125 + H;
  s := +<< [R] Q;
end;
"""

CASES = [
    ("chain x8 fused", CHAIN),
    ("stencil + tail", STENCIL),
    ("small deep x10", SMALL_DEEP),
]

REPEATS = 7


def _compile(source):
    program = normalize_source(source)
    plan = plan_program(program, LEVELS_BY_NAME[LEVEL])
    return scalarize(program, plan)


def _best_time(scalar_program, backend_name):
    execute(scalar_program, backend_name)  # warm: compile memo, caches
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        execute(scalar_program, backend_name)
        best = min(best, time.perf_counter() - start)
    return best


def test_c_backend_speedup_and_cache_latency(save_result):
    lines = [
        "Native c backend vs codegen_np at %s (seconds, best of %d)"
        % (LEVEL, REPEATS),
        "compiler: %s" % find_cc(),
        "",
        "%-16s %12s %12s %9s" % ("pipeline", "codegen_np", "c", "np/c"),
    ]
    ratios = {}
    for label, source in CASES:
        scalar_program = _compile(source)
        c_result = execute(scalar_program, "c")
        np_result = execute(scalar_program, "codegen_np")
        for name, values in c_result.arrays.items():
            assert np.allclose(
                values, np_result.arrays[name], equal_nan=True
            ), "%s: %s diverged" % (label, name)
        np_time = _best_time(scalar_program, "codegen_np")
        c_time = _best_time(scalar_program, "c")
        ratios[label] = np_time / c_time
        lines.append(
            "%-16s %12.6f %12.6f %8.1fx"
            % (label, np_time, c_time, ratios[label])
        )

    # Serving-layer latency: cold compile (one cc run) vs warm serve of
    # the content-addressed .so from a fresh Service (new process would
    # behave identically; the artifact + .so both come from disk).
    from repro.service import Service

    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        Service(cache_dir=cache_dir).compile(CHAIN, level=LEVEL, backend="c")
        cold = time.perf_counter() - start
        warm_svc = Service(cache_dir=cache_dir)
        start = time.perf_counter()
        compiled = warm_svc.compile(CHAIN, level=LEVEL, backend="c")
        compiled.execute()
        warm = time.perf_counter() - start
        counters = warm_svc.metrics.snapshot()["counters"]
    lines += [
        "",
        "compile latency: cold %.1f ms (one cc run), warm %.1f ms "
        "(.so served from artifact cache, %d cc runs)"
        % (cold * 1e3, warm * 1e3, counters.get("native.cc_invocations", 0)),
    ]
    save_result("c_backend", "\n".join(lines))

    assert counters.get("native.cc_invocations", 0) == 0
    assert warm * 5 < cold, "warm serve %.1fms not 5x under cold %.1fms" % (
        warm * 1e3,
        cold * 1e3,
    )
    for label, ratio in ratios.items():
        assert ratio >= 1.0, "%s: c only %.2fx vs codegen_np" % (label, ratio)
