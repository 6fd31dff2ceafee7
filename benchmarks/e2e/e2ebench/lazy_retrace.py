"""``lazy_retrace``: a Python loop that re-traces ``repro.array`` every pass.

Each iteration records a three-step five-point smoothing chain plus a
reduction on fresh random input and calls ``compute()``.  The service is
warm, so every iteration is a trace-fingerprint cache hit: the time is
recording, fingerprinting, padding, one execution and slicing back.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from e2ebench import oracle
from e2ebench.workload import Measured

LEVEL = "c2+f4"
BACKEND = "codegen_np"
SIZES = (64, 256)
SMOKE_SIZES = (16, 32)
STEPS = 3
MIN_ITERATIONS = 200
WARM_ITERATIONS = 100
#: Iterations between yardstick bursts: about 25 ms of work to 3.5 ms of yardstick.
CALIBRATE_EVERY = 8
#: What the issue called each class of timed operation.
ISSUE_NAMES = {"iteration": "iter_ms"}


def _smooth(x):
    return (x + x.shift(0, 1) + x.shift(0, -1) + x.shift(1, 1) + x.shift(1, -1)) * 0.2


def record(values):
    """Build the lazy graph for one iteration: (smoothed array, its sum)."""
    import repro.array as ra

    x = ra.asarray(values)
    for _ in range(STEPS):
        x = _smooth(x)
    return x, x.sum()


def _shifted(x, axis, offset):
    out = np.zeros_like(x)
    source = [slice(None)] * x.ndim
    target = [slice(None)] * x.ndim
    if offset > 0:
        source[axis], target[axis] = slice(offset, None), slice(None, -offset)
    else:
        source[axis], target[axis] = slice(None, offset), slice(-offset, None)
    out[tuple(target)] = x[tuple(source)]
    return out


def reference(values):
    """The same chain in plain NumPy; out-of-edge reads are zero."""
    x = values
    for _ in range(STEPS):
        x = (
            x
            + _shifted(x, 0, 1)
            + _shifted(x, 0, -1)
            + _shifted(x, 1, 1)
            + _shifted(x, 1, -1)
        ) * 0.2
    return x, x.sum()


class State:
    def __init__(self, service, sizes) -> None:
        self.service = service
        self.sizes = sizes


def setup(ctx) -> State:
    import repro.array as ra
    from repro.service import Service

    sizes = SMOKE_SIZES if ctx.smoke else SIZES
    service = Service(level=LEVEL, backend=BACKEND, cache_dir=ctx.scratch_dir("lazy"))
    for size in sizes:
        smoothed, total = record(np.zeros((size, size)))
        ra.compute(smoothed, total, service=service)  # the one compile per shape
    for number in range(10 if ctx.smoke else WARM_ITERATIONS):  # untimed cache hits
        size = sizes[number % len(sizes)]
        ra.compute(*record(np.ones((size, size))), service=service)
    return State(service, sizes)


def measure(ctx, state: State, seconds: float) -> Measured:
    import repro.array as ra

    measured = Measured()
    rng = np.random.default_rng(ctx.seed)
    spans = ctx.spans
    compiles_before = state.service.stats()["metrics"]["counters"].get("service.compiles", 0)
    deadline = time.perf_counter() + seconds
    number = 0
    minimum = 10 if ctx.smoke else MIN_ITERATIONS
    while number < minimum or time.perf_counter() < deadline:
        if number % CALIBRATE_EVERY == 0:
            ctx.calibrator.burst()
        size = state.sizes[number % len(state.sizes)]
        values = rng.random((size, size))
        with spans.span("array.iteration", "n%d#%d" % (size, number)) as whole:
            with spans.span("array.record"):
                smoothed, total = record(values)
            with spans.span("array.compute"):
                got_array, got_total = ra.compute(smoothed, total, service=state.service)
        measured.add("iteration", "n%d" % size, whole)
        want_array, want_total = reference(values)
        if not (oracle.close(got_array, want_array) and oracle.close(got_total, want_total)):
            measured.problems.append("iteration %d (n=%d) differs from NumPy" % (number, size))
        number += 1
    ctx.calibrator.burst()
    counters = state.service.stats()["metrics"]["counters"]
    if counters.get("service.compiles", 0) != compiles_before:
        measured.problems.append("a warm iteration compiled")
    return measured


def teardown(ctx, state: State) -> None:
    pass


def verify(ctx, state: State, measured: Measured):
    return 0, []  # every iteration was checked against NumPy as it ran


def layers(ctx, state: State, measured: Measured) -> dict:
    from repro.array.graph import Trace
    from repro.array.lowering import lower_trace
    from repro.service import fingerprint

    spans = ctx.spans
    by_name = {}
    for span in spans.spans:
        by_name.setdefault(span.name, []).append(span.seconds)
    service = state.service
    size = state.sizes[-1]
    smoothed, total = record(np.ones((size, size)))
    trace = Trace((smoothed.node, total.node))
    digests, lowers = [], []
    for _ in range(20):
        with spans.span("array.trace_digest") as span:
            fingerprint.trace_digest(
                trace.canonical(), LEVEL, BACKEND, code_version=service.cache.code_version
            )
        digests.append(span.seconds)
        with spans.span("array.lower") as span:
            lower_trace(trace)
        lowers.append(span.seconds)
    snapshot = service.stats()["metrics"]
    execute = snapshot["timers"]["execute.%s" % BACKEND]
    counters = snapshot["counters"]
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    compute_us = statistics.fmean(by_name["array.compute"]) * 1e6
    return {
        "array.record_us": statistics.median(by_name["array.record"]) * 1e6,
        "array.trace_digest_us": statistics.median(digests) * 1e6,
        "array.lower_ms": statistics.median(lowers) * 1e3,
        "array.materialize_overhead_us": compute_us - execute["mean_s"] * 1e6,
        "array.traced_ops": len(trace.order),
        "service.cache_hit_ratio": hits / (hits + misses),
        "service.compiles": counters.get("service.compiles", 0),
    }
