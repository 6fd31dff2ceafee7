"""``compile_cold``: ``Service.compile`` with an empty cache, then the reload.

Each round takes a fresh cache directory and compiles every cell cold:
``codegen_np`` at three levels (the pure pipeline) and ``c`` at the top
level (pipeline + host ``cc``).  The region shape changes every round, so
the generated C differs and the per-process kernel memo of
``repro.exec.native`` can never stand in for the compiler.  After the
timed rounds three child processes, one after the other, open every
round's populated cache with a fresh ``Service`` and time compile (disk
hit) + first execute (``.so`` load): the read side of the cache the rounds
wrote.  They have to be other processes, because this one already holds
every kernel in memory.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from e2ebench import oracle, pipeline
from e2ebench.workload import Interval, Measured, rounds_until, timed

NP_LEVELS = ("baseline", "c2", "c2+f4+cse")
C_LEVEL = "c2+f4+cse"
#: (class, level, backend) of every cold cell, in compile order.
CELLS = [("compile_np", level, "codegen_np") for level in NP_LEVELS] + [
    ("compile_c", C_LEVEL, "c")
]
MIN_ROUNDS = 3
#: A process can load a cached kernel for the first time only once, so the
#: reload of every round's cache is timed in this many child processes.
RELOAD_PASSES = 3
#: What the issue called each class of timed operation.
ISSUE_NAMES = {
    "compile_np": "compile_ms_np",
    "compile_c": "compile_ms_c",
    "reload_c": "reload_ms_c",
}
#: Region shapes stay near the benchsuite test sizes: compile cost does not
#: depend on them and the one execution per cell stays tiny.  Every round
#: takes another (n, m) of the square BASE_SIZE .. BASE_SIZE + SIZE_SPAN - 1.
BASE_SIZE = 10
SIZE_SPAN = 6


def setup(ctx) -> None:
    """Three untimed ``c`` compiles, so that what only the first compile of a
    process pays (lazy imports, the first ``cc``) is behind.  Their shape is
    below every timed one and another per rehearsal: the kernel memo cannot
    skip ``cc`` here either."""
    from repro.benchsuite import ALL_BENCHMARKS
    from repro.service import Service

    service = Service(cache_dir=ctx.scratch_dir("warm"))
    size = BASE_SIZE - 1 - ctx.rehearsal
    for bench in ALL_BENCHMARKS[:3]:
        service.compile(
            bench.source, level=C_LEVEL, config=oracle.bench_config(bench, size), backend="c"
        ).execute()


def round_shape(ctx, number: int):
    rows, columns = divmod((ctx.seed + number) % SIZE_SPAN**2, SIZE_SPAN)
    return BASE_SIZE + rows, BASE_SIZE + columns


def measure(ctx, state, seconds: float) -> Measured:
    from repro.benchsuite import ALL_BENCHMARKS
    from repro.service import Service

    measured = Measured()
    outputs = {}
    rounds = []  # (cache_dir, shape)
    deadline = time.perf_counter() + seconds
    benches = ALL_BENCHMARKS[:2] if ctx.smoke else ALL_BENCHMARKS
    for number in rounds_until(deadline, 1 if ctx.smoke else MIN_ROUNDS):
        if number >= SIZE_SPAN**2:
            break  # every shape used once; a repeat would hit the kernel memo
        shape = round_shape(ctx, number)
        cache_dir = ctx.scratch_dir("cold%d" % number)
        service = Service(cache_dir=cache_dir)
        for bench in benches:
            config = oracle.bench_config(bench, *shape)
            for klass, level, backend in CELLS:
                cell = "%s/%s" % (bench.name, level)
                request = "%s/%s#%d" % (cell, backend, number)
                with timed(ctx, measured, klass, cell, "service.compile", request):
                    compiled = service.compile(
                        bench.source, level=level, config=config, backend=backend
                    )
                if compiled.from_cache:
                    measured.problems.append("%s was not a cold compile" % request)
                outputs[(bench.name, shape, level, backend)] = compiled.execute()
        stats = service.stats()
        measured.kept.setdefault("stats", []).append(stats)
        rounds.append((cache_dir, shape))
    ctx.calibrator.burst()
    measured.kept["outputs"] = outputs
    measured.kept["benches"] = benches
    for number in range(1 if ctx.smoke else RELOAD_PASSES):
        _reload_pass(ctx, number, rounds, measured, [bench.name for bench in benches])
    return measured


def _reload_pass(ctx, number, rounds, measured: Measured, names) -> None:
    """Time the warm path in a process that has never seen these kernels."""
    job = {"rounds": rounds, "level": C_LEVEL, "benches": names}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    with ctx.spans.span("reload.child"):
        proc = subprocess.run(
            [sys.executable, "-m", "e2ebench.reload_child"],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
    if proc.returncode != 0:
        measured.problems.append("reload pass failed: %s" % proc.stderr.strip()[-400:])
        return
    for row in json.loads(proc.stdout.splitlines()[-1]):
        measured.add("reload_c", row["bench"], Interval(row["start"], row["end"]), row["factor"])
        if not row["from_cache"] or row["cc_invocations"]:
            measured.problems.append(
                "reload of %s at %r recompiled" % (row["bench"], row["shape"])
            )
        key = (row["bench"], tuple(row["shape"]), C_LEVEL, "reload#%d" % number)
        measured.kept["outputs"][key] = row["scalars"]


def teardown(ctx, state) -> None:
    pass


def verify(ctx, state, measured: Measured):
    """Every compiled cell's one execution against ``interp`` at ``baseline``."""
    from repro.benchsuite import get_benchmark
    from repro.exec import ExecutionResult

    checks, problems, references = 0, [], {}
    for (name, shape, level, backend), result in measured.kept["outputs"].items():
        bench = get_benchmark(name)
        if (name, shape) not in references:
            references[(name, shape)] = oracle.interp_baseline(
                bench, oracle.bench_config(bench, *shape)
            )
        reference = references[(name, shape)]
        checks += 1
        if backend.startswith("reload"):
            good = oracle.scalars_close(result, reference.scalars, bench.check_scalars)
        else:
            assert isinstance(result, ExecutionResult)
            good = oracle.matches_reference(bench, result, reference)
        if not good:
            problems.append(
                "%s %dx%d at %s on %s differs from interp/baseline"
                % (name, *shape, level, backend)
            )
    return checks, problems


def layers(ctx, state, measured: Measured) -> dict:
    """Walk the pipeline once per program through the public functions."""
    from repro.fusion import LEVELS_BY_NAME
    from repro.service import Service, fingerprint
    from repro.service.cache import ArtifactCache

    spans = ctx.spans
    counts = pipeline.Counts()
    size = BASE_SIZE + SIZE_SPAN  # a shape no timed round compiled
    benches = measured.kept["benches"]
    mark = len(spans.spans)
    for bench in benches:
        config = oracle.bench_config(bench, size)
        pipeline.probe(
            spans, counts, bench.source, config, LEVELS_BY_NAME[C_LEVEL], "c", bench.name
        )
    seconds = {}
    for span in spans.spans[mark:]:
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
    out = {
        "lang.parse_ms": seconds["lang.parse"] * 1e3,
        "lang.source_tokens": counts.source_tokens,
        "ir.normalize_ms": seconds["ir.normalize"] * 1e3,
        "ir.statements": counts.statements,
        "deps.asdg_ms": seconds["deps.asdg"] * 1e3,
        "deps.edges": counts.edges,
        "fusion.plan_ms": seconds["fusion.plan"] * 1e3,
        "fusion.clusters": counts.clusters,
        "fusion.contracted_arrays": counts.contracted_arrays,
        "fusion.cse_hoisted": counts.cse_hoisted,
        "scalarize.nests_ms": seconds["scalarize.nests"] * 1e3,
        "scalarize.loop_nests": counts.loop_nests,
        "scalarize.codegen_ms": seconds["scalarize.codegen"] * 1e3,
        "scalarize.code_bytes": counts.code_bytes,
        "native.cc_ms": seconds.get("native.cc", 0.0) * 1e3,
        "native.cc_invocations": counts.cc_invocations,
        "native.so_bytes": counts.so_bytes,
        "native.load_ms": seconds.get("native.load", 0.0) * 1e3,
    }

    # The service layer on its own: digest, cache tiers, counters.
    bench = benches[0]
    config = oracle.bench_config(bench, size)
    cache_dir = ctx.scratch_dir("probe")
    service = Service(cache_dir=cache_dir)
    digests = []
    for _ in range(50):
        with spans.span("service.digest") as span:
            digest = fingerprint.source_digest(
                bench.source, C_LEVEL, config, "codegen_np",
                service.self_temp_policy, service.simplify,
                code_version=service.cache.code_version,
            )
        digests.append(span.seconds)
    compiled = service.compile(bench.source, level=C_LEVEL, config=config, backend="codegen_np")
    assert compiled.digest == digest
    payload = service.cache.get(digest)
    puts, mem_gets, disk_gets = [], [], []
    for index in range(20):
        with spans.span("service.cache_put") as span:
            service.cache.put("%s-%d" % (digest, index), payload)
        puts.append(span.seconds)
        with spans.span("service.cache_get_mem") as span:
            service.cache.get(digest)
        mem_gets.append(span.seconds)
        cold_tier = ArtifactCache(root=cache_dir)
        with spans.span("service.cache_get_disk") as span:
            cold_tier.get(digest)
        disk_gets.append(span.seconds)
    out["service.digest_us"] = statistics.median(digests) * 1e6
    out["service.cache_put_ms"] = statistics.median(puts) * 1e3
    out["service.cache_get_mem_us"] = statistics.median(mem_gets) * 1e6
    out["service.cache_get_disk_us"] = statistics.median(disk_gets) * 1e6
    counters = [stats["metrics"]["counters"] for stats in measured.kept["stats"]]
    hits = sum(c.get("cache.hits", 0) for c in counters)
    misses = sum(c.get("cache.misses", 0) for c in counters)
    out["service.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["service.compiles"] = sum(c.get("service.compiles", 0) for c in counters) / len(counters)
    return out
