"""The single source of truth for observability names.

Every span, counter and timer the stack emits is declared here once,
with its attributes and meaning.  ``docs/OBSERVABILITY.md`` embeds the
markdown this module generates (between ``BEGIN/END generated``
markers), and a test regenerates the tables and diffs them against the
docs — so the reference cannot drift from the code, and a span name
used in code but missing here fails the integration test.

Regenerate the doc tables with::

    PYTHONPATH=src python -m repro.obs.registry
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.util.tables import markdown_table


class SpanDef(NamedTuple):
    name: str
    attrs: Tuple[str, ...]
    emitted_by: str
    description: str


class CounterDef(NamedTuple):
    name: str
    description: str


class TimerDef(NamedTuple):
    name: str
    description: str


#: Every span name the stack can record.  A trailing ``*`` marks a
#: dynamic family (the prefix is fixed, the suffix varies per instance).
SPANS: List[SpanDef] = [
    SpanDef(
        "compile",
        ("digest", "level", "backend", "cache_hit"),
        "Service.compile",
        "One compile request end to end: digest probe, cache lookup, and "
        "(on a miss) the full pipeline.  cache_hit records the outcome.",
    ),
    SpanDef(
        "cache.lookup",
        ("digest", "hit"),
        "Service.compile",
        "The artifact-cache probe (memory tier, then disk tier).",
    ),
    SpanDef(
        "compile.normalize",
        (),
        "Service._build",
        "Parsing, semantic checking and normalization to array normal form.",
    ),
    SpanDef(
        "compile.deps",
        (),
        "fusion.pipeline.plan_block",
        "ASDG construction (UDV dependence analysis); once per basic block.",
    ),
    SpanDef(
        "compile.fusion",
        (),
        "fusion.pipeline.plan_block",
        "The level's fusion and contraction passes; once per basic block.",
    ),
    SpanDef(
        "compile.cse",
        (),
        "fusion.pipeline.plan_block",
        "Array-level redundancy elimination (value numbering, hoist "
        "selection and rewrite); once per basic block, +cse levels only.",
    ),
    SpanDef(
        "compile.scalarize",
        (),
        "Service._build",
        "Loop-nest construction and contraction rewrites.",
    ),
    SpanDef(
        "compile.codegen",
        (),
        "Service._build",
        "Rendering backend source (Python / NumPy / tile-parallel NumPy / C).",
    ),
    SpanDef(
        "compile.cc",
        (),
        "exec.native.kernel_for_source",
        "One host C-compiler invocation turning the rendered translation "
        "unit into a shared object; build-path (cache-miss) only, and "
        "only for a text no earlier build compiled — warm serves and "
        "other sizes of a program load the content-addressed .so without "
        "this span.",
    ),
    SpanDef(
        "trace.record",
        ("nodes", "outputs", "digest"),
        "array.materialize.compute_nodes",
        "Capturing one repro.array expression graph: canonical encoding "
        "plus the structural trace digest that addresses the artifact "
        "cache (input values excluded).",
    ),
    SpanDef(
        "trace.lower",
        ("digest", "statements", "arrays"),
        "array.materialize.compute_nodes",
        "Lowering a traced graph to normalized IR (one statement per "
        "traced op); runs only on an artifact-cache miss, nested inside "
        "that compile span.",
    ),
    SpanDef(
        "execute",
        ("digest", "backend", "plan"),
        "CompiledProgram.execute",
        "One request execution on the artifact's backend.  plan is the "
        "serving plan id (level/backend/workers/tile shape).",
    ),
    SpanDef(
        "par.sweep",
        ("cluster", "tiles", "workers"),
        "TileEngine.sweep",
        "One barrier-delimited tile sweep of a fusible cluster.  cluster "
        "is the generated kernel's name (stable within one artifact).",
    ),
    SpanDef(
        "par.tile",
        ("tile",),
        "TileEngine.sweep",
        "One tile of a sweep; recorded on the worker thread that ran it "
        "but parented to the submitting sweep span, so Perfetto shows "
        "per-worker timelines under one sweep.",
    ),
    SpanDef(
        "tune.measure",
        ("repeats", "aborted"),
        "tune.runner.Runner.measure",
        "Measuring one candidate plan: warmup, timed repeats, variance "
        "guard.",
    ),
    SpanDef(
        "daemon.request",
        ("digest", "status"),
        "daemon.server.Daemon.execute_frame",
        "One daemon execute request end to end: decode, admission, "
        "shared-memory transport, worker round trip, response.  status "
        "is the HTTP status (200, 503 shed, 413 oversized, 500 failed).",
    ),
    SpanDef(
        "comm.exchange",
        ("ordinal", "arrays", "planned_bytes", "measured_bytes",
         "model_bytes", "corner_bytes", "post_point", "wait_point"),
        "exec.mp_shard.execute_sharded",
        "One executed wire message of the mp-shard backend: the shared-"
        "memory write/read round trip moving one or more combined border "
        "strips between worker processes, recorded after the run with "
        "the worker-measured duration.",
    ),
    SpanDef(
        "daemon.dispatch",
        ("digest", "batch", "worker"),
        "daemon.pool.WorkerPool._run_batch",
        "One digest batch crossing a worker pipe: send, execute in the "
        "worker process, reply.  batch is the job count.",
    ),
]

#: Every counter name (``Metrics.incr``).  ``*`` suffixes are dynamic.
COUNTERS: List[CounterDef] = [
    CounterDef("cache.hits", "Service-level artifact-cache hits (any tier)."),
    CounterDef("cache.misses", "Service-level misses: the pipeline ran."),
    CounterDef("cache.memory_hits", "Hits served by the in-memory LRU tier."),
    CounterDef("cache.disk_hits", "Hits served by the on-disk store."),
    CounterDef("cache.memory_evictions", "LRU evictions from the memory tier."),
    CounterDef("cache.disk_evictions", "Size-bound evictions from disk."),
    CounterDef(
        "cache.invalid_artifacts",
        "On-disk artifacts dropped for stamp mismatch or corruption.",
    ),
    CounterDef("cache.write_errors", "Failed disk writes (degraded to memory)."),
    CounterDef(
        "cache.native_hits",
        "Compiled .so artifacts served from the content-addressed store "
        "(each one is a compiler invocation avoided).",
    ),
    CounterDef(
        "native.cc_invocations",
        "Host C-compiler runs performed: one per distinct C text, which "
        "carries no sizes, so one per program however many sizes of it "
        "are compiled (service.compiles counts those); zero on a warm "
        "serve.",
    ),
    CounterDef("service.compiles", "Cold compiles (misses that ran the pipeline)."),
    CounterDef("service.batches", "submit_many invocations."),
    CounterDef("execute.requests", "Requests executed by CompiledProgram."),
    CounterDef(
        "execute.tuned_requests", "Requests that ran under a tuned plan."
    ),
    CounterDef(
        "exec.bytes_zeroed",
        "Bytes of program storage zero-filled to start runs "
        "(emit_common.build_state; per run a constant of the program's "
        "layout).  Counted for runs loaded with Artifacts.metrics.",
    ),
    CounterDef(
        "exec.bytes_copied",
        "Bytes of caller-supplied initial arrays copied into that storage.",
    ),
    CounterDef(
        "plan.*",
        "Requests per serving plan id, e.g. plan.c2/np-par/w4/t32x1600.",
    ),
    CounterDef(
        "trace.materializations",
        "repro.array graph flushes (compute() or an implicit trigger).",
    ),
    CounterDef("par.sweeps", "Tile sweeps executed by the tile engine."),
    CounterDef("par.tiles", "Tiles executed across all sweeps."),
    CounterDef("par.serial_nests", "Nests that took the serial fallback."),
    CounterDef(
        "par.snapshots", "Read snapshots taken for self-hazard statements."
    ),
    CounterDef("tune.measurements", "Candidate measurements taken."),
    CounterDef("tune.extra_repeats", "Variance-guard re-measurements."),
    CounterDef("tune.candidates", "Candidate plans ranked by the prior."),
    CounterDef("tune.plan_applied", "Serves that applied a stored tuned plan."),
    CounterDef("tune.plan_misses", "Tuned serves with no stored plan."),
    CounterDef("tune.db_hits", "Tuning-database record hits."),
    CounterDef("tune.db_misses", "Tuning-database record misses."),
    CounterDef(
        "tune.db_invalid", "Tuning records dropped (stamp/signature mismatch)."
    ),
    CounterDef("tune.db_writes", "Tuning records persisted."),
    CounterDef("tune.db_write_errors", "Failed tuning-record writes."),
    CounterDef(
        "cache.lock_waits",
        "Contended cross-process build-lock acquisitions (another "
        "process was compiling the same digest).",
    ),
    CounterDef("daemon.requests", "Execute requests received by the daemon."),
    CounterDef(
        "daemon.shed",
        "Requests shed with 503 because the admission queue was full.",
    ),
    CounterDef(
        "daemon.oversized",
        "Requests rejected with 413 for exceeding the array-payload bound.",
    ),
    CounterDef(
        "daemon.errors",
        "Requests that failed (protocol errors, worker failures, timeouts).",
    ),
    CounterDef(
        "daemon.dispatches",
        "Digest batches sent to workers (one pipe round trip each).",
    ),
    CounterDef(
        "daemon.worker_restarts",
        "Worker processes restarted after a crash.",
    ),
    CounterDef(
        "daemon.requeued",
        "In-flight jobs requeued after their worker crashed.",
    ),
    CounterDef(
        "daemon.coalesced",
        "Replies served by coalescing an identical pure request in the "
        "same batch onto one execution (scalar-only, no input arrays).",
    ),
    CounterDef(
        "daemon.worker_compiles",
        "Cold compiles performed inside worker processes (with a shared "
        "cache and the build lock, one per digest across the pool).",
    ),
    CounterDef(
        "comm.exchanges",
        "Wire messages executed by the mp-shard backend (after "
        "redundancy elimination and combining).",
    ),
    CounterDef(
        "comm.bytes",
        "Border-strip bytes moved through shared memory, priced at the "
        "model's 8 bytes/element — directly comparable to "
        "comm.analyze_run predictions.",
    ),
    CounterDef(
        "comm.combined",
        "Exchange events merged into an already-counted wire message by "
        "\u00a75.5 message combining.",
    ),
    CounterDef(
        "comm.eliminated",
        "Exchange events skipped entirely by \u00a75.5 redundancy "
        "elimination (the border data was still clean).",
    ),
    CounterDef(
        "comm.fallback_nests",
        "Nests executed whole on rank 0 (gather/scatter) because clamped "
        "execution would violate an intra-nest cut-dimension dependence.",
    ),
    CounterDef(
        "comm.reduce_bytes",
        "Bytes of materialized reduction operands gathered to rank 0 so "
        "scalar folds match the oracle bit-for-bit (kept apart from "
        "comm.bytes: the model does not price reductions).",
    ),
    CounterDef(
        "comm.gather_bytes",
        "Bytes moved by whole-nest fallback gathers and scatters (also "
        "outside the model's strip accounting).",
    ),
    CounterDef(
        "comm.kernel_loads",
        "Per-nest kernels this mp-shard call loaded (Backend.load calls, "
        "summed over ranks): one per nest, kind and allocation on a "
        "program's first call on a rank pool, 0 on later calls — the ranks "
        "keep their kernels.",
    ),
    CounterDef(
        "comm.scalar_bcasts",
        "Scalar broadcasts mp-shard performed (counted on rank 0): one per "
        "folded reduction nest, plus one per owner whenever a pending "
        "contraction-corner scalar is about to be read or the run ends.",
    ),
    CounterDef(
        "comm.barrier_waits",
        "Barrier waits rank 0 performed during an mp-shard call (exact): "
        "for exchange steps that move bytes, reductions, gathers and "
        "broadcasts, plus two per segment on the call that first maps it; "
        "a message without copies takes none.",
    ),
    CounterDef(
        "daemon.worker_cc",
        "Host C-compiler invocations inside worker processes (zero on a "
        "warm .so cache).",
    ),
]

#: Every timer name (``Metrics.observe`` / ``Metrics.time``).  Timers
#: carry count/total/min/max, reservoir percentiles (p50/p95) and
#: cumulative histogram buckets (see ``repro.service.metrics``).
TIMERS: List[TimerDef] = [
    TimerDef("compile.total", "The whole pipeline, per cold compile."),
    TimerDef("compile.normalize", "Parse + check + normalize."),
    TimerDef("compile.deps", "ASDG construction (summed over blocks)."),
    TimerDef("compile.fusion", "Fusion/contraction passes (summed over blocks)."),
    TimerDef(
        "compile.cse",
        "Redundancy elimination (summed over blocks; +cse levels only).",
    ),
    TimerDef("compile.scalarize", "Loop-nest construction."),
    TimerDef(
        "trace.lower",
        "repro.array graph-to-IR lowering (cache misses only).",
    ),
    TimerDef("compile.codegen", "Backend source rendering."),
    TimerDef(
        "compile.cc",
        "Host C-compiler invocation (c backend, cache misses only).",
    ),
    TimerDef(
        "execute.*",
        "Per-backend execution time, e.g. execute.codegen_np, "
        "execute.np-par.",
    ),
    TimerDef("tune.total", "One whole tune() call."),
    TimerDef("tune.compile", "Per-level compilation inside tune()."),
    TimerDef("tune.measure", "One candidate measurement (incl. warmup)."),
    TimerDef(
        "comm.exchange",
        "One mp-shard wire message round trip (post write to wait read).",
    ),
    TimerDef(
        "daemon.request",
        "One daemon execute request end to end (front-end view).",
    ),
    TimerDef(
        "daemon.queue_wait",
        "Time a job spent in the admission queue before dispatch.",
    ),
    TimerDef(
        "daemon.dispatch",
        "One digest batch's worker round trip (pipe + execution).",
    ),
]


def spans_reference_markdown() -> str:
    """The span reference table embedded in docs/OBSERVABILITY.md."""
    return markdown_table(
        ("span", "attributes", "emitted by", "meaning"),
        [
            (
                "`%s`" % span.name,
                ", ".join("`%s`" % attr for attr in span.attrs) or "—",
                "`%s`" % span.emitted_by,
                span.description,
            )
            for span in SPANS
        ],
    )


def metrics_reference_markdown() -> str:
    """The counter + timer reference embedded in docs/OBSERVABILITY.md."""
    counters = markdown_table(
        ("counter", "meaning"),
        [("`%s`" % c.name, c.description) for c in COUNTERS],
    )
    timers = markdown_table(
        ("timer", "meaning"),
        [("`%s`" % t.name, t.description) for t in TIMERS],
    )
    return "### Counters\n\n%s\n\n### Timers\n\n%s" % (counters, timers)


def known_span_names() -> List[str]:
    return [span.name for span in SPANS]


def is_known_counter(name: str) -> bool:
    """Whether a recorded counter name is declared (families by prefix)."""
    for counter in COUNTERS:
        if counter.name.endswith("*"):
            if name.startswith(counter.name[:-1]):
                return True
        elif name == counter.name:
            return True
    return False


def registered_counter_names() -> List[str]:
    """Static (non-family) counter names, for zero-value registration.

    Dynamic families (``plan.*``) are excluded: they have no fixed name
    to pre-register.  Seeding these into a ``Metrics`` instance makes
    never-incremented counters visible in ``/metrics`` and
    ``repro stats`` instead of silently absent.
    """
    return [c.name for c in COUNTERS if not c.name.endswith("*")]


def is_known_timer(name: str) -> bool:
    for timer in TIMERS:
        if timer.name.endswith("*"):
            if name.startswith(timer.name[:-1]):
                return True
        elif name == timer.name:
            return True
    return False


if __name__ == "__main__":
    print("## Span reference\n")
    print(spans_reference_markdown())
    print("\n## Metrics reference\n")
    print(metrics_reference_markdown())
